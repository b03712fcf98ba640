"""Randomized subset selection driven by a weight vector.

Actions are grouped into geometric energy classes: class ``q >= 1`` holds the
energies in ``(tau**q * beta, tau**(q-1) * beta]`` and zero-energy actions go
to a class of their own. Given feasible weights ``w``, each class with weight
mass ``S_q`` contributes ``floor(delta * S_q)`` independent draws from the
within-class distribution ``w_i / S_q`` plus one residual draw that yields an
action only with the leftover fractional probability ``delta*S_q -
floor(delta*S_q)``. Duplicates collapse, so the result is a set. Because a
class-``q`` action costs at most ``tau**(q-1) * beta`` energy and receives at
most ``delta * S_q + 1`` draws, the total energy of the union never exceeds
the unit budget: summed over classes it is bounded by ``beta / (1 - tau) +
delta / tau = sqrt(beta) + (1 - sqrt(beta)) = 1``.

Per-action marginals are sandwiched as ``1 - exp(-delta * w_i) <= P(i
selected) <= delta * w_i``, and any fixed subset ``Z`` is hit with
probability at least ``1 - exp(-delta * sum_{i in Z} w_i)``.

When the largest energy reaches 1/2 the standard partition becomes
unavailable (its budget argument needs headroom), so the sampler switches to
a wrapper: heavy actions (``z_i >= 1/2``) are sampled alone via a biased
coin with heads probability ``sum_heavy(w_i) / 4``, and on tails the light
actions are sampled through a partition built as if the maximum energy were
1/2. The wrapper keeps every selection within budget and accepts energies up
to exactly 1, but it is experimental: no regret guarantee is claimed for it.

Every draw reads one uniform from a fixed-width row, one row per selection.
The row layout is fixed per action set (:class:`RowLayout`), because
``w <= 1`` caps ``floor(delta * S_q)`` at ``floor(delta * |G_q|)``. A
*segment* is the set of actions one draw chooses among; its columns are its
full-draw columns, then one residual column:

- in wrapper mode the heavy actions come first, as a segment with no
  full-draw column: column 0 is its residual column, with residual mass
  ``S_heavy / 4`` (heads when it draws);
- then each class in ascending ``q``: ``floor(delta * |G_q|)`` full-draw
  columns (column ``j`` is used when ``j < floor(delta * S_q)``) and the
  residual column, with residual mass ``r = delta*S_q -
  floor(delta*S_q)``;
- zero columns pad the width ``K`` to a multiple of 4.

A draw from a segment with actions ``a_0 < a_1 < ...`` picks with a value
``u`` in ``[0, 1)``: ``a_k`` with ``k = np.searchsorted(cum, u,
side="right")``, where ``cum = np.cumsum(w[a]) / S`` and ``S`` is the last
entry of that cumsum. A full draw picks with its column's uniform. A
residual column's uniform ``u`` makes the residual draw when ``u < r``,
which has probability ``r``, and that draw picks with ``u / r``: given ``u
< r`` it is again uniform on ``[0, 1)`` (Devroye 1986, "Non-Uniform Random
Variate Generation"), and in floating point ``u < r`` implies ``u / r <
1``. On heads the row yields the heavy pick alone. One weight row
shared by many rows (Monte Carlo) is prepared once as a :class:`SharedRow`:
each segment's ``k`` comes from a guide table built once per weight row
and block height, which inverts ``cum`` exactly (Chen & Asau 1974). It
pulls a block's uniforms one column at a time, from a column source: each
column its draws read, once, in ascending order, just before the segment
that reads it, so a caller makes only those, and holds one column at a
time. A weight row per row makes one search over all the draws of its
rows. Every selection returned is checked against the budget once more: by
its member count where ``count * beta`` fits (:attr:`RowLayout.cleared`),
else by summing its energies.

The uniforms of engine seed ``s`` are ``Generator(Philox(key=s))`` doubles
(Salmon et al. 2011, "Parallel random numbers: as easy as 1, 2, 3"), read
row by row: row ``t`` holds stream values ``t*K`` to ``t*K + K - 1``.
Philox yields four 64-bit words per counter step and each double takes one,
so ``Philox(key=s).advance(t * K // 4)`` lands exactly on row ``t`` and any
row can be read on its own (:func:`uniform_stream`). :func:`draw_trials` draws
an engine seed's selections from the weight rows of consecutive trials from
any first trial on, all the rows it is handed at once; trial ``t`` reads
only its own row of uniforms, so it draws the same selection at a given
weight vector no matter how many other trials were drawn, and any trial
replays on its own. A selection is an array of action indices in ascending
order.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
# numpy loads its random module lazily, at first use: in a run that is
# draw_trials, after the output directory exists, where an import that
# cannot map its library would fail outside any cleanup. Load it now.
import numpy.random

from .core import ActionSet, BUDGET_SLACK
from .projection import _clamp, is_feasible

# Class key reserved for zero-energy actions (they never strain the budget).
ZERO_CLASS = 0
# Energies at or above this trigger the experimental wrapper.
LARGE_ENERGY_THRESHOLD = 0.5
# Level of a padding column: above every full-draw count, so never a draw.
_NEVER = 1 << 62


class RowLayout:
    """How the selections of one action set are drawn, column by column.

    ``wrapper`` says whether the heavy-action wrapper is on. ``classes``
    maps each class index ``q``, in ascending order, to the ascending
    indices of its light actions (``z_i < 1/2``: every action when the
    wrapper is off), and ``delta`` scales their draws. The classes are cut
    at ``beta``, the largest energy, or 1/2 in wrapper mode, and ``delta =
    (1 - sqrt(beta))**2``. ``width`` is the row width ``K`` (a multiple of
    4): each segment's ``full_columns`` full-draw columns, then its residual
    column (``residual_columns``; ``is_residual`` marks them), then padding.
    ``cleared`` is the most members a selection can have and still be known
    to fit the unit budget by its count alone. The remaining attributes
    index the columns of a row and the concatenated segments (``order``
    lists their actions, segment by segment).
    """

    def __init__(self, action_set: ActionSet):
        z = self.z = action_set.z
        # A selection of c members has energy at most c * beta. einsum's products
        # are exact, and it adds the c nonzero ones (adding a zero is exact) with
        # at most c - 1 roundings on any term's path, in any order, each by a
        # factor of at most 1 + u, u = 2**-53: it returns at most c * beta * (1 +
        # u)**(c - 1) <= c * beta * (1 + 2 * (c - 1) * u), as (c - 1) * u <= 1.
        # cleared is the largest c <= n that keeps this at most 1, found in exact
        # integers on beta = p / q, so a selection of at most cleared members
        # fits the budget whether summed exactly or by einsum, at any n. The pad
        # takes at most one member off floor(1 / beta) below about 6e7 members.
        p, q = action_set.beta.as_integer_ratio()
        cleared = min(z.size, q // p) if p else z.size
        while cleared * p * (2**53 + 2 * (cleared - 1)) > q * 2**53:
            cleared -= 1
        self.cleared = cleared
        self.wrapper = action_set.beta >= LARGE_ENERGY_THRESHOLD
        beta = LARGE_ENERGY_THRESHOLD if self.wrapper else action_set.beta
        tau = 1.0 - math.sqrt(beta)
        delta = self.delta = tau * tau
        # Below beta of about 3.1e-33, sqrt(beta) vanishes next to 1 and tau
        # rounds to 1.0, so the classes never narrow: every positive energy
        # goes to class 1. Its at most delta * n + 1 = n + 1 draws of energy
        # at most beta still fit the budget.
        log_tau = math.log(tau) if tau < 1.0 else 0.0
        buckets: dict[int, list[int]] = {}
        light = np.flatnonzero(z < LARGE_ENERGY_THRESHOLD)
        for i, zi in zip(light.tolist(), z[light].tolist()):
            q = ZERO_CLASS
            if zi > 0.0:
                q = 1
                if tau < 1.0:
                    # q >= 1 such that tau**q * beta < zi <= tau**(q-1) * beta. The
                    # log estimate can be off by one at class boundaries, so correct it.
                    q = max(1, math.floor(math.log(zi / beta) / log_tau) + 1)
                    while zi > tau ** (q - 1) * beta:
                        q -= 1
                    while zi <= tau ** q * beta:
                        q += 1
            buckets.setdefault(q, []).append(i)
        self.classes = {q: np.array(idx) for q, idx in sorted(buckets.items())}

        segments = list(self.classes.values())
        scales = [delta] * len(segments)
        full = [math.floor(delta * len(actions)) for actions in segments]
        if self.wrapper:
            segments.insert(0, np.flatnonzero(z >= LARGE_ENERGY_THRESHOLD))
            scales.insert(0, 0.25)
            full.insert(0, 0)
        # Per action of the concatenated segments: its segment. Per column of
        # a row: its segment; its level, which must fall below the column's
        # bound in [floor(scale * S) | residual mass] for the column to be a
        # draw (j for full-draw column j; for a residual column, its own
        # uniform, read at draw time; never for a padding column).
        count = len(segments)
        segment_of, column_segment, level, is_residual = [], [], [], []
        for s, (actions, f) in enumerate(zip(segments, full)):
            segment_of += [s] * len(actions)
            column_segment += [s] * (f + 1)
            level += [*range(f), _NEVER]
            is_residual += [0] * f + [1]
        self.width = -(-len(level) // 4) * 4
        pad = self.width - len(level)
        self.column_segment, self.level, is_residual = np.array(
            [column_segment + [0] * pad, level + [_NEVER] * pad, is_residual + [0] * pad])
        self.bound = self.column_segment + count * is_residual
        self.is_residual = is_residual.astype(bool)
        self.residual_columns = [end - 1 for end in itertools.accumulate(f + 1 for f in full)]
        self.full_columns = full
        self.order = np.concatenate(segments)
        self.segment_of = np.array(segment_of)
        ends = list(itertools.accumulate(len(actions) for actions in segments))
        self.spans = list(zip([0] + ends[:-1], ends))
        self.last = np.array([end - 1 for end in ends])
        self.scale = np.array(scales)


def uniform_stream(seed: int, width: int, start: int = 0) -> np.random.Generator:
    """Engine seed ``seed``'s uniforms, positioned at the start of row ``start``.

    Each ``.random((rows, width))`` call reads the next ``rows`` rows.
    """
    if width % 4:
        raise ValueError(f"row width must be a multiple of 4, got {width}")
    if start < 0:
        raise ValueError(f"row index must be non-negative, got {start}")
    bit_generator = np.random.Philox(key=int(seed))
    bit_generator.advance(int(start) * width // 4)
    return np.random.Generator(bit_generator)


def draw_trials(weights, seed: int, layout: RowLayout, start: int = 0) -> np.ndarray:
    """Engine seed ``seed``'s boolean ``(m, n)`` membership of ``m`` consecutive trials.

    Row ``i`` of ``weights`` and of the result belong to the 0-based trial
    ``start + i``; all ``m`` rows are drawn by one :func:`sample_block`
    call. Trial ``t`` reads row ``t`` of the seed's uniforms, so each
    selection equals :func:`sample_block` at its weights on
    ``uniform_stream(seed, layout.width, t)``'s first row, whatever
    ``start`` is.
    """
    uniforms = uniform_stream(seed, layout.width, start).random((len(weights), layout.width))
    return sample_block(weights, uniforms, layout)


def sample_block(weights, uniforms, layout: RowLayout) -> np.ndarray:
    """Boolean ``(m, n)`` membership of the selections drawn from ``m`` rows of uniforms.

    ``weights`` has one row per uniform row, or a single row shared by all
    of them; every weight row must lie in the feasible polytope, up to
    ``FEASIBILITY_TOL``, and is drawn as its clamp into ``[0, 1]``. Row ``r``
    of the result marks the selection drawn at ``weights[r]`` (or the shared
    row) from ``uniforms[r]`` as the module docstring lays out.

    A single row shared by many rows (Monte Carlo) is prepared as a
    :class:`SharedRow` and drawn once, pulling its columns from
    ``uniforms``: each draw finds what ``np.searchsorted`` finds on its own
    segment's ``cum`` through a guide table per segment (see
    :func:`_guide_inverse`). With a weight row per
    row, one search covers the draws the rows make (see
    :func:`_draw_per_row`). Uniforms must lie in ``[0, 1)``; every value a
    draw picks with is checked (a residual draw's ``u / r``), and a residual
    column whose uniform makes no draw is only compared. A shared
    weight row yields a column-major (Fortran-ordered) result, so each
    action's memberships are contiguous; a weight row per row yields a
    row-major one. The values do not depend on the order.

    Raises
    ------
    ValueError
        If the shapes disagree, a weight row is infeasible
        (:func:`budgetmax.projection.is_feasible`), a draw picks with a
        uniform outside ``[0, 1)`` or NaN, or a selection's energy exceeds
        ``1 + BUDGET_SLACK``. Each returned selection is checked: one of at
        most ``layout.cleared`` members fits by its count, and the energies
        of every other are summed.
    """
    weights = np.asarray(weights, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    m, n = uniforms.shape[0], layout.z.size
    if (weights.ndim != 2 or weights.shape[1] != n or weights.shape[0] not in (1, m)
            or uniforms.shape != (m, layout.width)):
        raise ValueError(f"expected weights of shape (1 or {m}, {n}) and uniforms of "
                         f"shape ({m}, {layout.width}), got {weights.shape} and {uniforms.shape}")
    if len(weights) < m:
        return SharedRow(weights[0], layout).draw(m, lambda j: uniforms[:, j])
    cum, full, residual = _segments(weights, layout)
    member = np.zeros((m, n), dtype=bool)
    _draw_per_row(member, uniforms, cum, full, residual, layout)
    return _finish(member, uniforms[:, 0] < residual[:, 0] if layout.wrapper else None, layout)


class SharedRow:
    """One weight row, prepared once to draw any number of blocks of selections.

    The weight row (shape ``(n,)``) is checked and its segments' ``cum``,
    ``full`` (full-draw counts) and ``residual`` (masses) computed as
    :func:`sample_block` does for every row, once. :meth:`draw` takes a
    block height and a column source, and returns what :func:`sample_block`
    returns at this row on that block's uniforms. It asks only for the
    columns its draws read: in each segment with weight mass, each
    full-draw column ``j < floor(scale * S)`` and the residual column, and
    in wrapper mode column 0, which gives the heads mask; the other
    full-draw columns and the padding are never asked for, so a caller
    need not make them. Each segment with mass has a guide table
    (:func:`_guide_inverse`) whose targets are flat offsets into a
    column-major block of a given height, so the tables are kept for the
    last height drawn and built again when it changes.
    """

    def __init__(self, weights, layout: RowLayout):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != layout.z.shape:
            raise ValueError(f"expected a weight row of shape {layout.z.shape}, "
                             f"got {weights.shape}")
        cum, full, residual = _segments(weights[None], layout)
        self.layout = layout
        self.cum, self.full, self.residual = cum[0], full[0], residual[0]
        self._rows, self._inverses = None, None

    def draw(self, rows: int, column) -> np.ndarray:
        """Column-major boolean ``(rows, n)`` membership drawn from a block of ``rows`` rows.

        ``column(j)`` returns uniform column ``j`` of the block, ``rows``
        values. It is asked only for the columns the draws read (see the
        class docstring), each once and in ascending order, and a column is
        read through before the next is asked for, so a source may hand
        back one reused buffer, filled from a sequential stream as each
        column is asked for. Raises a ``ValueError`` as :func:`sample_block`
        does, or if a column is not of shape ``(rows,)``.
        """
        layout = self.layout
        if rows != self._rows:
            # no weight mass: no full draw, and no uniform falls below 0
            self._rows, self._inverses = rows, [
                _guide_inverse(self.cum[start:stop], layout.order[start:stop] * rows)
                if self.full[s] or self.residual[s] > 0.0 else None
                for s, (start, stop) in enumerate(layout.spans)]
        last = u = None

        def pull(j):
            # the wrapper's column 0 gives the heads mask, then the heavy draw: one request
            nonlocal last, u
            if j != last:
                last, u = j, column(j)
                if u.shape != (rows,):
                    raise ValueError(f"expected uniform column {j} of shape ({rows},), "
                                     f"got {u.shape}")
            return u

        heads = pull(0) < self.residual[0] if layout.wrapper else None
        if heads is not None and self._inverses[0] is None:
            # with no heavy mass no heavy draw checks the uniforms that fire
            # heads: only a negative one fires, and the check names it
            _check_unit(pull(0)[heads])
        # column-major, like the uniform columns each segment's draws read
        member = np.zeros((rows, layout.z.size), dtype=bool, order="F")
        _draw_shared(member, pull, self._inverses, self.full, self.residual, layout)
        return _finish(member, heads, layout)


def _segments(weights, layout: RowLayout):
    """Per weight row: each segment's ``cum``, full-draw count and residual mass.

    Raises a ``ValueError`` unless every row is feasible.
    """
    if not is_feasible(weights, layout.z):
        raise ValueError("weights must lie in the feasible polytope")
    # a weight within tolerance outside [0, 1] is drawn as its clamp, so every
    # segment's cum rises and floor(scale * S) cannot pass its full-draw
    # columns: a float sum of k values, each at most 1, cannot round above k
    ordered = weights[:, layout.order]
    _clamp(ordered, out=ordered)
    cum = np.empty(ordered.shape)
    for start, stop in layout.spans:
        np.add.accumulate(ordered[:, start:stop], axis=1, out=cum[:, start:stop])
    mass = cum[:, layout.last]
    scaled = mass * layout.scale
    full = np.floor(scaled)
    cum /= np.where(mass > 0.0, mass, 1.0)[:, layout.segment_of]
    return cum, full, scaled - full


def _finish(member, heads, layout: RowLayout) -> np.ndarray:
    """Apply the wrapper's heads rule to ``member`` and check every selection's budget.

    ``heads`` marks the rows whose heavy residual column 0 draws (its
    uniform is below the heavy residual mass), or is ``None`` outside
    wrapper mode. A row on heads keeps the heavy pick alone.
    """
    if heads is not None:
        member[heads] &= layout.z >= LARGE_ENERGY_THRESHOLD
    # a selection whose count the layout clears fits the budget, so only the
    # rest are summed; when they are over half the block, gathering them costs
    # more than summing the whole block (which cannot fail a cleared row);
    # the bools are summed as bytes: below 256 actions, with no cast buffer
    count = np.add.reduce(member.view(np.uint8), axis=1, dtype=np.min_scalar_type(layout.z.size))
    uncleared = np.flatnonzero(count > layout.cleared)
    if uncleared.size:
        summed = member if 2 * uncleared.size > len(member) else member[uncleared]
        energy = np.einsum("ij,j->i", summed, layout.z)
        if energy.max() > 1.0 + BUDGET_SLACK:
            raise ValueError(f"selection energy {float(energy.max())} exceeds the unit budget")
    return member


def _draw_shared(member, column, inverses, full, residual, layout: RowLayout) -> None:
    """Mark the draws of every row at one shared weight row, segment by segment.

    ``column(j)`` returns uniform column ``j`` of the block; each column a
    draw reads is asked for once, in ascending order, just before the
    segment's draws that read it. ``member`` is column-major, so action
    ``a`` of row ``r`` is entry ``a * rows + r`` of its flat view, and each
    column's picks are marked through one flat index. ``inverses`` holds
    each segment's guide table for this block height, or ``None`` for a
    segment without weight mass, which makes no draw and reads no column.
    """
    rows = len(member)
    flat = member.reshape(-1, order="F")
    for s, (invert, last, count) in enumerate(zip(
            inverses, layout.residual_columns, layout.full_columns)):
        if invert is None:
            continue
        first, draws = last - count, int(full[s])
        every = np.arange(rows) if draws else None
        for j in range(first, first + draws):
            picks = invert(column(j))
            picks += every
            flat[picks] = True
        u = column(last)
        fired = np.flatnonzero(u < residual[s])
        # with no residual mass only a negative uniform fires, and the check names it
        picks = invert(u.take(fired) / (residual[s] or 1.0))
        picks += fired
        flat[picks] = True


def _check_unit(u) -> None:
    """Raise a ``ValueError`` naming the first of the uniforms ``u`` outside ``[0, 1)`` or NaN."""
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        bad = u[~((u >= 0.0) & (u < 1.0))][0]
        raise ValueError(f"uniforms must lie in [0, 1), got {float(bad)!r}")


def _guide_inverse(cum, targets):
    """``u -> targets[np.searchsorted(cum, u, side="right")]`` for uniforms ``u`` in ``[0, 1)``.

    ``cum`` is a segment's non-decreasing cumulative mass over its total,
    ending at 1. The inverse is a guide table (Chen & Asau 1974, "On
    generating random variates from an empirical distribution"). Runs of
    equal ``cum`` values (zero-weight actions) are collapsed into
    ``values``. Cell ``c`` of the table covers ``[c / cells, (c + 1) /
    cells)`` with ``cells = 2**p`` at least four per value, and
    ``start[c]`` counts the values at or below ``c / cells``. A uniform in
    cell ``c`` lies at or above those and below the values past the cell,
    so a branch-free binary search over the few values strictly inside the
    cell finishes the count. ``u * cells`` is exact and the rest are
    comparisons, so the count is searchsorted's bit for bit. A uniform
    outside ``[0, 1)`` or NaN raises a ``ValueError``.
    """
    run_end = np.append(cum[1:] != cum[:-1], True)
    values = cum[run_end]
    targets = targets[np.append(True, run_end[:-1])]  # each run's first action
    cells = 1 << (4 * values.size - 1).bit_length()
    scaled = values * cells
    cell = np.floor(scaled)
    inner = cell != scaled
    # a value counts from the cell at its ceiling on
    start = np.bincount((cell + inner).astype(np.intp), minlength=cells).cumsum()
    inside = int(np.bincount(cell[inner].astype(np.intp)).max(initial=0))
    steps = [1 << k for k in reversed(range(inside.bit_length()))]
    # ahead[k][j] is values[j + steps[k] - 1], and +inf (above every uniform) past the end
    padded = np.append(values, np.full(steps[0] if steps else 0, np.inf))
    ahead = [padded[step - 1:] for step in steps]

    def invert(u):
        _check_unit(u)
        j = start.take((u * cells).astype(np.intp))
        for step, values_ahead in zip(steps, ahead):
            below = values_ahead.take(j) <= u
            j += step * below if step > 1 else below
        return targets.take(j)

    return invert


def _draw_per_row(member, uniforms, cum, full, residual, layout: RowLayout) -> None:
    """Mark the draws each row makes at its own weight row, in one search.

    Segment ``k`` of weight row ``r`` is keyed ``(r * segments + k) + 1j *
    cum``: complex numbers order lexicographically, which keeps segments
    apart while comparing the ``cum`` values exactly. The keys are built in
    place, their real and imaginary parts filled, with no complex arithmetic
    (a ``-0.0`` in ``cum`` stays ``-0.0``, and compares equal to ``+0.0``).
    Only the draws a row actually makes are looked up, and only the values
    they pick with are checked.
    """
    segments = layout.scale.size
    keys = np.empty(cum.shape, complex)
    keys.real = layout.segment_of + np.arange(0, segments * len(cum), segments)[:, None]
    keys.imag = cum
    # full-draw column j is a draw when j < floor(scale * S); a residual
    # column when its own uniform is below the residual mass
    level = np.where(layout.is_residual, uniforms, layout.level)
    valid = level < np.concatenate((full, residual), axis=1)[:, layout.bound]
    draws = np.flatnonzero(valid)
    rows, cols = np.divmod(draws, layout.width)
    picked = uniforms.ravel()[draws]
    # a residual draw picks with u / r (with no residual mass only a
    # negative uniform fires, and the check names it)
    fold = np.flatnonzero(layout.is_residual[cols])
    r = residual[rows[fold], layout.column_segment[cols[fold]]]
    picked[fold] /= np.where(r > 0.0, r, 1.0)
    _check_unit(picked)
    query = layout.column_segment[cols] + 1j * picked
    query.real += rows * segments
    picks = np.searchsorted(keys.ravel(), query, side="right") - rows * cum.shape[1]
    member[rows, layout.order[picks]] = True
