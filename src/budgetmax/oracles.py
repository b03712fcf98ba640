"""Brute-force and closed-form references used for validation.

Each group keeps as far from the production code as its purpose allows:

- the comparator, :func:`best_fixed_subset`, and :func:`discounted_profit`,
  the scalar form of its objective, use only ``ActionSet`` and ``BUDGET_SLACK``;
- the closed-form bounds, :func:`analytic_selection_bounds` and
  :func:`analytic_intersection_lower_bound`, and the KKT certificate,
  :func:`projection_certificate`, are formulas in plain numpy that share no
  code with the sampler or the projection they check;
- the exact oracles take their classes from ``RowLayout`` but compute the
  independent-draw product form in plain scalar code, and
  :func:`exact_expected_profit` takes its reward order from its own stable
  sort;
- the Monte Carlo estimators draw through the sampler itself, so they test
  it against the exact oracles, not apart from them: they prepare their
  weight row once as a ``sampler.SharedRow`` (the one shared-row path of
  ``sample_block``, which picks through a guide table per segment) and draw
  every block of ``MC_CHUNK`` rows from it. The draw pulls the uniforms a
  column at a time, and they fill each column it asks for from one
  sequential SFC64 stream into one reused column buffer; they count on
  the block's contiguous (column-major) action columns;
- :func:`finite_diff_gradient` and :func:`grid_projection` share no code with
  the surrogate or the projection they check.

Sizes are capped to keep the exhaustive searches honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ActionSet, BUDGET_SLACK
from .sampler import LARGE_ENERGY_THRESHOLD, RowLayout, SharedRow

MAX_EXHAUSTIVE_ACTIONS = 20
MAX_GRID_ACTIONS = 4
# Monte Carlo rows sampled per block: bounds the memory of a large estimate.
MC_CHUNK = 50_000


class CapacityError(ValueError):
    """Instance too large for an exhaustive oracle."""


@dataclass(frozen=True)
class ComparatorResult:
    """Best fixed subset under the discounted objective, summed over trials."""

    subset: tuple
    discounted_total: float


def discounted_profit(indices, rewards, costs, alpha: float, delta: float) -> float:
    """Discounted profit of an index set for one trial's vectors; the comparator's objective.

    The best reward and the negative costs are scaled by ``alpha``, the
    non-negative costs by ``delta``; the empty set earns 0. With ``alpha ==
    delta == 1`` this is the profit of :func:`core.selection_profits`.
    """
    idx = sorted({int(i) for i in indices})
    if not idx:
        return 0.0
    best = float(np.max(np.asarray(rewards, dtype=float)[idx]))
    c = np.asarray(costs, dtype=float)[idx]
    neg = float(np.sum(np.minimum(c, 0.0)))
    pos = float(np.sum(np.maximum(c, 0.0)))
    return alpha * best - alpha * neg - delta * pos


def best_fixed_subset(stream, alpha: float, delta: float) -> ComparatorResult:
    """Exact maximizer of the summed discounted profit over ``stream``'s feasible subsets.

    ``stream`` is any ``Stream``, built in memory, generated or replayed:
    its ``blocks()`` are read once and stacked into ``(T, n)`` matrices.
    Depth-first branch and bound over actions in descending-energy order.
    The upper bound adds every remaining action's non-negative additive part
    plus the best possible per-trial reward lift, so pruning (strictly below
    the incumbent) never discards an optimum. Ties in value resolve to the
    lexicographically smallest ascending index tuple; the empty set scores 0.
    """
    n = stream.n
    if n > MAX_EXHAUSTIVE_ACTIONS:
        raise CapacityError(f"comparator limited to {MAX_EXHAUSTIVE_ACTIONS} actions, got {n}")
    _, R, C = zip(*stream.blocks())
    R, C = np.concatenate(R), np.concatenate(C)
    T = R.shape[0]
    pos = np.maximum(C, 0.0)
    neg = np.minimum(C, 0.0)
    # additive (reward-independent) contribution of including action i
    additive = -(alpha * neg.sum(axis=0) + delta * pos.sum(axis=0))
    z = stream.action_set.z
    order = np.argsort(-z, kind="stable")

    # suffix_max[k, t]: best reward at trial t among actions order[k:]
    suffix_max = np.zeros((n + 1, T))
    for k in range(n - 1, -1, -1):
        suffix_max[k] = np.maximum(suffix_max[k + 1], R[:, order[k]])
    add_gain = np.maximum(additive[order], 0.0)
    suffix_add = np.concatenate([np.cumsum(add_gain[::-1])[::-1], [0.0]])

    best_value = 0.0
    best_subset: tuple = ()

    def consider(value: float, chosen: list) -> None:
        nonlocal best_value, best_subset
        key = tuple(sorted(chosen))
        if value > best_value or (value == best_value and key < best_subset):
            best_value = value
            best_subset = key

    def dfs(k: int, cur_max: np.ndarray, value: float, energy: float, chosen: list) -> None:
        if k == n:
            consider(value, chosen)
            return
        lift = float(np.maximum(suffix_max[k] - cur_max, 0.0).sum())
        if value + alpha * lift + suffix_add[k] < best_value:
            return
        i = int(order[k])
        if energy + z[i] <= 1.0 + BUDGET_SLACK:
            new_max = np.maximum(cur_max, R[:, i])
            gain = alpha * float((new_max - cur_max).sum()) + float(additive[i])
            chosen.append(i)
            dfs(k + 1, new_max, value + gain, energy + float(z[i]), chosen)
            chosen.pop()
        dfs(k + 1, cur_max, value, energy, chosen)

    consider(0.0, [])
    dfs(0, np.zeros(T), 0.0, 0.0, [])
    return ComparatorResult(best_subset, best_value)


def _class_draws(w, layout: RowLayout) -> list:
    """``(actions, within-class probabilities, full draws, residual mass)`` per class.

    Plain scalar code, apart from the sampler's vectorized block, so a slip
    in either one shows; only the classes of ``layout`` are shared. Classes
    without weight make no draw and are left out.
    """
    if layout.wrapper:
        raise ValueError(f"exact oracles describe the standard sampler, not the large-energy "
                         f"wrapper used when an energy is at least {LARGE_ENERGY_THRESHOLD}")
    w = np.asarray(w, dtype=float)
    draws = []
    for actions in layout.classes.values():
        weights = [float(w[i]) for i in actions]
        mass = math.fsum(weights)
        if mass <= 0.0:
            continue
        scaled = layout.delta * mass
        full = math.floor(scaled)
        draws.append((actions, np.array(weights) / mass, full, scaled - full))
    return draws


def _selection_probs(draws, n: int) -> np.ndarray:
    probs = np.zeros(n)
    for actions, p, full, residual in draws:
        probs[actions] = 1.0 - (1.0 - p) ** full * (1.0 - residual * p)
    return probs


def _subset_indices(subset, n: int) -> list:
    """The distinct indices of ``subset``, ascending; a ``ValueError`` names one outside ``[0, n)``."""
    indices = set()
    for i in subset:
        if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)) or not 0 <= i < n:
            raise ValueError(f"subset index must be an integer in [0, {n}), got {i!r}")
        indices.add(int(i))
    return sorted(indices)


def _hit_prob(draws, subset) -> float:
    members = set(int(i) for i in subset)
    miss = 1.0
    for actions, probs, full, residual in draws:
        inside = np.array([int(a) in members for a in actions])
        p = float(np.sum(probs[inside]))
        miss *= (1.0 - p) ** full * (1.0 - residual * p)
    return 1.0 - miss


def analytic_selection_bounds(w, i, delta: float) -> tuple[float, float]:
    """Sandwich on the marginal: ``1 - exp(-delta*w_i) <= P(i in S) <= delta*w_i``.

    Raises ``ValueError`` unless ``i`` is an integer in ``[0, n)``.
    """
    w = np.asarray(w, dtype=float)
    (i,) = _subset_indices([i], w.size)
    wi = float(w[i])
    return 1.0 - math.exp(-delta * wi), delta * wi


def analytic_intersection_lower_bound(w, subset, delta: float) -> float:
    """Lower bound ``1 - exp(-delta * sum_{i in subset} w_i)`` on P(S hits ``subset``).

    Raises ``ValueError`` unless every subset index is an integer in ``[0, n)``.
    """
    w = np.asarray(w, dtype=float)
    idx = _subset_indices(subset, w.size)
    mass = float(np.sum(w[idx])) if idx else 0.0
    return 1.0 - math.exp(-delta * mass)


def exact_selection_probs(w, action_set: ActionSet) -> np.ndarray:
    """P(i in S) for every action, from the independent-draw product form.

    An action with within-class probability p in a class making m full draws
    with residual mass rho is missed with probability (1-p)^m * (1 - rho*p).
    Raises ``ValueError`` for an action set sampled through the wrapper.
    """
    return _selection_probs(_class_draws(w, RowLayout(action_set)), action_set.n)


def exact_intersection_prob(w, action_set: ActionSet, subset) -> float:
    """P(S hits ``subset``), exactly, via the same product form per class.

    Raises ``ValueError`` for an action set sampled through the wrapper, or
    for a subset index that is not an integer in ``[0, n)``.
    """
    subset = _subset_indices(subset, action_set.n)
    return _hit_prob(_class_draws(w, RowLayout(action_set)), subset)


def exact_expected_profit(w, action_set: ActionSet, rewards, costs) -> float:
    """Exact E[profit] of the sampler's selection at weights ``w`` on one trial.

    E[max reward] telescopes over the descending-reward prefixes: the max is
    at least r_{s_j} exactly when the selection hits the top-j prefix. Costs
    enter through the exact per-action marginals. Raises ``ValueError`` for
    an action set sampled through the wrapper.
    """
    draws = _class_draws(w, RowLayout(action_set))
    rewards = np.asarray(rewards, dtype=float)
    order = np.argsort(-rewards, kind="stable")
    r_sorted = rewards[order]
    drops = r_sorted - np.append(r_sorted[1:], 0.0)
    expected_max = 0.0
    for j in range(action_set.n):
        if drops[j] == 0.0:
            continue
        expected_max += drops[j] * _hit_prob(draws, order[:j + 1])
    marginals = _selection_probs(draws, action_set.n)
    expected_cost = float(np.asarray(costs, dtype=float) @ marginals)
    return expected_max - expected_cost


def _sample_count(n_samples) -> int:
    """``n_samples`` as an ``int``; a ``ValueError`` unless it is an integer of at least 1."""
    if (isinstance(n_samples, (bool, np.bool_)) or not isinstance(n_samples, (int, np.integer))
            or n_samples < 1):
        raise ValueError(f"n_samples must be an integer of at least 1, got {n_samples!r}")
    return int(n_samples)


def _membership_blocks(w, action_set: ActionSet, n_samples: int, seed: int):
    """Membership blocks of ``n_samples`` independent draws at ``w``, ``MC_CHUNK`` rows at a time.

    Each draw is sampled as the learner samples a trial, from uniforms of
    one sequential ``np.random.Generator(np.random.SFC64(seed))`` stream.
    ``w`` is prepared once as a ``SharedRow``, and every block is drawn
    from it. The draw asks for the columns it reads one at a time, and each
    is filled when asked for with the stream's next ``rows`` doubles, in
    one reused buffer: the stream holds the pulled columns of every block,
    in pull order, and nothing else. Each block is a column-major ``(rows,
    n)`` array, so an action's memberships are contiguous.
    """
    row = SharedRow(w, RowLayout(action_set))
    rng = np.random.Generator(np.random.SFC64(seed))
    buffer = np.empty(min(MC_CHUNK, n_samples))
    rows = 0

    def column(j):
        return rng.random(out=buffer[:rows])

    for start in range(0, n_samples, MC_CHUNK):
        rows = min(MC_CHUNK, n_samples - start)
        yield row.draw(rows, column)


def estimate_selection_probs(w, action_set: ActionSet, n_samples: int,
                             seed: int) -> np.ndarray:
    """Monte Carlo per-action selection frequencies.

    Each action's selections are counted on its contiguous column of a
    block. Raises ``ValueError`` unless ``n_samples`` is an integer of at
    least 1. No standard error comes with them: a frequency's own,
    ``sqrt(f (1 - f) / N)``, is 0 for an action the sample never drew, so
    a caller testing them against exact marginals ``p`` takes
    ``sqrt(p (1 - p) / N)``.
    """
    n_samples = _sample_count(n_samples)
    counts = np.zeros(action_set.n)
    for member in _membership_blocks(w, action_set, n_samples, seed):
        counts += [np.count_nonzero(column) for column in member.T]
        del member  # released before the next block is drawn, not after
    return counts / n_samples


def estimate_hit_rates(w, action_set: ActionSet, subsets, n_samples: int,
                       seed: int) -> np.ndarray:
    """Monte Carlo frequencies with which the selection hits each subset.

    Raises ``ValueError`` unless ``n_samples`` is an integer of at least 1
    and every subset index is an integer in ``[0, n)``, before any draw.
    """
    n_samples = _sample_count(n_samples)
    subset_idx = [np.array(_subset_indices(sub, action_set.n), dtype=int) for sub in subsets]
    counts = np.zeros(len(subset_idx))
    for member in _membership_blocks(w, action_set, n_samples, seed):
        for k, idx in enumerate(subset_idx):
            if idx.size:
                counts[k] += np.count_nonzero(member[:, idx].any(axis=1))
        del member  # released before the next block is drawn, not after
    return counts / n_samples


def finite_diff_gradient(func, w, h: float) -> np.ndarray:
    """Central-difference gradient of ``func`` at ``w``.

    Falls back to a forward difference at coordinates within ``h`` of the
    non-negativity boundary so evaluation points stay in the domain.
    """
    if not h > 0.0:
        raise ValueError("step h must be positive")
    w = np.array(w, dtype=float)
    g = np.zeros_like(w)
    for i in range(w.size):
        up = w.copy()
        up[i] += h
        if w[i] >= h:
            down = w.copy()
            down[i] -= h
            g[i] = (func(up) - func(down)) / (2.0 * h)
        else:
            g[i] = (func(up) - func(w)) / h
    return g


class ProjectionCertificate(NamedTuple):
    """KKT multiplier recovered from a claimed projection, and its residuals."""

    lam: float
    stationarity: float
    complementarity: float
    feasibility: float


def projection_certificate(y, z, x) -> ProjectionCertificate:
    """KKT residuals of ``x`` as the projection of ``y``; all 0 exactly when it is.

    ``lam`` is recovered from ``x`` alone. With free coordinates
    (``0 < x_i < 1`` and ``z_i > 0``), where the optimum has ``x_i = y_i -
    lam * z_i``, it is their least-squares fit, clipped at 0; this reads 0
    when the budget is slack, because there ``x_i = y_i``. With none, it is
    the smallest ``lam >= 0`` that holds every such coordinate at 0 there.
    The residuals are ``max |x - clamp(y - lam * z, 0, 1)|``
    (stationarity), ``lam * |1 - <x, z>|`` (complementarity) and the largest
    violation of the box or the budget (feasibility).
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    if not y.shape == z.shape == x.shape or y.ndim != 1:
        raise ValueError("y, z and x must be 1-d vectors of equal length")

    used = float(x @ z)
    moving = z > 0.0
    free = moving & (x > 0.0) & (x < 1.0)
    if np.any(free):
        zf = z[free]
        lam = max(0.0, float(zf @ (y[free] - x[free])) / float(zf @ zf))
    else:
        at_zero = moving & (x <= 0.0)
        lam = float(np.max(y[at_zero] / z[at_zero], initial=0.0))
    stationarity = float(np.max(np.abs(x - np.clip(y - lam * z, 0.0, 1.0)), initial=0.0))
    complementarity = lam * abs(1.0 - used)
    feasibility = max(0.0, used - 1.0, float(np.max(-x, initial=0.0)),
                      float(np.max(x - 1.0, initial=0.0)))
    return ProjectionCertificate(lam, stationarity, complementarity, feasibility)


def grid_projection(y, z, resolution: float) -> np.ndarray:
    """Nearest feasible grid point to ``y`` by exact branch and bound.

    All coordinates but the last are enumerated; for each feasible prefix
    the best last coordinate has a closed form (the grid value nearest
    ``y[-1]`` within the leftover budget), which keeps the search exact at a
    fraction of the full grid's cost. The search is a branch and bound
    (Land & Doig 1960): the first coordinate's values are visited nearest
    ``y[0]`` first, a point whose first ``n - 1`` coordinates are already
    farther from ``y`` than the best point found is skipped, and the search
    stops when the next ``x0`` leaves none. Of the points at the least
    squared distance it returns the one with the first ``x0``, then the
    first middle coordinates, in grid order, as the search over every point
    would. Capped at 4 actions.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    n = y.size
    if n > MAX_GRID_ACTIONS:
        raise CapacityError(f"grid oracle limited to {MAX_GRID_ACTIONS} actions, got {n}")
    if not 0.0 < resolution <= 1.0:
        raise ValueError("resolution must lie in (0, 1]")
    k_top = int(math.floor(1.0 / resolution + 1e-9))
    values = np.minimum(np.arange(k_top + 1) * resolution, 1.0)
    target = int(np.clip(round(y[-1] / resolution), 0, k_top))

    def best_last(budget_left: np.ndarray) -> np.ndarray:
        # grid value for the last coordinate nearest y[-1] within the budget
        if z[-1] <= 0.0:
            return np.full(budget_left.shape, values[target])
        # min against k_top while still float: the raw quotient can overflow int64
        k_max = np.minimum(np.floor(budget_left / (z[-1] * resolution) + 1e-9), k_top)
        return values[np.minimum(target, k_max).astype(int)]

    if n == 1:
        return best_last(np.array([1.0]))

    # mesh over coordinates 1..n-2 (everything between the first and last)
    mid_dims = n - 2
    if mid_dims > 0:
        grids = np.meshgrid(*([values] * mid_dims), indexing="ij")
        mid = np.stack([g.ravel() for g in grids], axis=1)
    else:
        mid = np.zeros((1, 0))
    mid_energy = mid @ z[1:-1]
    mid_dist2 = ((mid - y[1:-1]) ** 2).sum(axis=1)

    # x0 is searched in chunks of rows, the rows nearest y[0] first. Rounding
    # is monotone, so d2 is at least (x0 - y[0])**2 + mid_dist2, and a mid
    # point past the incumbent beside a chunk's nearest row is past it beside
    # every row of that chunk and of the chunks after it; with none left the
    # search ends. A chunk's rows and mid points are in grid order, so its
    # first minimum is its least (d2, x0, mid) in that order, and it replaces
    # the incumbent when that is smaller.
    x0_dist2 = (values - y[0]) ** 2
    visit = np.argsort(x0_dist2, kind="stable")
    chunk = max(1, 2**16 // len(mid))
    best = (np.inf, values.size)  # (d2, x0 index) of the incumbent
    best_x = None
    for start in range(0, values.size, chunk):
        keep = np.flatnonzero(x0_dist2[visit[start]] + mid_dist2 <= best[0])
        if not keep.size:
            break
        rows = np.sort(visit[start:start + chunk])
        x0 = values[rows, None]
        left = 1.0 - x0 * z[0] - mid_energy[keep]
        x_last = best_last(np.maximum(left, 0.0))
        d2 = x0_dist2[rows, None] + mid_dist2[keep] + (x_last - y[-1]) ** 2
        d2 = np.where(left >= -1e-12, d2, np.inf)
        i, j = np.unravel_index(int(np.argmin(d2)), d2.shape)
        if (d2[i, j], rows[i]) < best:
            best = (float(d2[i, j]), int(rows[i]))
            best_x = np.concatenate([x0[i], mid[keep[j]], [x_last[i, j]]])
    assert best_x is not None  # x = 0 is always feasible
    return best_x
