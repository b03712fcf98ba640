"""Convex per-trial surrogate, its analytic gradient, and the learner.

For one trial, sort actions by descending reward (ties keep ascending index
order) and write ``eps_j = exp(-delta * sum_{k<=j} w_{s_k})`` for the sorted
prefix sums. The surrogate is

    F(w) = delta * <c_pos, w> + sum_i c_neg_i * (1 - exp(-delta * w_i))
           - sum_j (r_{s_j} - r_{s_{j+1}}) * (1 - eps_j)

with a zero sentinel after the last sorted reward. Each term bounds one
piece of the expected profit of the randomized selection driven by ``w``:
``delta * w_i`` is an upper bound on the selection probability of action i
(so the positive costs), ``1 - exp(-delta * w_i)`` a lower bound (so the
reward from negative costs), and ``1 - eps_j`` a lower bound on hitting the
top-j reward prefix. Hence ``F`` is convex on the non-negative orthant and
``-F(w)`` lower-bounds the expected profit, so descending ``F`` steers the
sampler toward profitable subsets. The gradient has the closed form

    g_{s_j} = delta * (c_pos_{s_j} + c_neg_{s_j} * exp(-delta * w_{s_j})
                       - lambda_j),
    lambda_j = sum_{k >= j} (r_{s_k} - r_{s_{k+1}}) * eps_k.

The learner is projected online gradient descent on ``F`` (Zinkevich 2003)
with the adaptive step ``eta_t = eta'_t / sqrt(2 t)``, where ``eta'_t =
min(eta'_{t-1}, sqrt(n) / |g_t|)`` starts at infinity and only shrinks; no
step is taken while it is infinite. The feedback is full-information: the
step on trial ``t`` uses only the weights ``w_t`` and the revealed rewards
and costs (row ``t`` of the stream's matrices), never the sampled
selection. So the weight trajectory is the same for every engine seed:
:func:`learn_blocks` computes it once per stream, reading the trials one
block at a time as they come, and a run draws every seed's selections from
a whole block before the next one is read (:func:`budgetmax.sampler.draw_trials`).
A generated stream draws each block of rewards and costs only when the
learner asks for it (:func:`budgetmax.environments.generate`), so a run
holds neither the whole ``(T, n)`` trajectory nor the ``(T, n)``
rewards and costs; :func:`learn` runs over a stream's blocks and
concatenates theirs. A
trial's reward order, drops and sorted cost parts do not depend on ``w``,
so :func:`learn_blocks` finds them for its whole block at once. The
reward order comes from numpy's default (unstable, SIMD) sort; only the
rows whose sorted rewards hold an equal neighbour are sorted again stably,
so ties keep ascending index order and every bit matches one stable sort.
Consecutive projections have close inputs, so :func:`learn_blocks` starts
each one's Newton iteration at the previous step's multiplier
(:mod:`budgetmax.projection`), which changes the work but not the bits of
the answer, and records the multiplier in :attr:`Trajectory.lam`.
Instances that the sampler draws through its wrapper (largest energy at
least 1/2) learn the same way, with the action set's own constants; at
``beta == 1``, ``delta == 0`` makes every gradient zero, so no step is
ever taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ActionSet
from .environments import Stream
from .projection import _project_from


def _take_rows(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(values, order, axis=-1)`` by flat indices, which numpy gathers faster."""
    *rows, n = values.shape
    starts = np.arange(0, math.prod(rows) * n, n).reshape(*rows, 1) if n else 0
    return np.take(values, order + starts)


def _sorted_rewards(rewards) -> tuple[np.ndarray, np.ndarray]:
    """``(order, r_sorted)``: the reward order and the rewards taken in it.

    The order is ``np.argsort(-rewards, axis=-1, kind="stable")``: the
    unstable default sort (SIMD on most hosts) orders every row; a row
    whose sorted rewards do not strictly fall holds a tie (0.0 and -0.0
    count as one, and so does any NaN), and only those rows are sorted
    again with ``kind="stable"``, so ties keep ascending index order.
    """
    rewards = np.atleast_1d(np.asarray(rewards, dtype=float))  # a scalar orders as one action
    order = np.argsort(-rewards, axis=-1)
    r_sorted = _take_rows(rewards, order)
    tied = ~np.logical_and.reduce(r_sorted[..., :-1] > r_sorted[..., 1:], axis=-1)
    if tied.any():  # a 1-d vector gives a 0-d mask, which indexes it as one row
        order[tied] = np.argsort(-rewards[tied], axis=-1, kind="stable")
        r_sorted[tied] = _take_rows(rewards[tied], order[tied])
    return order, r_sorted


def _trial_pieces(rewards, costs):
    """``(order, drops, c_pos, c_neg)``: the parts of a trial that do not depend on ``w``.

    ``rewards`` and ``costs`` are one trial's vectors or ``(rows, n)``
    blocks of them, and each result has their shape. ``order`` is the
    reward order, ``drops`` the sorted rewards minus their successors (zero
    sentinel after the last), and ``c_pos``/``c_neg`` the positive and
    negative parts of the costs, in reward order.
    """
    order, r_sorted = _sorted_rewards(rewards)
    after = np.zeros_like(r_sorted)
    after[..., :-1] = r_sorted[..., 1:]
    c = _take_rows(np.asarray(costs, dtype=float), order)
    return order, r_sorted - after, np.maximum(c, 0.0), np.minimum(c, 0.0)


def _gradient(w, order, drops, c_pos, c_neg, delta: float) -> np.ndarray:
    """The closed-form gradient at ``w`` from one trial's :func:`_trial_pieces`."""
    w_sorted = w[order]
    eps = np.exp(-delta * np.add.accumulate(w_sorted))
    # lambda_j is a suffix sum over drops * eps in sorted order
    lam = np.add.accumulate((drops * eps)[::-1])[::-1]
    g = np.empty_like(w)
    g[order] = delta * (c_pos + c_neg * np.exp(-delta * w_sorted) - lam)
    return g


def surrogate_value(w, rewards, costs, delta: float) -> float:
    """Value of the convex objective whose negative bounds expected profit."""
    order, drops, c_pos, c_neg = _trial_pieces(rewards, costs)
    w_sorted = np.asarray(w, dtype=float)[order]
    eps = np.exp(-delta * np.cumsum(w_sorted))
    linear = delta * float(c_pos @ w_sorted)
    convex = float(c_neg @ (1.0 - np.exp(-delta * w_sorted)))
    reward = float(drops @ (1.0 - eps))
    return linear + convex - reward


def surrogate_gradient(w, rewards, costs, delta: float) -> np.ndarray:
    """Closed-form gradient of :func:`surrogate_value` at ``w``."""
    return _gradient(np.asarray(w, dtype=float), *_trial_pieces(rewards, costs), delta)


@dataclass(frozen=True)
class Trajectory:
    """The weights each trial draws from, and the step taken after it.

    Row ``t`` of the ``(T, n)`` array ``weights`` holds the weights used on
    the 0-based trial ``t``; ``grad_norm[t]`` is the norm of that trial's
    surrogate gradient and ``eta[t]`` the step size taken on it (0 while no
    non-zero gradient has been seen). ``lam[t]`` is the multiplier of the
    budget in the projection that ends that step: 0.0 when the box clamp
    already meets the budget or no step is taken, positive exactly when the
    budget binds. :func:`learn` returns all of a stream's trials;
    :func:`learn_blocks` yields one block of them at a time, whose row 0 is
    the block's first trial.
    """

    weights: np.ndarray
    grad_norm: np.ndarray
    eta: np.ndarray
    lam: np.ndarray


def learn_blocks(action_set: ActionSet, blocks):
    """One projected-gradient pass over blocks of trials, as they come.

    ``blocks`` yields ``(start, rewards, costs)`` triples, consecutive
    trials from the first: the 0-based index of the block's first trial,
    from which each trial's step size is taken, and ``(rows, n)`` arrays.
    Each is read only once the block before it has been consumed, so a
    generator can draw or check it then. For each block this yields
    ``(start, rewards, costs, trajectory)``: the block and the
    :class:`Trajectory` of its trials. The block comes back next to its
    trajectory because drawing a trial's selection and scoring it needs
    both, and the caller may not hold the blocks otherwise. The values
    are not checked here (a :class:`~budgetmax.environments.Stream` checks
    its matrices when built, and generated blocks pass that check by
    construction). The step on a trial reads only the current weights and
    that trial's row, so the pass holds one block of state; each
    trajectory's arrays are read-only.

    Raises
    ------
    ValueError
        If a trial's gradient norm is not finite, which finite but huge
        rewards or costs can cause; the message names the 1-based trial.
        The blocks before it have been yielded by then.
    """
    n, delta, z = action_set.n, action_set.delta, action_set.z
    w = np.zeros(n)
    eta_prime = math.inf
    multiplier = 0.0
    for start, rewards, costs in blocks:
        rows = len(rewards)
        weights = np.empty((rows, n))
        grad_norm = np.empty(rows)
        eta = np.zeros(rows)
        lam = np.zeros(rows)
        # an overflowing |g| is raised below, naming its trial; the state is
        # restored before the yield, so the consumer never runs under it
        with np.errstate(over="ignore"):
            order, drops, c_pos, c_neg = _trial_pieces(rewards, costs)
            for i, t in enumerate(range(start, start + rows)):
                weights[i] = w
                g = _gradient(w, order[i], drops[i], c_pos[i], c_neg[i], delta)
                # the bits of np.linalg.norm on a vector, without its wrapper
                grad_norm[i] = norm = math.sqrt(float(g.dot(g)))
                if not math.isfinite(norm):
                    raise ValueError(f"trial {t + 1}: the surrogate gradient norm is not finite "
                                     f"({norm}); rewards or costs are too large")
                if norm > 0.0:
                    eta_prime = min(eta_prime, math.sqrt(n) / norm)
                if eta_prime < math.inf:
                    eta[i] = step = eta_prime / math.sqrt(2.0 * (t + 1))
                    # finite by construction, so unchecked; warm-started from the last multiplier
                    w, multiplier = _project_from(w - step * g, z, multiplier)
                    lam[i] = multiplier
        # The pieces stay bound until the next block's replace them, so the
        # heap keeps their pages for it (freed first, glibc would hand them
        # back to the system and fault them in again on every block).
        for array in (weights, grad_norm, eta, lam):
            array.setflags(write=False)
        yield start, rewards, costs, Trajectory(weights, grad_norm, eta, lam)


def learn(stream: Stream) -> Trajectory:
    """The whole trajectory of a stream: :func:`learn_blocks` over its ``blocks()``, concatenated.

    The stream is read only by its blocks, so a replay's
    :class:`~budgetmax.environments.SpooledStream` is learned one block
    at a time from its spool, and a generated stream one block at a time
    as it is drawn, as a stream in memory is.

    Raises
    ------
    ValueError
        As :func:`learn_blocks`, if a trial's gradient norm is not finite.
    """
    T, n = stream.T, stream.action_set.n
    whole = Trajectory(np.empty((T, n)), np.empty(T), np.empty(T), np.empty(T))
    for start, _, _, block in learn_blocks(stream.action_set, stream.blocks()):
        for array, part in zip(vars(whole).values(), vars(block).values()):
            array[start:start + len(part)] = part
    for array in vars(whole).values():
        array.setflags(write=False)
    return whole
