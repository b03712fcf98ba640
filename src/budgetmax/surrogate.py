"""Convex per-trial surrogate, its analytic gradient, and the weight update.

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

Weights follow projected gradient descent with the adaptive step
``eta_t = eta'_t / sqrt(2 t)`` where ``eta'_t = min(eta'_{t-1}, sqrt(n) /
|g_t|)`` starts at infinity and only shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .projection import project_onto_feasible


def reward_order(rewards) -> np.ndarray:
    """Indices sorted by descending reward; ties keep ascending index order."""
    return np.argsort(-np.asarray(rewards, dtype=float), kind="stable")


def _sorted_pieces(w, rewards, delta: float):
    rewards = np.asarray(rewards, dtype=float)
    order = reward_order(rewards)
    r_sorted = rewards[order]
    prefix = np.cumsum(w[order])
    eps = np.exp(-delta * prefix)
    drops = r_sorted - np.append(r_sorted[1:], 0.0)  # zero sentinel
    return order, eps, drops


def surrogate_value(w, rewards, costs, delta: float) -> float:
    """Value of the convex objective whose negative bounds expected profit."""
    w = np.asarray(w, dtype=float)
    c = np.asarray(costs, dtype=float)
    _, eps, drops = _sorted_pieces(w, rewards, delta)
    linear = delta * float(np.maximum(c, 0.0) @ w)
    convex = float(np.minimum(c, 0.0) @ (1.0 - np.exp(-delta * w)))
    reward = float(drops @ (1.0 - eps))
    return linear + convex - reward


def surrogate_gradient(w, rewards, costs, delta: float) -> np.ndarray:
    """Closed-form gradient of :func:`surrogate_value` at ``w``."""
    w = np.asarray(w, dtype=float)
    order, eps, drops = _sorted_pieces(w, rewards, delta)
    # lambda_j is a suffix sum over drops * eps in sorted order
    lam = np.cumsum((drops * eps)[::-1])[::-1]
    c = np.asarray(costs, dtype=float)[order]
    g_sorted = delta * (np.maximum(c, 0.0)
                        + np.minimum(c, 0.0) * np.exp(-delta * w[order])
                        - lam)
    g = np.empty_like(w)
    g[order] = g_sorted
    return g


@dataclass(frozen=True)
class WeightState:
    """Weights at the start of trial ``trial_index`` plus step-size memory.

    ``eta_prime`` is the running minimum of ``sqrt(n) / |g|`` over the
    gradients seen so far; ``None`` encodes its infinite initial value
    (no non-zero gradient observed yet).
    """

    w: np.ndarray
    eta_prime: float | None
    trial_index: int

    @classmethod
    def initial(cls, n: int) -> "WeightState":
        w = np.zeros(n)
        w.setflags(write=False)
        return cls(w=w, eta_prime=None, trial_index=1)


def step_size(eta_prime: float | None, trial_index: int) -> float:
    """Step actually taken on the given trial; 0 while eta_prime is unset."""
    if eta_prime is None:
        return 0.0
    return eta_prime / math.sqrt(2.0 * trial_index)


def update_weights(state: WeightState, g, z) -> WeightState:
    """One projected gradient step; returns the state for the next trial."""
    g = np.asarray(g, dtype=float)
    gnorm = float(np.linalg.norm(g))
    n = state.w.size
    if gnorm > 0.0:
        bound = math.sqrt(n) / gnorm
        if math.isfinite(bound):  # subnormal |g| behaves like zero
            eta_prime = bound if state.eta_prime is None else min(state.eta_prime, bound)
        else:
            eta_prime = state.eta_prime
    else:
        eta_prime = state.eta_prime
    if eta_prime is None:
        # No usable gradient yet: weights stay put.
        return WeightState(state.w, None, state.trial_index + 1)
    eta = step_size(eta_prime, state.trial_index)
    w_next = project_onto_feasible(state.w - eta * g, z)
    w_next.setflags(write=False)
    return WeightState(w_next, eta_prime, state.trial_index + 1)
