"""Weight learning and per-seed selection draws.

The learner gets full-information feedback: the projected gradient step on
trial ``t`` uses only the weights ``w_t`` and the revealed rewards and
costs, never the sampled selection. So the weight trajectory is the same
for every engine seed. :func:`learn` computes it once per stream, and a
:class:`Drawer` draws each seed's selections from it. Randomness is split
into per-trial substreams of the seed, so trial ``t`` draws the same
selection for a given weight vector no matter how other trials consumed
randomness.

When the largest energy reaches 1/2 the standard class partition becomes
unavailable (its budget argument needs headroom), so the drawer switches to
a wrapper: heavy actions (``z_i >= 1/2``) are sampled alone via a biased
coin with heads probability ``sum_heavy(w_i) / 4``, and on tails the light
actions are sampled through a partition built as if the maximum energy were
1/2. The wrapper keeps every selection within budget and accepts energies up
to exactly 1, but it is experimental: no regret guarantee is claimed for it,
and the weight update is the standard one (driven by the true constants of
the action set, which degenerate to a zero step size at ``beta == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActionSet, Selection
from .sampler import build_partition, sample_selection
from .surrogate import WeightState, surrogate_gradient, update_weights, step_size

# Energies at or above this trigger the experimental wrapper.
LARGE_ENERGY_THRESHOLD = 0.5


@dataclass(frozen=True)
class TrialLog:
    """Outcome of one trial: what was picked, what it earned, how we stepped."""

    trial: int
    selection: Selection
    profit: float
    grad_norm: float
    eta: float


@dataclass(frozen=True)
class Trajectory:
    """The weights each trial draws from, and the step taken after it.

    Row ``t`` of the ``(T, n)`` array ``weights`` holds the weights used on
    the 0-based trial ``t``; ``grad_norm[t]`` is the norm of that trial's
    surrogate gradient and ``eta[t]`` the step size taken on it (0 while no
    non-zero gradient has been seen).
    """

    weights: np.ndarray
    grad_norm: np.ndarray
    eta: np.ndarray


def learn(action_set: ActionSet, trials) -> Trajectory:
    """One projected-gradient pass over a sized iterable of TrialData.

    Trials are consumed one at a time, so a lazily built sequence (such as
    a :class:`~budgetmax.environments.Stream`) never holds them all at once.

    Raises
    ------
    ValueError
        If a trial's vectors do not have one entry per action.
    """
    T, n = len(trials), action_set.n
    weights = np.empty((T, n))
    grad_norm = np.empty(T)
    eta = np.empty(T)
    state = WeightState.initial(n)
    for t, trial in enumerate(trials):
        if trial.n != n:
            raise ValueError(f"trial {t + 1} vectors have length {trial.n}, expected {n}")
        weights[t] = state.w
        g = surrogate_gradient(state.w, trial, action_set.delta)
        following = update_weights(state, g, action_set.z)
        grad_norm[t] = np.linalg.norm(g)
        eta[t] = step_size(following.eta_prime, state.trial_index)
        state = following
    for array in (weights, grad_norm, eta):
        array.setflags(write=False)
    return Trajectory(weights, grad_norm, eta)


class Drawer:
    """Draws selections for one action set; ``beta >= 1/2`` activates the wrapper."""

    def __init__(self, action_set: ActionSet):
        self.action_set = action_set
        self.large_beta_mode = action_set.beta >= LARGE_ENERGY_THRESHOLD
        self.heavy = np.flatnonzero(action_set.z >= LARGE_ENERGY_THRESHOLD)
        self.partition = build_partition(
            action_set, cap=LARGE_ENERGY_THRESHOLD if self.large_beta_mode else None)

    def draw(self, w, seed: int, t: int) -> Selection:
        """Selection of engine seed ``seed`` on the 1-based trial ``t`` at weights ``w``."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(t,)))
        if self.large_beta_mode:
            heavy_w = w[self.heavy]
            heavy_mass = float(np.sum(heavy_w))
            # heads: one heavy action alone, picked proportionally to weight
            if rng.random() < heavy_mass / 4.0:
                cum = np.cumsum(heavy_w / heavy_mass)
                cum[-1] = 1.0
                pick = self.heavy[int(np.searchsorted(cum, rng.random(), side="right"))]
                return Selection.from_indices([pick], self.action_set.z)
        return sample_selection(w, self.partition, self.action_set, rng)
