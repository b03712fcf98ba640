"""Weight learning and per-seed selection draws.

The learner gets full-information feedback: the projected gradient step on
trial ``t`` uses only the weights ``w_t`` and the revealed rewards and
costs, never the sampled selection. So the weight trajectory is the same
for every engine seed. :func:`learn` computes it once per stream, and a
:class:`Drawer` draws each seed's selections from it, a block of trials at a
time, from the seed's counter-based uniforms (see :mod:`budgetmax.sampler`).
Trial ``t`` reads only its own row of uniforms, so it draws the same
selection for a given weight vector no matter how many other trials were
drawn, and any trial replays on its own.

Instances whose largest energy reaches 1/2 are sampled through the
sampler's experimental wrapper. The weight update is the standard one
there too (driven by the true constants of the action set, which
degenerate to a zero step size at ``beta == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActionSet, Selection
from .sampler import RowLayout, sample_block, uniform_stream
from .surrogate import WeightState, surrogate_gradient, update_weights, step_size

# Weights per sampled block of trials: bounds the block's temporaries.
BLOCK_ENTRIES = 1 << 14


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
        self.layout = RowLayout(action_set)
        self.large_beta_mode = self.layout.wrapper
        self.partition = self.layout.partition

    def draw(self, w, seed: int, t: int) -> Selection:
        """Selection of engine seed ``seed`` on the 1-based trial ``t`` at weights ``w``."""
        uniforms = uniform_stream(seed, self.layout.width, t - 1).random((1, self.layout.width))
        member = sample_block(np.asarray(w, dtype=float)[None], uniforms, self.layout)
        return Selection.from_indices(np.flatnonzero(member[0]), self.layout.z)

    def draw_trials(self, weights, seed: int):
        """Yield ``(start, member)`` over consecutive blocks of trials.

        Row ``t`` of ``weights`` holds the weights of the 0-based trial
        ``t``; ``member`` marks the selections of trials ``start`` to
        ``start + len(member) - 1``, each equal to :meth:`draw` on its trial.
        """
        width = self.layout.width
        uniforms = uniform_stream(seed, width)
        rows = max(1, BLOCK_ENTRIES // self.layout.z.size)
        for start in range(0, len(weights), rows):
            block = weights[start:start + rows]
            yield start, sample_block(block, uniforms.random((len(block), width)), self.layout)
