"""Weight learning and per-seed selection draws.

The learner gets full-information feedback: the projected gradient step on
trial ``t`` uses only the weights ``w_t`` and the revealed rewards and
costs (row ``t`` of the stream's matrices), never the sampled selection. So
the weight trajectory is the same for every engine seed. :func:`learn`
computes it once per stream, and a :class:`Drawer` draws each seed's
selections from it, a block of trials at a time, from the seed's
counter-based uniforms (see :mod:`budgetmax.sampler`). Trial ``t`` reads
only its own row of uniforms, so it draws the same selection for a given
weight vector no matter how many other trials were drawn, and any trial
replays on its own. A selection is an array of action indices in
ascending order.

Instances whose largest energy reaches 1/2 are sampled through the
sampler's experimental wrapper. The weight update is the standard one
there too (driven by the true constants of the action set, which
degenerate to a zero step size at ``beta == 1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ActionSet
from .environments import Stream
from .sampler import RowLayout, sample_block, uniform_stream
from .surrogate import WeightState, surrogate_gradient, update_weights, step_size

# Weights per sampled block of trials: bounds the block's temporaries.
BLOCK_ENTRIES = 1 << 14


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


def learn(stream: Stream) -> Trajectory:
    """One projected-gradient pass over the trials of a stream.

    Trial ``t`` is row ``t`` of ``stream.rewards`` and ``stream.costs``. The
    stream checked its matrices when it was built, so no trial is checked
    again here.
    """
    action_set = stream.action_set
    T, n = stream.T, action_set.n
    weights = np.empty((T, n))
    grad_norm = np.empty(T)
    eta = np.empty(T)
    state = WeightState.initial(n)
    for t, (rewards, costs) in enumerate(zip(stream.rewards, stream.costs)):
        weights[t] = state.w
        g = surrogate_gradient(state.w, rewards, costs, action_set.delta)
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

    def draw(self, w, seed: int, t: int) -> np.ndarray:
        """Indices engine seed ``seed`` selects on the 1-based trial ``t`` at ``w``."""
        uniforms = uniform_stream(seed, self.layout.width, t - 1).random((1, self.layout.width))
        member = sample_block(np.asarray(w, dtype=float)[None], uniforms, self.layout)
        return np.flatnonzero(member[0])

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
