"""Shared helpers for the test suite.

Randomized tests draw from seeded generators so every run is deterministic;
helpers here build the instances most tests need.
"""

import math

import numpy as np

from budgetmax import ActionSet, Stream, draw_trials, project_onto_feasible


def random_energies(rng, n, beta_max=0.49, zero_frac=0.3):
    """Energy vector in [0, beta_max] with a sprinkle of exact zeros."""
    z = rng.uniform(0.0, beta_max, n)
    z[rng.random(n) < zero_frac] = 0.0
    return z


def random_action_set(rng, n, beta_max=0.49, zero_frac=0.3):
    return ActionSet.from_energies(random_energies(rng, n, beta_max, zero_frac))


def random_feasible_point(rng, z, scale=1.5):
    """A point of the box-and-budget polytope, biased toward its boundary."""
    return project_onto_feasible(rng.uniform(0.0, scale, len(z)), z)


def random_trial(rng, n, r_scale=2.0, c_scale=1.0, tie_frac=0.0):
    """Random ``(rewards, costs)`` row pair; with tie_frac > 0 some rewards are exact duplicates."""
    rewards = rng.uniform(0.0, r_scale, n)
    if tie_frac > 0.0 and n >= 2:
        dup = rng.random(n) < tie_frac
        rewards[dup] = rewards[int(rng.integers(n))]
    costs = rng.uniform(-c_scale, c_scale, n)
    return rewards, costs


def stream_of(action_set, trials):
    """A stream whose rows are the given ``(rewards, costs)`` pairs."""
    rewards, costs = zip(*trials)
    return Stream(action_set, np.array(rewards, dtype=float), np.array(costs, dtype=float))


def stacked(stream):
    """``(rewards, costs)``: a stream's blocks stacked whole.

    A replayed or a generated stream is read whole only this way, as
    ``best_fixed_subset`` reads it.
    """
    _, rewards, costs = zip(*stream.blocks())
    return np.concatenate(rewards), np.concatenate(costs)


def draw_one(w, seed, t, layout):
    """Indices engine seed ``seed`` selects on the 1-based trial ``t`` at ``w``.

    Only that trial's row of uniforms is read, as a replay of one trial does.
    """
    return np.flatnonzero(draw_trials(np.asarray(w, dtype=float)[None], seed, layout, t - 1)[0])


def read_columns(layout, w):
    """The uniform columns a shared-row draw at ``w`` reads, ascending.

    In each segment with weight mass ``S`` (summed in segment order over the
    clamp into ``[0, 1]``, as the sampler sums it): full-draw column ``j``
    when ``j < floor(scale * S)``, and the residual column. A segment with no
    mass reads none. In wrapper mode column 0, which gives the heads mask, is
    read whatever the heavy mass.
    """
    read = {0} if layout.wrapper else set()
    for (start, stop), scale, last, full in zip(
            layout.spans, layout.scale, layout.residual_columns, layout.full_columns):
        mass = 0.0
        for i in layout.order[start:stop]:
            mass += min(max(float(w[i]), 0.0), 1.0)
        if scale * mass > 0.0:
            read.update(range(last - full, last - full + math.floor(scale * mass)))
            read.add(last)
    return sorted(read)
