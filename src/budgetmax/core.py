"""Core problem data and profit arithmetic.

An instance is a fixed vector of per-action energies ``z`` together with a
stream of trials. Each trial reveals a reward vector (non-negative) and a
cost vector (any sign) after a subset of actions has been selected. A subset
is feasible when its summed energy stays within the unit budget. The profit
of a non-empty selection is the best reward inside it minus the sum of its
costs; the empty selection earns zero.

There is no per-trial type: a trial is a row of the stream's ``(T, n)``
reward and cost matrices, and a selection is an array of action indices in
ascending order. :meth:`ActionSet.from_energies` is the one energy check,
and it derives the constants the sampler and the comparator read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute slack allowed when comparing a selection's energy to the unit budget.
BUDGET_SLACK = 1e-12


class InvalidEnergyError(ValueError):
    """Energy vector has an entry outside [0, 1] (or is empty / non-finite)."""


@dataclass(frozen=True)
class ActionSet:
    """Fixed action energies plus the constants derived from their maximum.

    ``beta`` is the largest energy, ``delta = (1 - sqrt(beta)) ** 2`` and
    ``alpha = 1 - exp(-delta)``. They drive the sampler's draw counts and
    the discounting of costs and rewards.
    """

    z: np.ndarray
    beta: float
    delta: float
    alpha: float

    @classmethod
    def from_energies(cls, z) -> "ActionSet":
        """The action set of a copy of ``z``, with its derived constants.

        Raises
        ------
        InvalidEnergyError
            If ``z`` is empty, non-finite, or has entries outside [0, 1].
        """
        z = np.array(z, dtype=float, copy=True)
        if z.ndim != 1 or z.size == 0:
            raise InvalidEnergyError("energy vector must be a non-empty 1-d array")
        beta = float(np.max(z))
        if not 0.0 <= float(np.min(z)) <= beta <= 1.0:  # also false for nan and inf
            if not np.all(np.isfinite(z)):
                raise InvalidEnergyError("energies must be finite")
            raise InvalidEnergyError("energies must lie in [0, 1]")
        tau = 1.0 - math.sqrt(beta)
        delta = tau * tau
        z.setflags(write=False)
        return cls(z=z, beta=beta, delta=delta, alpha=1.0 - math.exp(-delta))

    @property
    def n(self) -> int:
        return self.z.size


def selection_profits(rows, cols, rewards, costs) -> np.ndarray:
    """Profit of each of ``m`` selections given as ``(row, action)`` pairs.

    ``rewards`` and ``costs`` are ``(m, n)`` blocks of trial vectors; the
    pairs come in row-major order, as ``np.nonzero`` yields them from a
    membership block. A row's profit is its best reward minus its costs
    summed in ascending action order; a row without pairs earns exactly 0.
    This is the one profit definition.
    """
    best = np.zeros(rewards.shape[0])
    np.maximum.at(best, rows, rewards[rows, cols])
    return best - np.bincount(rows, weights=costs[rows, cols], minlength=rewards.shape[0])
