"""Core problem data and profit arithmetic.

An instance is a fixed vector of per-action energies ``z`` together with a
stream of trials. Each trial reveals a reward vector (non-negative) and a
cost vector (any sign) after a subset of actions has been selected. A subset
is feasible when its summed energy stays within the unit budget. The profit
of a non-empty selection is the best reward inside it minus the sum of its
costs; the empty selection earns zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Absolute slack allowed when comparing a selection's energy to the unit budget.
BUDGET_SLACK = 1e-12


class InvalidEnergyError(ValueError):
    """Energy vector has an entry outside [0, 1] (or is empty / non-finite)."""


def _frozen(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def derive_constants(z) -> tuple[float, float, float, float]:
    """Return ``(beta, tau, delta, alpha)`` for an energy vector.

    ``beta`` is the largest energy, ``tau = 1 - sqrt(beta)``,
    ``delta = tau ** 2`` and ``alpha = 1 - exp(-delta)``. All four drive the
    sampler's class thresholds and the discounting of costs and rewards.

    Raises
    ------
    InvalidEnergyError
        If ``z`` is empty, non-finite, or has entries outside [0, 1].
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size == 0:
        raise InvalidEnergyError("energy vector must be a non-empty 1-d array")
    beta = float(np.max(z))
    if not 0.0 <= float(np.min(z)) <= beta <= 1.0:  # also false for nan and inf
        if not np.all(np.isfinite(z)):
            raise InvalidEnergyError("energies must be finite")
        raise InvalidEnergyError("energies must lie in [0, 1]")
    tau = 1.0 - math.sqrt(beta)
    delta = tau * tau
    alpha = 1.0 - math.exp(-delta)
    return beta, tau, delta, alpha


@dataclass(frozen=True)
class ActionSet:
    """Fixed action energies plus the constants derived from their maximum."""

    z: np.ndarray
    beta: float
    tau: float
    delta: float
    alpha: float

    @classmethod
    def from_energies(cls, z) -> "ActionSet":
        beta, tau, delta, alpha = derive_constants(z)
        return cls(z=_frozen(z), beta=beta, tau=tau, delta=delta, alpha=alpha)

    @property
    def n(self) -> int:
        return self.z.size


def split_costs(costs) -> tuple[np.ndarray, np.ndarray]:
    """Split a cost vector into non-negative and non-positive parts.

    Returns ``(pos, neg)`` with ``pos = max(c, 0)``, ``neg = min(c, 0)``,
    so ``pos + neg == c`` exactly.
    """
    c = np.asarray(costs, dtype=float)
    return np.maximum(c, 0.0), np.minimum(c, 0.0)


@dataclass(frozen=True)
class TrialData:
    """One trial's revealed rewards and costs, with the costs pre-split."""

    rewards: np.ndarray
    costs: np.ndarray
    costs_pos: np.ndarray
    costs_neg: np.ndarray

    @classmethod
    def from_arrays(cls, rewards, costs) -> "TrialData":
        rewards = np.asarray(rewards, dtype=float)
        costs = np.asarray(costs, dtype=float)
        if rewards.ndim != 1 or rewards.shape != costs.shape:
            raise ValueError("rewards and costs must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(rewards)) and np.all(np.isfinite(costs))):
            raise ValueError("rewards and costs must be finite")
        if np.any(rewards < 0.0):
            raise ValueError("rewards must be non-negative")
        pos, neg = split_costs(costs)
        return cls(_frozen(rewards), _frozen(costs), _frozen(pos), _frozen(neg))

    @property
    def n(self) -> int:
        return self.rewards.size


@dataclass(frozen=True)
class Selection:
    """A feasible subset of actions. ``total_energy`` is its summed energy."""

    actions: frozenset
    total_energy: float

    @classmethod
    def from_indices(cls, indices: Iterable[int], z) -> "Selection":
        z = np.asarray(z, dtype=float)
        idx = frozenset(int(i) for i in indices)
        for i in idx:
            if i < 0 or i >= z.size:
                raise ValueError(f"selection index {i} out of range for {z.size} actions")
        ordered = sorted(idx)
        total = float(np.sum(z[ordered])) if ordered else 0.0
        if total > 1.0 + BUDGET_SLACK:
            raise ValueError(f"selection energy {total!r} exceeds the unit budget")
        return cls(idx, total)

    @classmethod
    def empty(cls) -> "Selection":
        return cls(frozenset(), 0.0)

    def indices(self) -> list[int]:
        """Member indices in ascending order."""
        return sorted(self.actions)

    def __len__(self) -> int:
        return len(self.actions)


def selection_profits(rows, cols, rewards, costs) -> np.ndarray:
    """Profit of each of ``m`` selections given as ``(row, action)`` pairs.

    ``rewards`` and ``costs`` are ``(m, n)`` blocks of trial vectors (or one
    trial's vectors as a single row); the pairs come in row-major order, as
    ``np.nonzero`` yields them from a membership block. A row's profit is
    its best reward minus its costs summed in ascending action order; a row
    without pairs earns exactly 0. This is the one profit definition, so a
    block and a single :class:`Selection` (see :func:`profit`) agree
    bitwise.
    """
    rewards = np.atleast_2d(rewards)
    costs = np.atleast_2d(costs)
    best = np.zeros(rewards.shape[0])
    np.maximum.at(best, rows, rewards[rows, cols])
    return best - np.bincount(rows, weights=costs[rows, cols], minlength=rewards.shape[0])


def profit(selection: Selection, rewards, costs) -> float:
    """Best reward inside the selection minus the sum of its costs.

    ``rewards`` and ``costs`` are one trial's vectors, such as a row of a
    stream or the fields of a :class:`TrialData`. The empty selection earns
    exactly 0. Computed by :func:`selection_profits`.
    """
    idx = np.array(selection.indices(), dtype=int)
    return float(selection_profits(np.zeros_like(idx), idx, rewards, costs)[0])


def discounted_profit(indices, trial: TrialData, alpha: float, delta: float) -> float:
    """Discounted profit of an index set for one trial.

    The best reward and the negative costs are scaled by ``alpha``, the
    non-negative costs by ``delta``. With ``alpha == delta == 1`` this equals
    :func:`profit`.
    """
    idx = sorted({int(i) for i in indices})
    if not idx:
        return 0.0
    best = float(np.max(trial.rewards[idx]))
    neg = float(np.sum(trial.costs_neg[idx]))
    pos = float(np.sum(trial.costs_pos[idx]))
    return alpha * best - alpha * neg - delta * pos
