"""Euclidean projection onto the box-and-budget polytope.

The feasible region is ``{x in [0,1]^n : <x, z> <= 1}`` for a non-negative
energy vector ``z``. By the KKT conditions the projection of ``y`` is
``clamp(y - lam * z, 0, 1)`` for a multiplier ``lam >= 0`` that is zero when
the plain box clamp already meets the budget and otherwise makes the budget
exactly active. This is the continuous quadratic knapsack problem, and
``lam`` is found exactly by a safeguarded semismooth Newton iteration on it
(Cominetti, Mascarenhas & Silva 2014, "A Newton's method for the continuous
quadratic knapsack problem"):

* the budget usage ``u(lam) = <clamp(y - lam * z, 0, 1), z>`` is continuous,
  non-increasing and piecewise linear in ``lam``;
* only coordinates with ``z_i > 0`` and ``y_i > 0`` move as ``lam`` grows
  from 0. Each leaves 1 at ``(y_i - 1) / z_i`` and reaches 0 at
  ``y_i / z_i``; these breakpoints cut ``[0, max y_i / z_i]`` into pieces
  ``(left, right]``. They are sorted once per call, and each iterate reads
  its piece's ends with one binary search. Rounding is monotone, so ``(y_i
  - 1) / z_i <= y_i / z_i`` holds in floating point too, and the last
  sorted breakpoint is ``max y_i / z_i``;
* at an iterate ``lam`` the coordinates still at 1 and the free ones (left
  1, not yet at 0) give the linear ``u`` of ``lam``'s piece. The iteration
  solves it for ``u = 1`` from those coordinates, so the rounding of earlier
  iterates stays out of the answer, and stops when the solution lands in the
  piece that produced it;
* otherwise the piece says on which side of it the root lies, which shrinks
  a bracket that starts as ``(0, max y_i / z_i]``, and the next iterate is
  the solution if it lies in the bracket, else the bracket's midpoint. A
  flat piece (no free coordinate) only moves the bracket. Each iterate
  leaves its piece out of the bracket, so the iteration ends.

The root taken is the smallest ``lam`` with ``u(lam) <= 1``, on the piece
that ends at or after it. Where rounding makes two adjacent pieces both
claim a root at their common breakpoint, the left one is asked first, so
the answer does not depend on where the iteration started. Started from
the previous multiplier, as :func:`budgetmax.surrogate.learn_blocks` does,
it usually needs one or two iterates, each a few vector operations.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerance of every feasibility check (is_feasible).
FEASIBILITY_TOL = 1e-9
# A solution this close to its piece's left end, relative to itself, is
# confirmed by the piece to the left before it is taken.
_NEAR_LEFT = 2.0 ** -30
# The smallest positive float: a start at 0 begins on the first piece.
_FIRST = 5e-324


def is_feasible(x, z) -> bool:
    """True when ``x`` (a vector, or a block of rows) is in the box and budget.

    Each bound holds up to ``FEASIBILITY_TOL``.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    tol = FEASIBILITY_TOL
    # einsum, not a block's x @ z: that is a BLAS gemv, and OpenBLAS maps its
    # buffer pool at the first one; when it cannot, it exits the process from
    # C, so a run out of address space would die mid-write with no cleanup
    return bool(x.min(initial=0.0) >= -tol and x.max(initial=0.0) <= 1.0 + tol
                and np.max(np.einsum("...j,j->...", x, z), initial=0.0) <= 1.0 + tol)


def project_onto_feasible(y, z) -> np.ndarray:
    """Nearest point of ``{x in [0,1]^n : <x, z> <= 1}`` to ``y``.

    ``y`` must be finite and ``z`` finite and non-negative, else a
    ``ValueError`` is raised.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError("y and z must be 1-d vectors of equal length")
    if not np.all(np.isfinite(y)):
        raise ValueError("projection input must be finite")
    if not np.all(np.isfinite(z) & (z >= 0.0)):
        raise ValueError("energies must be finite and non-negative")
    return _project_from(y, z, 0.0)[0]


def _clamp(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.clip(v, 0.0, 1.0, out=out)`` bit for bit (signed zeros too), without its wrapper."""
    return np.minimum(np.maximum(0.0, v, out=out), 1.0, out=out)


def _project_from(y: np.ndarray, z: np.ndarray, lam0: float) -> tuple[np.ndarray, float]:
    """``(x, lam)``: the projection of ``y`` and its multiplier, searched from ``lam0``.

    ``y`` and ``z`` are float vectors of equal length, ``y`` finite; nothing
    is checked. ``lam`` is 0.0 when the box clamp already meets the budget.
    The answer does not depend on ``lam0``, only the work does.

    The live coordinates, and each iterate's free and at-one ones, are
    gathered with ``compress``: the same elements in the same order as a
    boolean index, so the dot products and sums see the same arrays, at
    about half the cost of a boolean index at n = 1000.
    """
    x = _clamp(y)
    if float(x.dot(z)) <= 1.0:
        return x, 0.0

    # The box clamp overshoots, so the budget is active at the optimum.
    live = (z > 0.0) & (y > 0.0)
    yl = y.compress(live)
    zl = z.compress(live)
    m = len(zl)
    points = np.concatenate(((yl - 1.0) / zl, yl / zl))  # where each leaves 1, then reaches 0
    ordered = points.copy()  # each iterate reads its piece's ends from this one sort
    ordered.sort()
    lo, hi = 0.0, ordered.item(-1)  # the root lies in (lo, hi]; hi is max y / z
    hi_lam, hi_left = 0.0, math.inf  # the answer, once the piece (hi_left, hi] is known to hold it
    lam = min(max(lam0, _FIRST), hi)
    while True:
        past = points >= lam  # breakpoints at or after lam
        at_one, moving = past[:m], past[m:]
        free = moving > at_one
        zf = zl.compress(free)
        curvature = float(zf.dot(zf))
        # on lam's piece (left, right]: u = level - lam * curvature
        level = float(zf.dot(yl.compress(free))) + float(np.add.reduce(zl.compress(at_one)))
        k = ordered.searchsorted(lam)  # ordered[k - 1] < lam <= ordered[k]
        left = max(ordered.item(k - 1), 0.0) if k else 0.0
        right = ordered.item(k)
        if curvature > 0.0:
            new = (level - 1.0) / curvature
            beyond, before = new > right, new <= left
        else:  # a flat piece: u = level all along it
            new = math.nan
            beyond = level > 1.0
            before = not beyond
        if beyond:
            lo = right
        elif before:
            hi, hi_left = left, math.inf
        elif left <= lo or new - left > _NEAR_LEFT * new:
            lam = new
            break
        else:
            # On its piece, but a rounding away from the left end: the root is
            # here only if the piece to the left puts it past that end.
            hi, hi_lam, hi_left = right, new, left
            lam = left
            continue
        if lo >= hi_left:
            lam = hi_lam
            break
        if lo >= hi:  # adjacent pieces disagree by a rounding: the root is their breakpoint
            lam = hi
            break
        mid = 0.5 * (lo + hi)
        lam = new if lo < new <= hi else (mid if mid > lo else hi)
    return _clamp(y - lam * z), lam
