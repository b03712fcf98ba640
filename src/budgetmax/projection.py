"""Euclidean projection onto the box-and-budget polytope.

The feasible region is ``{x in [0,1]^n : <x, z> <= 1}`` for a non-negative
energy vector ``z``. By the KKT conditions the projection of ``y`` is
``clamp(y - lam * z, 0, 1)`` for a multiplier ``lam >= 0`` that is zero when
the plain box clamp already meets the budget and otherwise makes the budget
exactly active. This is the continuous quadratic knapsack problem, and
``lam`` is found exactly by a breakpoint search (Brucker 1984; Kiwiel 2008,
"Breakpoint searching algorithms for the continuous quadratic knapsack
problem"):

* the budget usage ``u(lam) = <clamp(y - lam * z, 0, 1), z>`` is continuous,
  non-increasing and piecewise linear in ``lam``;
* only coordinates with ``z_i > 0`` and ``y_i > 0`` move as ``lam`` grows
  from 0. Each leaves 1 at ``(y_i - 1) / z_i``, where the slope of ``u``
  drops by ``z_i**2``, and reaches 0 at ``y_i / z_i``, where it regains it;
* sorting the breakpoints above 0 and accumulating slope times gap from
  ``u(0)`` gives the usage at every breakpoint, so the first breakpoint
  where it falls to 1 closes the piece that holds ``lam``;
* on that piece ``u`` is linear, and ``lam`` solves one linear equation in
  the piece's free and saturated coordinates. Solving it from those
  coordinates, not from the accumulated sums, keeps the rounding of the
  walk out of the answer.

The cost is one sort of the moving coordinates' breakpoints, O(m log m).
``projection_certificate`` checks a claimed projection against the KKT
conditions without calling the solver.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Default tolerance for feasibility checks on projector output.
FEASIBILITY_TOL = 1e-9


def is_feasible(x, z, tol: float = FEASIBILITY_TOL) -> bool:
    """True when ``x`` is inside the box and budget up to ``tol``."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        return False
    return float(x @ z) <= 1.0 + tol


def project_onto_feasible(y, z) -> np.ndarray:
    """Nearest point of ``{x in [0,1]^n : <x, z> <= 1}`` to ``y``."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError("y and z must be 1-d vectors of equal length")
    if not np.all(np.isfinite(y)):
        raise ValueError("projection input must be finite")

    x = np.clip(y, 0.0, 1.0)
    used = float(x @ z)
    if used <= 1.0:
        return x

    # The box clamp overshoots, so the budget is active at the optimum.
    live = (z > 0.0) & (y > 0.0)
    yl = y[live]
    zl = z[live]
    sq = zl * zl
    leaves_top = (yl - 1.0) / zl
    hits_zero = yl / zl
    later = leaves_top > 0.0
    slope = -float(sq[~later].sum())  # du/dlam just above 0
    points = np.concatenate((leaves_top[later], hits_zero))
    order = np.argsort(points)
    points = points[order]
    slopes = slope + np.cumsum(np.concatenate((-sq[later], sq))[order])  # just above each point
    before = np.concatenate(([slope], slopes[:-1]))
    usage = used + np.cumsum(before * np.diff(points, prepend=0.0))
    # u is 0 at the last point, where every live coordinate has reached 0
    k = int(np.argmax(usage <= 1.0))
    left = points[k - 1] if k else 0.0
    right = points[k]

    # On [left, right]: <y_F - lam z_F, z_F> + sum of z over coordinates at 1 = 1.
    free = (leaves_top <= left) & (hits_zero >= right)
    zf = zl[free]
    curvature = float(zf @ zf)
    if curvature == 0.0:
        # A piece with no free coordinate is flat at u = 1, so any lam on it
        # is exact; only rounding in the walk can pick such a piece.
        lam = left
    else:
        lam = (float(zf @ yl[free]) + float(zl[leaves_top >= right].sum()) - 1.0) / curvature
    return np.clip(y - lam * z, 0.0, 1.0)


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
