"""Online budget-constrained subset selection.

Select a subset of actions each trial (summed energies within a unit
budget), earn the best reward inside it minus the total cost, and adapt a
weight vector by projected gradient descent on a convex per-trial surrogate.
The randomized sampler turns weights into subsets while keeping analytic
control of every selection probability.
"""

from .core import ActionSet, BUDGET_SLACK, InvalidEnergyError, selection_profits
from .environments import (EnvironmentSpec, KINDS, Stream, StreamFormatError, generate,
                           read_stream, write_stream)
from .projection import FEASIBILITY_TOL, is_feasible, project_onto_feasible
from .sampler import (LARGE_ENERGY_THRESHOLD, RowLayout, ZERO_CLASS, draw_trials, sample_block,
                      uniform_stream)
from .surrogate import Trajectory, learn, surrogate_gradient, surrogate_value

__version__ = "0.1.0"

__all__ = [
    "ActionSet", "BUDGET_SLACK", "InvalidEnergyError", "selection_profits",
    "EnvironmentSpec", "KINDS", "Stream", "StreamFormatError",
    "generate", "read_stream", "write_stream",
    "FEASIBILITY_TOL", "is_feasible", "project_onto_feasible",
    "LARGE_ENERGY_THRESHOLD", "RowLayout", "ZERO_CLASS",
    "draw_trials", "sample_block", "uniform_stream",
    "Trajectory", "learn", "surrogate_gradient", "surrogate_value",
    "__version__",
]
