"""Subdifferential descent for nonsmooth variational problems.

The solver minimizes J(x, z) = int_0^T f(x, z, t) dt over piecewise
linear nodal trajectories, treating z as an independent stand-in for the
derivative of x and coupling the two with quadratic penalties.  Each
iteration computes the full convex subdifferential of the discretized
objective at every grid node, in one compiled pass over the grid,
takes its minimum-norm element, and performs an exact line search
along its negative.

The package namespace holds what a script needs to set up and run a
solve, plus the errors it may catch; everything else is imported from
its submodule.
"""

from .functional import MinNormUncertified, ProblemSpec, initial_pair
from .integrand import DomainError, ExprError, ParseError, SubdiffError, parse_expr
from .solver import SolverConfig, solve
from .trajectory import Grid

__version__ = "0.1.0"

__all__ = [
    "Grid", "ProblemSpec", "SolverConfig", "initial_pair", "parse_expr",
    "solve",
    "DomainError", "ExprError", "MinNormUncertified", "ParseError",
    "SubdiffError",
    "__version__",
]
