"""The penalized objective I(x, z) = J + lambda * (psi + phi) on nodal data.

A problem asks to minimize J(x, z) = int_0^T f(x(t), z(t), t) dt where z
stands for the derivative of x, subject to x(0) = x0 and optionally
x(T) = xT.  Instead of constraining z to be the derivative, two penalty
terms do the coupling:

* psi(z)    = 1/2 |x0 + int_0^T z - xT|^2      (endpoint mismatch)
* phi(x, z) = 1/2 int_0^T |x(t) - x0 - int_0^t z|^2 dt   (consistency)

Both are evaluated with the same trapezoid rule as J, and their
gradients are the exact discrete adjoints of those quadratures, so
finite differences of the implemented functionals match the gradient
fields to roundoff.  For phi this means the classic reverse-integral
formula -int_t^T d(tau) dtau picks up O(h) end-node corrections; interior
nodes match the textbook formula.

eval_I is the line search's objective, so it makes one pass: it
evaluates the compiled integrand, integrates z once and reads both
penalties off that one antiderivative.  It is built from the same
kernels as eval_J, eval_psi and eval_phi, in the same order, so
eval_I == eval_J + lam*eval_psi + lam*eval_phi holds exactly, not just
to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .convexgeom import ConvexSet, MinkowskiSum, Singleton, min_norm_point
from .integrand import (
    DomainError,
    EvalPoint,
    Expr,
    compile_expr,
    eval_expr_grid,
    subdiff_expr,
    uses_var_z,
)
from .trajectory import (
    Grid,
    PairTraj,
    Traj,
    cumulative_integral,
    cumulative_trapezoid,
    require_finite,
    reverse_cumulative_integral,
    trapezoid,
)

__all__ = [
    "ProblemSpec", "MinNormUncertified", "initial_pair", "recovered_state",
    "eval_J", "eval_psi", "grad_psi", "eval_phi", "grad_phi", "eval_I",
    "penalty_values", "subdiff_I_at", "subdiff_I_nodes", "min_norm_field",
]


@dataclass(eq=False)
class ProblemSpec:
    """A variational problem instance.

    Subdifferentials and gradients are laid out in R^(2n) as
    (x-partials, z-partials).  xT must be present exactly when use_psi
    is on.  use_phi defaults to whether the integrand mentions any z
    variable; use_psi defaults to whether xT is given.  Equality
    compares the mathematical content and ignores the display name.
    """

    n: int
    horizon: float
    x0: np.ndarray
    integrand: Expr
    xT: np.ndarray | None = None
    use_psi: bool | None = None
    use_phi: bool | None = None
    initial_x: tuple | None = None
    initial_z: tuple | None = None
    lambda0: float | None = None
    name: str = ""
    # (integrand, its compiled grid evaluator), filled on first use
    _compiled: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        require_finite("horizon", self.horizon)
        self.x0 = np.atleast_1d(np.asarray(self.x0, float))
        if self.x0.shape != (self.n,):
            raise ValueError(f"x0 must have length n={self.n}")
        require_finite("x0", self.x0)
        if self.xT is not None:
            self.xT = np.atleast_1d(np.asarray(self.xT, float))
            if self.xT.shape != (self.n,):
                raise ValueError(f"xT must have length n={self.n}")
            require_finite("xT", self.xT)
        if self.use_psi is None:
            self.use_psi = self.xT is not None
        if self.use_psi != (self.xT is not None):
            raise ValueError("xT must be given exactly when use_psi is set")
        if self.use_phi is None:
            self.use_phi = uses_var_z(self.integrand)
        if self.initial_x is not None:
            self.initial_x = tuple(self.initial_x)
            if len(self.initial_x) != self.n:
                raise ValueError("initial_x needs one expression per component")
        if self.initial_z is not None:
            self.initial_z = tuple(self.initial_z)
            if len(self.initial_z) != self.n:
                raise ValueError("initial_z needs one expression per component")
        if self.lambda0 is not None:
            if not self.lambda0 > 0.0:
                raise ValueError("lambda0 must be positive")
            require_finite("lambda0", self.lambda0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        same_xT = (self.xT is None) == (other.xT is None) and (
            self.xT is None or np.array_equal(self.xT, other.xT))
        return (
            self.n == other.n
            and self.horizon == other.horizon
            and np.array_equal(self.x0, other.x0)
            and same_xT
            and self.use_psi == other.use_psi
            and self.use_phi == other.use_phi
            and self.integrand == other.integrand
            and self.initial_x == other.initial_x
            and self.initial_z == other.initial_z
            and self.lambda0 == other.lambda0
        )

    def integrand_grid(self) -> Callable:
        """The integrand compiled into a grid evaluator f(x, z, t).

        Compiled on first use and kept, keyed to the integrand object
        itself, so assigning a new integrand compiles again.
        """
        if self._compiled is None or self._compiled[0] is not self.integrand:
            self._compiled = (self.integrand, compile_expr(self.integrand))
        return self._compiled[1]


def recovered_state(p: ProblemSpec, xz: PairTraj) -> Traj:
    """The solution trajectory a run reports.

    When the problem treats z as a live variable (phi or psi active) the
    curve the method actually produces is the antiderivative
    x0 + int_0^t z, which satisfies the left boundary condition exactly;
    the x block is a splitting variable that matches it only up to
    O(1/lambda).  Without penalties x itself is the decision variable
    and is returned unchanged.
    """
    if p.use_phi or p.use_psi:
        return cumulative_integral(xz.z, p.x0)
    return xz.x.copy()


def initial_pair(p: ProblemSpec, grid: Grid) -> PairTraj:
    """Nodal starting trajectories.

    initial_x defaults to the constant x0.  A missing initial_z is filled
    with nodal finite differences of the x samples.  A guess that is not
    finite at some node raises DomainError naming the component and node.
    """
    t = grid.nodes
    dummy = np.zeros((grid.npoints, p.n))

    def sampled(label: str, exprs: tuple) -> np.ndarray:
        vals = np.empty((grid.npoints, p.n))
        for j, e in enumerate(exprs):
            with np.errstate(over="ignore", invalid="ignore"):
                vals[:, j] = eval_expr_grid(e, dummy, dummy, t)
            bad = ~np.isfinite(vals[:, j])
            if bad.any():
                i = int(np.argmax(bad))
                raise DomainError(f"{label} component {j + 1} is not finite",
                                  float(t[i]), i)
        return vals

    if p.initial_x is None:
        xvals = np.tile(p.x0, (grid.npoints, 1))
    else:
        xvals = sampled("initial_x", p.initial_x)
    if p.initial_z is not None:
        zvals = sampled("initial_z", p.initial_z)
    else:
        zvals = np.gradient(xvals, grid.h, axis=0)
    return PairTraj(Traj(grid, xvals), Traj(grid, zvals))


# ---------------------------------------------------------------------------
# functional values


def _integrand_values(p: ProblemSpec, xz: PairTraj) -> np.ndarray:
    """Nodal integrand values; DomainError at the first non-finite one."""
    t = xz.grid.nodes
    vals = p.integrand_grid()(xz.x.values, xz.z.values, t)
    if not np.isfinite(vals).all():
        i = int(np.argmax(~np.isfinite(vals)))
        raise DomainError("integrand is not finite", float(t[i]), i)
    return vals


def _psi(p: ProblemSpec, xint: np.ndarray) -> float:
    """psi from the nodal antiderivative xint = x0 + int z."""
    r = xint[-1] - p.xT
    return 0.5 * float(r @ r)


def _phi(x: np.ndarray, xint: np.ndarray, h: float) -> float:
    """phi from the x values and the nodal antiderivative of z."""
    d = x - xint
    return 0.5 * trapezoid(np.einsum("ij,ij->i", d, d), h)


def _antiderivative(p: ProblemSpec, z: Traj) -> np.ndarray:
    """Nodal x0 + int_0^t z."""
    return cumulative_trapezoid(z.values, z.grid.h, p.x0)


def eval_J(p: ProblemSpec, xz: PairTraj) -> float:
    """Trapezoid value of int f(x, z, t) dt on the pair's grid."""
    return trapezoid(_integrand_values(p, xz), xz.grid.h)


def eval_psi(p: ProblemSpec, z: Traj) -> float:
    if not p.use_psi:
        return 0.0
    return _psi(p, _antiderivative(p, z))


def grad_psi(p: ProblemSpec, z: Traj) -> np.ndarray:
    """Gateaux gradient of psi wrt z: the constant field x0 + int z - xT."""
    if not p.use_psi:
        return np.zeros(p.n)
    return _antiderivative(p, z)[-1] - p.xT


def eval_phi(p: ProblemSpec, xz: PairTraj) -> float:
    if not p.use_phi:
        return 0.0
    return _phi(xz.x.values, _antiderivative(p, xz.z), xz.grid.h)


def grad_phi(p: ProblemSpec, xz: PairTraj) -> Traj:
    """Gradient field of phi in R^(2n): x-part d(t), z-part -int_t^T d.

    The z-part is the exact adjoint of the discrete phi: the reverse
    trapezoid tail integral with first/last node corrections of h/2 * d.
    """
    grid = xz.grid
    n = p.n
    out = np.zeros((grid.npoints, 2 * n))
    if not p.use_phi:
        return Traj(grid, out)
    d = xz.x.values - _antiderivative(p, xz.z)
    out[:, :n] = d
    tail = reverse_cumulative_integral(Traj(grid, d)).values
    zpart = -tail
    half_h = 0.5 * grid.h
    zpart[0] += half_h * d[0]
    zpart[-1] = -half_h * d[-1]
    out[:, n:] = zpart
    return Traj(grid, out)


def eval_I(p: ProblemSpec, xz: PairTraj, lam: float) -> float:
    """I = J + lam * (psi + phi), in one pass."""
    h = xz.grid.h
    total = trapezoid(_integrand_values(p, xz), h)
    if p.use_psi or p.use_phi:
        xint = _antiderivative(p, xz.z)
        if p.use_psi:
            total += lam * _psi(p, xint)
        if p.use_phi:
            total += lam * _phi(xz.x.values, xint, h)
    return total


def penalty_values(p: ProblemSpec, xz: PairTraj) -> tuple[float, float]:
    """(psi, phi) without the lambda weighting."""
    return eval_psi(p, xz.z), eval_phi(p, xz)


# ---------------------------------------------------------------------------
# pointwise subdifferential of I


def _penalty_rows(p: ProblemSpec, xz: PairTraj, lam: float) -> np.ndarray:
    """lam * gradient rows of (psi + phi) at every node, shape (N, 2n)."""
    n = p.n
    rows = np.zeros((xz.grid.npoints, 2 * n))
    if p.use_phi:
        rows += lam * grad_phi(p, xz).values
    if p.use_psi:
        rows[:, n:] += lam * grad_psi(p, xz.z)
    return rows


def subdiff_I_nodes(p: ProblemSpec, xz: PairTraj,
                    lam: float) -> list[ConvexSet]:
    """Pointwise subdifferential of I at every grid node."""
    rows = _penalty_rows(p, xz, lam)
    t = xz.grid.nodes
    xv, zv = xz.x.values, xz.z.values
    sets = []
    for i in range(xz.grid.npoints):
        point = EvalPoint(xv[i], zv[i], float(t[i]))
        s = subdiff_expr(p.integrand, point)
        if p.use_psi or p.use_phi:
            s = MinkowskiSum((s, Singleton(rows[i])))
        sets.append(s)
    return sets


def subdiff_I_at(p: ProblemSpec, xz: PairTraj, lam: float, i: int) -> ConvexSet:
    """Pointwise subdifferential of I at node i (0-based)."""
    if not 0 <= i < xz.grid.npoints:
        raise IndexError(f"node index {i} outside 0..{xz.grid.npoints - 1}")
    return subdiff_I_nodes(p, xz, lam)[i]


class MinNormUncertified(RuntimeError):
    def __init__(self, node: int, gap: float):
        super().__init__(
            f"minimum-norm certificate failed at node {node} (gap {gap:.3e})"
        )
        self.node = node
        self.gap = gap


def min_norm_field(p: ProblemSpec, xz: PairTraj, lam: float) -> Traj:
    """Nodal minimum-norm subgradients of I, as a 2n-component field.

    Downstream code reads the field through its piecewise-linear
    interpolant.
    """
    sets = subdiff_I_nodes(p, xz, lam)
    out = np.empty((xz.grid.npoints, 2 * p.n))
    for i, s in enumerate(sets):
        res = min_norm_point(s)
        if not res.certified:
            raise MinNormUncertified(i, res.gap)
        out[i] = res.point
    return Traj(xz.grid, out)
