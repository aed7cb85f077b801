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

Both penalties are half squared norms of residuals affine in (x, z),
r_psi = x0 + int_0^T z - xT and r_phi = x - x0 - int_0^t z, and one
function, _residuals, takes both from one integral of z.  The penalty
values, their gradients (r_psi, and _phi_rows, phi's adjoint, on r_phi)
and the penalty rows of the nodal subdifferentials all read them, so
eval_I == eval_J + lam*eval_psi + lam*eval_phi holds exactly.

measure(p, xz, lam) takes what an iterate decides for all of its
directions and lines once, as a frozen Measurement: J, psi, phi, the
residuals r0 = (r_psi, r_phi) and lam times the penalties' gradient
rows.  min_norm_field reads its rows and eval_I_along its residuals and
penalty values; neither takes them again.

The line search's objective is eval_I_along: gamma -> I(xz + gamma * d)
with its left and right derivatives in gamma.  Along the line the
residuals are r0 + gamma * r1, r1 those of d with x0 = xT = 0, so
lam * (psi + phi) is a quadratic in gamma whose coefficients, inner
products of r0 and r1, are built once per line.  The integrand is
folded along the line once too (compile_line): subtrees that are
polynomials of degree <= 2 in gamma become coefficient arrays.  Each
probe then evaluates only the compiled integrand's nodes that do not
fold, with their one-sided slopes; its value matches eval_I at the
stepped pair to roundoff, and it raises the same DomainError.  On a
sweep line, where every kink is |a + b gamma| with a nonnegative weight
and the gamma^2 coefficients sum to >= 0, I is convex piecewise
quadratic along the line, and eval_I_along also gives its exact
minimizer, by one sorted sweep of the breakpoints (_sweep_minimizer).

min_norm_field, the steepest-descent generator, makes one compiled pass
over the grid (compile_subdiff): every node's subdifferential comes out
as a point plus a list of segment generators, each a block over the
columns it can touch, and zonotope_min_norm's closed form gives every
node a candidate minimum-norm point with its certificate.  Only the
nodes the pass masks and those whose candidate fails its certificate
build a ConvexSet (subdiff_I_nodes, subdiff_I_at) and go through
min_norm_point.  The pass also hands out its tie tests, from which
integrand.next_tolerance tells the tolerances that give the same field.

Both compiled passes are kept on the ProblemSpec, and both evaluate
subtrees without x or z once per grid (the subdifferential pass once per
grid and tie tolerance): eval_J, every line and every min_norm_field on
one grid reuse those values, since a Grid's nodes are read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .convexgeom import (
    ConvexSet,
    MinkowskiSum,
    Singleton,
    min_norm_point,
    zonotope_min_norm,
)
from .integrand import (
    _TOL_ACT,
    EvalPoint,
    Expr,
    _raise_at_first,
    check_expr,
    compile_line,
    compile_subdiff,
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
    require_index,
    reverse_cumulative_integral,
    trapezoid,
    trap_row_dots,
)

__all__ = [
    "ProblemSpec", "MinNormUncertified", "initial_pair", "recovered_state",
    "eval_J", "eval_psi", "grad_psi", "eval_phi", "grad_phi", "eval_I",
    "eval_I_along", "penalty_values", "Measurement", "measure",
    "subdiff_I_at", "subdiff_I_nodes", "min_norm_field",
]


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A variational problem instance, frozen once built.

    Subdifferentials and gradients are laid out in R^(2n) as
    (x-partials, z-partials).  The problem decides its penalties:
    use_psi, the endpoint penalty, is on exactly when xT is given, and
    use_phi, the consistency penalty, when use_psi is or the integrand
    reads some z, because psi reads z and without phi nothing ties x to
    it.  Neither can be set; dataclasses.replace derives both again.
    x0 and xT are kept as read-only copies, n as an int, and horizon
    and lambda0 as Python floats, so numpy scalars write out as plain
    numbers.  lambda0 is the penalty weight a solve starts from.
    The integrand and the initial guesses must pass the parser's checks
    (parse_expr, and only t in the guesses), so a tree built in Python
    that the parser would reject, one more than integrand.MAX_DEPTH
    nodes deep included, raises the same ExprError.  Equality compares
    the mathematical content and ignores the display name.
    """

    n: int
    horizon: float
    x0: np.ndarray
    integrand: Expr
    xT: np.ndarray | None = None
    initial_x: tuple | None = None
    initial_z: tuple | None = None
    lambda0: float = 1.0
    name: str = ""
    use_psi: bool = field(init=False)
    use_phi: bool = field(init=False)

    def __post_init__(self) -> None:
        put = object.__setattr__
        put(self, "n", require_index("n", self.n))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        require_finite("horizon", self.horizon)
        put(self, "horizon", float(self.horizon))

        def vector(label: str) -> None:
            # a read-only copy: neither the caller nor a reader changes it
            value = np.atleast_1d(np.array(getattr(self, label), float))
            value.flags.writeable = False
            if value.shape != (self.n,):
                raise ValueError(f"{label} must have length n={self.n}")
            require_finite(label, value)
            put(self, label, value)
        vector("x0")
        if self.xT is not None:
            vector("xT")
        check_expr(self.integrand, self.n)
        for label in ("initial_x", "initial_z"):
            guess = getattr(self, label)
            if guess is not None:
                guess = tuple(guess)
                put(self, label, guess)
                if len(guess) != self.n:
                    raise ValueError(f"{label} needs one expression per component")
                for e in guess:
                    check_expr(e, self.n, allow_vars=False)
        if not self.lambda0 > 0.0:
            raise ValueError("lambda0 must be positive")
        require_finite("lambda0", self.lambda0)
        put(self, "lambda0", float(self.lambda0))
        put(self, "use_psi", self.xT is not None)
        put(self, "use_phi", self.use_psi or uses_var_z(self.integrand))

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
            and self.integrand == other.integrand
            and self.initial_x == other.initial_x
            and self.initial_z == other.initial_z
            and self.lambda0 == other.lambda0
        )

    @functools.cached_property
    def integrand_line(self) -> Callable:
        """The integrand compiled into a pass along lines (compile_line),
        on first use, and kept."""
        return compile_line(self.integrand)

    @functools.cached_property
    def integrand_subdiff(self) -> Callable:
        """The integrand compiled by compile_subdiff for n, kept like
        integrand_line."""
        return compile_subdiff(self.integrand, self.n)


def recovered_state(p: ProblemSpec, xz: PairTraj) -> Traj:
    """The solution trajectory a run reports.

    When the problem treats z as a live variable (phi or psi active) the
    curve the method actually produces is the antiderivative
    x0 + int_0^t z, which satisfies the left boundary condition exactly;
    the x block is a splitting variable that matches it only up to
    O(1/lambda).  Without penalties x itself is the decision variable
    and is returned unchanged.
    """
    if p.use_phi:
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
            _raise_at_first(~np.isfinite(vals[:, j]),
                            f"{label} component {j + 1} is not finite", t)
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


def _check_finite(vals: np.ndarray, t: np.ndarray) -> None:
    """DomainError at the first non-finite nodal integrand value."""
    _raise_at_first(~np.isfinite(vals), "integrand is not finite", t)


def _residuals(p: ProblemSpec, x: np.ndarray | None, z: np.ndarray, h: float,
               x0: np.ndarray, xT) -> tuple:
    """(r_psi, r_phi) at nodal x and z: shapes (n,) and (N, n).

    An entry is None when p does not use that penalty, r_phi also when x
    is None.  x0 + int_0^t z is taken here and nowhere else.
    """
    use_phi = p.use_phi and x is not None
    if not (p.use_psi or use_phi):
        return None, None
    xint = cumulative_trapezoid(z, h, x0)
    return (xint[-1] - xT if p.use_psi else None,
            x - xint if use_phi else None)


def _pair_residuals(p: ProblemSpec, xz: PairTraj) -> tuple:
    """_residuals at the pair xz."""
    return _residuals(p, xz.x.values, xz.z.values, xz.grid.h, p.x0, p.xT)


def _inner(r: tuple, s: tuple, h: float) -> tuple[float, float]:
    """The psi and phi parts of <r, s> for residual pairs: a dot product
    and the trapezoid integral of the row dots, 0.0 for a None entry.
    A product that overflows raises under np.errstate (trap_row_dots)."""
    (r_psi, r_phi), (s_psi, s_phi) = r, s
    psi = 0.0 if r_psi is None else float(r_psi @ s_psi)
    phi = 0.0
    if r_phi is not None:
        phi = trapezoid(np.einsum("ij,ij->i", r_phi, s_phi), h)
        if not math.isfinite(phi):
            trap_row_dots((r_phi, s_phi))
    return psi, phi


def _phi_rows(grid: Grid, d: np.ndarray) -> np.ndarray:
    """grad_phi's values, the adjoint of the discrete phi at residual d."""
    zpart = -reverse_cumulative_integral(Traj(grid, d)).values
    half_h = 0.5 * grid.h
    zpart[0] += half_h * d[0]
    zpart[-1] = -half_h * d[-1]
    return np.hstack([d, zpart])


def eval_J(p: ProblemSpec, xz: PairTraj) -> float:
    """Trapezoid value of int f(x, z, t) dt on the pair's grid."""
    t = xz.grid.nodes
    vals = p.integrand_line(xz.x.values, xz.z.values, t)(0.0)[0]
    _check_finite(vals, t)
    return trapezoid(vals, xz.grid.h)


def eval_psi(p: ProblemSpec, z: Traj) -> float:
    r = _residuals(p, None, z.values, z.grid.h, p.x0, p.xT)
    return 0.5 * _inner(r, r, z.grid.h)[0]


def grad_psi(p: ProblemSpec, z: Traj) -> np.ndarray:
    """Gateaux gradient of psi wrt z: the constant field x0 + int z - xT."""
    r_psi = _residuals(p, None, z.values, z.grid.h, p.x0, p.xT)[0]
    return np.zeros(p.n) if r_psi is None else r_psi


def eval_phi(p: ProblemSpec, xz: PairTraj) -> float:
    r = _pair_residuals(p, xz)
    return 0.5 * _inner(r, r, xz.grid.h)[1]


def grad_phi(p: ProblemSpec, xz: PairTraj) -> Traj:
    """Gradient field of phi in R^(2n): x-part d(t), z-part -int_t^T d.

    The z-part is the exact adjoint of the discrete phi: the reverse
    trapezoid tail integral with first/last node corrections of h/2 * d.
    """
    if not p.use_phi:
        return Traj(xz.grid, np.zeros((xz.grid.npoints, 2 * p.n)))
    return Traj(xz.grid, _phi_rows(xz.grid, _pair_residuals(p, xz)[1]))


def eval_I(p: ProblemSpec, xz: PairTraj, lam: float) -> float:
    """I = J + lam * psi + lam * phi."""
    J = eval_J(p, xz)
    psi, phi = penalty_values(p, xz)
    return J + lam * psi + lam * phi


def eval_I_along(p: ProblemSpec, xz: PairTraj, direction: PairTraj,
                 m: Measurement) -> Callable[[float], tuple[float, float, float]]:
    """gamma -> (I, I'(gamma-), I'(gamma+)) at xz + gamma * direction.

    The line search's objective: I's value and its left and right
    derivatives along the line, with m = measure(p, xz, lam).  Along a
    line lam * (psi + phi) is a quadratic c0 + c1 gamma + c2 gamma^2,
    (c0, c1, c2) = lam * (<r0, r0>/2, <r0, r1>, <r1, r1>/2) for the
    residuals r0 at xz and r1 of the direction (x0 = xT = 0), once per
    line: c0 is lam * (m.psi + m.phi) and r0 is m's.  The integrand
    is folded along the line once too (compile_line).  Each probe then
    evaluates only the compiled integrand's nodes that do not fold, on
    Horner values of the rest, with their one-sided slopes in the same
    pass; it takes one trapezoid sum per quantity (a dot product with the
    trapezoid weights, nonnegative, so each side stays a side), adds the
    quadratic and its slope c1 + 2 c2 gamma, and builds no Traj and no
    stepped copy of the pair.  Only a sum that is not finite sends the
    probe through the nodal values, to name the first one that is not.
    A probe raises DomainError where eval_I at the stepped pair would;
    its value equals that one to roundoff.  A subtree without x or z is
    evaluated when the line is built, if at all, so its DomainError comes
    from this call; eval_I raises it at every point of the line.

    On a sweep line (compile_line's at.kinks) whose total gamma^2
    coefficient, the smooth part's trapezoid sum plus c2, is >= 0, I is
    convex piecewise quadratic in gamma, and probe.sweep is its first
    minimizer over gamma >= 0 by one sweep of the breakpoints
    (_sweep_minimizer): 0.0 where I does not fall, inf where it falls
    without bound.  Everywhere else probe.sweep is None.
    """
    grid = xz.grid
    h, t = grid.h, grid.nodes
    xv, zv = xz.x.values, xz.z.values
    gx, gz = direction.x.values, direction.z.values
    zero = np.zeros(p.n)
    r0, lam = m.residuals, m.lam
    r1 = _residuals(p, gx, gz, h, zero, zero)

    def coefficient(r, s, scale):
        psi, phi = _inner(r, s, h)
        return lam * (scale * psi + scale * phi)
    c0, c1, c2 = (lam * (m.psi + m.phi), coefficient(r0, r1, 1.0),
                  coefficient(r1, r1, 0.5))
    at = p.integrand_line(xv, zv, t, gx, gz)
    w = grid.weights

    def probe(gamma: float) -> tuple[float, float, float]:
        vals, left, right = at(gamma)
        J = float(w.dot(vals))
        if not math.isfinite(J):
            # any nan or inf value makes the sum non-finite
            _check_finite(vals, t)
        slope = c1 + 2.0 * c2 * gamma
        dJ = float(w.dot(right))
        dJ_left = dJ if left is right else float(w.dot(left))
        return (J + (c0 + gamma * (c1 + gamma * c2)),
                dJ_left + slope, dJ + slope)

    probe.sweep = None
    if at.kinks is not None:
        kinks, smooth = at.kinks
        try:
            s1 = c1 + (float(w @ smooth[1]) if len(smooth) > 1 else 0.0)
            s2 = c2 + (float(w @ smooth[2]) if len(smooth) > 2 else 0.0)
            a = b = weight = np.zeros(0)
            if kinks:
                a, b, factors = zip(*kinks)
                a, b = np.concatenate(a), np.concatenate(b)
                weight = np.concatenate([w * f for f in factors])
            probe.sweep = _sweep_minimizer(a, b, weight, s1, s2)
        except FloatingPointError:
            pass  # an overflow under solve's errstate: search by slopes
    return probe


def _sweep_minimizer(a, b, weight, s1: float, s2: float) -> float | None:
    """First minimizer over gamma >= 0 of the convex piecewise quadratic
    s1 gamma + s2 gamma^2 + sum_j weight_j |a_j + b_j gamma|, or None.

    The breakpoint scan of L-BFGS-B's generalized Cauchy point (Byrd, Lu,
    Nocedal and Zhu, SIAM J. Sci. Comput. 16, 1995) on one line: the right
    slope at 0+ (a term with a = 0 counts weight |b|), the roots -a/b > 0
    sorted once, and the slope's jumps 2 weight |b| there, plus 2 s2 gamma,
    summed until the right slope reaches 0.  That is a root, or the
    stationary point inside a piece when s2 > 0; where the slope is
    exactly 0 across a whole piece the answer is that flat bottom's middle.
    Returns 0.0 when the right slope at 0+ is >= 0, inf when the function
    falls without bound, and None when it is not convex (s2 < 0 or a
    negative weight) or its slope at 0+ is not finite.
    """
    if not (s2 >= 0.0 and (weight >= 0.0).all()):
        return None
    wb = weight * np.abs(b)
    # the terms with a root > 0.  a * b underflows to 0 only where |b| <
    # 1e-100 or the root is < 1e-120: such a term counts as rising from 0
    ahead = a * b < 0.0
    jumps = 2.0 * wb[ahead]
    slope = s1 + float(wb.sum()) - float(jumps.sum())
    if not math.isfinite(slope):
        return None
    if slope >= 0.0:
        return 0.0
    roots = -a[ahead] / b[ahead]
    order = np.argsort(roots)
    roots = roots[order]
    # the right slope just past each root, without the quadratic's part
    cum = slope + np.cumsum(jumps[order])
    right = cum + 2.0 * s2 * roots if s2 > 0.0 else cum
    m = int(np.searchsorted(right, 0.0))     # right is nondecreasing
    if s2 > 0.0:
        stationary = -(cum[m - 1] if m else slope) / (2.0 * s2)
        if m == roots.size or stationary < roots[m]:
            return stationary
    elif m == roots.size:
        return math.inf
    if right[m] == 0.0 and s2 == 0.0 and m + 1 < roots.size:
        return 0.5 * float(roots[m] + roots[m + 1])  # a flat bottom
    return float(roots[m])


def penalty_values(p: ProblemSpec, xz: PairTraj) -> tuple[float, float]:
    """(psi, phi) without the lambda weighting, from one integral of z.

    Half the residuals' squared norms, as eval_psi and eval_phi take them.
    """
    r = _pair_residuals(p, xz)
    psi, phi = _inner(r, r, xz.grid.h)
    return 0.5 * psi, 0.5 * phi


@dataclass(frozen=True, eq=False)
class Measurement:
    """What an iterate decides for all of its directions and lines, taken
    once (measure): J, psi and phi, the residual pair (r_psi, r_phi) of
    _residuals, and rows, lam times the penalties' gradient rows, shape
    (N, 2n), read-only.  I is J + lam * psi + lam * phi, eval_I's sum."""

    lam: float
    J: float
    psi: float
    phi: float
    residuals: tuple
    rows: np.ndarray

    @property
    def I(self) -> float:
        return self.J + self.lam * self.psi + self.lam * self.phi


def measure(p: ProblemSpec, xz: PairTraj, lam: float) -> Measurement:
    """The iterate's Measurement, from one integral of z.  Its J, psi and
    phi are eval_J's and penalty_values', to the bit, and it raises
    their errors, J's first."""
    J = eval_J(p, xz)
    r = _pair_residuals(p, xz)
    psi, phi = _inner(r, r, xz.grid.h)
    rows = _penalty_rows(p, xz.grid, r, lam)
    rows.flags.writeable = False
    return Measurement(lam, J, 0.5 * psi, 0.5 * phi, r, rows)


# ---------------------------------------------------------------------------
# pointwise subdifferential of I


def _penalty_rows(p: ProblemSpec, grid: Grid, r: tuple, lam: float) -> np.ndarray:
    """lam * gradient rows of (psi + phi) at every node, shape (N, 2n),
    from the residuals r; the values are grad_phi's and grad_psi's."""
    n = p.n
    rows = np.zeros((grid.npoints, 2 * n))
    r_psi, r_phi = r
    if r_phi is not None:
        rows += lam * _phi_rows(grid, r_phi)
    if r_psi is not None:
        rows[:, n:] += lam * r_psi
    return rows


def _node_set(p: ProblemSpec, xz: PairTraj, rows: np.ndarray, i: int,
              tol_act: float) -> ConvexSet:
    """Subdifferential of I at node i, given the penalty rows."""
    point = EvalPoint(xz.x.values[i], xz.z.values[i], float(xz.grid.nodes[i]))
    s = subdiff_expr(p.integrand, point, tol_act)
    if p.use_phi:
        s = MinkowskiSum((s, Singleton(rows[i])))
    return s


def subdiff_I_nodes(p: ProblemSpec, xz: PairTraj, lam: float,
                    tol_act: float = _TOL_ACT) -> list[ConvexSet]:
    """Pointwise subdifferential of I at every grid node.

    tol_act is the integrand's tie tolerance; see subdiff_expr.
    """
    rows = _penalty_rows(p, xz.grid, _pair_residuals(p, xz), lam)
    return [_node_set(p, xz, rows, i, tol_act) for i in range(xz.grid.npoints)]


def subdiff_I_at(p: ProblemSpec, xz: PairTraj, lam: float, i: int) -> ConvexSet:
    """Pointwise subdifferential of I at node i (0-based)."""
    if not 0 <= i < xz.grid.npoints:
        raise IndexError(f"node index {i} outside 0..{xz.grid.npoints - 1}")
    rows = _penalty_rows(p, xz.grid, _pair_residuals(p, xz), lam)
    return _node_set(p, xz, rows, i, _TOL_ACT)


class MinNormUncertified(RuntimeError):
    def __init__(self, node: int, gap: float):
        super().__init__(
            f"minimum-norm certificate failed at node {node} (gap {gap:.3e})"
        )
        self.node = node
        self.gap = gap


def min_norm_field(p: ProblemSpec, xz: PairTraj, m: Measurement,
                   tol_act: float = _TOL_ACT) -> tuple[Traj, list]:
    """Nodal minimum-norm subgradients of I, as a 2n-component field,
    and the pass's tie tests.

    Downstream code reads the field through its piecewise-linear
    interpolant.  m = measure(p, xz, lam) gives the penalty rows.
    tol_act is the integrand's tie tolerance; see subdiff_expr.  The
    tie tests are compile_subdiff's ties, for next_tolerance: where it
    skips a smaller tolerance, this call there gives the same field.

    One compiled pass (compile_subdiff) gives every node's set as a
    point, an (N, 2n) array, plus a list of segment generators, each a
    block over the columns it can touch.
    Rows the pass masks, the non-finite ones included, are zeroed
    before any product sees them (only when some row is masked).
    zonotope_min_norm's closed form then gives every row a candidate
    with its certificate.  A row the pass masks, or whose candidate is
    not certified, takes the per-node route of subdiff_I_nodes and
    min_norm_point; the certificate, not the generators' shape, picks
    the route.  Errors are the per-node route's, in node order: a
    DomainError or SubdiffError of the lowest per-node row that has
    one, else MinNormUncertified naming the lowest per-node row whose
    certificate fails.
    """
    grid = xz.grid
    _, q, gens, per_node, ties = p.integrand_subdiff(
        xz.x.values, xz.z.values, grid.nodes, tol_act)
    rows = m.rows
    if p.use_phi:     # else the rows are zero
        q = q + rows
    if np.count_nonzero(per_node):
        # Masked rows mean nothing and may hold inf or nan: zero them
        # before any product sees them.
        keep = ~per_node[:, None]
        q = np.where(keep, q, 0.0)
        gens = [(c, np.where(keep, a, 0.0)) for c, a in gens]
    out, _, certified = zonotope_min_norm(q, gens)
    nodes = np.flatnonzero(per_node | ~certified)
    sets = [_node_set(p, xz, rows, i, tol_act) for i in nodes]
    for i, s in zip(nodes, sets):
        res = min_norm_point(s)
        if not res.certified:
            raise MinNormUncertified(int(i), res.gap)
        out[i] = res.point
    return Traj(grid, out), ties
