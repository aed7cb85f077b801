"""Independent reference computations shared by the test suite.

Everything here is deliberately written from scratch against the
mathematical definitions (finite differences, forward-mode duals, brute
force subset enumeration) so that agreement with the library is a real
check and not a tautology.  The exception is the last section: one-point
and one-node forms of the library's own passes (eval_expr and
directional_derivative at an EvalPoint of their own, subdiff_I_at) and
the trapezoid L2 pairing l2_inner, which the tests use and no solve does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from nsvar.convexgeom import Ball, Hull, MinkowskiSum, Polytope, Singleton, support
from nsvar.functional import grad_phi, grad_psi
from nsvar.integrand import (
    Abs,
    Add,
    Const,
    Cos,
    Div,
    Exp,
    Max,
    Mul,
    Neg,
    Norm,
    Pow,
    Sin,
    Sqrt,
    Sub,
    Time,
    VarX,
    VarZ,
    eval_expr_grid,
    subdiff_expr,
)
from nsvar.trajectory import trapezoid


# ---------------------------------------------------------------------------
# finite differences


def fd_directional(f, alphas=(1e-4, 1e-5)):
    """One-sided difference of f at 0+, with one Richardson step.

    f maps a step alpha >= 0 to a scalar.  The first-order error term of
    the forward difference cancels between alpha and alpha/2, leaving
    O(alpha^2); the estimate from the smallest alpha is returned.
    """
    f0 = f(0.0)
    est = None
    for a in alphas:
        d1 = (f(a) - f0) / a
        d2 = (f(a / 2.0) - f0) / (a / 2.0)
        est = 2.0 * d2 - d1
    return est


# ---------------------------------------------------------------------------
# scalar evaluation with the math module


def scalar_eval(e, x, z, t) -> float:
    """f(x, z, t) at one point, in Python floats and the math module.

    Written from the grammar's definitions, with no numpy and no library
    evaluator.  Outside the domain it raises what the math module or
    Python arithmetic raises: ZeroDivisionError for a zero divisor,
    ValueError for sqrt of a negative value, OverflowError for overflow.
    """

    def ev(e) -> float:
        if isinstance(e, Const):
            return float(e.value)
        if isinstance(e, Time):
            return float(t)
        if isinstance(e, VarX):
            return float(x[e.index - 1])
        if isinstance(e, VarZ):
            return float(z[e.index - 1])
        if isinstance(e, Neg):
            return -ev(e.arg)
        if isinstance(e, Add):
            return ev(e.left) + ev(e.right)
        if isinstance(e, Sub):
            return ev(e.left) - ev(e.right)
        if isinstance(e, Mul):
            return ev(e.left) * ev(e.right)
        if isinstance(e, Div):
            return ev(e.left) / ev(e.right)
        if isinstance(e, Pow):
            return ev(e.base) ** e.exponent
        if isinstance(e, Sin):
            return math.sin(ev(e.arg))
        if isinstance(e, Cos):
            return math.cos(ev(e.arg))
        if isinstance(e, Exp):
            return math.exp(ev(e.arg))
        if isinstance(e, Sqrt):
            return math.sqrt(ev(e.arg))
        if isinstance(e, Abs):
            return abs(ev(e.arg))
        if isinstance(e, Max):
            return max(ev(a) for a in e.args)
        if isinstance(e, Norm):
            return math.sqrt(sum(ev(a) ** 2 for a in e.args))
        raise TypeError(f"not an Expr: {e!r}")

    return ev(e)


# ---------------------------------------------------------------------------
# forward-mode duals (smooth expressions only)


class Dual:
    """Value plus gradient vector, propagated through smooth arithmetic."""

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = float(val)
        self.grad = np.asarray(grad, float)

    def __add__(self, o):
        o = _lift(o, self.grad.size)
        return Dual(self.val + o.val, self.grad + o.grad)

    def __sub__(self, o):
        o = _lift(o, self.grad.size)
        return Dual(self.val - o.val, self.grad - o.grad)

    def __mul__(self, o):
        o = _lift(o, self.grad.size)
        return Dual(self.val * o.val, self.val * o.grad + o.val * self.grad)

    def __truediv__(self, o):
        o = _lift(o, self.grad.size)
        return Dual(self.val / o.val,
                    (self.grad * o.val - self.val * o.grad) / o.val ** 2)

    def __neg__(self):
        return Dual(-self.val, -self.grad)

    def powi(self, k: int):
        return Dual(self.val ** k, k * self.val ** (k - 1) * self.grad)

    def sin(self):
        return Dual(np.sin(self.val), np.cos(self.val) * self.grad)

    def cos(self):
        return Dual(np.cos(self.val), -np.sin(self.val) * self.grad)

    def exp(self):
        v = np.exp(self.val)
        return Dual(v, v * self.grad)

    def sqrt(self):
        v = np.sqrt(self.val)
        return Dual(v, self.grad / (2.0 * v))


def _lift(o, size):
    if isinstance(o, Dual):
        return o
    return Dual(float(o), np.zeros(size))


def dual_gradient(e, x, z, t):
    """Gradient of a smooth expression in R^{2n}: (d/dx, d/dz)."""
    x = np.asarray(x, float)
    z = np.asarray(z, float)
    n = x.size
    zero = np.zeros(2 * n)

    def seed(i):
        g = np.zeros(2 * n)
        g[i] = 1.0
        return g

    def ev(e):
        if isinstance(e, Const):
            return Dual(e.value, zero)
        if isinstance(e, Time):
            return Dual(t, zero)
        if isinstance(e, VarX):
            return Dual(x[e.index - 1], seed(e.index - 1))
        if isinstance(e, VarZ):
            return Dual(z[e.index - 1], seed(n + e.index - 1))
        if isinstance(e, Neg):
            return -ev(e.arg)
        if isinstance(e, Add):
            return ev(e.left) + ev(e.right)
        if isinstance(e, Sub):
            return ev(e.left) - ev(e.right)
        if isinstance(e, Mul):
            return ev(e.left) * ev(e.right)
        if isinstance(e, Div):
            return ev(e.left) / ev(e.right)
        if isinstance(e, Pow):
            return ev(e.base).powi(e.exponent)
        if isinstance(e, Sin):
            return ev(e.arg).sin()
        if isinstance(e, Cos):
            return ev(e.arg).cos()
        if isinstance(e, Exp):
            return ev(e.arg).exp()
        if isinstance(e, Sqrt):
            return ev(e.arg).sqrt()
        raise TypeError(f"not smooth: {e!r}")

    return ev(e).grad


# ---------------------------------------------------------------------------
# generators over their columns


def full_generators(gens: list, d: int) -> list:
    """compile_subdiff's generators (columns, block) as (N, d) arrays,
    zero off their columns."""
    out = []
    for cols, a in gens:
        full = np.zeros((a.shape[0], d))
        full[:, list(cols)] = a
        out.append(full)
    return out


# ---------------------------------------------------------------------------
# vertex lists of sets


def vertex_list(s) -> np.ndarray | None:
    """A (k, d) vertex list whose convex hull is the set s, or None when s
    holds a ball of positive radius.

    A Minkowski sum takes every sum of one vertex per member, the first
    member's index varying slowest; a hull concatenates its members'
    lists.  No cap: the list of a sum is the product of its members'.
    """
    if isinstance(s, Singleton):
        return s.point[None, :]
    if isinstance(s, Polytope):
        return s.vertices
    if isinstance(s, Ball):
        return s.center[None, :] if s.radius == 0.0 else None
    if not isinstance(s, (MinkowskiSum, Hull)):
        raise TypeError(f"not a convex set: {s!r}")
    lists = [vertex_list(m) for m in s.members]
    if any(v is None for v in lists):
        return None
    if isinstance(s, Hull):
        return np.vstack(lists)
    verts = lists[0]
    for extra in lists[1:]:
        verts = (verts[:, None, :] + extra[None, :, :]).reshape(-1, verts.shape[1])
    return verts


# ---------------------------------------------------------------------------
# exact min-norm point over a polytope by subset enumeration


def qp_min_norm(verts: np.ndarray) -> np.ndarray:
    """Minimum-norm point of conv(verts), exact up to linear-algebra error.

    The minimizer is the affine minimizer (with nonnegative weights) of
    the vertices of its minimal face; by Caratheodory some affinely
    independent subset of size <= d+1 yields it.  Enumerate all such
    subsets, solve the equality-constrained KKT system for each, keep
    the feasible candidate of least norm.
    """
    verts = np.asarray(verts, float)
    k, d = verts.shape
    best = None
    best_sq = np.inf
    for m in range(1, min(k, d + 1) + 1):
        for idx in combinations(range(k), m):
            sub = verts[list(idx)]
            if m == 1:
                w = np.ones(1)
            else:
                g = sub @ sub.T
                kkt = np.zeros((m + 1, m + 1))
                kkt[:m, :m] = 2.0 * g
                kkt[:m, m] = 1.0
                kkt[m, :m] = 1.0
                rhs = np.zeros(m + 1)
                rhs[m] = 1.0
                sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
                if not np.all(np.isfinite(sol)):
                    continue
                if np.linalg.norm(kkt @ sol - rhs) > 1e-8:
                    continue
                w = sol[:m]
            if w.min() < -1e-9 or abs(w.sum() - 1.0) > 1e-9:
                continue
            pt = w @ sub
            sq = float(pt @ pt)
            if sq < best_sq:
                best_sq = sq
                best = pt
    assert best is not None
    return best


# ---------------------------------------------------------------------------
# random expressions with controlled activity margins


def random_smooth_expr(rng: np.random.Generator, n: int, depth: int):
    """A smooth expression over x1..xn, z1..zn, t with tame magnitudes."""
    if depth <= 0:
        kind = rng.integers(0, 4)
        if kind == 0:
            return Const(round(float(rng.uniform(-2.0, 2.0)), 3))
        if kind == 1:
            return Time()
        if kind == 2:
            return VarX(int(rng.integers(1, n + 1)))
        return VarZ(int(rng.integers(1, n + 1)))
    kind = rng.integers(0, 10)
    a = random_smooth_expr(rng, n, depth - 1)
    if kind == 0:
        return Add(a, random_smooth_expr(rng, n, depth - 1))
    if kind == 1:
        return Sub(a, random_smooth_expr(rng, n, depth - 1))
    if kind == 2:
        return Mul(a, random_smooth_expr(rng, n, depth - 1))
    if kind == 3:
        return Neg(a)
    if kind == 4:
        return Sin(a)
    if kind == 5:
        return Cos(a)
    if kind == 6:
        return Pow(a, int(rng.integers(2, 4)))
    if kind == 7:
        # bounded-denominator division keeps values and derivatives tame
        return Div(a, Add(Const(round(float(rng.uniform(1.0, 3.0)), 3)),
                          Pow(random_smooth_expr(rng, n, 0), 2)))
    if kind == 8:
        return Exp(random_smooth_expr(rng, n, 0))  # of a leaf: no exp of an exp
    # an argument bounded away from 0 keeps sqrt differentiable
    return Sqrt(Add(Const(round(float(rng.uniform(1.0, 3.0)), 3)), Pow(a, 2)))


def random_expr(rng: np.random.Generator, n: int):
    """A possibly nonsmooth expression from the supported grammar."""
    kind = rng.integers(0, 6)
    if kind == 0:
        return random_smooth_expr(rng, n, 2)
    if kind == 1:
        return Abs(random_smooth_expr(rng, n, 2))
    if kind == 2:
        args = tuple(random_smooth_expr(rng, n, 1)
                     for _ in range(int(rng.integers(2, 4))))
        return Max(args)
    if kind == 3:
        args = tuple(random_smooth_expr(rng, n, 1)
                     for _ in range(int(rng.integers(1, 3))))
        return Norm(args)
    if kind == 4:
        return Add(Abs(random_smooth_expr(rng, n, 1)),
                   random_smooth_expr(rng, n, 1))
    return Mul(Const(round(float(rng.uniform(0.0, 2.0)), 3)),
               Max((random_smooth_expr(rng, n, 1),
                    random_smooth_expr(rng, n, 1))))


def random_iterates(seed: int, count: int, npoints: int = 21):
    """count seeded draws (e, n, xz): a random_expr over n = 1..3 and a
    standard normal (npoints, 2n) iterate, x columns then z columns."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 4))
        e = random_expr(rng, n)
        yield e, n, rng.standard_normal((npoints, 2 * n))


def min_activity_margin(e, p) -> float:
    """Smallest distance to a branch tie over all abs/max/norm sites."""
    margins = [np.inf]

    def visit(e):
        if isinstance(e, Abs):
            margins.append(abs(eval_expr(e.arg, p)))
            visit(e.arg)
        elif isinstance(e, Max):
            vals = sorted((eval_expr(a, p) for a in e.args), reverse=True)
            margins.append(vals[0] - vals[1])
            for a in e.args:
                visit(a)
        elif isinstance(e, Norm):
            vals = np.array([eval_expr(a, p) for a in e.args])
            margins.append(float(np.linalg.norm(vals)))
            for a in e.args:
                visit(a)
        else:
            for name in ("arg", "left", "right", "base"):
                child = getattr(e, name, None)
                if child is not None:
                    visit(child)

    visit(e)
    return float(min(margins))


# ---------------------------------------------------------------------------
# the library's passes at one point, and the trapezoid L2 pairing


@dataclass
class EvalPoint:
    """A point (x, z, t) at which the one-point forms below evaluate an
    integrand; row is its (2n,) row, x then z, as the passes read it."""

    x: np.ndarray
    z: np.ndarray
    t: float

    def __post_init__(self) -> None:
        self.x = np.atleast_1d(np.asarray(self.x, float))
        self.z = np.atleast_1d(np.asarray(self.z, float))
        if self.x.shape != self.z.shape:
            raise ValueError("x and z must have the same length")

    @property
    def row(self) -> np.ndarray:
        return np.concatenate([self.x, self.z])


def eval_expr(e, p: EvalPoint) -> float:
    """The integrand at one point, by eval_expr_grid on one node."""
    return float(eval_expr_grid(e, p.row[None, :], np.array([p.t]))[0])


def directional_derivative(e, p: EvalPoint, g) -> float:
    """f'(p; g) = max over the subdifferential of <v, g>, g in R^(2n)."""
    return support(subdiff_expr(e, p.row, p.t), np.asarray(g, float))[0]


def subdiff_I_at(p, xz, lam: float, i: int):
    """Pointwise subdifferential of I at node i (0-based) of the (N, 2n)
    iterate xz: the integrand's set plus lam times the penalties' row
    from grad_phi and grad_psi, where the problem has penalties."""
    if not 0 <= i < xz.grid.npoints:
        raise IndexError(f"node index {i} outside 0..{xz.grid.npoints - 1}")
    s = subdiff_expr(p.integrand, xz.values[i], float(xz.grid.nodes[i]))
    if not p.use_phi:
        return s
    row = lam * grad_phi(p, xz).values[i]
    row[p.n:] += lam * grad_psi(p, xz)
    return MinkowskiSum((s, Singleton(row)))


def l2_inner(a, b) -> float:
    """L2 pairing <a, b> = int_0^T sum_j a_j(t) b_j(t) dt (trapezoid)."""
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if a.ncomp != b.ncomp:
        raise ValueError("component counts differ")
    return trapezoid(np.einsum("ij,ij->i", a.values, b.values), a.grid.h)
