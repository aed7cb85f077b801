"""Uniform grids, nodal trajectories and the quadrature/interpolation kit.

Everything downstream treats a trajectory as its piecewise-linear
interpolant through the nodal values, so the trapezoid rule is exact for
the objects we integrate most often (products of nodal data are handled
by the dedicated piecewise-linear norm below).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def require_finite(name: str, value) -> None:
    """Reject a non-finite value from outside input, naming it."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")


def require_index(name: str, value) -> int:
    """A Python or numpy integer from outside input, as an int, or reject it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Grid:
    """Uniform time grid t_i = (i-1) * T / (N-1), i = 1..N."""

    horizon: float
    npoints: int

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        require_finite("horizon", self.horizon)
        object.__setattr__(self, "npoints",
                           require_index("npoints", self.npoints))
        if self.npoints < 2:
            raise ValueError(f"grid needs at least 2 nodes, got {self.npoints}")

    @cached_property
    def nodes(self) -> np.ndarray:
        """The node times, computed once per grid and read-only."""
        t = np.linspace(0.0, self.horizon, self.npoints)
        t.flags.writeable = False
        return t

    @property
    def h(self) -> float:
        return self.horizon / (self.npoints - 1)

    @cached_property
    def weights(self) -> np.ndarray:
        """trapezoid_weights of the grid, computed once and read-only."""
        w = trapezoid_weights(self)
        w.flags.writeable = False
        return w


@dataclass
class Traj:
    """Nodal values of an R^m-valued trajectory on a uniform grid.

    values has shape (N, m); column j is component j.  An iterate (x, z)
    of an n-dimensional problem is one Traj with m = 2n, x1..xn then
    z1..zn, the column layout of the gradients.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.shape[0] != self.grid.npoints:
            raise ValueError(
                f"values have {self.values.shape[0]} rows, grid has "
                f"{self.grid.npoints} nodes"
            )

    @property
    def ncomp(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "Traj":
        return Traj(self.grid, self.values.copy())


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """Composite trapezoid weights: h at interior nodes, h/2 at the ends."""
    w = np.full(grid.npoints, grid.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def trapezoid(v: np.ndarray, h: float) -> float:
    """Trapezoid integral of nodal values v, shape (N,), with spacing h."""
    return float(h * (v.sum() - 0.5 * (v[0] + v[-1])))


def cumulative_trapezoid(v: np.ndarray, h: float, x0: np.ndarray) -> np.ndarray:
    """x0 + int_0^{t_i} of nodal values v, shape (N, m), node by node.

    x0 has shape (m,).  Returns a new (N, m) array.
    """
    if x0.shape[0] != v.shape[1]:
        raise ValueError("x0 length does not match the trajectory components")
    steps = 0.5 * h * (v[:-1] + v[1:])
    out = np.empty_like(v)
    out[0] = 0.0
    np.cumsum(steps, axis=0, out=out[1:])
    out += x0
    return out


def reverse_cumulative_trapezoid(v: np.ndarray, h: float) -> np.ndarray:
    """int_{t_i}^{T} of nodal values v, shape (N, m), node by node.

    Returns a new (N, m) array.
    """
    steps = 0.5 * h * (v[:-1] + v[1:])
    out = np.empty_like(v)
    out[-1] = 0.0
    out[:-1] = np.cumsum(steps[::-1], axis=0)[::-1]
    return out


def quadrature(a: Traj) -> float:
    """Trapezoid integral of a scalar trajectory over [0, T].

    Exact for piecewise-linear nodal data, which is the representation
    used throughout.
    """
    if a.ncomp != 1:
        raise ValueError("quadrature expects a scalar trajectory")
    return trapezoid(a.values[:, 0], a.grid.h)


def cumulative_integral(z: Traj, x0: np.ndarray) -> Traj:
    """x(t_i) = x0 + int_0^{t_i} z, by the cumulative trapezoid rule."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    return Traj(z.grid, cumulative_trapezoid(z.values, z.grid.h, x0))


def reverse_cumulative_integral(a: Traj) -> Traj:
    """R(t_i) = int_{t_i}^{T} a, by the trapezoid rule on each tail."""
    return Traj(a.grid, reverse_cumulative_trapezoid(a.values, a.grid.h))


def pl_l2_norm_sq(a: Traj) -> float:
    """Exact squared L2 norm of the piecewise-linear interpolant.

    On each cell with endpoint values u, v the interpolant is linear, so
    int |a|^2 = h/3 * (|u|^2 + <u, v> + |v|^2).  This differs from the
    trapezoid rule applied to the nodal squared norms, which would
    overestimate the norm of kinky fields.  A product that overflows
    raises under np.errstate, as in trap_row_dots.
    """
    v = a.values
    sq = np.einsum("ij,ij->i", v, v)
    uu, vv = sq[:-1], sq[1:]
    uv = np.einsum("ij,ij->i", v[:-1], v[1:])
    total = float(a.grid.h / 3.0 * np.sum(uu + uv + vv))
    if not math.isfinite(total):
        trap_row_dots((v, v), (v[:-1], v[1:]))
    return total


def finite(*arrays: np.ndarray) -> bool:
    """Whether every entry of every array is finite; count_nonzero is
    cheaper than all() on the short arrays of a pass."""
    return all(np.count_nonzero(np.isfinite(a)) == a.size for a in arrays)


def trap_row_dots(*pairs: tuple) -> None:
    """Take each pair (u, v)'s row dot products again with ufuncs, for
    their floating-point errors alone.

    np.einsum sets no floating-point flags, so np.errstate cannot trap an
    overflow inside it, nor an inf times 0.  A caller whose einsum came
    out not finite calls this, and the products and row sums raise here
    what np.errstate asks for, as ufuncs would have.  Nothing is returned:
    the caller keeps einsum's bits, which a ufunc sum does not match.
    """
    for u, v in pairs:
        np.add.reduce(u * v, axis=-1)


def resample(a: Traj, new_grid: Grid) -> Traj:
    """Piecewise-linear resampling onto another grid of the same horizon.

    Node positions shared bit-for-bit between the two grids keep their
    values unchanged.
    """
    if a.grid.horizon != new_grid.horizon:
        raise ValueError("grids must cover the same horizon")
    if new_grid == a.grid:
        return a.copy()
    told = a.grid.nodes
    tnew = new_grid.nodes
    out = np.empty((new_grid.npoints, a.ncomp))
    for j in range(a.ncomp):
        out[:, j] = np.interp(tnew, told, a.values[:, j])
    return Traj(new_grid, out)
