"""Uniform grids, nodal trajectories and the quadrature/interpolation kit.

Everything downstream treats a trajectory as its piecewise-linear
interpolant through the nodal values, so the trapezoid rule is exact for
the objects we integrate most often (products of nodal data are handled
by the dedicated piecewise-linear norm below).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def require_finite(name: str, value) -> None:
    """Reject a non-finite value from outside input, naming it."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class Grid:
    """Uniform time grid t_i = (i-1) * T / (N-1), i = 1..N."""

    horizon: float
    npoints: int

    def __post_init__(self) -> None:
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        require_finite("horizon", self.horizon)
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


@dataclass
class Traj:
    """Nodal values of an R^m-valued trajectory on a uniform grid.

    values has shape (N, m); column j is component j.
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


@dataclass
class PairTraj:
    """State/derivative pair (x, z) sharing one grid."""

    x: Traj
    z: Traj

    def __post_init__(self) -> None:
        if self.x.grid != self.z.grid:
            raise ValueError("x and z must live on the same grid")
        if self.x.ncomp != self.z.ncomp:
            raise ValueError("x and z must have the same number of components")

    @property
    def grid(self) -> Grid:
        return self.x.grid

    def copy(self) -> "PairTraj":
        return PairTraj(self.x.copy(), self.z.copy())


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
    v = a.values
    h = a.grid.h
    steps = 0.5 * h * (v[:-1] + v[1:])
    out = np.empty_like(v)
    out[-1] = 0.0
    out[:-1] = np.cumsum(steps[::-1], axis=0)[::-1]
    return Traj(a.grid, out)


def l2_inner(a: Traj, b: Traj) -> float:
    """L2 pairing <a, b> = int_0^T sum_j a_j(t) b_j(t) dt (trapezoid)."""
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if a.ncomp != b.ncomp:
        raise ValueError("component counts differ")
    return trapezoid(np.einsum("ij,ij->i", a.values, b.values), a.grid.h)


def pl_l2_norm_sq(a: Traj) -> float:
    """Exact squared L2 norm of the piecewise-linear interpolant.

    On each cell with endpoint values u, v the interpolant is linear, so
    int |a|^2 = h/3 * (|u|^2 + <u, v> + |v|^2).  This differs from the
    trapezoid rule applied to the nodal squared norms, which would
    overestimate the norm of kinky fields.
    """
    v = a.values
    uu = np.einsum("ij,ij->i", v[:-1], v[:-1])
    vv = np.einsum("ij,ij->i", v[1:], v[1:])
    uv = np.einsum("ij,ij->i", v[:-1], v[1:])
    return float(a.grid.h / 3.0 * np.sum(uu + uv + vv))


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
