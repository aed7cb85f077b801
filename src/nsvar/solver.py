"""Subdifferential steepest descent with a penalty/grid continuation ladder.

Each iteration computes the minimum-norm point of the pointwise
subdifferential of I at every grid node, interpolates those nodal
subgradients piecewise-linearly, and walks along the normalized negative
field with a derivative-free line search (bracketing by doubling, then
golden section).  A stage ends when the squared L2 norm of the field
drops below eps_bar or the iteration budget runs out; between stages the
trajectory is resampled onto the next finer grid and the penalty weight
is multiplied up while the penalty terms remain above constraint_tol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .functional import (
    ProblemSpec,
    eval_I,
    eval_J,
    initial_pair,
    min_norm_field,
    penalty_values,
)
from .integrand import DomainError
from .trajectory import (Grid, PairTraj, Traj, require_finite,
                         pl_l2_norm_sq, resample)

__all__ = ["SolverConfig", "IterationRecord", "steepest_direction",
           "line_search", "solve"]


@dataclass
class SolverConfig:
    eps_bar: float = 3e-2            # stop threshold on ||v||^2 (L2, squared)
    lambda0: float = 1.0
    lambda_factor: float = 5.0
    lambda_max: float = 1000.0
    constraint_tol: float = 1e-5     # required psi + phi level at the end
    grid_sizes: tuple = (11, 21, 41)
    max_iters: int = 200             # inner iterations per stage

    def __post_init__(self) -> None:
        self.grid_sizes = tuple(int(m) for m in self.grid_sizes)
        if not self.grid_sizes:
            raise ValueError("grid_sizes must not be empty")
        if any(b <= a for a, b in zip(self.grid_sizes, self.grid_sizes[1:])):
            raise ValueError("grid_sizes must be strictly increasing")
        if min(self.grid_sizes) < 2:
            raise ValueError("grids need at least 2 nodes")
        if self.lambda_factor <= 1.0:
            raise ValueError("lambda_factor must exceed 1")
        if self.eps_bar <= 0.0 or self.lambda0 <= 0.0:
            raise ValueError("eps_bar and lambda0 must be positive")
        for name in ("eps_bar", "lambda0", "lambda_factor", "lambda_max",
                     "constraint_tol"):
            require_finite(name, getattr(self, name))
        if self.constraint_tol < 0.0:
            raise ValueError("constraint_tol must not be negative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class IterationRecord:
    k: int
    I: float
    J: float
    psi: float
    phi: float
    vnorm: float
    lam: float
    gamma: float
    npoints: int
    wall_time: float  # seconds since solve() started


# Accepting a step requires at least this much decrease in I.
_DECREASE_MARGIN = 1e-12
# The line search's first probe, bracket growth factor and step cap.
_LS_SEED = 1e-2
_LS_GROWTH = 2.0
_LS_MAX_STEP = 1e3
# Golden-section width, scaled by (1 + gamma).  Precision is load-bearing:
# at 1e-8, example3 exhausts its iteration budget instead of converging.
_LS_TOL = 1e-13


def steepest_direction(p: ProblemSpec, xz: PairTraj, lam: float,
                       cfg: SolverConfig) -> tuple[PairTraj | None, float]:
    """Normalized descent direction G = -v/||v|| and the field norm ||v||.

    Returns (None, ||v||) when ||v||^2 <= eps_bar, i.e. the iterate is
    already stationary to tolerance and no direction is defined.
    """
    v = min_norm_field(p, xz, lam)
    vsq = pl_l2_norm_sq(v)
    vnorm = float(np.sqrt(vsq))
    if vsq <= cfg.eps_bar:
        return None, vnorm
    gvals = -v.values / vnorm
    n = p.n
    grid = xz.grid
    return PairTraj(Traj(grid, gvals[:, :n]), Traj(grid, gvals[:, n:])), vnorm


def line_search(p: ProblemSpec, xz: PairTraj, direction: PairTraj,
                lam: float) -> tuple[float, bool]:
    """Approximate minimizer of gamma -> I(xz + gamma * direction).

    Brackets by doubling from _LS_SEED (halving first if the seed does not
    decrease), then golden section.  A probe outside the integrand's
    domain, or whose arithmetic overflows inside solve, counts as +inf, so
    it shrinks the bracket.  Returns
    (0.0, False) when no probe beats the current value, which callers
    treat as a stage boundary.
    """
    grid = xz.grid
    xv, zv = xz.x.values, xz.z.values
    gx, gz = direction.x.values, direction.z.values

    def value(g: float) -> float:
        cand = PairTraj(Traj(grid, xv + g * gx), Traj(grid, zv + g * gz))
        return eval_I(p, cand, lam)

    def f(g: float) -> float:
        try:
            return value(g)
        except (DomainError, FloatingPointError):
            return np.inf

    f0 = value(0.0)
    g = _LS_SEED
    fg = f(g)
    for _ in range(60):
        if fg < f0 - _DECREASE_MARGIN:
            break
        g *= 0.5
        fg = f(g)
    if fg >= f0 - _DECREASE_MARGIN:
        return 0.0, False

    # expand until the value turns up (or the cap is hit)
    a = 0.0
    b, fb = g, fg
    c = min(b * _LS_GROWTH, _LS_MAX_STEP)
    fc = f(c)
    while fc < fb and c < _LS_MAX_STEP:
        a = b
        b, fb = c, fc
        c = min(c * _LS_GROWTH, _LS_MAX_STEP)
        fc = f(c)

    best_g, best_f = (b, fb) if fb <= fc else (c, fc)

    # golden section on [a, c]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = a, c
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for x, fx in ((x1, f1), (x2, f2)):
        if fx < best_f:
            best_g, best_f = x, fx
    while hi - lo > _LS_TOL * (1.0 + hi):
        if f1 <= f2:
            hi = x2
            x2, f2 = x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
            if f1 < best_f:
                best_g, best_f = x1, f1
        else:
            lo = x1
            x1, f1 = x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
            if f2 < best_f:
                best_g, best_f = x2, f2
    if best_f >= f0 - _DECREASE_MARGIN:
        return 0.0, False
    return float(best_g), True


@np.errstate(over="raise", invalid="raise")
def solve(p: ProblemSpec, cfg: SolverConfig,
          direction_log: list | None = None
          ) -> tuple[PairTraj, list[IterationRecord], str]:
    """Run the continuation ladder to a stationary, feasible iterate.

    Returns the final pair, the per-iteration records, and a status:
    "converged" when a stage on the finest grid went stationary with
    psi + phi below constraint_tol, otherwise "exhausted".

    Deterministic: identical inputs reproduce the records exactly (the
    wall_time field aside).  Finite data too large for double precision
    raises FloatingPointError at the first overflow instead of carrying
    inf and nan on.
    """
    t_start = time.perf_counter()
    grid = Grid(p.horizon, cfg.grid_sizes[0])
    xz = initial_pair(p, grid)
    lam = float(cfg.lambda0)
    records: list[IterationRecord] = []
    k = 0
    gi = 0
    status = "exhausted"

    def snapshot(gamma: float, vnorm: float) -> IterationRecord:
        J = eval_J(p, xz)
        psi, phi = penalty_values(p, xz)
        total = J + lam * (psi + phi)
        return IterationRecord(
            k=k, I=total, J=J, psi=psi, phi=phi, vnorm=vnorm, lam=lam,
            gamma=gamma, npoints=xz.grid.npoints,
            wall_time=time.perf_counter() - t_start,
        )

    while True:
        stationary = False
        for _ in range(cfg.max_iters):
            k += 1
            direction, vnorm = steepest_direction(p, xz, lam, cfg)
            if direction is None:
                stationary = True
                records.append(snapshot(0.0, vnorm))
                break
            gamma, ok = line_search(p, xz, direction, lam)
            records.append(snapshot(gamma, vnorm))
            if direction_log is not None:
                direction_log.append(
                    (k, xz.grid.nodes.copy(),
                     np.hstack([direction.x.values, direction.z.values]))
                )
            if not ok:
                break
            xz.x.values += gamma * direction.x.values
            xz.z.values += gamma * direction.z.values

        psi, phi = penalty_values(p, xz)
        pen = psi + phi
        on_last_grid = gi + 1 == len(cfg.grid_sizes)
        if stationary and on_last_grid and pen <= cfg.constraint_tol:
            status = "converged"
            break
        advanced = False
        if not on_last_grid:
            # The grid ladder is a refinement schedule: a stationary
            # coarse iterate warm-starts the next resolution.
            gi += 1
            finer = Grid(p.horizon, cfg.grid_sizes[gi])
            xz = PairTraj(resample(xz.x, finer), resample(xz.z, finer))
            advanced = True
        if pen > cfg.constraint_tol and lam < cfg.lambda_max:
            lam = min(lam * cfg.lambda_factor, cfg.lambda_max)
            advanced = True
        if not advanced:
            break
    return xz, records, status
