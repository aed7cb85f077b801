"""Subdifferential steepest descent with a penalty/grid continuation ladder.

Each iteration computes the minimum-norm point of the pointwise
subdifferential of I at every grid node, interpolates those nodal
subgradients piecewise-linearly, and walks along the normalized negative
field.  The step comes from a derivative-free search on a scalar
function: bracketing by doubling, then Brent's safeguarded parabolic
search (Brent, Algorithms for Minimization without Derivatives, 1973),
down to a bracket of _LS_TOL * (1 + gamma).  solve measures J and the
penalties once per iterate; that I is the iteration record's value and
f0 for the search on eval_I_along.  That builds the line once: the
penalties become one quadratic in the step, and the integrand is folded
along the line (compile_line), so a probe evaluates only the integrand's
nodes that do not fold (abs, max, norm, ...) on Horner values of the
rest.

The subdifferential is widened to an epsilon-subdifferential, as in
Demyanov and Malozemov's epsilon-steepest descent: an abs or max branch
within eps * (1 + |value|) of the deciding value counts as active, so a
node a hair off a kink already sees the gradients from its far side and
the direction does not jam there.  Each stage walks _EPS_SCHEDULE from
its start.  It moves one step down when the squared L2 norm of the field
drops below eps_bar or the line search finds no decrease, and retakes
the direction within the same iteration.  Only at the schedule's floor,
the exact tie tolerance, do those two events end the stage, as does the
iteration budget.  Between stages the trajectory is resampled onto the
next finer grid and the penalty weight is multiplied up while the
penalty terms remain above constraint_tol.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .functional import (
    MinNormUncertified,
    ProblemSpec,
    eval_I,  # noqa: F401  unused; perfbench's tracer checks it is restored here
    eval_I_along,
    eval_J,
    initial_pair,
    min_norm_field,
    penalty_values,
)
from .integrand import _TOL_ACT, DomainError, ExprError
from .trajectory import (Grid, PairTraj, Traj, require_finite,
                         require_index, pl_l2_norm_sq, resample)

__all__ = ["SolverConfig", "IterationRecord", "StageRecord",
           "steepest_direction", "line_search", "solve"]


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
        self.grid_sizes = tuple(require_index(f"grid_sizes[{i}]", m)
                                for i, m in enumerate(self.grid_sizes))
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
        self.max_iters = require_index("max_iters", self.max_iters)
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
    eps: float        # tie tolerance the iteration's direction was taken at
    ls_evals: int     # probes of the iteration's line searches (f0 not counted)


@dataclass
class StageRecord:
    """One (grid, lambda) stage of a solve and why it ended.

    stop is "stationary" when the field at the exact tie tolerance fell
    below eps_bar, "ls_stall" when the line search found no decrease
    there, and "budget" when the stage used its max_iters iterations.
    """

    npoints: int
    lam: float
    iterations: int
    stop: str


# Accepting a step requires at least this much decrease in I.
_DECREASE_MARGIN = 1e-12
# The line search's first probe, bracket growth factor and step cap.
_LS_SEED = 1e-2
_LS_GROWTH = 2.0
_LS_MAX_STEP = 1e3
# Line-search bracket width, scaled by (1 + gamma).  Precision is
# load-bearing: at 1e-8, abs(x1 - max(t - a, 0)) + abs(x2 - sin(w * t))
# for a, w near 0.5, 6 takes up to five times the ~80 iterations, and
# some draws exhaust their iteration budget instead of converging.
_LS_TOL = 1e-13
# Brent's golden-section fraction, (3 - sqrt(5)) / 2.
_CGOLD = 0.3819660112501051
# Tie tolerances a stage walks through, widest first.  Stationarity is
# declared only at the last, exact one.
_EPS_SCHEDULE = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, _TOL_ACT)


def steepest_direction(p: ProblemSpec, xz: PairTraj, lam: float,
                       cfg: SolverConfig, eps: float = _TOL_ACT
                       ) -> tuple[PairTraj | None, float]:
    """Normalized descent direction G = -v/||v|| and the field norm ||v||.

    v is the minimum-norm field of the subdifferential at tie tolerance
    eps.  Returns (None, ||v||) when ||v||^2 <= eps_bar, i.e. the iterate
    is stationary to tolerance at that eps and no direction is defined.
    """
    v = min_norm_field(p, xz, lam, eps)
    vsq = pl_l2_norm_sq(v)
    vnorm = float(np.sqrt(vsq))
    if vsq <= cfg.eps_bar:
        return None, vnorm
    gvals = -v.values / vnorm
    n = p.n
    grid = xz.grid
    return PairTraj(Traj(grid, gvals[:, :n]), Traj(grid, gvals[:, n:])), vnorm


def line_search(f: Callable[[float], float], f0: float
                ) -> tuple[float, bool, int]:
    """Approximate minimizer of gamma -> f(gamma), given f0 = f(0).

    Brackets by doubling from _LS_SEED (halving first if the seed does not
    decrease), then runs Brent's method on the bracket: a parabola through
    the three best points where its vertex is safe, a golden-section step
    where it is not, until the bracket is _LS_TOL * (1 + gamma) wide.  A
    probe that raises DomainError or FloatingPointError counts as +inf,
    so it shrinks the bracket and never enters a parabola.  Returns
    (gamma, accepted, calls of f); gamma is 0.0 and accepted False when
    no probe beats f0, which callers treat as a stage boundary.
    """
    probes = 0

    def probe(g: float) -> float:
        nonlocal probes
        probes += 1
        try:
            return f(g)
        except (DomainError, FloatingPointError):
            return np.inf

    g = _LS_SEED
    fg = probe(g)
    rejected = None
    for _ in range(60):
        if fg < f0 - _DECREASE_MARGIN:
            break
        rejected = fg
        g *= 0.5
        fg = probe(g)
    if fg >= f0 - _DECREASE_MARGIN:
        return 0.0, False, probes

    # expand until the value turns up (or the cap is hit); after halving,
    # the last rejected probe is already c = 2g
    a = 0.0
    b, fb = g, fg
    c = min(b * _LS_GROWTH, _LS_MAX_STEP)
    fc = probe(c) if rejected is None else rejected
    while fc < fb and c < _LS_MAX_STEP:
        a = b
        b, fb = c, fc
        c = min(c * _LS_GROWTH, _LS_MAX_STEP)
        fc = probe(c)

    best_g, best_f = (b, fb) if fb <= fc else (c, fc)

    # Brent's method on [a, c] from b: x is the best interior point, w the
    # second best and v the previous w; d is the last step, e the one
    # before it.
    lo, hi = a, c
    x = w = v = b
    fx = fw = fv = fb
    d = e = 0.0
    while True:
        width = _LS_TOL * (1.0 + x)
        if hi - lo <= width:
            break
        # The smallest step from x: the last probes, x - step and
        # x + step, then close a bracket well inside the width.
        step = width / 4
        mid = 0.5 * (lo + hi)
        parabolic = False
        if abs(e) > step and math.isfinite(fw) and math.isfinite(fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            num = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                num = -num
            q = abs(q)
            # take the vertex if it lies inside the bracket and moves less
            # than half the step before last
            if (abs(num) < abs(0.5 * q * e)
                    and q * (lo - x) < num < q * (hi - x)):
                e, d = d, num / q
                parabolic = True
                u = x + d
                if u - lo < 2.0 * step or hi - u < 2.0 * step:
                    d = step if x < mid else -step
        if not parabolic:
            e = (lo - x) if x >= mid else (hi - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= step else (step if d > 0 else -step))
        fu = probe(u)
        if fu < best_f:
            best_g, best_f = u, fu
        if fu <= fx:
            if u >= x:
                lo = x
            else:
                hi = x
            v, fv = w, fw
            w, fw = x, fx
            x, fx = u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    if best_f >= f0 - _DECREASE_MARGIN:
        return 0.0, False, probes
    return float(best_g), True, probes


@np.errstate(over="raise", invalid="raise")
def solve(p: ProblemSpec, cfg: SolverConfig,
          direction_log: list | None = None,
          stage_log: list | None = None
          ) -> tuple[PairTraj, list[IterationRecord], str]:
    """Run the continuation ladder to a stationary, feasible iterate.

    Returns the final pair, the per-iteration records, and a status:
    "converged" when a stage on the finest grid went stationary with
    psi + phi below constraint_tol, otherwise "exhausted".  A given
    stage_log receives one StageRecord per stage as it ends, and a given
    direction_log (k, nodes, direction) for each direction taken.

    Deterministic: identical inputs reproduce the records exactly (the
    wall_time field aside).  Finite data too large for double precision
    raises FloatingPointError at the first overflow instead of carrying
    inf and nan on.  An ExprError, MinNormUncertified or
    FloatingPointError raised after the initial pair is built leaves
    with last_run = (the last pair, the records so far) set on it.
    """
    t_start = time.perf_counter()
    grid = Grid(p.horizon, cfg.grid_sizes[0])
    xz = initial_pair(p, grid)
    lam = float(cfg.lambda0)
    records: list[IterationRecord] = []
    k = 0
    gi = 0
    status = "exhausted"
    floor = len(_EPS_SCHEDULE) - 1
    try:
        while True:
            stop = "budget"
            k_start = k
            ei = 0
            J = eval_J(p, xz)
            psi, phi = penalty_values(p, xz)
            for _ in range(cfg.max_iters):
                k += 1
                I = J + lam * psi + lam * phi
                ls_evals = 0
                # Retake the direction one tolerance down until it is a
                # descent direction or the exact set has the last word.
                while True:
                    eps = _EPS_SCHEDULE[ei]
                    direction, vnorm = steepest_direction(p, xz, lam, cfg, eps)
                    gamma, ok = 0.0, False
                    if direction is not None:
                        gamma, ok, probes = line_search(
                            eval_I_along(p, xz, direction, lam), I)
                        ls_evals += probes
                    if ok or ei == floor:
                        break
                    ei += 1
                records.append(IterationRecord(
                    k=k, I=I, J=J, psi=psi, phi=phi, vnorm=vnorm, lam=lam,
                    gamma=gamma, npoints=xz.grid.npoints,
                    wall_time=time.perf_counter() - t_start, eps=eps,
                    ls_evals=ls_evals,
                ))
                if direction is None:
                    stop = "stationary"
                    break
                if direction_log is not None:
                    direction_log.append(
                        (k, xz.grid.nodes.copy(),
                         np.hstack([direction.x.values, direction.z.values]))
                    )
                if not ok:
                    stop = "ls_stall"
                    break
                xz.x.values += gamma * direction.x.values
                xz.z.values += gamma * direction.z.values
                J = eval_J(p, xz)
                psi, phi = penalty_values(p, xz)

            if stage_log is not None:
                stage_log.append(StageRecord(xz.grid.npoints, lam, k - k_start, stop))
            pen = psi + phi
            on_last_grid = gi + 1 == len(cfg.grid_sizes)
            if stop == "stationary" and on_last_grid and pen <= cfg.constraint_tol:
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
    except (ExprError, MinNormUncertified, FloatingPointError) as exc:
        exc.last_run = (xz, records)
        raise
    return xz, records, status
