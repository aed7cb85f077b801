"""Subdifferential steepest descent with a penalty/grid continuation ladder.

Each iteration computes the minimum-norm point of the pointwise
subdifferential of I at every grid node, interpolates those nodal
subgradients piecewise-linearly, and walks along the normalized negative
field.  The step comes from a line search (line_search).  Where I is
convex piecewise quadratic along the direction, a sweep line, that is
one probe at the exact minimizer eval_I_along found by sweeping the
line's breakpoints, and no decrease there ends the search.  Elsewhere
it searches on I's value and its left and right slopes along the
direction, with the polyhedral and quadratic steps of Lemarechal and
Mifflin (Math. Programming 24, 1982) and Mifflin (Math. Programming 28,
1984), down to a probe where 0 lies between the two slopes or a bracket
of _LS_TOL * (1 + gamma).  solve
measures each iterate once (functional.measure): J, the penalties, their
residuals and gradient rows.  That I is the iteration record's value and
f0 for the search on eval_I_along, and every direction and line at the
iterate reads the same measurement.  eval_I_along builds the line once:
the penalties become one quadratic in the step, and the
integrand is folded along the line (compile_line), so a probe evaluates
only the integrand's nodes that do not fold (abs, max, norm, ...), with
their one-sided slopes, on Horner values of the rest.

The subdifferential is widened to an epsilon-subdifferential, as in
Demyanov and Malozemov's epsilon-steepest descent: an abs or max branch
within eps * (1 + |value|) of the deciding value counts as active, so a
node a hair off a kink already sees the gradients from its far side and
the direction does not jam there.  Each stage walks _EPS_SCHEDULE down
from its start.  When the squared L2 norm of the field drops below
eps_bar or the line search finds no decrease, it retakes the direction
within the same iteration at the next tolerance whose field may differ:
the set at eps depends only on which tie tests hold, and a test's margin
tells the tolerances at which it holds (integrand.next_tolerance), so
the tolerances in between, whose field is provably the one already
taken, are passed over.  Where that passes over the floor too, the
field is the floor's and the stage ends without a retake.  Only at the
schedule's floor, the exact tie tolerance, do those two events end the
stage, as does the iteration budget.  Between stages the trajectory is
resampled onto the next finer grid and the penalty weight is multiplied
up while the penalty terms remain above constraint_tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .functional import (
    Measurement,
    MinNormUncertified,
    ProblemSpec,
    eval_I,  # noqa: F401  unused; perfbench's tracer checks it is restored here
    eval_I_along,
    initial_pair,
    measure,
    min_norm_field,
)
from .integrand import _TOL_ACT, DomainError, ExprError, next_tolerance
from .trajectory import (Grid, PairTraj, Traj, require_finite,
                         require_index, pl_l2_norm_sq, resample)

__all__ = ["SolverConfig", "IterationRecord", "StageRecord",
           "steepest_direction", "line_search", "solve"]


@dataclass
class SolverConfig:
    eps_bar: float = 3e-2            # stop threshold on ||v||^2 (L2, squared)
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
        if self.eps_bar <= 0.0:
            raise ValueError("eps_bar must be positive")
        for name in ("eps_bar", "lambda_factor", "lambda_max",
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
    eps: float        # tie tolerance the iteration's direction was taken at
    ls_evals: int     # probes of the iteration's line searches (f0 not counted)


@dataclass
class StageRecord:
    """One (grid, lambda) stage of a solve and why it ended.

    stop is "stationary" when the field at the exact tie tolerance fell
    below eps_bar, "ls_stall" when the line search found no decrease
    there, and "budget" when the stage used its max_iters iterations.
    eps is the tie tolerance the stage reached, that of its last
    iteration, and directions counts its steepest_direction calls,
    retakes at a smaller eps included.  skipped counts the tolerances
    its retakes passed over because the tie margins showed their field
    would be the one already taken (next_tolerance), so directions +
    skipped is the count of a walk through every tolerance.  sweeps
    counts its line searches on sweep lines, which the exact minimizer
    decides (eval_I_along's probe.sweep).
    """

    npoints: int
    lam: float
    iterations: int
    stop: str
    eps: float
    directions: int
    sweeps: int
    skipped: int


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
# The relative roundoff of a double: a bracket whose tangents allow no
# lower value than this below its ends has nothing left to find.
_EPS = float(np.finfo(float).eps)
# Tie tolerances a stage walks through, widest first.  Stationarity is
# declared only at the last, exact one.
_EPS_SCHEDULE = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, _TOL_ACT)


def steepest_direction(p: ProblemSpec, xz: PairTraj, m: Measurement,
                       cfg: SolverConfig, eps: float = _TOL_ACT
                       ) -> tuple[PairTraj | None, float, list]:
    """Normalized descent direction G = -v/||v||, the field norm ||v||
    and the field's tie tests (min_norm_field).

    v is the minimum-norm field of the subdifferential at tie tolerance
    eps, with m = measure(p, xz, lam).  The direction is None when
    ||v||^2 <= eps_bar, i.e. the iterate is stationary to tolerance at
    that eps and no direction is defined.
    """
    v, ties = min_norm_field(p, xz, m, eps)
    vsq = pl_l2_norm_sq(v)
    vnorm = float(np.sqrt(vsq))
    if vsq <= cfg.eps_bar:
        return None, vnorm, ties
    gvals = -v.values / vnorm
    n = p.n
    grid = xz.grid
    return (PairTraj(Traj(grid, gvals[:, :n]), Traj(grid, gvals[:, n:])),
            vnorm, ties)


def line_search(f: Callable[[float], tuple[float, float, float]], f0: float
                ) -> tuple[float, bool, int]:
    """Approximate minimizer of gamma -> f(gamma)[0], given f0 = f(0)[0].

    f returns (value, left slope, right slope) at gamma.  The search
    doubles from _LS_SEED while the value does not rise and the right
    slope is negative, up to _LS_MAX_STEP; when the seed already rises,
    the bracket is [0, _LS_SEED], and one probe at 0 gives its left
    end's slope (none below 0 ends the search).  In a bracket [lo, hi]
    with f'(lo+) < 0 each step comes from _step: a secant step on f'
    where the chord's slope is within 0.1 (f'(hi-) - f'(lo+)) of the
    mean of the two slopes, as on a quadratic, else where the two
    tangents meet, the kink of a V; once an end of the bracket has moved,
    its side's tangent is bent by the curvature its last two slopes show.
    The search bisects when the bracket has not halved in two probes and
    keeps each probe _LS_TOL * (1 + lo) / 2 inside the bracket.  It stops
    at a probe u with f'(u-) <= 0 <= f'(u+), when the bracket is
    _LS_TOL * (1 + lo) wide, or when the tangents leave no value below the
    bracket's ends that a double could tell apart (_EPS).

    Where f.sweep is not None, f is convex and f.sweep is its exact
    minimizer over gamma >= 0 (eval_I_along's breakpoint sweep), and the
    sweep decides: 0.0 returns no decrease without a probe, and any
    other value is probed once, capped at _LS_MAX_STEP.  When that probe
    does not beat f0 the search returns no decrease too, since by
    convexity no other step can do better.  Only where f.sweep is None
    does the slope search above run.

    A probe that raises DomainError or FloatingPointError counts as +inf
    with no slopes, so it only shrinks the bracket.  Returns (gamma,
    accepted, calls of f): gamma is the lowest probe, or 0.0 with
    accepted False when no probe beats f0 by _DECREASE_MARGIN, which
    callers treat as a stage boundary.
    """
    probes = 0
    best = (0.0, f0 - _DECREASE_MARGIN)

    def probe(g: float) -> tuple[float, float, float, float]:
        nonlocal probes, best
        probes += 1
        try:
            v, left, right = map(float, f(g))
        except (DomainError, FloatingPointError):
            return g, math.inf, math.nan, math.nan
        if g > 0.0 and v < best[1]:
            best = (g, v)
        return g, v, left, right

    def result() -> tuple[float, bool, int]:
        if best[0] > 0.0:
            return best[0], True, probes
        return 0.0, False, probes

    sweep = getattr(f, "sweep", None)
    if sweep is not None:
        if sweep > 0.0:
            probe(min(sweep, _LS_MAX_STEP))
        return result()

    # Points are (gamma, value, left slope, right slope).
    lo = None
    x = probe(_LS_SEED)
    while (x[1] <= (f0 if lo is None else lo[1]) and x[3] < 0.0
           and x[0] < _LS_MAX_STEP):
        lo = x
        x = probe(min(x[0] * _LS_GROWTH, _LS_MAX_STEP))
    if x[1] <= (f0 if lo is None else lo[1]) and (x[3] < 0.0 or x[2] <= 0.0):
        return result()  # the cap, or a minimizer: f'(x-) <= 0 <= f'(x+)
    hi = x
    if lo is None:
        lo = probe(0.0)
        if not lo[3] < 0.0:
            return result()

    widths = [hi[0] - lo[0]]
    bends: list = [None, None]  # each side's curvature, from its last two slopes
    while widths[-1] > _LS_TOL * (1.0 + lo[0]):
        a, b = lo[0], hi[0]
        u = 0.5 * (a + b)
        step = _step(lo, hi, *bends)
        if step is not None:
            gain = min(lo[1], hi[1]) - step[1]
            if 0.0 <= gain <= _EPS * abs(lo[1]):
                break  # no probe could measure a lower value
            if len(widths) < 3 or widths[-1] <= 0.5 * widths[-3]:
                u = step[0]
        margin = 0.5 * _LS_TOL * (1.0 + a)
        x = probe(min(max(u, a + margin), b - margin))
        if x[1] <= lo[1] and x[3] < 0.0:
            bends[0] = max((x[3] - lo[3]) / (x[0] - lo[0]), 0.0)
            lo = x
        elif x[1] <= lo[1] and x[2] <= 0.0 <= x[3]:
            break
        else:
            if math.isfinite(x[1]) and math.isfinite(hi[1]):
                bends[1] = max((hi[2] - x[2]) / (hi[0] - x[0]), 0.0)
            hi = x
        widths.append(hi[0] - lo[0])
    return result()


def _step(lo: tuple, hi: tuple, bend_lo: float | None, bend_hi: float | None
          ) -> tuple[float, float] | None:
    """The next probe inside the bracket [lo, hi], and the lowest value
    its two tangents allow, or None where the slopes give neither.

    Each side of the bracket is modelled from its end's value and slope
    and a curvature: the side's own, from the slopes of its last two
    ends, once it has one; before that, where the chord's slope is within
    0.1 (sb - sa) of the mean slope, as on a quadratic, (sb - sa) / w,
    else 0.  The step minimizes the larger of the two models.  With
    both curvatures from the chord that is the secant root of f', and
    with both 0 it is where the tangents meet, the kink of a V.
    """
    a, fa, sa = lo[0], lo[1], lo[3]
    b, fb, sb = hi[0], hi[1], hi[2]
    if not (math.isfinite(fb) and -math.inf < sa < sb < math.inf):
        return None
    w = b - a
    meet = (fb - fa - sb * w) / (sa - sb)  # where the tangents meet, from a
    quadratic = abs((fb - fa) / w - 0.5 * (sa + sb)) <= 0.1 * (sb - sa)
    c = (sb - sa) / w if quadratic else 0.0
    cl = c if bend_lo is None else bend_lo
    ch = c if bend_hi is None else bend_hi
    # the models cross where qa x^2 + qb x + qc = 0, x from a
    qa, qb = 0.5 * (cl - ch), sa - sb + ch * w
    qc = fa - fb + sb * w - 0.5 * ch * w * w
    x = meet
    if qa != 0.0 and qb * qb >= 4.0 * qa * qc:
        q = -0.5 * (qb + math.copysign(math.sqrt(qb * qb - 4.0 * qa * qc), qb))
        x = q / qa if q == 0.0 or 0.0 <= q / qa <= w else qc / q
    elif qa == 0.0 and qb != 0.0:
        x = -qc / qb
    # a model's own minimum, where it lies on its own side of the crossing
    if cl > 0.0 and -sa / cl < x:
        x = -sa / cl
    elif ch > 0.0 and w - sb / ch > x:
        x = w - sb / ch
    return (a + x, fa + sa * meet) if math.isfinite(x) else None


@np.errstate(over="raise", invalid="raise")
def solve(p: ProblemSpec, cfg: SolverConfig,
          direction_log: list | None = None,
          stage_log: list | None = None
          ) -> tuple[PairTraj, list[IterationRecord], str]:
    """Run the continuation ladder to a stationary, feasible iterate.

    The penalty weight starts at the problem's lambda0.  Returns the
    final pair, the per-iteration records, and a status:
    "converged" when a stage on the finest grid went stationary with
    psi + phi below constraint_tol, otherwise "exhausted".  A given
    stage_log receives one StageRecord per stage as it ends, and a given
    direction_log (k, nodes, direction) for each direction taken.

    Deterministic: identical inputs reproduce the records exactly.  Finite
    data too large for double precision raises FloatingPointError at the
    first overflow instead of carrying inf and nan on.  An ExprError,
    MinNormUncertified or FloatingPointError raised after the initial
    pair is built leaves with last_run = (the last pair, the records so
    far) set on it.
    """
    grid = Grid(p.horizon, cfg.grid_sizes[0])
    xz = initial_pair(p, grid)
    lam = float(p.lambda0)
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
            directions = 0
            sweeps = 0
            skipped = 0
            m = measure(p, xz, lam)
            for _ in range(cfg.max_iters):
                k += 1
                ls_evals = 0
                # Retake the direction at a smaller tolerance until it is
                # a descent direction or the exact set has the last word.
                # Tolerances whose field is provably this one are passed
                # over; where that reaches the floor, it has had its word.
                while True:
                    eps = _EPS_SCHEDULE[ei]
                    direction, vnorm, ties = steepest_direction(p, xz, m, cfg, eps)
                    directions += 1
                    gamma, ok = 0.0, False
                    if direction is not None:
                        along = eval_I_along(p, xz, direction, m)
                        gamma, ok, probes = line_search(along, m.I)
                        ls_evals += probes
                        sweeps += along.sweep is not None
                    if ok or ei == floor:
                        break
                    nxt = next_tolerance(ties, _EPS_SCHEDULE, ei)
                    skipped += nxt - ei - 1
                    if nxt > floor:     # the floor's field is this one
                        ei, eps = floor, _EPS_SCHEDULE[floor]
                        break
                    ei = nxt
                records.append(IterationRecord(
                    k=k, I=m.I, J=m.J, psi=m.psi, phi=m.phi, vnorm=vnorm,
                    lam=lam, gamma=gamma, npoints=xz.grid.npoints, eps=eps,
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
                m = measure(p, xz, lam)

            if stage_log is not None:
                stage_log.append(StageRecord(xz.grid.npoints, lam, k - k_start,
                                             stop, eps, directions, sweeps,
                                             skipped))
            pen = m.psi + m.phi
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
