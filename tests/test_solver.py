"""Descent loop: direction, line search, stage ladder, stopping."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nsvar.convexgeom
import nsvar.functional
import nsvar.integrand
import nsvar.solver
from _oracles import random_smooth_expr
from nsvar.cli import builtin_config_overrides, load_problem
from nsvar.convexgeom import min_norm_point
from nsvar.functional import (ProblemSpec, eval_I, eval_I_along, initial_pair,
                              measure, min_norm_field)
from nsvar.integrand import (Add, Const, DomainError, Max, Norm, Pow, Sub, VarX,
                             VarZ, format_expr)
from nsvar.solver import SolverConfig, line_search, solve, steepest_direction
from nsvar.trajectory import Grid, Traj, pl_l2_norm_sq

ROOT3 = np.sqrt(3.0)


def _flat(n, npoints, horizon=1.0):
    g = Grid(horizon, npoints)
    return Traj(g, np.zeros((npoints, 2 * n)))


def test_config_validation():
    with pytest.raises(ValueError, match="must be positive"):
        SolverConfig(eps_bar=0.0)
    with pytest.raises(ValueError, match="not be empty"):
        SolverConfig(grid_sizes=())
    with pytest.raises(ValueError, match="strictly increasing"):
        SolverConfig(grid_sizes=(21, 11))
    with pytest.raises(ValueError, match="exceed 1"):
        SolverConfig(lambda_factor=0.9)
    for name in ("eps_bar", "lambda_factor", "lambda_max", "constraint_tol"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                SolverConfig(**{name: bad})
    with pytest.raises(ValueError, match="^constraint_tol must not be negative$"):
        SolverConfig(constraint_tol=-1.0)
    with pytest.raises(ValueError, match="^max_iters must be at least 1$"):
        SolverConfig(max_iters=0)


@pytest.mark.parametrize("make, message", [
    (lambda: SolverConfig(grid_sizes=(2.5, 5.9)),
     r"^grid_sizes\[0\] must be an integer, got 2.5$"),
    (lambda: SolverConfig(max_iters=2.5),
     r"^max_iters must be an integer, got 2.5$"),
    (lambda: SolverConfig(grid_sizes=(np.inf,)),
     r"^grid_sizes\[0\] must be an integer, got inf$"),
    (lambda: Grid(1.0, 2.5), r"^npoints must be an integer, got 2.5$"),
], ids=["fractional_grid_sizes", "fractional_max_iters", "infinite_grid_size",
        "fractional_npoints"])
def test_sizes_must_be_integers(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_sizes_accept_numpy_integers():
    cfg = SolverConfig(grid_sizes=(np.int64(3), np.int32(5)),
                       max_iters=np.int64(4))
    assert cfg.grid_sizes == (3, 5) and cfg.max_iters == 4
    assert all(type(m) is int for m in (*cfg.grid_sizes, cfg.max_iters))
    assert Grid(1.0, np.int64(3)) == Grid(1.0, 3)


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.eps_bar == 0.03
    assert cfg.grid_sizes == (11, 21, 41)
    assert nsvar.solver._LS_TOL == 1e-13
    assert nsvar.integrand._TOL_ACT == 1e-9
    schedule = nsvar.solver._EPS_SCHEDULE
    assert schedule[-1] == nsvar.integrand._TOL_ACT
    assert list(schedule) == sorted(schedule, reverse=True)
    assert inspect.signature(min_norm_point).parameters["tol"].default == 1e-10


def test_steepest_direction_example1():
    p = load_problem("example1")
    xz = initial_pair(p, Grid(1.0, 3))
    cfg = SolverConfig(grid_sizes=(3,))
    d, vnorm, _ = steepest_direction(p, xz, measure(p, xz, 1.0), cfg)
    assert vnorm == pytest.approx(1.0 / ROOT3, abs=1e-12)
    assert np.allclose(d.values[:, 0], [ROOT3, 0.0, -ROOT3], atol=1e-12)
    assert np.allclose(d.values[:, 1], 0.0)
    assert pl_l2_norm_sq(d) == pytest.approx(1.0, abs=1e-12)


def test_steepest_direction_stationary_returns_none():
    p = load_problem("example1")
    flat = _flat(1, 3)
    d, vnorm, _ = steepest_direction(p, flat, measure(p, flat, 1.0),
                                     SolverConfig(grid_sizes=(3,)))
    assert d is None and vnorm == 0.0


def test_steepest_direction_smooth_negative_gradient():
    from nsvar.integrand import parse_expr

    # lam = 0 leaves the penalties out of the field
    p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1),
                    integrand=parse_expr("pow(x1, 2) + pow(z1, 2)", 1))
    g = Grid(1.0, 5)
    rng = np.random.default_rng(1)
    xz = Traj(g, rng.standard_normal((5, 2)))
    d, vnorm, _ = steepest_direction(p, xz, measure(p, xz, 0.0),
                                     SolverConfig(grid_sizes=(5,)))
    assert np.allclose(vnorm * d.values, -2.0 * xz.values, atol=1e-9)


def test_line_search_quadratic_minimizer():
    from nsvar.integrand import parse_expr

    # I(gamma) = integral (gamma - 1)^2 along the normalized ascent of
    # (x1 - 1)^2 from rest: exact minimizer gamma = 1
    p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1),
                    integrand=parse_expr("pow(x1 - 1, 2)", 1))
    xz = _flat(1, 5)
    cfg = SolverConfig(grid_sizes=(5,))
    d, vnorm, _ = steepest_direction(p, xz, measure(p, xz, 1.0), cfg)
    gamma, accepted, _ = line_search(eval_I_along(p, xz, d, measure(p, xz, 1.0)),
                                     eval_I(p, xz, 1.0))
    assert accepted
    assert gamma == pytest.approx(1.0, abs=1e-9)
    stepped = Traj(xz.grid, xz.values + gamma * d.values)
    assert eval_I(p, stepped, 1.0) <= 1e-12


def test_line_search_rejects_non_descent():
    p = load_problem("example1")
    xz = _flat(1, 3)
    up = Traj(xz.grid, [[1.0, 0.0]] * 3)
    gamma, accepted, _ = line_search(eval_I_along(p, xz, up, measure(p, xz, 1.0)),
                                     eval_I(p, xz, 1.0))
    assert gamma == 0.0 and not accepted


def test_solve_example1_single_descent_step():
    p = load_problem("example1")
    xz, recs, status = solve(p, SolverConfig(grid_sizes=(3,)))
    assert status == "converged"
    assert sum(1 for r in recs if r.gamma > 0) == 1
    assert recs[0].I == 0.5
    assert recs[0].vnorm == pytest.approx(1.0 / ROOT3, abs=1e-12)
    assert recs[0].gamma == pytest.approx(1.0 / ROOT3, abs=1e-9)
    assert recs[-1].J <= 1e-12
    assert np.max(np.abs(xz.values[:, 0])) <= 1e-12


def test_solve_example2_grid_ladder():
    p = load_problem("example2")
    cfg = SolverConfig(grid_sizes=(11, 21, 41), max_iters=300)
    xz, recs, status = solve(p, cfg)
    assert status == "converged"
    assert recs[0].I == 0.375
    sizes = [r.npoints for r in recs]
    assert sizes == sorted(sizes)
    assert {11, 21, 41} == set(sizes)
    assert recs[-1].J <= 5e-3
    # piecewise-linear iterates trace x* = max(t - 0.5, 0)
    tt = xz.grid.nodes
    assert np.max(np.abs(xz.values[:, 0] - np.maximum(tt - 0.5, 0.0))) <= 0.05


def test_solve_monotone_descent_random_problems():
    """Accepted steps strictly decrease I within every (lambda, grid) stage."""
    rng = np.random.default_rng(21)
    solved = 0
    while solved < 20:
        n = int(rng.integers(1, 3))
        a = random_smooth_expr(rng, n, 2)
        b = random_smooth_expr(rng, n, 2)
        e = Max((a, b))
        if "/" in format_expr(e):  # keep the sampled line segment pole-free
            continue
        kw = {}
        if rng.random() < 0.5:
            kw["xT"] = rng.standard_normal(n)
        p = ProblemSpec(n=n, horizon=1.0, x0=rng.standard_normal(n),
                        integrand=e, **kw)
        cfg = SolverConfig(grid_sizes=(5, 9), eps_bar=5e-2, max_iters=30,
                           lambda_max=25.0)
        xz, recs, status = solve(p, cfg)
        assert status in ("converged", "exhausted")
        for prev, cur in zip(recs, recs[1:]):
            if (prev.lam, prev.npoints) == (cur.lam, cur.npoints) and prev.gamma > 0:
                assert cur.I < prev.I
        if status == "converged":
            # converged means: finest grid, penalties within tolerance, and
            # no step left (stationary or the line search found no decrease)
            assert recs[-1].npoints == cfg.grid_sizes[-1]
            assert recs[-1].psi + recs[-1].phi <= cfg.constraint_tol
            assert recs[-1].gamma == 0.0
        solved += 1


def test_solve_lambda_ladder_caps_and_exhausts():
    from nsvar.integrand import parse_expr

    # endpoint target 1 fights the running cost of z: the penalty can
    # never meet a 1e-12 tolerance, so lambda must climb to its cap
    p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1), xT=np.array([1.0]),
                    integrand=parse_expr("pow(z1, 2)", 1))
    cfg = SolverConfig(grid_sizes=(5,), eps_bar=1e-3,
                       lambda_factor=5.0, lambda_max=7.0,
                       constraint_tol=1e-12, max_iters=200)
    xz, recs, status = solve(p, cfg)
    assert status == "exhausted"
    lams = [r.lam for r in recs]
    assert lams == sorted(lams)
    assert set(lams) == {1.0, 5.0, 7.0}


def test_solve_exhausts_iteration_budget():
    p = load_problem("example2")
    cfg = SolverConfig(grid_sizes=(11,), eps_bar=1e-12, max_iters=2)
    _, recs, status = solve(p, cfg)
    assert status == "exhausted"


def test_solve_deterministic():
    p = load_problem("example2")
    cfg = SolverConfig(grid_sizes=(11, 21), max_iters=100)
    xz1, recs1, s1 = solve(p, cfg)
    xz2, recs2, s2 = solve(p, cfg)
    assert s1 == s2
    assert np.array_equal(xz1.values, xz2.values)
    assert recs1 == recs2


def test_a_tree_with_list_arguments_solves():
    """Nothing hashes the integrand: a tree built in Python may hold its
    max and norm arguments in lists."""
    e = Add(Max([Norm([VarX(1)]), Const(0.0)]), Pow(Sub(VarZ(1), Const(1.0)), 2))
    p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1), integrand=e)
    _, recs, status = solve(p, SolverConfig())
    assert status == "converged" and recs


def test_solve_direction_log():
    p = load_problem("example1")
    log = []
    solve(p, SolverConfig(grid_sizes=(3,)), direction_log=log)
    assert len(log) == 1
    k, nodes, values = log[0]
    assert k == 1
    assert np.allclose(nodes, [0.0, 0.5, 1.0])
    assert values.shape == (3, 2)
    assert np.allclose(values[:, 0], [ROOT3, 0.0, -ROOT3], atol=1e-12)


def test_failed_line_search_walks_the_schedule_to_the_floor(monkeypatch):
    calls = []

    def counting_field(*args, **kwargs):
        calls.append(args[3])
        return min_norm_field(*args, **kwargs)

    monkeypatch.setattr(nsvar.solver, "min_norm_field", counting_field)
    monkeypatch.setattr(nsvar.solver, "line_search",
                        lambda f, f0: (0.0, False, 0))
    p = load_problem("example2")
    stages = []
    xz, recs, status = solve(p, SolverConfig(grid_sizes=(11,)), stage_log=stages)
    schedule = nsvar.solver._EPS_SCHEDULE
    assert status == "exhausted"
    assert recs[0].eps == nsvar.integrand._TOL_ACT
    assert recs[0].gamma == 0.0
    # No tie of the initial pair changes below 1e-3, so the field there
    # is the floor's: one direction, and the other tolerances passed over.
    assert calls == [schedule[0]]
    m = measure(p, xz, p.lambda0)
    field = min_norm_field(p, xz, m, schedule[0])[0].values
    for eps in schedule[1:]:
        assert min_norm_field(p, xz, m, eps)[0].values.tobytes() == field.tobytes()
    assert [(st.iterations, st.directions, st.skipped, st.eps, st.stop)
            for st in stages] == [
        (1, 1, len(schedule) - 1, nsvar.integrand._TOL_ACT, "ls_stall")]


# x1 = 0 sits 5e-6 from the kink of abs(x1 - 5e-6): tied at 1e-3 down to
# 1e-5, not at 1e-6 or below.
_MARGIN_BETWEEN = "abs(x1 - 5e-6) + pow(z1 - 1, 2)"


def test_a_margin_between_two_tolerances_forces_the_retake(monkeypatch):
    p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1),
                    integrand=nsvar.integrand.parse_expr(_MARGIN_BETWEEN, 1))
    schedule = nsvar.solver._EPS_SCHEDULE
    xz = _flat(1, 11)
    m = measure(p, xz, 1.0)
    fields = [min_norm_field(p, xz, m, eps) for eps in schedule]
    assert nsvar.integrand.next_tolerance(fields[0][1], schedule, 0) == 3
    assert nsvar.integrand.next_tolerance(fields[3][1], schedule, 3) == len(schedule)
    same = [f.values.tobytes() == fields[0][0].values.tobytes() for f, _ in fields]
    assert same == [True, True, True, False, False, False, False]
    assert all(f.values.tobytes() == fields[3][0].values.tobytes()
               for f, _ in fields[3:])
    # the solve retakes at 1e-6, the first tolerance whose field differs
    calls = []

    def counting_field(*args, **kwargs):
        calls.append(args[3])
        return min_norm_field(*args, **kwargs)

    monkeypatch.setattr(nsvar.solver, "min_norm_field", counting_field)
    monkeypatch.setattr(nsvar.solver, "line_search",
                        lambda f, f0: (0.0, False, 0))
    stages = []
    solve(p, SolverConfig(grid_sizes=(11,)), stage_log=stages)
    assert calls == [1e-3, 1e-6]
    assert [(st.directions, st.skipped) for st in stages] == [(2, 5)]


def _stages(recs):
    out = []
    for r in recs:
        if out and (out[-1][-1].npoints, out[-1][-1].lam) == (r.npoints, r.lam):
            out[-1].append(r)
        else:
            out.append([r])
    return out


@pytest.mark.parametrize("name", ["example2", "example3"])
def test_stages_end_stationary_only_at_the_exact_set(name):
    p = load_problem(name)
    cfg = SolverConfig(**builtin_config_overrides(name))
    _, recs, status = solve(p, cfg)
    assert status == "converged"
    assert recs[0].lam == p.lambda0    # the problem's own starting weight
    schedule = nsvar.solver._EPS_SCHEDULE
    stationary = 0
    for stage in _stages(recs):
        assert all(r.eps in schedule for r in stage)
        eps = [r.eps for r in stage]
        assert eps == sorted(eps, reverse=True)
        last = stage[-1]
        if last.vnorm ** 2 <= cfg.eps_bar:
            stationary += 1
            assert last.eps == schedule[-1]
    assert stationary >= 1
    if name == "example3":
        assert len(recs) <= 100
        assert recs[-1].J <= -0.0304796


def test_penalty_ladder_member_does_not_jam():
    # A member of the example3 family whose exact-set directions jam at a
    # kink: it used to exhaust both 400-iteration stages.
    c = 2.012899650019334
    p = dataclasses.replace(load_problem("example3"), integrand=nsvar.integrand.parse_expr(
        f"max(pow(z1, 2) - pow(x1, 2) - {c!r} * t * x1, x2)", 2))
    cfg = SolverConfig(grid_sizes=(11, 21), lambda_factor=5.0,
                       lambda_max=300.0, eps_bar=9e-3, constraint_tol=5e-5,
                       max_iters=400)
    _, recs, status = solve(p, cfg)
    assert status == "converged"
    assert recs[-1].J <= -0.020


def test_an_integrand_that_reads_z_is_coupled_to_x():
    # z1 = 1 with x1 = 0 gives J = 0, but only with z cut loose from x:
    # the problem turns phi on itself, and the solve pays for x' = z.
    p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1),
                    integrand=nsvar.integrand.parse_expr("abs(z1 - 1) + pow(x1, 2)", 1))
    assert p.use_phi and not p.use_psi
    _, recs, status = solve(p, SolverConfig())
    assert status == "converged"
    assert recs[-1].J == pytest.approx(0.335107, abs=1e-6)
    assert recs[-1].phi <= SolverConfig().constraint_tol


def test_solve_norm_plus_segment_through_the_support_function(monkeypatch):
    # Node 0 holds norm at its zero, a ball the grid pass masks, plus the
    # segment of abs(x1 - t): no closed form and no vertex list, so those
    # nodes take Wolfe's method over the support function.
    calls = []
    route = nsvar.convexgeom._wolfe_support

    def counting(s, *args):
        calls.append(s)
        return route(s, *args)

    monkeypatch.setattr(nsvar.convexgeom, "_wolfe_support", counting)
    p = ProblemSpec(n=2, horizon=1.0, x0=np.zeros(2),
                    integrand=nsvar.integrand.parse_expr(
                        "norm(x1, x2) + abs(x1 - t) + pow(z1 - 1, 2) + pow(z2, 2)", 2))
    _, recs, status = solve(p, SolverConfig())
    assert calls
    assert status == "converged"
    assert recs[-1].k == 8
    assert recs[-1].J == pytest.approx(0.505291, abs=1e-6)


def test_trees_at_the_depth_bound_take_every_walk():
    # Each tree is MAX_DEPTH nodes deep: the parse, the validation, both
    # compiled passes and, at the zero of norm where every node starts,
    # the per-node route all walk it recursively, inside the default
    # recursion limit.  One level more is rejected.
    bound = nsvar.integrand.MAX_DEPTH
    parse = nsvar.integrand.parse_expr
    k = bound - 2
    nested = "norm(x1, z1) + " + "sin(" * k + "x1" + ")" * k
    flat = "norm(x1, z1) + " + " + ".join(
        f"abs(x1 - {j / k!r})" for j in range(bound - 3))
    for text in (nested, flat):
        p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1), integrand=parse(text, 1))
        _, recs, _ = solve(p, SolverConfig(grid_sizes=(5,), max_iters=3))
        assert recs
    deeper = "norm(x1, z1) + " + "sin(" * (k + 1) + "x1" + ")" * (k + 1)
    for text in (deeper, flat + " + abs(x1)"):
        with pytest.raises(nsvar.integrand.ExprError,
                           match="^expression nested too deeply$"):
            parse(text, 1)
    deep = nsvar.integrand.VarZ(1)
    for _ in range(bound):
        deep = nsvar.integrand.Add(deep, nsvar.integrand.Const(1.0))
    with pytest.raises(nsvar.integrand.ExprError,
                       match="^expression nested too deeply$"):
        ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1), integrand=deep)


def _recording(fn, slope):
    """fn with its slope as a line-search objective that logs every gamma
    it is asked for.

    slope(gamma) gives the (left, right) derivatives.  Values come back
    as numpy scalars, so arithmetic on an inf or nan among them warns (an
    error under the test settings) or raises under solve's error state.
    """
    probes = []

    def f(gamma):
        probes.append(gamma)
        return (np.float64(fn(gamma)), *map(np.float64, slope(gamma)))
    return f, probes


def _v_slopes(kink):
    """The (left, right) slopes of abs(gamma - kink)."""
    return lambda g: (-1.0 if g <= kink else 1.0, 1.0 if g >= kink else -1.0)


def test_line_search_pure_quadratic_within_probe_budget():
    f, probes = _recording(lambda g: (g - 1.0) ** 2,
                           lambda g: (2.0 * (g - 1.0),) * 2)
    gamma, accepted, evals = line_search(f, 1.0)
    assert accepted
    assert gamma == pytest.approx(1.0, abs=1e-12)
    # eight bracketing probes (0.01 doubling to 1.28, the first with a
    # positive slope), then one secant step on f', which is exact on a
    # quadratic and lands where f' is 0.
    assert evals == len(probes)
    assert probes[:8] == [0.01 * 2 ** k for k in range(8)]
    assert evals <= 9


def test_line_search_lands_on_a_kink():
    f, probes = _recording(lambda g: abs(g - 1.0), _v_slopes(1.0))
    gamma, accepted, evals = line_search(f, 1.0)
    assert accepted
    assert abs(gamma - 1.0) <= nsvar.solver._LS_TOL * (1.0 + gamma)
    assert evals == len(probes)
    assert len(set(probes)) == len(probes)
    # the bracket (0.64, 1.28) has its kink near the middle, so a secant
    # step goes to 0.96; the tangents of (0.96, 1.28) meet on the kink
    assert probes[8:] == [0.96, 1.0]


def test_line_search_survives_probes_outside_the_domain():
    # sqrt(0.7 - g) - g falls all the way to the edge of its domain at
    # gamma = 0.7.  Doubling ends at 1.28, which already raises: a
    # DomainError, or a FloatingPointError from an overflow, must count
    # as +inf with no slopes, so the search bisects towards the edge.
    for error in (DomainError("sqrt of a negative value", 0.0),
                  FloatingPointError("overflow encountered")):
        def edge(g, error=error):
            if g > 0.7:
                raise error
            return math.sqrt(0.7 - g) - g

        def slopes(g):
            if g == 0.7:
                return -math.inf, -math.inf
            return (-0.5 / math.sqrt(0.7 - g) - 1.0,) * 2

        f, probes = _recording(edge, slopes)
        with np.errstate(over="raise", invalid="raise"):
            gamma, accepted, evals = line_search(f, np.float64(math.sqrt(0.7)))
        assert accepted
        assert np.isfinite(gamma) and 0.7 - 1e-6 <= gamma <= 0.7
        assert all(np.isfinite(probes))
        assert probes[7] == 1.28 and probes[8:11] == [0.96, 0.8, 0.72]
        assert len([g for g in probes if g > 0.7]) >= 3
        assert evals == len(probes) <= 50


def test_line_search_reuses_the_rejected_seed():
    # f(0.01) = 0.007 does not beat f(0) = 0.003, so the bracket is
    # [0, 0.01]: one probe at 0 gives its left slope, the rejected seed is
    # its right end, and their tangents meet on the kink.
    f, probes = _recording(lambda g: abs(g - 0.003), _v_slopes(0.003))
    gamma, accepted, evals = line_search(f, 0.003)
    assert accepted
    assert probes[:2] == [1e-2, 0.0]
    assert probes.count(1e-2) == 1
    assert len(set(probes)) == len(probes) == evals <= 3
    assert abs(gamma - 0.003) <= nsvar.solver._LS_TOL * (1.0 + gamma)


def test_line_search_stops_without_descent_at_zero():
    # The seed does not decrease and f'(0+) >= 0: the search stops after
    # the probe at 0.
    f, probes = _recording(lambda g: abs(g), _v_slopes(0.0))
    assert line_search(f, 0.0) == (0.0, False, 2)
    assert probes == [1e-2, 0.0]


def _convex_piecewise(pieces, a, b):
    """f(g) = max over pieces (p, q, r) of p g^2 + q g + r, plus a |g - b|,
    as a line-search objective with its one-sided slopes, and the
    candidates for its minimizer: 0, each kink and each stationary point
    of a smooth piece."""
    def f(g):
        vals = [p * g * g + q * g + r for p, q, r in pieces]
        top = max(vals)
        slopes = [2.0 * p * g + q for (p, q, _), v in zip(pieces, vals) if v == top]
        left, right = min(slopes), max(slopes)
        side = (g > b) - (g < b)
        left += a if side > 0 else -a
        right += -a if side < 0 else a
        return top + a * abs(g - b), left, right

    candidates = [0.0, b, nsvar.solver._LS_MAX_STEP]
    for i, (p1, q1, r1) in enumerate(pieces):
        for s in (-a, a):
            if p1 > 0.0:
                candidates.append(-(q1 + s) / (2.0 * p1))
        for p2, q2, r2 in pieces[i + 1:]:
            dp, dq, dr = p1 - p2, q1 - q2, r1 - r2
            if dp == 0.0:
                candidates += [-dr / dq] if dq != 0.0 else []
            elif dq * dq - 4.0 * dp * dr >= 0.0:
                root = math.sqrt(dq * dq - 4.0 * dp * dr)
                candidates += [(-dq - root) / (2.0 * dp), (-dq + root) / (2.0 * dp)]
    return f, [c for c in candidates if 0.0 <= c <= nsvar.solver._LS_MAX_STEP]


_piece = st.tuples(st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
                   st.floats(-5.0, 5.0), st.floats(-1.0, 1.0))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(pieces=st.lists(_piece, min_size=1, max_size=4),
       a=st.floats(0.0, 3.0), b=st.floats(0.0, 3.0))
# a kink between two parabolas, a V on a parabola, a kink below the
# bracket's resolution, and values flat to roundoff
@example([(1.125, 0.0, 0.8125), (1.375, 0.0, 0.625)], 2.0, 1.0)
@example([(1.25, -3.125, 0.0)], 0.0625, 1.1875)
@example([(0.0, 0.875, 0.0)], 1.0, 1.6716008916560036e-181)
@example([(0.0, -1.192092896e-07, 0.0), (1.0, -5.78317767729365e-06, 0.0)], 0.0, 0.0)
@example([(0.0, 0.0, 1.0)], 3.596929901626908e-19, 3.596929901626908e-19)
def test_line_search_finds_the_minimum_of_convex_piecewise_quadratics(pieces, a, b):
    f, candidates = _convex_piecewise(pieces, a, b)
    f0 = f(0.0)[0]
    low, argmin = min((f(c)[0], c) for c in candidates)
    # the seed doubles to the minimizer, up to 8 probes to reach 1.28
    assume(argmin <= 1.5)
    calls = []

    def counted(g):
        calls.append(g)
        return f(g)
    gamma, accepted, evals = line_search(counted, f0)
    value = f(gamma)[0]
    assert evals == len(calls) <= 20
    if accepted:
        assert gamma > 0.0 and value < f0 - nsvar.solver._DECREASE_MARGIN
    else:
        assert gamma == 0.0
    assert value - low <= 1e-12 * (1.0 + abs(low))


def _sweep_line(rows, s1, s2):
    """f(g) = s1 g + s2 g^2 + sum of w |a + b g| over rows (a, b, w), as
    a line-search objective with its one-sided slopes, its terms as
    arrays, and the candidates for its minimizer over [0, _LS_MAX_STEP]:
    0, the cap, each root, and each piece's stationary point."""
    a, b, w = (np.array([r[k] for r in rows], float) for k in range(3))

    def f(g):
        u = a + b * g
        turn = np.where(u != 0.0, np.sign(u) * b, np.abs(b))
        smooth = s1 + 2.0 * s2 * g
        return (s1 * g + s2 * g * g + float(w @ np.abs(u)),
                smooth + float(w @ np.where(u != 0.0, turn, -turn)),
                smooth + float(w @ turn))

    cap = nsvar.solver._LS_MAX_STEP
    ends = sorted({0.0, cap} | {float(-ai / bi) for ai, bi in zip(a, b)
                                if bi != 0.0 and 0.0 <= -ai / bi <= cap})
    candidates = list(ends)
    if s2 > 0.0:
        for lo, hi in zip(ends, ends[1:]):
            candidates.append(min(max(lo - f(lo)[2] / (2.0 * s2), lo), hi))
    return f, (a, b, w), candidates


_half = st.integers(-6, 6).map(lambda k: k / 2.0)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.tuples(_half, st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
                               st.sampled_from([0.0, 0.5, 1.0, 2.0])), max_size=6),
       s1=_half, s2=st.sampled_from([0.0, 0.0, 0.25, 1.0]))
# a flat bottom on [1, 3] and one from 1 on; a kink at 0 that stops the
# descent; a stationary point inside a piece; no kinks, falling forever
@example([(-1.0, 1.0, 0.5), (-3.0, 1.0, 1.0)], 0.5, 0.0)
@example([(-1.0, 1.0, 0.5)], -0.5, 0.0)
@example([(0.0, 1.0, 1.0), (-1.0, 1.0, 2.0)], -0.5, 0.0)
@example([(-1.0, 0.5, 1.0), (-1.0, 0.5, 0.5)], -0.5, 1.0)
@example([], -1.0, 0.0)
def test_sweep_reaches_the_minimum_of_convex_piecewise_quadratics(rows, s1, s2):
    """The breakpoint sweep's step, the slope search's and the best of the
    candidates have one value, on lines with kinks at 0, rows with b = 0,
    repeated roots, flat bottoms, s2 > 0, no descent and no bottom."""
    f, (a, b, w), candidates = _sweep_line(rows, s1, s2)
    f0 = f(0.0)[0]
    low = min(f(c)[0] for c in candidates)
    tol = 1e-12 * (1.0 + abs(low))
    sweep = nsvar.functional._sweep_minimizer(a, b, w, s1, s2)
    assert sweep is not None and sweep >= 0.0
    assert f(min(sweep, nsvar.solver._LS_MAX_STEP))[0] - low <= tol
    if sweep == 0.0:
        assert f0 - low <= tol

    def swept(g):
        calls.append(g)
        return f(g)
    swept.sweep = sweep
    calls = []
    gamma, accepted, evals = line_search(swept, f0)
    assert evals == len(calls)
    # the sweep decides: one probe where it moves, none where it does not
    assert evals == (sweep > 0.0)
    if accepted and evals == 1:
        assert gamma == min(sweep, nsvar.solver._LS_MAX_STEP)
    slope_gamma, _, _ = line_search(f, f0)
    for g in (gamma, slope_gamma):
        assert f(g)[0] - low <= tol or f0 - low <= nsvar.solver._DECREASE_MARGIN


def test_sweep_is_refused_where_the_line_is_not_convex():
    one = np.ones(1)
    assert nsvar.functional._sweep_minimizer(one, one, one, -1.0, -0.5) is None
    assert nsvar.functional._sweep_minimizer(one, -one, -one, -1.0, 0.0) is None
    assert nsvar.functional._sweep_minimizer(one, one, one, math.nan, 0.0) is None


def test_records_count_every_line_search_probe(monkeypatch):
    evals = []

    def counted(*args):
        result = line_search(*args)
        evals.append(result[2])
        return result

    monkeypatch.setattr(nsvar.solver, "line_search", counted)
    for p, cfg, sweep_line in (
            (load_problem("example2"), SolverConfig(grid_sizes=(11, 21)), True),
            (load_problem("example3"),
             SolverConfig(**builtin_config_overrides("example3")), False)):
        evals.clear()
        _, recs, status = solve(p, cfg)
        assert status == "converged"
        assert sum(r.ls_evals for r in recs) == sum(evals)
        steps = [r.ls_evals for r in recs if r.gamma > 0.0]
        if sweep_line:
            assert steps and steps == [1] * len(steps)  # the minimizer's probe
        else:
            assert min(steps) >= 2   # the accepted probe, the bracket end


@pytest.mark.parametrize("name, swept", [("example2", True), ("example3", False)])
def test_stages_count_the_searches_that_take_the_sweep(monkeypatch, name, swept):
    searches = []

    def counted(f, f0):
        searches.append(f.sweep is not None)
        return line_search(f, f0)

    monkeypatch.setattr(nsvar.solver, "line_search", counted)
    p = load_problem(name)
    stages = []
    _, _, status = solve(p, SolverConfig(**builtin_config_overrides(name)),
                         stage_log=stages)
    assert status == "converged"
    assert set(searches) == {swept}
    assert sum(st.sweeps for st in stages) == (len(searches) if swept else 0)


def test_records_count_the_probes_of_retaken_directions(monkeypatch):
    # Every line search fails, so the first iteration retakes its
    # direction at 1e-6, the first tolerance whose field differs, and
    # ends at the floor; its record counts the probes of both directions
    # taken, none for the tolerances passed over.
    monkeypatch.setattr(nsvar.solver, "line_search",
                        lambda f, f0: (0.0, False, 7))
    p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1),
                    integrand=nsvar.integrand.parse_expr(_MARGIN_BETWEEN, 1))
    stages = []
    _, recs, _ = solve(p, SolverConfig(grid_sizes=(11,)), stage_log=stages)
    assert [r.ls_evals for r in recs] == [7 * 2]
    assert [(st.directions, st.skipped) for st in stages] == [(2, 5)]


def test_solve_walks_the_line_pass_only_along_a_direction():
    """A measurement takes J from the grid pass, so a solve runs the line
    pass only to build a line: every call passes a direction laid out as
    the iterate."""
    p = load_problem("example3")
    line = p.integrand_line
    directions = []

    def spy(xz, t, d=None):
        directions.append(d)
        return line(xz, t, d)
    p.__dict__["integrand_line"] = spy     # over the cached compile
    _, recs, status = solve(p, SolverConfig(**builtin_config_overrides("example3")))
    assert status == "converged"
    assert len(directions) >= sum(1 for r in recs if r.gamma > 0.0) > 0
    assert all(d is not None and d.shape[1:] == (2 * p.n,) for d in directions)


def test_solve_measures_each_iterate_once(monkeypatch):
    # The iterate is measured once at each stage start and once after each
    # accepted step; that measurement is the record's I and the f0 of the
    # iterate's line searches, and the solver never calls eval_I.  Its
    # residuals and penalty rows serve every direction and line: only a
    # line's own direction integrates z again.
    calls = {"measure": 0, "_residuals": 0, "_penalty_rows": 0}
    for name in calls:
        module = nsvar.solver if name == "measure" else nsvar.functional
        original = getattr(module, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counted)

    def no_eval_I(*args):
        raise AssertionError("eval_I called")
    monkeypatch.setattr(nsvar.functional, "eval_I", no_eval_I)
    monkeypatch.setattr(nsvar.solver, "eval_I", no_eval_I)

    searches = []

    def spied(f, f0):
        result = line_search(f, f0)
        searches.append((f0, result[2]))
        return result
    monkeypatch.setattr(nsvar.solver, "line_search", spied)

    p = load_problem("example3")
    _, recs, status = solve(p, SolverConfig(**builtin_config_overrides("example3")))
    assert status == "converged"
    measured = len(_stages(recs)) + sum(1 for r in recs if r.gamma > 0.0)
    assert calls == {"measure": measured, "_residuals": measured + len(searches),
                     "_penalty_rows": measured}
    # Each search makes at least one probe, so the records' ls_evals split
    # the searches into iterations.  I is eval_I's sum, to the bit.
    pending = iter(searches)
    for r in recs:
        assert r.I == r.J + r.lam * r.psi + r.lam * r.phi
        probes = 0
        while probes < r.ls_evals:
            f0, n = next(pending)
            assert f0 == r.I
            probes += n
        assert probes == r.ls_evals
    assert next(pending, None) is None
