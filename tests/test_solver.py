"""Descent loop: direction, line search, stage ladder, stopping."""

import inspect

import numpy as np
import pytest

import nsvar.integrand
import nsvar.solver
from _oracles import random_smooth_expr
from nsvar.cli import load_problem
from nsvar.convexgeom import min_norm_point
from nsvar.functional import ProblemSpec, eval_I, initial_pair
from nsvar.integrand import Max, format_expr
from nsvar.solver import SolverConfig, line_search, solve, steepest_direction
from nsvar.trajectory import Grid, PairTraj, Traj, pl_l2_norm_sq

ROOT3 = np.sqrt(3.0)


def _flat(n, npoints, horizon=1.0):
    g = Grid(horizon, npoints)
    return PairTraj(Traj(g, np.zeros((npoints, n))), Traj(g, np.zeros((npoints, n))))


def test_config_validation():
    with pytest.raises(ValueError, match="must be positive"):
        SolverConfig(eps_bar=0.0)
    with pytest.raises(ValueError, match="must be positive"):
        SolverConfig(lambda0=0.0)
    with pytest.raises(ValueError, match="not be empty"):
        SolverConfig(grid_sizes=())
    with pytest.raises(ValueError, match="strictly increasing"):
        SolverConfig(grid_sizes=(21, 11))
    with pytest.raises(ValueError, match="exceed 1"):
        SolverConfig(lambda_factor=0.9)
    for name in ("eps_bar", "lambda0", "lambda_factor", "lambda_max",
                 "constraint_tol"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                SolverConfig(**{name: bad})
    with pytest.raises(ValueError, match="^constraint_tol must not be negative$"):
        SolverConfig(constraint_tol=-1.0)
    with pytest.raises(ValueError, match="^max_iters must be at least 1$"):
        SolverConfig(max_iters=0)


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.eps_bar == 0.03
    assert cfg.grid_sizes == (11, 21, 41)
    assert nsvar.solver._LS_TOL == 1e-13
    assert nsvar.integrand._TOL_ACT == 1e-9
    assert inspect.signature(min_norm_point).parameters["tol"].default == 1e-10


def test_steepest_direction_example1():
    p = load_problem("example1")
    xz = initial_pair(p, Grid(1.0, 3))
    cfg = SolverConfig(grid_sizes=(3,))
    d, vnorm = steepest_direction(p, xz, 1.0, cfg)
    assert vnorm == pytest.approx(1.0 / ROOT3, abs=1e-12)
    assert np.allclose(d.x.values[:, 0], [ROOT3, 0.0, -ROOT3], atol=1e-12)
    assert np.allclose(d.z.values, 0.0)
    joint = Traj(xz.grid, np.hstack([d.x.values, d.z.values]))
    assert pl_l2_norm_sq(joint) == pytest.approx(1.0, abs=1e-12)


def test_steepest_direction_stationary_returns_none():
    p = load_problem("example1")
    d, vnorm = steepest_direction(p, _flat(1, 3), 1.0, SolverConfig(grid_sizes=(3,)))
    assert d is None and vnorm == 0.0


def test_steepest_direction_smooth_negative_gradient():
    from nsvar.integrand import parse_expr

    p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1), use_phi=False,
                    integrand=parse_expr("pow(x1, 2) + pow(z1, 2)", 1))
    g = Grid(1.0, 5)
    rng = np.random.default_rng(1)
    xz = PairTraj(Traj(g, rng.standard_normal((5, 1))),
                  Traj(g, rng.standard_normal((5, 1))))
    d, vnorm = steepest_direction(p, xz, 1.0, SolverConfig(grid_sizes=(5,)))
    grad = 2.0 * np.hstack([xz.x.values, xz.z.values])
    got = vnorm * np.hstack([d.x.values, d.z.values])
    assert np.allclose(got, -grad, atol=1e-9)


def test_line_search_quadratic_minimizer():
    from nsvar.integrand import parse_expr

    # I(gamma) = integral (gamma - 1)^2 along the normalized ascent of
    # (x1 - 1)^2 from rest: exact minimizer gamma = 1
    p = ProblemSpec(n=1, horizon=1.0, x0=np.zeros(1),
                    integrand=parse_expr("pow(x1 - 1, 2)", 1))
    xz = _flat(1, 5)
    cfg = SolverConfig(grid_sizes=(5,))
    d, vnorm = steepest_direction(p, xz, 1.0, cfg)
    gamma, accepted = line_search(p, xz, d, 1.0)
    assert accepted
    assert gamma == pytest.approx(1.0, abs=1e-9)
    stepped = PairTraj(Traj(xz.grid, xz.x.values + gamma * d.x.values),
                       Traj(xz.grid, xz.z.values + gamma * d.z.values))
    assert eval_I(p, stepped, 1.0) <= 1e-12


def test_line_search_rejects_non_descent():
    p = load_problem("example1")
    xz = _flat(1, 3)
    up = PairTraj(Traj(xz.grid, np.ones((3, 1))), Traj(xz.grid, np.zeros((3, 1))))
    gamma, accepted = line_search(p, xz, up, 1.0)
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
    assert np.max(np.abs(xz.x.values)) <= 1e-12


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
    assert np.max(np.abs(xz.x.values[:, 0] - np.maximum(tt - 0.5, 0.0))) <= 0.05


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
    cfg = SolverConfig(grid_sizes=(5,), eps_bar=1e-3, lambda0=1.0,
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
    assert np.array_equal(xz1.x.values, xz2.x.values)
    assert np.array_equal(xz1.z.values, xz2.z.values)
    assert len(recs1) == len(recs2)
    for a, b in zip(recs1, recs2):
        assert (a.k, a.I, a.J, a.psi, a.phi, a.vnorm, a.lam, a.gamma,
                a.npoints) == (b.k, b.I, b.J, b.psi, b.phi, b.vnorm, b.lam,
                               b.gamma, b.npoints)


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
