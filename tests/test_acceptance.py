"""End-to-end acceptance checks, one test per criterion.

Each test is self-contained and prints a short summary of the measured
quantities; the pytest -v line for each test is the pass/fail verdict.
"""

import time

import numpy as np
import pytest

from _oracles import (
    EvalPoint,
    directional_derivative,
    eval_expr,
    fd_directional,
    min_activity_margin,
    qp_min_norm,
    random_expr,
    random_smooth_expr,
    subdiff_I_at,
)
from nsvar.cli import builtin_config_overrides, load_problem
from nsvar.convexgeom import Polytope, Singleton, min_norm_point, support
from nsvar.functional import (
    ProblemSpec,
    eval_I,
    eval_phi,
    eval_psi,
    grad_phi,
    grad_psi,
    initial_pair,
    measure,
    min_norm_field,
    recovered_state,
)
from nsvar.integrand import Max, format_expr
from nsvar.solver import SolverConfig, solve, steepest_direction
from nsvar.trajectory import Grid, Traj, resample, trapezoid_weights


def _builtin_config(name):
    return load_problem(name), SolverConfig(**builtin_config_overrides(name))


def test_criterion_1_one_step_exact_solution():
    """N = 3, x = 2t - 1, no penalties: one descent step lands on x = 0."""
    p, cfg = _builtin_config("example1")
    xz0 = initial_pair(p, Grid(1.0, 3))

    # nodal subdifferentials follow the {-1}, [-1,1], {+1} pattern
    s0 = subdiff_I_at(p, xz0, 1.0, 0)
    s1 = subdiff_I_at(p, xz0, 1.0, 1)
    s2 = subdiff_I_at(p, xz0, 1.0, 2)
    assert isinstance(s0, Singleton) and np.allclose(s0.point, [-1.0, 0.0])
    assert isinstance(s1, Polytope)
    assert np.allclose(sorted(s1.vertices.tolist()), [[-1.0, 0.0], [1.0, 0.0]])
    assert isinstance(s2, Singleton) and np.allclose(s2.point, [1.0, 0.0])

    # min-norm field (-1, 0, 1), descent direction prop. to (1, 0, -1)
    field, _ = min_norm_field(p, xz0, measure(p, xz0, 1.0))
    assert np.array_equal(field.values[:, 0], [-1.0, 0.0, 1.0])
    d, _, _ = steepest_direction(p, xz0, measure(p, xz0, 1.0), cfg)
    scaled = d.values[:, 0] / d.values[0, 0]
    assert np.allclose(scaled, [1.0, 0.0, -1.0], atol=1e-12)

    t0 = time.perf_counter()
    xz, recs, status = solve(p, cfg)
    dt = time.perf_counter() - t0

    descents = sum(1 for r in recs if r.gamma > 0)
    final_j = recs[-1].J
    max_x = float(np.max(np.abs(xz.values[:, 0])))
    print(f"criterion 1: status={status} descents={descents} "
          f"J={final_j:.3e} max|x|={max_x:.3e} time={dt:.2f}s")
    assert status == "converged"
    assert descents == 1
    assert final_j <= 1e-12
    assert max_x <= 1e-12
    assert dt < 1.0


def test_criterion_2_piecewise_linear_target():
    """From x = 2t - 1: I_0 = 0.375, then J <= 5e-3 within 500 iterations."""
    p, cfg = _builtin_config("example2")
    t0 = time.perf_counter()
    xz, recs, status = solve(p, cfg)
    dt = time.perf_counter() - t0

    print(f"criterion 2: status={status} I0={recs[0].I!r} J={recs[-1].J:.3e} "
          f"iters={recs[-1].k} N={recs[-1].npoints} time={dt:.2f}s")
    assert status == "converged"
    assert recs[0].I == pytest.approx(0.375, abs=1e-9)
    assert recs[-1].J <= 5e-3
    assert recs[-1].k <= 500
    assert max(r.npoints for r in recs) <= 101
    assert dt < 120.0


def test_criterion_3_two_state_penalty_ladder():
    """lambda climbs to 300 on a 5e-2 step grid; J <= -0.020 with small
    endpoint misses on the recovered state."""
    p, cfg = _builtin_config("example3")
    t0 = time.perf_counter()
    xz, recs, status = solve(p, cfg)
    dt = time.perf_counter() - t0

    state = recovered_state(p, xz)
    end = state.values[-1]
    last_stage = [r for r in recs
                  if (r.lam, r.npoints) == (recs[-1].lam, recs[-1].npoints)]
    min_i = min(r.I for r in last_stage)
    print(f"criterion 3: status={status} lam={recs[-1].lam} N={recs[-1].npoints} "
          f"J={recs[-1].J:.4f} minI={min_i:.4f} vnorm={recs[-1].vnorm:.3f} "
          f"|x1(1)|={abs(end[0]):.2e} |x2(1)|={abs(end[1]):.2e} time={dt:.1f}s")
    assert status == "converged"
    assert recs[-1].lam == 300.0
    assert recs[-1].npoints == 21  # step 5e-2
    assert recs[-1].J <= -0.020
    assert abs(end[0]) <= 5e-3
    assert abs(end[1]) <= 5e-3
    # within the final stage the objective falls through the reference level
    # and the residual norm ends below 0.1
    assert min_i <= -0.0217
    ivals = [r.I for r in last_stage]
    assert ivals == sorted(ivals, reverse=True)
    assert recs[-1].vnorm < 0.1
    lams = [r.lam for r in recs]
    assert lams == sorted(lams)
    assert dt < 600.0


def test_criterion_4_three_state_tracking():
    """lambda = 2: I_0 matches 44.30267 on the fine grid; final J <= 1e-2
    and the recovered state stays within 0.1 of (t, 0, t - sin t) in L2."""
    p, cfg = _builtin_config("example4")
    fine = Grid(5.0, cfg.grid_sizes[-1])
    i0 = eval_I(p, initial_pair(p, fine), p.lambda0)

    t0 = time.perf_counter()
    xz, recs, status = solve(p, cfg)
    dt = time.perf_counter() - t0

    state = resample(recovered_state(p, xz), Grid(5.0, 2001))
    tt = state.grid.nodes
    target = np.stack([tt, np.zeros_like(tt), tt - np.sin(tt)], axis=1)
    diff = state.values - target
    l2 = float(np.sqrt(np.trapezoid(np.sum(diff * diff, axis=1), tt)))
    print(f"criterion 4: status={status} I0={i0:.5f} J={recs[-1].J:.3e} "
          f"L2={l2:.4f} time={dt:.1f}s")
    assert i0 == pytest.approx(44.30267, abs=5e-2)
    assert status == "converged"
    assert recs[-1].J <= 1e-2
    assert l2 <= 0.1
    assert dt < 900.0


def test_criterion_5_property_suite():
    """Randomized consistency checks across the layers, under 5 minutes."""
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # (a) directional derivatives against finite differences, tol 1e-5
    done = 0
    while done < 1000:
        n = int(rng.integers(1, 4))
        e = random_expr(rng, n)
        x = rng.standard_normal(n)
        z = rng.standard_normal(n)
        t = float(rng.random())
        p = EvalPoint(x, z, t)
        g = rng.standard_normal(2 * n)
        g /= np.linalg.norm(g)
        try:
            if abs(eval_expr(e, p)) > 50.0 or min_activity_margin(e, p) < 1e-2:
                continue
            dd = directional_derivative(e, p, g)

            def f(a):
                return eval_expr(e, EvalPoint(x + a * g[:n], z + a * g[n:], t))

            est = fd_directional(f)
        except Exception:  # noqa: BLE001 - resample on domain failures
            continue
        assert dd == pytest.approx(est, abs=1e-5 * (1.0 + abs(dd)))
        done += 1

    # (b) min-norm over random polytopes vs the enumeration QP, tol 1e-6,
    # with certificate soundness
    for _ in range(500):
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, 9))
        verts = rng.standard_normal((k, d))
        if rng.random() < 0.25 and k > d:
            verts -= verts.mean(axis=0)
        s = Polytope(verts)
        r = min_norm_point(s)
        assert r.certified
        assert np.linalg.norm(r.point - qp_min_norm(verts)) <= 1e-6
        gap = float(r.point @ r.point) + support(s, -r.point)[0]
        assert gap >= -1e-12
        assert gap == pytest.approx(r.gap, abs=1e-12 * (1.0 + abs(gap)))

    # (c) penalty gradients against finite differences, tol 1e-5
    for _ in range(50):
        n = int(rng.integers(1, 3))
        horizon = float(rng.random() * 2 + 0.5)
        p = ProblemSpec(n=n, horizon=horizon, x0=rng.standard_normal(n),
                        xT=rng.standard_normal(n),
                        integrand=random_smooth_expr(rng, n, 1))
        g = Grid(horizon, int(rng.integers(5, 25)))
        w = trapezoid_weights(g)
        N = g.npoints
        xv = rng.standard_normal((N, n))
        zv = rng.standard_normal((N, n))
        ex = rng.standard_normal((N, n))
        ez = rng.standard_normal((N, n))

        xz = Traj(g, np.hstack([xv, zv]))
        r = grad_psi(p, xz)
        want = float(r @ np.trapezoid(ez, g.nodes, axis=0))
        got = fd_directional(lambda a: eval_psi(
            p, Traj(g, np.hstack([xv, zv + a * ez]))))
        assert got == pytest.approx(want, abs=1e-5 * (1.0 + abs(want)))

        gp = grad_phi(p, xz).values
        want = float(np.sum(w[:, None] * (gp[:, :n] * ex + gp[:, n:] * ez)))
        got = fd_directional(lambda a: eval_phi(
            p, Traj(g, np.hstack([xv + a * ex, zv + a * ez]))))
        assert got == pytest.approx(want, abs=1e-5 * (1.0 + abs(want)))

    # (d) within-stage monotone descent on random smooth+max problems
    solved = 0
    while solved < 20:
        n = int(rng.integers(1, 3))
        e = Max((random_smooth_expr(rng, n, 2), random_smooth_expr(rng, n, 2)))
        if "/" in format_expr(e):
            continue
        kw = {"xT": rng.standard_normal(n)} if rng.random() < 0.5 else {}
        prob = ProblemSpec(n=n, horizon=1.0, x0=rng.standard_normal(n),
                           integrand=e, **kw)
        cfg = SolverConfig(grid_sizes=(5, 9), eps_bar=5e-2, max_iters=30,
                           lambda_max=25.0)
        _, recs, status = solve(prob, cfg)
        assert status in ("converged", "exhausted")
        for prev, cur in zip(recs, recs[1:]):
            if (prev.lam, prev.npoints) == (cur.lam, cur.npoints) and prev.gamma > 0:
                assert cur.I < prev.I
        solved += 1

    # (e) interpolation error of a reconstructed profile falls with N
    jump = 1.0 / np.pi
    errs = []
    for npoints in (11, 101, 1001):
        g = Grid(1.0, npoints)
        vals = np.where(g.nodes < jump, -1.0, 1.0)[:, None]
        coarse = Traj(g, vals)
        fine = resample(coarse, Grid(1.0, 20001))
        exact = np.where(fine.grid.nodes < jump, -1.0, 1.0)
        diff = fine.values[:, 0] - exact
        errs.append(float(np.sqrt(np.trapezoid(diff * diff, fine.grid.nodes))))
    assert errs[0] > errs[1] > errs[2]

    dt = time.perf_counter() - t_start
    print(f"criterion 5: fd=1000 qp=500 grad=50x2 descent=20 "
          f"interp={[f'{e:.3e}' for e in errs]} time={dt:.1f}s")
    assert dt < 300.0
