"""Objective, penalty terms, and per-node subdifferential field."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import nsvar.functional
import nsvar.solver
import nsvar.trajectory
from _oracles import (
    dual_gradient,
    fd_directional,
    random_expr,
    random_smooth_expr,
    vertex_list,
)
from nsvar.cli import load_problem
from nsvar.convexgeom import Polytope, min_norm_point, support
from nsvar.functional import (
    MinNormUncertified,
    ProblemSpec,
    eval_I,
    eval_I_along,
    eval_J,
    eval_phi,
    eval_psi,
    grad_phi,
    grad_psi,
    initial_pair,
    measure,
    min_norm_field,
    penalty_values,
    recovered_state,
    subdiff_I_at,
    subdiff_I_nodes,
)
from nsvar.integrand import (
    _TOL_ACT,
    DomainError,
    EvalPoint,
    ExprError,
    SubdiffError,
    format_expr,
    next_tolerance,
    parse_expr,
    subdiff_expr,
)
from nsvar.solver import _DECREASE_MARGIN, SolverConfig, line_search, steepest_direction
from nsvar.trajectory import (
    Grid,
    PairTraj,
    Traj,
    cumulative_integral,
    trapezoid_weights,
)


def _simple(n=1, **kw):
    base = dict(n=n, horizon=1.0, x0=np.zeros(n),
                integrand=parse_expr("abs(x1)", n))
    base.update(kw)
    return ProblemSpec(**base)


def _pair(p, grid, x, z):
    return PairTraj(Traj(grid, x), Traj(grid, z))


def _field(p, xz, lam, tol_act=_TOL_ACT):
    """min_norm_field's field at xz, measured with weight lam."""
    return min_norm_field(p, xz, measure(p, xz, lam), tol_act)[0]


# ---------------------------------------------------------------------------
# problem construction


def test_problem_validation():
    with pytest.raises(ValueError, match="length n"):
        _simple(x0=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="positive"):
        _simple(lambda0=-1.0)
    with pytest.raises(ValueError, match="one expression per component"):
        _simple(initial_x=(parse_expr("t", 1, allow_vars=False),) * 2)
    with pytest.raises(ValueError, match="^x0 must be finite$"):
        _simple(x0=np.array([np.nan]))
    with pytest.raises(ValueError, match="^xT must be finite$"):
        _simple(xT=np.array([np.inf]))
    with pytest.raises(ValueError, match="^horizon must be finite$"):
        _simple(horizon=np.inf)
    for bad in (0.0, np.nan):
        with pytest.raises(ValueError, match="^lambda0 must be positive$"):
            _simple(lambda0=bad)
    with pytest.raises(ValueError, match="^lambda0 must be finite$"):
        _simple(lambda0=np.inf)
    assert _simple().lambda0 == 1.0


def test_problem_rejects_a_float_n():
    with pytest.raises(ValueError, match="^n must be an integer, got 1.0$"):
        ProblemSpec(n=1.0, horizon=1.0, x0=[0.0], integrand=parse_expr("abs(x1)", 1))


def test_problem_flag_inference():
    p = _simple()
    assert not p.use_psi and not p.use_phi
    p = _simple(xT=np.array([1.0]))
    assert p.use_psi
    # psi reads z, so phi is on with it, whatever the integrand reads
    assert p.use_phi
    # the consistency term is on as soon as the integrand mentions z
    p = _simple(integrand=parse_expr("abs(z1)", 1))
    assert p.use_phi
    # neither flag can be passed in
    for flag in ("use_psi", "use_phi"):
        with pytest.raises(TypeError, match=flag):
            _simple(**{flag: False})


def test_problem_is_frozen():
    p = _simple()
    for name, value in (("integrand", parse_expr("abs(z1)", 1)),
                        ("use_phi", True), ("xT", np.array([1.0]))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
    assert not p.use_psi and not p.use_phi


def test_problem_keeps_read_only_copies_of_x0_and_xT():
    x0, xT = np.array([0.5]), np.array([1.0])
    p = _simple(x0=x0, xT=xT)
    for name in ("x0", "xT"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(p, name)[0] = np.nan
    x0[0] = xT[0] = np.nan
    assert p.x0.tolist() == [0.5] and p.xT.tolist() == [1.0]
    assert p == _simple(x0=[0.5], xT=[1.0])


def test_problem_replace_derives_the_flags_again():
    p = _simple()
    line = p.integrand_line
    q = dataclasses.replace(p, integrand=parse_expr("abs(z1 - 1) + pow(x1, 2)", 1))
    assert q.use_phi and not q.use_psi
    assert q.integrand_line is not line and p.integrand_line is line
    q = dataclasses.replace(p, xT=[1.0])
    assert q.use_psi and q.use_phi
    assert not dataclasses.replace(q, xT=None).use_psi


def test_problem_equality_ignores_name():
    a = _simple(name="first")
    b = _simple(name="second")
    assert a == b
    c = _simple(integrand=parse_expr("abs(z1)", 1))
    assert a != c


# ---------------------------------------------------------------------------
# initial pair


def test_initial_pair_defaults_to_rest():
    p = _simple(n=2, x0=np.array([0.3, -0.1]), integrand=parse_expr("abs(x1)", 2))
    xz = initial_pair(p, Grid(1.0, 4))
    assert np.allclose(xz.x.values, [[0.3, -0.1]] * 4)
    assert np.array_equal(xz.z.values, np.zeros((4, 2)))


def test_initial_pair_derives_z_from_x():
    p = _simple(initial_x=(parse_expr("2 * t - 1", 1, allow_vars=False),))
    xz = initial_pair(p, Grid(1.0, 3))
    assert np.allclose(xz.x.values[:, 0], [-1.0, 0.0, 1.0])
    assert np.allclose(xz.z.values[:, 0], [2.0, 2.0, 2.0])


def test_initial_pair_explicit_z():
    p = _simple(initial_x=(parse_expr("t", 1, allow_vars=False),),
                initial_z=(parse_expr("t + 1", 1, allow_vars=False),))
    xz = initial_pair(p, Grid(1.0, 3))
    assert np.allclose(xz.z.values[:, 0], [1.0, 1.5, 2.0])


# ---------------------------------------------------------------------------
# objective and penalties


def test_eval_J_known_values():
    p1 = load_problem("example1")
    xz = initial_pair(p1, Grid(1.0, 3))
    assert eval_J(p1, xz) == 0.5

    p2 = load_problem("example2")
    assert eval_J(p2, initial_pair(p2, Grid(1.0, 11))) == 0.375

    p3 = load_problem("example3")
    assert eval_J(p3, initial_pair(p3, Grid(1.0, 11))) == 0.0


def test_eval_J_vanishes_on_example4_solution():
    p = load_problem("example4")
    g = Grid(5.0, 101)
    t = g.nodes
    x = np.stack([t, np.zeros_like(t), t - np.sin(t)], axis=1)
    z = np.stack([np.ones_like(t), np.zeros_like(t), 1.0 - np.cos(t)], axis=1)
    assert abs(eval_J(p, _pair(p, g, x, z))) <= 1e-30


def test_eval_psi_and_gradient():
    p = _simple(xT=np.array([1.0]))
    g = Grid(1.0, 5)
    z0 = Traj(g, np.zeros(5))
    assert eval_psi(p, z0) == 0.5
    assert np.allclose(grad_psi(p, z0), [-1.0])
    z1 = Traj(g, np.ones(5))
    assert eval_psi(p, z1) == 0.0
    assert np.allclose(grad_psi(p, z1), [0.0])


def test_grad_psi_finite_difference():
    rng = np.random.default_rng(2)
    p = ProblemSpec(n=2, horizon=2.0, x0=np.array([0.5, -1.0]),
                    xT=np.array([0.25, 0.75]),
                    integrand=parse_expr("abs(x1)", 2))
    g = Grid(2.0, 31)
    for _ in range(20):
        z = Traj(g, rng.standard_normal((31, 2)))
        eta = rng.standard_normal((31, 2))
        r = grad_psi(p, z)
        expected = float(r @ np.trapezoid(eta, g.nodes, axis=0))
        est = fd_directional(lambda a: eval_psi(p, Traj(g, z.values + a * eta)))
        assert est == pytest.approx(expected, abs=1e-8 * (1.0 + abs(expected)))


def test_eval_phi_zero_on_consistent_pair():
    p = _simple(integrand=parse_expr("abs(z1)", 1))
    g = Grid(1.0, 9)
    z = Traj(g, np.cos(g.nodes))
    x = cumulative_integral(z, p.x0)
    assert eval_phi(p, PairTraj(x, z)) == 0.0
    assert penalty_values(p, PairTraj(x, z)) == (0.0, 0.0)


def test_grad_phi_frozen_field():
    """Constant defect d = 1: the x rows equal d, the z rows equal the
    reverse cumulative integral with half-step end corrections."""
    p = _simple(integrand=parse_expr("abs(z1)", 1))
    g = Grid(1.0, 5)
    xz = _pair(p, g, np.ones(5), np.zeros(5))
    assert eval_phi(p, xz) == 0.5
    gp = grad_phi(p, xz)
    assert np.allclose(gp.values[:, 0], 1.0, atol=1e-15)
    assert np.allclose(gp.values[:, 1], [-0.875, -0.75, -0.5, -0.25, -0.125],
                       atol=1e-15)


def test_grad_phi_finite_difference():
    """The gradient field is exact for the discrete phi under the
    trapezoid pairing sum_j w_j <row_j, direction_j>."""
    rng = np.random.default_rng(3)
    p = ProblemSpec(n=2, horizon=1.5, x0=np.array([0.3, -0.2]),
                    integrand=parse_expr("abs(x1) + abs(z2)", 2))
    g = Grid(1.5, 17)
    w = trapezoid_weights(g)
    for _ in range(20):
        x = rng.standard_normal((17, 2))
        z = rng.standard_normal((17, 2))
        ex = rng.standard_normal((17, 2))
        ez = rng.standard_normal((17, 2))
        gp = grad_phi(p, _pair(p, g, x, z)).values
        expected = float(np.sum(w[:, None] * (gp[:, :2] * ex + gp[:, 2:] * ez)))

        def f(a):
            return eval_phi(p, _pair(p, g, x + a * ex, z + a * ez))

        assert fd_directional(f) == pytest.approx(
            expected, abs=1e-7 * (1.0 + abs(expected)))


def test_eval_I_zero_lambda_is_J():
    p = load_problem("example3")
    xz = initial_pair(p, Grid(1.0, 11))
    assert eval_I(p, xz, 0.0) == eval_J(p, xz)


def test_eval_I_consistent_pair_has_no_penalty():
    p0 = load_problem("example3")
    g = Grid(1.0, 21)
    z = Traj(g, np.stack([np.sin(g.nodes), np.cos(g.nodes)], axis=1))
    x = cumulative_integral(z, p0.x0)
    p = ProblemSpec(n=2, horizon=1.0, x0=p0.x0, xT=x.values[-1].copy(),
                    integrand=p0.integrand)
    xz = PairTraj(x, z)
    assert eval_I(p, xz, 300.0) == eval_J(p, xz)


def test_eval_I_example4_initial_value():
    p = load_problem("example4")
    xz = initial_pair(p, Grid(5.0, 201))
    assert eval_I(p, xz, p.lambda0) == pytest.approx(44.30267, abs=5e-2)


# Interpolants of a nearly optimal pair for the two-state problem with
# endpoint and consistency penalties; the objective value at lambda = 300
# on the 21-node grid is a frozen regression target.
_X1_PIECES = (
    (0.25, (27.83995, -18.272210, 4.163818, -0.47695, 0.153284, 0.0)),
    (0.5, (0.763217, 0.0, -0.923994, 0.457991, 0.018469, 0.009833)),
    (0.75, (2.02681, -3.01454, -0.62533, 3.13597, -1.81301, 0.36767)),
    (1.0, (0.0, -0.155737, 0.0, 0.420485, -0.429341, 0.169993)),
)
_X2_PIECES = (
    (0.5, (1.934618, -2.059840, 0.821448, -0.169958, -0.073440, 0.0)),
    (1.0, (0.0, 0.463557, -1.012055, 1.092861, -0.647782, 0.103397)),
)
_Z1 = (-0.043907, 0.217162, -0.337550, -0.126702, 0.132179)
_Z2 = (-0.035801, 0.661239, -0.132123, -0.066889, -0.080925)


def _piecewise(t, pieces):
    for bound, coeffs in pieces:
        if t <= bound + 1e-12:
            return float(np.polyval(coeffs, t))
    raise AssertionError("t out of range")


def test_eval_I_frozen_near_optimal_pair():
    p = load_problem("example3")
    g = Grid(1.0, 21)
    t = g.nodes
    x = np.stack([[_piecewise(tj, _X1_PIECES) for tj in t],
                  [_piecewise(tj, _X2_PIECES) for tj in t]], axis=1)
    z = np.stack([np.polyval(_Z1, t), np.polyval(_Z2, t)], axis=1)
    val = eval_I(p, _pair(p, g, x, z), 300.0)
    assert val == pytest.approx(-0.02175, abs=5e-4)


def _one_pass_problems():
    """The built-ins and the two benchmark reference problems."""
    yield from (load_problem(f"example{k}") for k in (1, 2, 3, 4))
    yield ProblemSpec(
        n=2, horizon=1.0, x0=[0.0, 0.0], xT=[0.0, 0.0],
        integrand=parse_expr("max(pow(z1, 2) - pow(x1, 2) - 2.0 * t * x1, x2)", 2))
    yield ProblemSpec(
        n=2, horizon=1.0, x0=[-1.0, 1.0],
        integrand=parse_expr(
            "abs(x1 - max(t - 0.5, 0)) + abs(x2 - sin(6.0 * t))", 2))


def test_eval_I_is_exactly_the_sum_of_its_terms():
    rng = np.random.default_rng(17)
    for p in _one_pass_problems():
        for N in (2, 11, 201):
            g = Grid(p.horizon, N)
            for _ in range(5):
                xz = _pair(p, g, rng.standard_normal((N, p.n)),
                           rng.standard_normal((N, p.n)))
                lam = float(rng.uniform(0.1, 500.0))
                want = (eval_J(p, xz) + lam * eval_psi(p, xz.z)
                        + lam * eval_phi(p, xz))
                assert eval_I(p, xz, lam) == want


def test_penalties_from_one_integral_keep_their_bits():
    """penalty_values and the penalty rows of the nodal sets integrate z
    once, and give exactly what the public terms give."""
    rng = np.random.default_rng(19)
    for p in _one_pass_problems():
        g = Grid(p.horizon, 21)
        xz = _pair(p, g, rng.standard_normal((21, p.n)),
                   rng.standard_normal((21, p.n)))
        lam = float(rng.uniform(0.1, 500.0))
        assert penalty_values(p, xz) == (eval_psi(p, xz.z), eval_phi(p, xz))
        want = np.zeros((21, 2 * p.n))
        if p.use_phi:
            want += lam * grad_phi(p, xz).values
        if p.use_psi:
            want[:, p.n:] += lam * grad_psi(p, xz.z)
        assert np.array_equal(measure(p, xz, lam).rows, want)


@pytest.mark.parametrize("text, node, message", [
    ("pow(z1, 2) + exp(x1)", 4, "integrand is not finite"),
    ("pow(z1, 2) + sqrt(x1)", 2, "sqrt of a negative value"),
    ("pow(z1, 2) + 1 / x1", 5, "division by zero"),
])
def test_eval_I_raises_the_domain_error_of_eval_J(text, node, message):
    p = ProblemSpec(n=1, horizon=1.0, x0=[0.0], xT=[1.0],
                    integrand=parse_expr(text, 1))
    assert p.use_psi and p.use_phi
    g = Grid(1.0, 7)
    x = np.full((7, 1), 0.5)
    x[node] = {"integrand is not finite": 1e3, "sqrt of a negative value": -1.0,
               "division by zero": 0.0}[message]
    xz = _pair(p, g, x, np.ones((7, 1)))
    with np.errstate(over="ignore"), pytest.raises(DomainError, match=message) as want:
        eval_J(p, xz)
    with np.errstate(over="ignore"), pytest.raises(DomainError) as got:
        eval_I(p, xz, 20.0)
    assert str(got.value) == str(want.value)
    assert got.value.node_index == want.value.node_index == node


def test_eval_I_hot_path_counts(monkeypatch):
    p = load_problem("example3")
    assert p.use_psi and p.use_phi
    g = Grid(1.0, 21)
    rng = np.random.default_rng(2)
    xz = _pair(p, g, rng.standard_normal((21, 2)), rng.standard_normal((21, 2)))
    counts = {"traj": 0, "cumulative": 0, "compile": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nsvar.trajectory.Traj, "__init__",
                        counting("traj", nsvar.trajectory.Traj.__init__))
    monkeypatch.setattr(nsvar.functional, "cumulative_trapezoid",
                        counting("cumulative", nsvar.functional.cumulative_trapezoid))
    monkeypatch.setattr(nsvar.functional, "compile_line",
                        counting("compile", nsvar.functional.compile_line))
    first = eval_I(p, xz, 20.0)
    assert counts == {"traj": 0, "cumulative": 1, "compile": 1}
    assert eval_I(p, xz, 20.0) == first
    assert counts == {"traj": 0, "cumulative": 2, "compile": 1}

    assert g.nodes is g.nodes


def _reference_problem(name, tmp_path, monkeypatch):
    """A built-in or a benchmark workload's reference problem (seed 0)."""
    if not name.startswith("workload:"):
        return load_problem(name)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while it loads
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    text, _ = workloads.generate(name.removeprefix("workload:"), 0)
    f = tmp_path / "reference.prob"
    f.write_text(text)
    return load_problem(str(f))


@pytest.mark.parametrize("name, N", [("example3", 11), ("example3", 21),
                                     ("example4", 51), ("example2", 21),
                                     ("workload:penalty_ladder", 21),
                                     ("workload:kink_tracking", 51)])
def test_eval_I_along_is_eval_I_on_the_line(name, N, tmp_path, monkeypatch):
    """The penalties' quadratic in gamma plus the folded integrand is I."""
    p = _reference_problem(name, tmp_path, monkeypatch)
    g = Grid(p.horizon, N)
    rng = np.random.default_rng(23)
    for lam in (1.0, 20.0, 300.0):
        for _ in range(3):
            xz = _pair(p, g, rng.standard_normal((N, p.n)),
                       rng.standard_normal((N, p.n)))
            d = _pair(p, g, rng.standard_normal((N, p.n)),
                      rng.standard_normal((N, p.n)))
            along = eval_I_along(p, xz, d, measure(p, xz, lam))
            for gamma in (0.0, 1e-9, 1e-2, 1.0, 1e3):
                stepped = _pair(p, g, xz.x.values + gamma * d.x.values,
                                xz.z.values + gamma * d.z.values)
                want = eval_I(p, stepped, lam)
                value, left, right = along(gamma)
                assert abs(value - want) <= 1e-12 * (1.0 + abs(want))
                # the slopes, penalties included, are the value's one-sided
                # differences (no node meets a kink this close to gamma)
                h = 1e-6 * (1.0 + gamma)
                for slope, step in ((right, h), (left, -h)):
                    diff = (along(gamma + step)[0] - value) / step
                    assert abs(slope - diff) <= 1e-4 * (1.0 + abs(slope))


@pytest.mark.parametrize("name", [
    "example1", "example2", "workload:kink_tracking", "abs_with_penalties",
    "max(x1, z1) + 0.5 * pow(z1 - 1, 2)", "2 * abs(x1 - t) + pow(x1, 2)"])
def test_eval_I_along_sweeps_to_the_slope_search_minimum(name, tmp_path, monkeypatch):
    """On a sweep line one probe at probe.sweep reaches the slope search's
    value, penalties' quadratic included."""
    if name == "abs_with_penalties":
        p = ProblemSpec(n=1, horizon=1.0, x0=[0.0], xT=[0.5],
                        integrand=parse_expr("abs(z1) + abs(x1 - t)", 1))
    elif name.startswith(("example", "workload:")):
        p = _reference_problem(name, tmp_path, monkeypatch)
    else:
        p = ProblemSpec(n=1, horizon=1.0, x0=[0.0],
                        integrand=parse_expr(name, 1))
    g = Grid(p.horizon, 21)
    rng = np.random.default_rng(41)
    for lam in (1.0, 20.0):
        for _ in range(5):
            xz, d = (_pair(p, g, rng.standard_normal((21, p.n)),
                           rng.standard_normal((21, p.n))) for _ in range(2))
            along = eval_I_along(p, xz, d, measure(p, xz, lam))
            assert along.sweep is not None
            f0 = along(0.0)[0]
            swept = line_search(along, f0)
            slopes = line_search(lambda gamma: along(gamma), f0)
            assert swept[2] <= 1    # the probe at the sweep decides
            low, high = sorted(along(gamma)[0] for gamma in (swept[0], slopes[0]))
            assert high - low <= 1e-12 * (1.0 + abs(low)) or (
                f0 - low <= _DECREASE_MARGIN)


@pytest.mark.parametrize("name", ["example3", "example4",
                                  "workload:penalty_ladder"])
def test_lines_without_a_sweep(name, tmp_path, monkeypatch):
    """A max of degree-2 branches and a norm keep the slope search."""
    p = _reference_problem(name, tmp_path, monkeypatch)
    g = Grid(p.horizon, 21)
    rng = np.random.default_rng(43)
    xz, d = (_pair(p, g, rng.standard_normal((21, p.n)),
                   rng.standard_normal((21, p.n))) for _ in range(2))
    at = p.integrand_line(xz.x.values, xz.z.values, g.nodes,
                            d.x.values, d.z.values)
    assert at.kinks is None
    assert eval_I_along(p, xz, d, measure(p, xz, 20.0)).sweep is None


def test_sweep_waits_for_a_convex_line():
    # abs(x1) - pow(x1, 2) folds, but its gamma^2 coefficient is negative
    p = ProblemSpec(n=1, horizon=1.0, x0=[0.0],
                    integrand=parse_expr("abs(x1) - pow(x1, 2)", 1))
    g = Grid(1.0, 5)
    xz = _pair(p, g, np.zeros((5, 1)), np.zeros((5, 1)))
    d = _pair(p, g, np.ones((5, 1)), np.zeros((5, 1)))
    along = eval_I_along(p, xz, d, measure(p, xz, 1.0))
    assert p.integrand_line(xz.x.values, xz.z.values, g.nodes,
                              d.x.values, d.z.values).kinks is not None
    assert along.sweep is None


@pytest.mark.parametrize("text, message", [
    ("pow(z1, 2) + exp(x1)", "integrand is not finite"),
    ("pow(z1, 2) + sqrt(x1)", "sqrt of a negative value"),
    ("pow(z1, 2) + 1 / x1", "division by zero"),
])
def test_eval_I_along_raises_the_domain_error_of_eval_I(text, message):
    p = ProblemSpec(n=1, horizon=1.0, x0=[0.0], xT=[1.0],
                    integrand=parse_expr(text, 1))
    g = Grid(1.0, 7)
    xz = _pair(p, g, np.full((7, 1), 0.5), np.ones((7, 1)))
    bad = {"integrand is not finite": 1e3, "sqrt of a negative value": -1.0,
           "division by zero": 0.0}[message]
    dx = np.zeros((7, 1))
    dx[3] = bad - 0.5
    d = _pair(p, g, dx, np.zeros((7, 1)))
    stepped = _pair(p, g, xz.x.values + dx, xz.z.values)
    with np.errstate(over="ignore"), pytest.raises(DomainError, match=message) as want:
        eval_I(p, stepped, 20.0)
    along = eval_I_along(p, xz, d, measure(p, xz, 20.0))
    with np.errstate(over="ignore"), pytest.raises(DomainError) as got:
        along(1.0)
    assert str(got.value) == str(want.value)
    assert got.value.node_index == want.value.node_index == 3
    inside = _pair(p, g, xz.x.values + 0.25 * dx, xz.z.values)
    assert along(0.25)[0] == pytest.approx(eval_I(p, inside, 20.0), rel=1e-12)


@pytest.mark.parametrize("bad_nodes", [(0,), (3,), (6,), (5, 2)])
def test_eval_I_along_names_the_first_non_finite_node(bad_nodes):
    p = ProblemSpec(n=1, horizon=1.0, x0=[0.0], integrand=parse_expr("exp(x1)", 1))
    g = Grid(1.0, 7)
    xz = _pair(p, g, np.zeros((7, 1)), np.zeros((7, 1)))
    dx = np.zeros((7, 1))
    dx[list(bad_nodes)] = 1e3
    along = eval_I_along(p, xz, _pair(p, g, dx, np.zeros((7, 1))), measure(p, xz, 1.0))
    with np.errstate(over="ignore"), pytest.raises(DomainError) as got:
        along(1.0)
    i = min(bad_nodes)
    assert str(got.value) == (
        f"integrand is not finite at t={float(g.nodes[i])!r} (node {i})")
    assert got.value.node_index == i
    # values near the overflow threshold are still inside the domain; their
    # slopes, exp(x1) times a step of 1e3, overflow
    with np.errstate(over="ignore"):
        value, left, right = along(0.709)
    assert np.isfinite(value) and left == right == np.inf


def test_eval_I_along_probes_integrate_nothing(monkeypatch):
    p = load_problem("example3")
    g = Grid(1.0, 21)
    rng = np.random.default_rng(3)
    xz = _pair(p, g, rng.standard_normal((21, 2)), rng.standard_normal((21, 2)))
    d = _pair(p, g, rng.standard_normal((21, 2)), rng.standard_normal((21, 2)))
    m = measure(p, xz, 20.0)
    counts = {"traj": 0, "cumulative": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nsvar.trajectory.Traj, "__init__",
                        counting("traj", nsvar.trajectory.Traj.__init__))
    monkeypatch.setattr(nsvar.functional, "cumulative_trapezoid",
                        counting("cumulative", nsvar.functional.cumulative_trapezoid))
    # the iterate's residuals come from m: only the direction's integrate
    along = eval_I_along(p, xz, d, m)
    assert counts == {"traj": 0, "cumulative": 1}
    for gamma in (0.0, 0.1, 1.0, 10.0):
        along(gamma)
    assert counts == {"traj": 0, "cumulative": 1}
    assert not g.nodes.flags.writeable
    with pytest.raises(ValueError):
        g.nodes[0] = 1.0
    fresh = Grid(1.0, 21)
    assert fresh == g and hash(fresh) == hash(g)
    assert Grid(1.0, 5) != g


def test_eval_I_along_builds_the_trapezoid_weights_once_per_grid(monkeypatch):
    p = load_problem("example3")
    g = Grid(1.0, 21)
    rng = np.random.default_rng(4)
    xz, d = (_pair(p, g, *rng.standard_normal((2, 21, 2))) for _ in range(2))
    m = measure(p, xz, 20.0)
    built = []

    def spy(grid):
        built.append(grid)
        return trapezoid_weights(grid)
    monkeypatch.setattr(nsvar.trajectory, "trapezoid_weights", spy)
    probes = [eval_I_along(p, xz, d, m)(gamma) for gamma in (0.0, 0.5, 2.0)]
    assert built == [g]
    monkeypatch.undo()
    # the bits of weights built afresh for every line
    assert probes == [eval_I_along(p, xz, d, m)(gamma) for gamma in (0.0, 0.5, 2.0)]


# ---------------------------------------------------------------------------
# subdifferential field


def test_subdiff_node_set_matches_expression_subdiff():
    rng = np.random.default_rng(5)
    done = 0
    while done < 60:
        n = int(rng.integers(1, 3))
        e = random_expr(rng, n)
        p = ProblemSpec(n=n, horizon=1.0, x0=np.zeros(n), integrand=e)
        g = Grid(1.0, 5)
        xz = _pair(p, g, rng.standard_normal((5, n)), rng.standard_normal((5, n)))
        i = int(rng.integers(0, 5))
        node = EvalPoint(xz.x.values[i], xz.z.values[i], g.nodes[i])
        s1 = subdiff_I_at(p, xz, 0.0, i)
        s2 = subdiff_expr(e, node)
        for _ in range(4):
            d = rng.standard_normal(2 * n)
            assert support(s1, d)[0] == pytest.approx(
                support(s2, d)[0], abs=1e-10)
        done += 1


def test_subdiff_field_example1_initial():
    p = load_problem("example1")
    xz = initial_pair(p, Grid(1.0, 3))
    s = subdiff_I_at(p, xz, 1.0, 1)
    assert isinstance(s, Polytope)
    assert np.allclose(sorted(s.vertices.tolist()), [[-1.0, 0.0], [1.0, 0.0]])
    f = _field(p, xz, 1.0)
    assert np.array_equal(f.values, [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])


def test_subdiff_nodes_agrees_with_single_node():
    p = load_problem("example3")
    g = Grid(1.0, 7)
    rng = np.random.default_rng(11)
    xz = _pair(p, g, rng.standard_normal((7, 2)), rng.standard_normal((7, 2)))
    sets = subdiff_I_nodes(p, xz, 20.0)
    assert len(sets) == 7
    for i, s in enumerate(sets):
        single = subdiff_I_at(p, xz, 20.0, i)
        for _ in range(3):
            d = rng.standard_normal(4)
            assert support(s, d)[0] == pytest.approx(
                support(single, d)[0], abs=1e-10)


def test_min_norm_field_smooth_composition():
    """At smooth points, each row is the expression gradient plus the
    lambda-weighted penalty rows taken from grad_psi / grad_phi."""
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 3))
        e = random_smooth_expr(rng, n, 2)
        p = ProblemSpec(n=n, horizon=1.0, x0=rng.standard_normal(n),
                        xT=rng.standard_normal(n), integrand=e)
        g = Grid(1.0, 6)
        xz = _pair(p, g, rng.standard_normal((6, n)), rng.standard_normal((6, n)))
        lam = float(rng.random() * 5 + 0.5)
        try:
            field = _field(p, xz, lam).values
        except Exception:  # noqa: BLE001 - domain errors from random exprs
            continue
        r = grad_psi(p, xz.z)
        gp = grad_phi(p, xz).values
        for i in range(6):
            node = EvalPoint(xz.x.values[i], xz.z.values[i], g.nodes[i])
            expect = dual_gradient(e, node.x, node.z, node.t)
            expect = expect + lam * gp[i]
            expect[n:] += lam * r
            assert np.allclose(field[i], expect, atol=1e-10)


def test_stationarity_residual_example1():
    p = load_problem("example1")
    xz = initial_pair(p, Grid(1.0, 3))
    _, vnorm, _ = steepest_direction(p, xz, measure(p, xz, 1.0), SolverConfig())
    assert vnorm ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    flat = _pair(p, Grid(1.0, 3), np.zeros(3), np.zeros(3))
    assert steepest_direction(p, flat, measure(p, flat, 1.0),
                              SolverConfig())[:2] == (None, 0.0)


def test_min_norm_field_deterministic():
    p = load_problem("example3")
    g = Grid(1.0, 11)
    xz = initial_pair(p, g)
    a = _field(p, xz, 20.0).values
    b = _field(p, xz, 20.0).values
    assert np.array_equal(a, b)


def test_min_norm_field_uncertified_raises(monkeypatch):
    p = load_problem("example4")
    xz = initial_pair(p, Grid(5.0, 51))
    exact = nsvar.functional.min_norm_point
    monkeypatch.setattr(nsvar.functional, "min_norm_point",
                        lambda s: exact(s, tol=0.0))
    with pytest.raises(MinNormUncertified, match="certificate failed"):
        _field(p, xz, 2.0)


def _per_node_field(p, xz, lam, tol_act):
    """The reference field: min_norm_point on every nodal set."""
    sets = subdiff_I_nodes(p, xz, lam, tol_act)
    return np.array([min_norm_point(s).point for s in sets])


def _assert_same_field(p, xz, lam, tol_act):
    """min_norm_field agrees with the reference, or raises as it does."""
    try:
        want = _per_node_field(p, xz, lam, tol_act)
    except (DomainError, SubdiffError) as exc:
        with pytest.raises(type(exc)):
            _field(p, xz, lam, tol_act)
        return False
    got = _field(p, xz, lam, tol_act).values
    tol = 1e-12 * (1.0 + np.linalg.norm(want, axis=1))
    assert (np.abs(got - want).max(axis=1) <= tol).all(), (got, want)
    return True


def _half_integer_pair(rng, n, N):
    g = Grid(0.5 * (N - 1), N)   # nodes 0, 0.5, 1, ...
    x = 0.5 * rng.integers(-4, 5, (N, n))
    z = 0.5 * rng.integers(-4, 5, (N, n))
    return g, x.astype(float), z.astype(float)


@pytest.mark.parametrize("tol_act", [1e-9, 1e-3])
@pytest.mark.parametrize("penalties", [False, True])
def test_min_norm_field_matches_per_node_route(tol_act, penalties):
    """At half-integer points, where ties are common, the grid pass plus
    closed form gives the per-node route's field."""
    rng = np.random.default_rng(41 + int(penalties))
    compared = 0
    for _ in range(80):
        n = int(rng.integers(1, 3))
        e = random_expr(rng, n)
        g, x, z = _half_integer_pair(rng, n, 7)
        kw = dict(xT=0.5 * rng.integers(-2, 3, n).astype(float)) if penalties else {}
        p = ProblemSpec(n=n, horizon=g.horizon, x0=np.zeros(n), integrand=e, **kw)
        lam = 3.0 if penalties else 0.0
        compared += _assert_same_field(p, _pair(p, g, x, z), lam, tol_act)
    assert compared >= 60


# Offsets from a half-integer lattice that put tie margins on both sides
# of every tolerance of the schedule, and on the lattice itself.
_NEAR_KINKS = (0.0, 0.0, 0.0, 4e-4, -3e-5, 2e-6, -6e-7, 5e-8, -2e-9, 7e-10)


def _outcome(p, xz, m, tol_act):
    """min_norm_field's field and each node's subdiff_expr vertex list at
    tol_act, as bytes, or the error each raises."""
    def attempt(f):
        try:
            out = f()
        except (ExprError, MinNormUncertified) as exc:
            return type(exc), str(exc)
        return None if out is None else (out.shape, out.tobytes())

    def vertices(i):
        point = EvalPoint(xz.x.values[i], xz.z.values[i], float(xz.grid.nodes[i]))
        return vertex_list(subdiff_expr(p.integrand, point, tol_act))
    return (attempt(lambda: min_norm_field(p, xz, m, tol_act)[0].values),
            [attempt(lambda i=i: vertices(i)) for i in range(xz.grid.npoints)])


@pytest.mark.parametrize("penalties", [False, True])
def test_skipped_tolerances_keep_every_set_and_the_field(penalties):
    """At every tolerance next_tolerance passes over, each node's
    subdiff_expr vertex list and min_norm_field are those at the
    tolerance it starts from, bit for bit, on random draws near their
    kinks."""
    schedule = nsvar.solver._EPS_SCHEDULE
    rng = np.random.default_rng(53 + int(penalties))
    skipped = changed = 0
    for _ in range(250):
        n = int(rng.integers(1, 3))
        e = random_expr(rng, n)
        g, x, z = _half_integer_pair(rng, n, 7)
        x += rng.choice(_NEAR_KINKS, x.shape)
        z += rng.choice(_NEAR_KINKS, z.shape)
        kw = dict(xT=0.5 * rng.integers(-2, 3, n).astype(float)) if penalties else {}
        p = ProblemSpec(n=n, horizon=g.horizon, x0=np.zeros(n), integrand=e, **kw)
        xz = _pair(p, g, x, z)
        try:
            m = measure(p, xz, 3.0 if penalties else 0.0)
        except DomainError:
            continue
        outcomes = [_outcome(p, xz, m, eps) for eps in schedule]
        for i in range(len(schedule) - 1):
            ties = p.integrand_subdiff(x, z, g.nodes, schedule[i])[4]
            j = next_tolerance(ties, schedule, i)
            assert i < j <= len(schedule)
            for k in range(i + 1, min(j, len(schedule))):
                assert outcomes[k] == outcomes[i], (format_expr(e), i, k)
            skipped += min(j, len(schedule)) - i - 1
            changed += j < len(schedule) and outcomes[j] != outcomes[i]
    # the draws exercise both sides of the rule
    assert skipped >= 2000 and changed >= 25


@pytest.mark.parametrize("text, node", [
    ("norm(z1 - 1, x2)", [0.0, 0.0, 1.0, 1.0]),     # ball at its zero
    ("max(x1, z1, t)", [0.5, 0.5, 0.5, 0.5]),       # three-way tie
    ("max(abs(x1), z1)", [0.0, 0.0, 0.0, 0.0]),     # tie over a segment
    ("abs(x1 - max(t - 0.5, 0))", [0.0, 0.0, 0.0, 0.0]),  # over a zero segment
    ("abs(x1 + z1) + abs(x1)", [0.0, 0.0, 0.0, 0.0]),  # oblique segments
    ("norm(z1 - x2, x1)", [0.0, 0.0, 0.0, 0.0]),    # SubdiffError
    ("pow(z1, 2) + sqrt(x1)", [0.0, 1.0, 1.0, 1.0]),  # DomainError
    ("pow(z1, 2) + 1 / x2", [1.0, 0.0, 1.0, 1.0]),  # DomainError
])
@pytest.mark.parametrize("penalties", [False, True])
def test_min_norm_field_takes_per_node_route(monkeypatch, text, node, penalties):
    """Sets that are not a point plus segments go node by node, and so do
    those whose closed form the certificate rejects."""
    p = ProblemSpec(n=2, horizon=1.0, x0=[0.0, 0.0], integrand=parse_expr(text, 2),
                    **(dict(xT=[1.0, 0.5]) if penalties else {}))
    g = Grid(1.0, 3)
    x = np.full((3, 2), 2.0)
    z = np.full((3, 2), 3.0)
    x[1], z[1] = node[:2], node[2:]
    xz = _pair(p, g, x, z)
    per_node = []
    exact = nsvar.functional.min_norm_point

    def spy(s):
        per_node.append(s)
        return exact(s)
    monkeypatch.setattr(nsvar.functional, "min_norm_point", spy)
    if _assert_same_field(p, xz, 2.0 if penalties else 0.0, 1e-9):
        # Oblique segments at q = 0: the clip is 0, exact and certified.
        oblique_at_zero = text == "abs(x1 + z1) + abs(x1)" and not penalties
        assert len(per_node) == (0 if oblique_at_zero else 1)


def test_min_norm_field_sends_one_uncertified_row_node_by_node(monkeypatch):
    """Among 401 rows, the one whose clip the certificate rejects, at
    oblique segments, goes node by node; the field is the reference."""
    p = ProblemSpec(n=1, horizon=1.0, x0=[0.0],
                    integrand=parse_expr("abs(x1 + z1) + abs(x1) + pow(z1 - 1, 2)", 1))
    g = Grid(1.0, 401)
    x = np.where(np.arange(401) % 2 == 0, 0.0, 1.5)[:, None]
    z = np.ones((401, 1))
    x[200], z[200] = 0.0, 0.0    # both abs tie: segments (1, 1) and (1, 0)
    xz = _pair(p, g, x, z)
    _, q, gens, per_node, _ = p.integrand_subdiff(x, z, g.nodes, 1e-9)
    _, _, certified = nsvar.functional.zonotope_min_norm(q, gens)
    assert not per_node.any()
    assert np.flatnonzero(~certified).tolist() == [200]
    per_node_sets = []
    exact = nsvar.functional.min_norm_point

    def spy(s):
        per_node_sets.append(s)
        return exact(s)
    monkeypatch.setattr(nsvar.functional, "min_norm_point", spy)
    assert _assert_same_field(p, xz, 0.0, 1e-9)
    assert len(per_node_sets) == 1


@pytest.mark.parametrize("cut, node", [("closed form", 1), ("per node", 0)])
def test_min_norm_field_names_lowest_uncertified_node(monkeypatch, cut, node):
    """A closed form that fails its certificate falls back node by node;
    MinNormUncertified names the lowest per-node node that fails.

    Node 0 sits on a three-way tie (per-node route); the others, from
    node 1 on, take the closed form.  A negative tolerance fails every
    certificate of the route it is given to.
    """
    p = ProblemSpec(n=1, horizon=1.0, x0=[0.0],
                    integrand=parse_expr("max(x1, z1, t) + abs(x1 - 5)", 1))
    xz = _pair(p, Grid(1.0, 4), np.array([0.0, 5.0, 5.0, 1.0]), np.zeros(4))
    want = _per_node_field(p, xz, 0.0, _TOL_ACT)
    name = {"closed form": "zonotope_min_norm", "per node": "min_norm_point"}[cut]
    exact = getattr(nsvar.functional, name)
    monkeypatch.setattr(nsvar.functional, name,
                        lambda *args: exact(*args, tol=-1.0))
    if cut == "closed form":
        # every node from node 1 on falls back, and the per-node route
        # certifies them all
        assert np.array_equal(_field(p, xz, 0.0).values, want)
        return
    with pytest.raises(MinNormUncertified) as err:
        _field(p, xz, 0.0)
    assert err.value.node == node
    assert str(err.value).startswith(f"minimum-norm certificate failed at node {node} ")


def test_min_norm_field_zeroes_masked_rows_before_any_product(monkeypatch):
    """Masked rows holding inf and nan reach no product of the closed form.

    The pass's masked rows mean nothing, so their values are poisoned
    here with inf and nan.  Under the solver's floating-point traps the
    field must still come out, bit for bit as from the clean pass, with
    exactly the masked rows sent node by node.
    """
    p = ProblemSpec(n=2, horizon=1.0, x0=[0.0, 0.0], xT=[1.0, 0.5],
                    integrand=parse_expr("max(x1, z1, t) + abs(x1) + abs(x2 - z2)", 2))
    g = Grid(1.0, 5)
    x = np.array([[0.0, 1.0], [0.0, 2.0], [0.5, 1.0], [0.0, 3.0], [1.0, -1.0]])
    z = np.array([[2.0, 1.0], [1.0, 2.0], [0.5, 1.0], [-1.0, 3.0], [1.0, -1.0]])
    xz = _pair(p, g, x, z)
    clean = p.integrand_subdiff

    def poisoned(*args):
        v, q, gens, per_node, ties = clean(*args)
        assert len(gens) == 2 and per_node.tolist() == [False, False, True, False, True]
        assert [c for c, _ in gens] == [(0,), (1, 3)]
        q, gens = q.copy(), [(c, a.copy()) for c, a in gens]
        q[2], q[4] = [np.inf, np.nan, 0.0, -np.inf], [np.nan, 1.0, np.inf, 0.0]
        gens[0][1][2], gens[1][1][2] = [np.inf], [np.nan, 0.0]
        gens[0][1][4], gens[1][1][4] = [-np.inf], [np.nan, 2.0]
        return v, q, gens, per_node, ties

    per_node = []
    exact = nsvar.functional.min_norm_point

    def spy(s):
        per_node.append(s)
        return exact(s)
    want = _field(p, xz, 2.0).values
    monkeypatch.setattr(ProblemSpec, "integrand_subdiff", property(lambda self: poisoned))
    monkeypatch.setattr(nsvar.functional, "min_norm_point", spy)
    with np.errstate(over="raise", invalid="raise"):
        got = _field(p, xz, 2.0).values
    assert got.tobytes() == want.tobytes()
    assert len(per_node) == 2


# ---------------------------------------------------------------------------
# recovered state


def test_recovered_state_integrates_z():
    p = load_problem("example3")
    g = Grid(1.0, 9)
    rng = np.random.default_rng(13)
    z = Traj(g, rng.standard_normal((9, 2)))
    xz = PairTraj(Traj(g, rng.standard_normal((9, 2))), z)
    rec = recovered_state(p, xz)
    assert np.array_equal(rec.values, cumulative_integral(z, p.x0).values)


def test_recovered_state_plain_problem_copies_x():
    p = load_problem("example1")
    xz = initial_pair(p, Grid(1.0, 3))
    rec = recovered_state(p, xz)
    assert np.array_equal(rec.values, xz.x.values)
    rec.values[0, 0] = 99.0
    assert xz.x.values[0, 0] != 99.0
