"""Objective, penalty terms, and per-node subdifferential field."""

import numpy as np
import pytest

import nsvar.functional
import nsvar.trajectory
from _oracles import dual_gradient, fd_directional, random_expr, random_smooth_expr
from nsvar.cli import load_problem
from nsvar.convexgeom import Polytope, Singleton, support
from nsvar.functional import (
    MinNormUncertified,
    ProblemSpec,
    eval_I,
    eval_J,
    eval_phi,
    eval_psi,
    grad_phi,
    grad_psi,
    initial_pair,
    min_norm_field,
    penalty_values,
    recovered_state,
    subdiff_I_at,
    subdiff_I_nodes,
)
from nsvar.integrand import DomainError, EvalPoint, parse_expr, subdiff_expr
from nsvar.solver import SolverConfig, steepest_direction
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


# ---------------------------------------------------------------------------
# problem construction


def test_problem_validation():
    with pytest.raises(ValueError, match="exactly when use_psi"):
        _simple(use_psi=True)
    with pytest.raises(ValueError, match="exactly when use_psi"):
        _simple(xT=np.array([1.0]), use_psi=False)
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
    with pytest.raises(ValueError, match="^lambda0 must be finite$"):
        _simple(lambda0=np.inf)


def test_problem_flag_inference():
    p = _simple()
    assert not p.use_psi and not p.use_phi
    p = _simple(xT=np.array([1.0]))
    assert p.use_psi
    # consistency term defaults on as soon as the integrand mentions z
    p = _simple(integrand=parse_expr("abs(z1)", 1))
    assert p.use_phi
    p = _simple(integrand=parse_expr("abs(z1)", 1), use_phi=False)
    assert not p.use_phi


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
    p = _simple(use_phi=True)
    g = Grid(1.0, 9)
    z = Traj(g, np.cos(g.nodes))
    x = cumulative_integral(z, p.x0)
    assert eval_phi(p, PairTraj(x, z)) == 0.0
    assert penalty_values(p, PairTraj(x, z)) == (0.0, 0.0)


def test_grad_phi_frozen_field():
    """Constant defect d = 1: the x rows equal d, the z rows equal the
    reverse cumulative integral with half-step end corrections."""
    p = _simple(use_phi=True)
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
    p = ProblemSpec(n=2, horizon=1.5, x0=np.array([0.3, -0.2]), use_phi=True,
                    integrand=parse_expr("abs(x1)", 2))
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
                    use_phi=True, integrand=p0.integrand)
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
    monkeypatch.setattr(nsvar.functional, "compile_expr",
                        counting("compile", nsvar.functional.compile_expr))
    first = eval_I(p, xz, 20.0)
    assert counts == {"traj": 0, "cumulative": 1, "compile": 1}
    assert eval_I(p, xz, 20.0) == first
    assert counts == {"traj": 0, "cumulative": 2, "compile": 1}

    assert g.nodes is g.nodes
    assert not g.nodes.flags.writeable
    with pytest.raises(ValueError):
        g.nodes[0] = 1.0
    fresh = Grid(1.0, 21)
    assert fresh == g and hash(fresh) == hash(g)
    assert Grid(1.0, 5) != g


# ---------------------------------------------------------------------------
# subdifferential field


def test_subdiff_node_set_matches_expression_subdiff():
    rng = np.random.default_rng(5)
    done = 0
    while done < 60:
        n = int(rng.integers(1, 3))
        e = random_expr(rng, n)
        p = ProblemSpec(n=n, horizon=1.0, x0=np.zeros(n), integrand=e,
                        use_phi=False)
        g = Grid(1.0, 5)
        xz = _pair(p, g, rng.standard_normal((5, n)), rng.standard_normal((5, n)))
        i = int(rng.integers(0, 5))
        node = EvalPoint(xz.x.values[i], xz.z.values[i], g.nodes[i])
        s1 = subdiff_I_at(p, xz, 1.0, i)
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
    f = min_norm_field(p, xz, 1.0)
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
                        xT=rng.standard_normal(n), use_phi=True, integrand=e)
        g = Grid(1.0, 6)
        xz = _pair(p, g, rng.standard_normal((6, n)), rng.standard_normal((6, n)))
        lam = float(rng.random() * 5 + 0.5)
        try:
            field = min_norm_field(p, xz, lam).values
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
    _, vnorm = steepest_direction(p, xz, 1.0, SolverConfig())
    assert vnorm ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    flat = _pair(p, Grid(1.0, 3), np.zeros(3), np.zeros(3))
    assert steepest_direction(p, flat, 1.0, SolverConfig()) == (None, 0.0)


def test_min_norm_field_deterministic():
    p = load_problem("example3")
    g = Grid(1.0, 11)
    xz = initial_pair(p, g)
    a = min_norm_field(p, xz, 20.0).values
    b = min_norm_field(p, xz, 20.0).values
    assert np.array_equal(a, b)


def test_min_norm_field_uncertified_raises(monkeypatch):
    p = load_problem("example4")
    xz = initial_pair(p, Grid(5.0, 51))
    exact = nsvar.functional.min_norm_point
    monkeypatch.setattr(nsvar.functional, "min_norm_point",
                        lambda s: exact(s, tol=0.0))
    with pytest.raises(MinNormUncertified, match="certificate failed"):
        min_norm_field(p, xz, 2.0)


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
