import numpy as np
import pytest

from nsvar.trajectory import (
    Grid,
    PairTraj,
    Traj,
    cumulative_integral,
    l2_inner,
    pl_l2_norm_sq,
    quadrature,
    resample,
    reverse_cumulative_integral,
    trapezoid_weights,
)


def test_grid_nodes_uniform():
    g = Grid(2.0, 5)
    assert g.h == 0.5
    assert np.array_equal(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.nodes[0] == 0.0 and g.nodes[-1] == g.horizon


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1)
    with pytest.raises(ValueError):
        Grid(0.0, 5)
    with pytest.raises(ValueError):
        Grid(-1.0, 5)
    with pytest.raises(ValueError, match="horizon must be finite"):
        Grid(np.inf, 5)
    with pytest.raises(ValueError, match="horizon must be positive"):
        Grid(np.nan, 5)


def test_traj_shape_and_promotion():
    g = Grid(1.0, 3)
    a = Traj(g, [1.0, 2.0, 3.0])
    assert a.values.shape == (3, 1)
    assert a.ncomp == 1
    with pytest.raises(ValueError):
        Traj(g, np.zeros((4, 1)))


def test_pairtraj_same_grid_required():
    a = Traj(Grid(1.0, 3), np.zeros((3, 1)))
    b = Traj(Grid(1.0, 5), np.zeros((5, 1)))
    with pytest.raises(ValueError):
        PairTraj(a, b)


def test_trapezoid_weights():
    w = trapezoid_weights(Grid(1.0, 5))
    assert np.allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_grid_weights_are_built_once_and_read_only():
    g = Grid(1.0, 5)
    w = g.weights
    assert g.weights is w
    assert w.tobytes() == trapezoid_weights(g).tobytes()
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0


def test_quadrature_linear_exact():
    g = Grid(1.0, 3)
    assert quadrature(Traj(g, g.nodes)) == pytest.approx(0.5, abs=1e-15)


def test_quadrature_constant_exact():
    g = Grid(3.0, 7)
    assert quadrature(Traj(g, np.full(7, 2.5))) == pytest.approx(7.5, abs=1e-12)


def test_quadrature_tsquared_error_bound():
    g = Grid(1.0, 101)
    got = quadrature(Traj(g, g.nodes ** 2))
    assert abs(got - 1.0 / 3.0) <= 2e-5
    assert got != pytest.approx(1.0 / 3.0, abs=1e-9)  # trapezoid, not exact


def test_quadrature_matches_numpy_trapezoid():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = Grid(float(rng.uniform(0.5, 4.0)), int(rng.integers(2, 40)))
        v = rng.standard_normal(g.npoints)
        assert quadrature(Traj(g, v)) == pytest.approx(
            np.trapezoid(v, g.nodes), abs=1e-12)


def test_cumulative_integral_constant():
    g = Grid(1.0, 11)
    X = cumulative_integral(Traj(g, np.ones(11)), [0.0])
    assert np.allclose(X.values[:, 0], g.nodes, atol=1e-15)


def test_cumulative_integral_linear_exact():
    g = Grid(1.0, 11)
    X = cumulative_integral(Traj(g, g.nodes), [0.0])
    assert np.allclose(X.values[:, 0], g.nodes ** 2 / 2.0, atol=1e-15)


def test_cumulative_integral_zero_is_identity():
    g = Grid(2.0, 5)
    X = cumulative_integral(Traj(g, np.zeros((5, 2))), [3.0, -1.0])
    assert np.all(X.values == [3.0, -1.0])


def test_cumulative_integral_starts_at_x0_exactly():
    rng = np.random.default_rng(0)
    g = Grid(1.5, 9)
    z = Traj(g, rng.standard_normal((9, 3)))
    x0 = rng.standard_normal(3)
    X = cumulative_integral(z, x0)
    assert np.array_equal(X.values[0], x0)


def test_cumulative_integral_linearity():
    rng = np.random.default_rng(1)
    g = Grid(1.0, 17)
    a = rng.standard_normal((17, 2))
    b = rng.standard_normal((17, 2))
    lhs = cumulative_integral(Traj(g, 2.0 * a + b), np.zeros(2)).values
    rhs = (2.0 * cumulative_integral(Traj(g, a), np.zeros(2)).values
           + cumulative_integral(Traj(g, b), np.zeros(2)).values)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_reverse_cumulative_integral_tail_values():
    rng = np.random.default_rng(2)
    g = Grid(1.0, 13)
    v = rng.standard_normal((13, 2))
    R = reverse_cumulative_integral(Traj(g, v))
    assert np.all(R.values[-1] == 0.0)
    for i in range(13):
        tail = np.trapezoid(v[i:], g.nodes[i:], axis=0) if i < 12 else 0.0
        assert np.allclose(R.values[i], tail, atol=1e-12)
    full = cumulative_integral(Traj(g, v), np.zeros(2)).values[-1]
    assert np.allclose(R.values[0], full, atol=1e-12)


def test_l2_inner_constants():
    g = Grid(1.0, 5)
    one = Traj(g, np.ones(5))
    assert l2_inner(one, one) == pytest.approx(1.0, abs=1e-15)
    assert l2_inner(one, Traj(g, np.zeros(5))) == 0.0


def test_l2_inner_fine_grid_limit():
    g = Grid(1.0, 1001)
    a = Traj(g, 2.0 * g.nodes - 1.0)
    assert l2_inner(a, a) == pytest.approx(1.0 / 3.0, abs=1e-5)


def test_l2_inner_grid_mismatch():
    a = Traj(Grid(1.0, 3), np.zeros(3))
    b = Traj(Grid(1.0, 5), np.zeros(5))
    with pytest.raises(ValueError):
        l2_inner(a, b)


def test_pl_l2_norm_sq_exact_on_coarse_kink():
    # nodal 2t-1 on three nodes: the piecewise-linear square integrates
    # to 1/3 exactly, where trapezoid-of-squares would give 0.5
    g = Grid(1.0, 3)
    a = Traj(g, 2.0 * g.nodes - 1.0)
    assert pl_l2_norm_sq(a) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert l2_inner(a, a) == pytest.approx(0.5, abs=1e-15)


def test_pl_l2_norm_sq_matches_fine_resample():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = Grid(1.0, int(rng.integers(3, 12)))
        a = Traj(g, rng.standard_normal((g.npoints, 2)))
        fine = resample(a, Grid(1.0, 40001))
        sq = np.einsum("ij,ij->i", fine.values, fine.values)
        ref = np.trapezoid(sq, fine.grid.nodes)
        assert pl_l2_norm_sq(a) == pytest.approx(ref, abs=1e-7)


def test_resample_two_to_three():
    a = Traj(Grid(1.0, 2), np.array([0.0, 1.0]))
    out = resample(a, Grid(1.0, 3))
    assert np.allclose(out.values[:, 0], [0.0, 0.5, 1.0], atol=1e-15)


def test_resample_same_grid_identity():
    g = Grid(1.0, 7)
    a = Traj(g, np.arange(7.0))
    out = resample(a, g)
    assert out is not a
    assert np.array_equal(out.values, a.values)


def test_resample_coincident_nodes_bit_equal():
    rng = np.random.default_rng(4)
    a = Traj(Grid(1.0, 11), rng.standard_normal((11, 2)))
    out = resample(a, Grid(1.0, 21))
    assert np.array_equal(out.values[::2], a.values)


def test_resample_horizon_mismatch():
    a = Traj(Grid(1.0, 5), np.zeros(5))
    with pytest.raises(ValueError):
        resample(a, Grid(2.0, 9))


def test_interpolation_error_decreases_for_jump_profile():
    # a bounded profile with one jump off every tested node set: nodal
    # sampling plus linear interpolation converges in L2 as N grows
    jump = 1.0 / np.pi

    def profile(t):
        return np.where(t < jump, 0.0, 1.0)

    fine = Grid(1.0, 100001)
    errs = []
    for n in (11, 101, 1001):
        g = Grid(1.0, n)
        interp = resample(Traj(g, profile(g.nodes)), fine)
        diff = interp.values[:, 0] - profile(fine.nodes)
        errs.append(np.trapezoid(diff ** 2, fine.nodes))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= errs[0] / 10.0
