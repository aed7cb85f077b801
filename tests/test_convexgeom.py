"""Support oracles and minimum-norm points over the convex set algebra.

Frozen numerical answers below were worked out by hand (projections onto
segments, balls, and simple polytopes); randomized cases are checked
against a brute-force subset-enumeration QP in ``_oracles``.
"""

import numpy as np
import pytest

import nsvar.convexgeom
from _oracles import qp_min_norm, vertex_list
from nsvar.convexgeom import (
    Ball,
    Hull,
    MinkowskiSum,
    Polytope,
    Singleton,
    dim,
    min_norm_point,
    scale,
    support,
    zonotope_min_norm,
)


def _random_set(rng, d, allow_mix=True):
    kind = rng.integers(0, 6 if allow_mix else 4)
    if kind == 0:
        return Singleton(rng.standard_normal(d))
    if kind == 1:
        k = int(rng.integers(1, 7))
        return Polytope(rng.standard_normal((k, d)))
    if kind == 2:
        mask = rng.random(d) < 0.7
        if not mask.any():
            mask[rng.integers(0, d)] = True
        return Ball(rng.standard_normal(d), float(rng.random() + 0.1), mask)
    if kind == 3:
        return scale(float(rng.random() * 2), _random_set(rng, d, False))
    n = int(rng.integers(2, 4))
    return MinkowskiSum(tuple(_random_set(rng, d, False) for _ in range(n)))


# ---------------------------------------------------------------------------
# construction and structure


def test_polytope_validation():
    with pytest.raises(ValueError):
        Polytope(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Polytope(np.zeros(3))  # 1-d array is not a vertex list


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 1.0, np.array([True]))


def test_minkowski_sum_validation():
    with pytest.raises(ValueError):
        MinkowskiSum(())
    with pytest.raises(ValueError):
        MinkowskiSum((Singleton(np.zeros(2)), Singleton(np.zeros(3))))


def test_hull_validation():
    with pytest.raises(ValueError):
        Hull(())
    with pytest.raises(ValueError):
        Hull((Singleton(np.zeros(2)), Ball(np.zeros(3), 1.0)))


def test_dim():
    assert dim(Singleton([1.0, 2.0, 3.0])) == 3
    assert dim(Polytope(np.zeros((4, 2)))) == 2
    assert dim(Ball(np.zeros(5), 1.0)) == 5
    st = MinkowskiSum((Singleton(np.zeros(2)), Ball(np.zeros(2), 1.0)))
    assert dim(st) == 2
    assert dim(Hull((st, Singleton(np.zeros(2))))) == 2


def test_scale_applies_eagerly():
    s = scale(2.0, MinkowskiSum((Singleton([1.0]), Ball([3.0], 0.5))))
    assert isinstance(s, MinkowskiSum)
    sing, ball = s.members
    assert np.array_equal(sing.point, [2.0])
    assert ball.radius == 1.0 and np.array_equal(ball.center, [6.0])
    with pytest.raises(ValueError):
        scale(-1.0, Singleton([1.0]))


def test_vertex_list_expands_sums_in_member_order():
    """The tests' reference vertex list (_oracles.vertex_list)."""
    a = Polytope(np.array([[0.0, 0.0], [1.0, 0.0]]))
    b = Polytope(np.array([[0.0, 0.0], [0.0, 1.0]]))
    s = MinkowskiSum((a, b, Singleton([2.0, 2.0]), Ball([0.0, 1.0], 0.0)))
    assert np.array_equal(vertex_list(s),
                          [[2.0, 3.0], [2.0, 4.0], [3.0, 3.0], [3.0, 4.0]])
    assert vertex_list(MinkowskiSum((a, Ball([0.0, 0.0], 1.0)))) is None
    # a hull concatenates its members' lists, in member order
    assert np.array_equal(vertex_list(Hull((s, Singleton([5.0, 5.0]), a))),
                          [[2.0, 3.0], [2.0, 4.0], [3.0, 3.0], [3.0, 4.0],
                           [5.0, 5.0], [0.0, 0.0], [1.0, 0.0]])
    assert vertex_list(Hull((a, Ball([0.0, 0.0], 1.0)))) is None


# ---------------------------------------------------------------------------
# support function


def test_support_polytope_picks_extreme_vertex():
    val, wit = support(Polytope(np.array([[-1.0], [1.0]])), np.array([1.0]))
    assert val == 1.0
    assert np.array_equal(wit, [1.0])


def test_support_ball():
    val, wit = support(Ball([3.0, 4.0], 1.0), np.array([3.0, 4.0]))
    # center @ d = 25, plus radius * ||d|| = 5
    assert val == pytest.approx(30.0, abs=1e-12)
    assert np.allclose(wit, [3.6, 4.8], atol=1e-12)


def test_support_masked_ball():
    b = Ball([3.0, 4.0], 1.0, np.array([True, False]))
    val, wit = support(b, np.array([0.0, 1.0]))
    assert val == pytest.approx(4.0, abs=1e-12)  # mask blocks the move
    assert np.allclose(wit, [3.0, 4.0], atol=1e-12)
    val, wit = support(b, np.array([1.0, 0.0]))
    assert val == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(wit, [4.0, 4.0], atol=1e-12)


def test_support_hull_is_the_largest_member_support():
    seg = Polytope(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    ball = Ball([0.0, 0.0], 1.0, np.array([False, True]))
    h = Hull((seg, ball, Singleton([0.5, 0.5])))
    assert support(h, np.array([2.0, 1.0]))[0] == 2.0
    assert support(h, np.array([0.0, -3.0]))[0] == 3.0
    val, wit = support(h, np.array([1.0, 1.0]))
    assert val == 1.0 and np.array_equal(wit, [1.0, 0.0])  # lowest index wins
    assert support(Hull((ball, seg)), np.array([1.0, 1.0]))[1].tolist() == [0.0, 1.0]


def test_support_zero_direction_is_zero():
    assert support(Polytope(np.array([[3.0, 0.0], [0.0, 4.0]])), np.zeros(2))[0] == 0.0
    assert support(Ball([3.0, 4.0], 1.0, np.array([True, False])), np.zeros(2))[0] == 0.0


def test_support_additivity_and_witnesses():
    """h_{A+B} = h_A + h_B, and every witness attains its value in-set."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        parts = tuple(_random_set(rng, d, False) for _ in range(int(rng.integers(2, 4))))
        direction = rng.standard_normal(d)
        total, wit = support(MinkowskiSum(parts), direction)
        pieces = [support(p, direction) for p in parts]
        assert total == pytest.approx(sum(v for v, _ in pieces), abs=1e-10)
        assert wit @ direction == pytest.approx(total, abs=1e-10)
        assert np.allclose(wit, sum(w for _, w in pieces), atol=1e-10)


def test_hull_support_and_scale_identities():
    rng = np.random.default_rng(19)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        h = Hull(tuple(_random_set(rng, d) for _ in range(int(rng.integers(1, 4)))))
        c = float(rng.random() * 3)
        for g in rng.standard_normal((4, d)):
            want = max(support(m, g)[0] for m in h.members)
            assert support(h, g)[0] == want
            assert support(scale(c, h), g)[0] == pytest.approx(c * want, abs=1e-12)


def test_support_scale_identity():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        s = _random_set(rng, d)
        direction = rng.standard_normal(d)
        c = float(rng.random() * 3)
        assert support(scale(c, s), direction)[0] == pytest.approx(
            c * support(s, direction)[0], abs=1e-9)


# ---------------------------------------------------------------------------
# minimum-norm point: hand-checked cases


def test_min_norm_singleton():
    r = min_norm_point(Singleton([-1.0]))
    assert r.point == pytest.approx(-1.0)
    assert r.sqnorm == 1.0 and r.certified
    assert np.array_equal(r.atoms, [[-1.0]]) and np.array_equal(r.weights, [1.0])


def test_min_norm_segment_through_origin():
    r = min_norm_point(Polytope(np.array([[-1.0], [1.0]])))
    assert abs(r.point[0]) <= 1e-12
    assert r.certified


def test_min_norm_two_vertices():
    # projection of the origin onto the segment (3,0)-(0,4)
    r = min_norm_point(Polytope(np.array([[3.0, 0.0], [0.0, 4.0]])))
    assert np.allclose(r.point, [1.92, 1.44], atol=1e-12)
    assert r.sqnorm == pytest.approx(5.76, abs=1e-12)
    assert np.allclose(r.weights, [0.64, 0.36], atol=1e-12)
    assert r.certified
    # Wolfe's degenerate segments: a repeated vertex, whose affine hull
    # is a point, and a segment whose nearest point is an endpoint (the
    # second vertex, so Wolfe does not simply keep its first)
    for verts, point in [([[1.0, 2.0], [1.0, 2.0]], [1.0, 2.0]),
                         ([[2.0, 3.0], [1.0, 1.0]], [1.0, 1.0])]:
        r = min_norm_point(Polytope(np.array(verts)))
        assert np.array_equal(r.point, point)
        assert r.certified
        assert np.array_equal(r.weights @ r.atoms, r.point)


def test_min_norm_ball():
    r = min_norm_point(Ball([3.0, 4.0], 1.0))
    assert np.allclose(r.point, [2.4, 3.2], atol=1e-12)
    assert r.certified


def test_min_norm_ball_containing_origin():
    r = min_norm_point(Ball([0.3, -0.1], 1.0))
    assert np.allclose(r.point, 0.0, atol=1e-15)
    assert r.sqnorm == 0.0 and r.certified


def test_min_norm_masked_ball():
    # only the first coordinate may move, so it shrinks 3 -> 2
    r = min_norm_point(Ball([3.0, 4.0], 1.0, np.array([True, False])))
    assert np.allclose(r.point, [2.0, 4.0], atol=1e-12)
    assert r.certified


def test_min_norm_simplex_centroid():
    r = min_norm_point(Polytope(np.eye(5)))
    assert np.allclose(r.point, 0.2, atol=1e-10)
    assert r.certified


def test_min_norm_scaled_to_zero_collapses():
    r = min_norm_point(scale(0.0, Ball([5.0, 5.0], 1.0)))
    assert np.array_equal(r.point, [0.0, 0.0])
    assert r.sqnorm == 0.0 and r.certified


def test_min_norm_segment_plus_ball_flat_face():
    # sum is a stadium; the nearest point sits mid-face at (0, 1.5)
    st = MinkowskiSum((Polytope(np.array([[-1.0, 0.0], [1.0, 0.0]])),
                       Ball([0.0, 2.0], 0.5)))
    r = min_norm_point(st)
    assert np.allclose(r.point, [0.0, 1.5], atol=1e-9)
    assert r.certified
    # the same degenerate segments under a full ball: the nearest point
    # (1, 2), resp. the endpoint (1, 1), pulled toward the origin by 0.5
    for verts, w in [([[1.0, 2.0], [1.0, 2.0]], [1.0, 2.0]),
                     ([[2.0, 3.0], [1.0, 1.0]], [1.0, 1.0])]:
        r = min_norm_point(MinkowskiSum((Polytope(np.array(verts)),
                                         Ball([0.0, 0.0], 0.5))))
        w = np.array(w)
        assert np.allclose(r.point, (1.0 - 0.5 / np.linalg.norm(w)) * w, atol=1e-15)
        assert r.certified
        assert np.array_equal(r.weights @ r.atoms, r.point)


def test_min_norm_polytope_plus_ball_shrinks_projection():
    tri = Polytope(np.array([[1.0, 1.0], [2.0, -1.0], [3.0, 1.0]]))
    r = min_norm_point(MinkowskiSum((tri, Ball([0.0, 0.0], 0.3))))
    w = np.array([1.2, 0.6])  # nearest point of the bare triangle
    expect = (1.0 - 0.3 / np.linalg.norm(w)) * w
    assert np.allclose(r.point, expect, atol=1e-9)
    assert r.certified


def test_min_norm_ball_swallows_polytope():
    tri = Polytope(np.array([[-0.2, 0.1], [0.2, 0.1], [0.0, -0.1]]))
    r = min_norm_point(MinkowskiSum((tri, Ball([0.0, 0.0], 3.0))))
    assert np.allclose(r.point, 0.0, atol=1e-12)
    assert r.certified


def test_min_norm_masked_ball_plus_segment():
    # x-aligned unit ball stuck at x in [2,4] plus a vertical segment:
    # the sum is the rectangle [2,4] x [-1,1], nearest point (2, 0)
    rect = MinkowskiSum((Ball([3.0, 0.0], 1.0, np.array([True, False])),
                         Polytope(np.array([[0.0, -1.0], [0.0, 1.0]]))))
    r = min_norm_point(rect)
    assert np.allclose(r.point, [2.0, 0.0], atol=1e-6)
    assert r.certified


def test_min_norm_zonotope_over_vertex_cap():
    # 13 segments blow past the vertex-product cap, forcing Wolfe's
    # method over the support function; the answer is still exact here.
    segs = tuple(Polytope(np.array([[-0.5, 0.0], [0.5, 0.0]])) for _ in range(13))
    r = min_norm_point(MinkowskiSum(segs + (Singleton([3.0, 2.0]),)))
    assert np.allclose(r.point, [0.0, 2.0], atol=1e-9)
    assert r.certified


def test_min_norm_axis_zonotopes_over_vertex_cap_are_exact():
    # 13-16 axis-parallel segments plus an offset q: each axis k is the
    # interval q_k +- L_k, L_k the axis's total half-length, so the
    # nearest point is sign(q_k) * max(|q_k| - L_k, 0) on every axis.
    rng = np.random.default_rng(17)
    for _ in range(60):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(13, 17))
        axes = rng.integers(0, d, k)
        halves = rng.random(k) * 0.5
        q = rng.standard_normal(d) * 3.0
        segs = []
        for axis, h in zip(axes, halves):
            end = np.zeros(d)
            end[axis] = h
            segs.append(Polytope(np.stack([end, -end])))
        r = min_norm_point(MinkowskiSum(tuple(segs) + (Singleton(q),)))
        length = np.bincount(axes, weights=halves, minlength=d)
        exact = np.sign(q) * np.maximum(np.abs(q) - length, 0.0)
        assert r.certified
        assert np.abs(r.point - exact).max() <= 1e-9


def test_min_norm_iteration_cap_reports_uncertified():
    r = min_norm_point(Polytope(np.eye(5)), max_iter=1)
    assert not r.certified


def test_wolfe_stalemate_norms_trap_overflow(monkeypatch):
    """The corral's squared norms in Wolfe's stalemate branch are an
    einsum, which sets no floating-point flags: an overflow there raises
    under np.errstate as a ufunc's would.  Under solve the Gram matrix of
    the same atoms overflows first, so the branch is driven here by an
    affine step that gives up (nan weights)."""
    def nan_step(a):
        return np.full(a.shape[1], np.nan), np.full(a.shape[0], np.nan)
    monkeypatch.setattr(nsvar.convexgeom, "_affine_min_norm", nan_step)
    s = Polytope(np.array([[1.0, 0.0], [0.0, 1e200]]))
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            min_norm_point(s)
    with np.errstate(over="ignore", invalid="ignore"):
        min_norm_point(s)     # untrapped, the stalemate keeps an atom


# ---------------------------------------------------------------------------
# randomized properties


def test_min_norm_matches_enumeration_oracle():
    rng = np.random.default_rng(23)
    for _ in range(120):
        d = int(rng.integers(1, 7))
        k = int(rng.integers(1, 9))
        verts = rng.standard_normal((k, d))
        if rng.random() < 0.2 and k > d:
            verts -= verts.mean(axis=0)  # often puts the origin inside
        r = min_norm_point(Polytope(verts))
        ref = qp_min_norm(verts)
        assert r.certified
        assert np.linalg.norm(r.point - ref) <= 1e-6


def _segment_sum(rng, d, k):
    """k random segments through the origin plus a random point."""
    segs = tuple(Polytope(np.stack([g, -g])) for g in 0.5 * rng.standard_normal((k, d)))
    return MinkowskiSum(segs + (Singleton(rng.standard_normal(d)),))


def _hull_member(rng, d):
    """A random polytope or Minkowski sum of segments."""
    if rng.random() < 0.5:
        return Polytope(rng.standard_normal((int(rng.integers(1, 5)), d)))
    return _segment_sum(rng, d, int(rng.integers(1, 3)))


def test_min_norm_hull_matches_enumeration_oracle():
    """Hulls of polytopes and of Minkowski sums of segments: Wolfe's
    method over the hull's support lands within 1e-6 of the subset
    enumeration on the oracle's vertex list."""
    rng = np.random.default_rng(29)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        h = Hull(tuple(_hull_member(rng, d) for _ in range(int(rng.integers(2, 4)))))
        if rng.random() < 0.3 and d < 4:    # keeps the enumeration small
            h = MinkowskiSum((h, _segment_sum(rng, d, 1)))
        r = min_norm_point(h)
        ref = qp_min_norm(vertex_list(h))
        assert r.certified
        assert np.linalg.norm(r.point - ref) <= 1e-6


def test_min_norm_hull_holding_a_ball():
    """Hulls of a ball with polytopes, sums of segments and points.
    Wolfe's method may stop at its budget on a ball's curved face, so the
    count that certifies is only bounded below.  Where the certificate
    passes, its gap is the one the support function gives at the point,
    the point is a convex combination of its atoms, and no member's own
    minimum-norm point is shorter."""
    rng = np.random.default_rng(47)
    certified = 0
    for _ in range(200):
        d = int(rng.integers(1, 5))
        mask = rng.random(d) < 0.7
        mask[rng.integers(0, d)] = True
        ball = Ball(rng.standard_normal(d), float(rng.random() + 0.1), mask)
        members = [ball] + [_hull_member(rng, d) if rng.random() < 0.8
                            else Singleton(rng.standard_normal(d))
                            for _ in range(int(rng.integers(1, 3)))]
        members.insert(int(rng.integers(0, len(members))), members.pop(0))
        s = Hull(tuple(members))
        r = min_norm_point(s)
        if not r.certified:
            continue
        certified += 1
        sval, _ = support(s, -r.point)
        assert r.gap == float(r.point @ r.point) + sval
        assert r.gap <= 1e-10 * (1.0 + r.sqnorm)
        assert np.allclose(r.weights @ r.atoms, r.point, atol=1e-10)
        for m in members:
            assert r.sqnorm <= min_norm_point(m).sqnorm + 1e-9
    assert certified >= 180, certified


def test_min_norm_certificate_is_sound():
    """gap is recomputable from the reported point, and never negative."""
    rng = np.random.default_rng(31)
    for _ in range(150):
        d = int(rng.integers(1, 5))
        s = _random_set(rng, d)
        r = min_norm_point(s)
        sval, _ = support(s, -r.point)
        gap = float(r.point @ r.point) + sval
        assert gap == pytest.approx(r.gap, abs=1e-12 * (1.0 + abs(gap)))
        assert r.gap >= -1e-12
        assert r.sqnorm == pytest.approx(float(r.point @ r.point), abs=1e-12)
        if r.certified:
            assert r.gap <= 1e-10 * (1.0 + r.sqnorm) + 1e-15


def test_min_norm_membership_certificate():
    """point = weights @ atoms with a convex weight vector."""
    rng = np.random.default_rng(37)
    for _ in range(150):
        d = int(rng.integers(1, 5))
        s = _random_set(rng, d)
        r = min_norm_point(s)
        assert r.weights.min() >= -1e-12
        assert r.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r.weights @ r.atoms, r.point, atol=1e-10)


def test_min_norm_polytope_atoms_are_vertices():
    rng = np.random.default_rng(41)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        verts = rng.standard_normal((int(rng.integers(3, 8)), d))
        r = min_norm_point(Polytope(verts))
        for atom in r.atoms:
            assert np.min(np.linalg.norm(verts - atom, axis=1)) <= 1e-12


def test_min_norm_scaling_equivariance():
    """v(cS) = c v(S) along the exactly-solved routes."""
    rng = np.random.default_rng(43)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        kind = rng.integers(0, 5)
        if kind == 0:
            s = Polytope(rng.standard_normal((int(rng.integers(1, 7)), d)))
        elif kind == 1:
            s = Ball(rng.standard_normal(d), float(rng.random() + 0.1))
        elif kind == 2:
            s = Singleton(rng.standard_normal(d))
        elif kind == 3:
            s = MinkowskiSum((Polytope(rng.standard_normal((3, d))),
                              Singleton(rng.standard_normal(d))))
        else:
            s = MinkowskiSum((Polytope(rng.standard_normal((3, d))),
                              Ball(rng.standard_normal(d), float(rng.random() + 0.1))))
        c = 0.5 + 1.5 * float(rng.random())
        base = min_norm_point(s)
        scaled = min_norm_point(scale(c, s))
        assert np.allclose(scaled.point, c * base.point, atol=1e-9)


# ---------------------------------------------------------------------------
# zonotopes, row by row


def _zonotope_polytope(q, a):
    """q + sum_i lambda_i a_i, lambda in [-1, 1]^k, as a vertex list."""
    verts = q[None, :]
    for g in a:
        verts = np.vstack([verts + g, verts - g])
    return Polytope(verts)


def _gens(a):
    """The generator list of an (N, k, d) stack: k pairs of all d columns
    and an array of shape (N, d)."""
    cols = tuple(range(a.shape[2]))
    return [(cols, g) for g in a.transpose(1, 0, 2)]


def test_zonotope_min_norm_matches_polytope_route():
    rng = np.random.default_rng(21)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(0, min(d, 3) + 1))
        # generators on disjoint coordinates are exactly orthogonal; some
        # of them are zero
        owner = rng.integers(0, k + 1, d)
        a = np.array([np.where(owner == i, rng.standard_normal(d), 0.0)
                      for i in range(k)]).reshape(k, d)
        a *= (rng.random(k) < 0.8)[:, None]
        q = rng.standard_normal(d) * rng.uniform(0.1, 4.0)
        x, gap, certified = zonotope_min_norm(q[None, :], _gens(a[None, :, :]))
        ref = min_norm_point(_zonotope_polytope(q, a))
        assert ref.certified and certified[0]
        assert np.allclose(x[0], ref.point, rtol=0.0,
                           atol=1e-12 * (1.0 + np.linalg.norm(ref.point)))
        assert -1e-12 <= gap[0] <= 1e-10 * (1.0 + x[0] @ x[0])


def test_zonotope_min_norm_frozen_rows():
    q = np.array([[2.0, 0.5], [0.5, 3.0], [0.0, 0.0]])
    a = np.array([[[1.0, 0.0], [0.0, 1.0]],
                  [[1.0, 0.0], [0.0, 0.0]],
                  [[0.0, 2.0], [0.0, 0.0]]])
    x, gap, certified = zonotope_min_norm(q, _gens(a))
    assert np.array_equal(x, [[1.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    assert np.array_equal(gap, [0.0, 0.0, 0.0])
    assert certified.all()


def test_zonotope_certificate_reports_a_wrong_point():
    # Non-orthogonal generators: the clip is not the minimizer, and the
    # gap says so instead of certifying it.
    a = np.array([[[1.0, 1.0], [1.0, 0.0]]])
    q = np.array([[0.0, 1.0]])
    x, gap, certified = zonotope_min_norm(q, _gens(a))
    assert np.array_equal(x, [[-0.5, 0.5]])  # lambda = (-0.5, 0)
    assert np.allclose(min_norm_point(_zonotope_polytope(q[0], a[0])).point, 0.0)
    assert gap[0] == 0.5 and not certified[0]


def _stacked_min_norm(q, a, tol=1e-10):
    """zonotope_min_norm on an (N, k, d) stack, by 3-D einsums."""
    sq = np.einsum("nkd,nkd->nk", a, a)
    qa = np.einsum("nd,nkd->nk", q, a)
    lam = np.clip(-qa / np.where(sq > 0.0, sq, 1.0), -1.0, 1.0)
    x = q + np.einsum("nk,nkd->nd", lam, a)
    xx = np.einsum("nd,nd->n", x, x)
    gap = (xx - np.einsum("nd,nd->n", q, x)
           + np.abs(np.einsum("nkd,nd->nk", a, x)).sum(axis=1))
    return x, gap, gap <= tol * (1.0 + xx)


def test_zonotope_min_norm_keeps_the_stacked_bits():
    """Generator by generator, the closed form gives the bits of the
    stacked reference, the signs of zeros included."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        n, d, k = int(rng.integers(1, 40)), 2 * int(rng.integers(1, 4)), int(rng.integers(0, 4))
        q = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3])
        a = rng.standard_normal((n, k, d))
        for arr in (q, a):
            arr[rng.random(arr.shape) < 0.4] = 0.0
            arr[rng.random(arr.shape) < 0.2] = -0.0
        got = zonotope_min_norm(q, _gens(a))
        for g, w in zip(got, _stacked_min_norm(q, a)):
            assert g.tobytes() == w.tobytes()
    # generators over their own columns, 1, 2, 3 or all d of them: the
    # stack holds them widened with zeros
    rng = np.random.default_rng(9)
    for _ in range(300):
        n, d, k = int(rng.integers(1, 40)), 2 * int(rng.integers(1, 4)), int(rng.integers(1, 4))
        q = rng.standard_normal((n, d)) * rng.choice([1e-3, 1.0, 1e3])
        q[rng.random(q.shape) < 0.4] = 0.0
        q[rng.random(q.shape) < 0.3] = -0.0
        a = np.zeros((n, k, d))
        gens = []
        for i in range(k):
            width = int(rng.choice([1, 1, 2, 3, d]))
            cols = tuple(sorted(rng.choice(d, min(width, d), replace=False).tolist()))
            block = rng.standard_normal((n, len(cols)))
            block[rng.random(block.shape) < 0.3] = 0.0
            block[rng.random(block.shape) < 0.2] = -0.0
            a[:, i, list(cols)] = block
            gens.append((cols, block))
        got = zonotope_min_norm(q, gens)
        for g, w in zip(got, _stacked_min_norm(q, a)):
            assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("k", [0, 1, 3])
def test_zonotope_min_norm_on_k_generators(k):
    rng = np.random.default_rng(40 + k)
    n, d = 30, 4
    a = np.zeros((n, k, d))
    for i in range(k):  # generator i lives on coordinate i
        a[:, i, i] = rng.standard_normal(n) * (rng.random(n) < 0.8)
    q = rng.standard_normal((n, d)) * 2.0
    x, gap, certified = zonotope_min_norm(q, _gens(a))
    assert x.shape == (n, d) and gap.shape == (n,) and certified.all()
    assert not np.shares_memory(x, q)
    for row in range(n):
        ref = min_norm_point(_zonotope_polytope(q[row], a[row]))
        assert np.allclose(x[row], ref.point, rtol=0.0,
                           atol=1e-12 * (1.0 + np.linalg.norm(ref.point)))
    if k == 0:
        assert np.array_equal(x, q) and np.array_equal(gap, np.zeros(n))
