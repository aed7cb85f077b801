"""Compact convex sets, support functions and minimum-norm points.

The sets that show up as pointwise subdifferentials are built from a
handful of primitives: points, polytopes given by vertex lists, balls
restricted to a coordinate subspace, Minkowski sums and hulls.
Nonnegative scalings are applied eagerly to the primitives by ``scale``.
Two queries matter:

* ``support(S, d)``: the support value max_{v in S} <v, d> together with
  a maximizing point, and
* ``min_norm_point(S)``: the (unique) point of S closest to the origin,
  which is the steepest-descent generator.

``min_norm_point`` has three routes: a point is its own answer; one
ball added to a point, or a full ball added to polytopes, takes the
rest's nearest point pulled toward the origin by the radius; and every
other set, any set holding a hull included, takes Wolfe's minimum-norm
algorithm (Wolfe, Math. Programming 11, 1976), whose linear minimizer is
the support function.
Every route reports the duality gap <v, v> - min_{s in S} <v, s> so
callers can check the answer without trusting the solver.

``zonotope_min_norm`` works on a whole grid at once: the zonotopes
q + sum_i lambda_i a_i, lambda in [-1, 1]^k, one per row, in the form
``integrand.compile_subdiff`` gives nodal subdifferentials: a center q
of shape (N, d) and a list of generators, each a block over the columns
it can touch.  Each row's candidate is a clip in closed form, exact
where the generators are pairwise orthogonal, and the same gap rule as
``min_norm_point`` certifies it or not; the caller sends the rows it
does not certify elsewhere.  It takes a generator's dot products by
column products over one or two columns, else row by row over (N, d)
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .trajectory import finite, trap_row_dots


# ---------------------------------------------------------------------------
# set variants


@dataclass(frozen=True, eq=False)
class Singleton:
    point: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "point", np.atleast_1d(np.asarray(self.point, float)))


@dataclass(frozen=True, eq=False)
class Polytope:
    """Convex hull of a finite vertex list, shape (k, d), k >= 1."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError("vertices must be a (k, d) array with k >= 1")
        object.__setattr__(self, "vertices", v)


@dataclass(frozen=True, eq=False)
class Ball:
    """center + {u : ||u|| <= radius, u supported on the masked coordinates}."""

    center: np.ndarray
    radius: float
    mask: np.ndarray = None  # bool (d,); default: all coordinates

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.center, float))
        object.__setattr__(self, "center", c)
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")
        m = self.mask
        m = np.ones(c.shape[0], bool) if m is None else np.asarray(m, bool)
        if m.shape != c.shape:
            raise ValueError("mask and center shapes differ")
        object.__setattr__(self, "mask", m)


def _check_members(s) -> None:
    members = tuple(s.members)
    if not members:
        raise ValueError(f"{type(s).__name__} needs at least one member")
    d = dim(members[0])
    if any(dim(m) != d for m in members[1:]):
        raise ValueError("members have mismatched dimensions")
    object.__setattr__(s, "members", members)


@dataclass(frozen=True, eq=False)
class MinkowskiSum:
    members: tuple
    __post_init__ = _check_members


@dataclass(frozen=True, eq=False)
class Hull:
    """Convex hull of the union of its members."""

    members: tuple
    __post_init__ = _check_members


ConvexSet = Union[Singleton, Polytope, Ball, MinkowskiSum, Hull]


def dim(s: ConvexSet) -> int:
    if isinstance(s, Singleton):
        return s.point.shape[0]
    if isinstance(s, Polytope):
        return s.vertices.shape[1]
    if isinstance(s, Ball):
        return s.center.shape[0]
    if isinstance(s, (MinkowskiSum, Hull)):
        return dim(s.members[0])
    raise TypeError(f"not a ConvexSet: {s!r}")


def scale(c: float, s: ConvexSet) -> ConvexSet:
    """c * S for c >= 0, applied eagerly to the primitives."""
    if c < 0.0:
        raise ValueError("scale factor must be nonnegative")
    if isinstance(s, Singleton):
        return Singleton(c * s.point)
    if isinstance(s, Polytope):
        return Polytope(c * s.vertices)
    if isinstance(s, Ball):
        return Ball(c * s.center, c * s.radius, s.mask)
    if isinstance(s, (MinkowskiSum, Hull)):
        return type(s)(tuple(scale(c, m) for m in s.members))
    raise TypeError(f"not a ConvexSet: {s!r}")


# ---------------------------------------------------------------------------
# support oracle


def support(s: ConvexSet, d: np.ndarray) -> tuple[float, np.ndarray]:
    """Support value and a maximizing point of S in direction d.

    A hull's support is its largest member's.  Ties between polytope
    vertices, and between hull members, break toward the lowest index,
    so the oracle is deterministic.  d = 0 returns (0, some point of S).
    """
    d = np.asarray(d, float)
    if isinstance(s, Singleton):
        return float(s.point @ d), s.point.copy()
    if isinstance(s, Polytope):
        dots = s.vertices @ d
        j = int(np.argmax(dots))
        return float(dots[j]), s.vertices[j].copy()
    if isinstance(s, Ball):
        dm = np.where(s.mask, d, 0.0)
        nm = float(np.linalg.norm(dm))
        w = s.center.copy()
        if nm > 0.0 and s.radius > 0.0:
            w += (s.radius / nm) * dm
        return float(s.center @ d) + s.radius * nm, w
    if isinstance(s, MinkowskiSum):
        val = 0.0
        w = np.zeros_like(d)
        for m in s.members:
            v, p = support(m, d)
            val += v
            w += p
        return val, w
    if isinstance(s, Hull):
        # max keeps the first of equal values: the lowest index
        return max((support(m, d) for m in s.members), key=lambda vp: vp[0])
    raise TypeError(f"not a ConvexSet: {s!r}")


# ---------------------------------------------------------------------------
# minimum-norm point


@dataclass
class MinNormResult:
    """Closest point to the origin plus a verifiable certificate.

    point is a convex combination ``weights @ atoms`` of points of S, and
    gap = <point, point> - min_{s in S} <point, s> bounds the squared
    distance between point and the true minimizer.
    """

    point: np.ndarray
    sqnorm: float
    gap: float
    iterations: int
    certified: bool
    atoms: np.ndarray
    weights: np.ndarray


def _gap(s: ConvexSet, x: np.ndarray) -> float:
    sval, _ = support(s, -x)
    return float(x @ x + sval)


def _finish(s, x, atoms, weights, iters, tol) -> MinNormResult:
    x = np.asarray(x, float)
    g = _gap(s, x)
    return MinNormResult(
        point=x,
        sqnorm=float(x @ x),
        gap=g,
        iterations=iters,
        certified=bool(g <= tol * (1.0 + float(x @ x))),
        atoms=np.asarray(atoms, float),
        weights=np.asarray(weights, float),
    )


def _canonical(s: ConvexSet, q: np.ndarray, polys: list, balls: list,
               hulls: list):
    """Flatten into offset + polytopes + balls, and list the hulls.  A
    hull's members go in with an offset of their own: they only count."""
    if isinstance(s, Singleton):
        q += s.point
    elif isinstance(s, Polytope):
        if s.vertices.shape[0] == 1:
            q += s.vertices[0]
        else:
            polys.append(s.vertices)
    elif isinstance(s, Ball):
        if s.radius == 0.0:
            q += s.center
        else:
            balls.append((s.center, s.radius, s.mask))
    elif isinstance(s, MinkowskiSum):
        for m in s.members:
            _canonical(m, q, polys, balls, hulls)
    elif isinstance(s, Hull):
        hulls.append(s)
        for m in s.members:
            _canonical(m, np.zeros_like(q), polys, balls, hulls)
    else:
        raise TypeError(f"not a ConvexSet: {s!r}")


def _merge_balls(balls: list) -> list:
    """Sum balls sharing one coordinate mask; centers add, radii add."""
    merged: list = []
    for c, r, m in balls:
        for k, (c2, r2, m2) in enumerate(merged):
            if np.array_equal(m, m2):
                merged[k] = (c2 + c, r2 + r, m2)
                break
        else:
            merged.append((c.astype(float), float(r), m))
    return merged


# Certificate tolerance: a point is certified when its duality gap is at
# most _CERT_TOL * (1 + ||point||^2).
_CERT_TOL = 1e-10


def min_norm_point(s: ConvexSet, tol: float = _CERT_TOL,
                   max_iter: int | None = None) -> MinNormResult:
    """Minimum Euclidean norm point of a compact convex set.

    A point is its own answer.  One ball added to a point, or a full
    ball added to polytopes, pulls the rest's nearest point toward the
    origin by the radius on the ball's coordinates.  Every other set,
    any set holding a Hull, and the rest of a full ball plus polytopes,
    take Wolfe's method over the support function, whose atoms are the
    points ``support`` returns.  tol controls the duality-gap
    certificate: the result is ``certified`` when
    gap <= tol * (1 + ||point||^2).  max_iter caps Wolfe's major
    iterations; the default grows with the dimension and with the count
    of vertices, balls and hull members, those inside hulls included.
    """
    d = dim(s)
    q = np.zeros(d)
    polys: list = []
    balls: list = []
    hulls: list = []
    _canonical(s, q, polys, balls, hulls)
    balls = _merge_balls(balls)
    if max_iter is None:
        nverts = sum(p.shape[0] for p in polys) + sum(len(h.members) for h in hulls)
        max_iter = 10 * d * (nverts + 10 * max(1, len(balls)))

    if hulls:
        return _wolfe_support(s, tol, max_iter)
    if not (balls or polys):
        return _finish(s, q, [q], [1.0], 0, tol)
    if len(balls) == 1 and (not polys or balls[0][2].all()):
        # Finite, unlike Wolfe's method over the ball's support.
        c, r, m = balls[0]
        x, iters = q + c, 0
        if polys:
            rest = MinkowskiSum((Singleton(x), *map(Polytope, polys)))
            inner = _wolfe_support(rest, tol, max_iter)
            x, iters = inner.point, inner.iterations
        nm = float(np.linalg.norm(np.where(m, x, 0.0)))
        x[m] *= 0.0 if nm <= r else 1.0 - r / nm
        return _finish(s, x, [x], [1.0], iters, tol)
    return _wolfe_support(s, tol, max_iter)


def _affine_min_norm(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize ||w @ A|| subject to sum w = 1 over the affine hull."""
    m = a.shape[0]
    kkt = np.zeros((m + 1, m + 1))
    kkt[:m, :m] = a @ a.T
    kkt[:m, m] = 1.0
    kkt[m, :m] = 1.0
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    w = sol[:m]
    return w @ a, w


def _wolfe_support(s: ConvexSet, tol: float, max_iter: int) -> MinNormResult:
    """Wolfe's minimum-norm-point algorithm over S's support function.

    The linear minimizer is support(S, -x), each atom is keyed by its
    bytes, and the run starts at support(S, 0)'s point.  Maintains a
    corral (an affinely independent active atom set) whose affine
    minimizer is the current iterate; finite in exact arithmetic over a
    polytope.  An atom already in the corral ends the loop.
    """
    _, atom = support(s, np.zeros(dim(s)))
    keys = [atom.tobytes()]
    corral = [atom]
    w = np.array([1.0])
    x = atom.copy()
    drop_eps = 1e-12

    iters = 0
    for iters in range(1, max_iter + 1):
        sval, atom = support(s, -x)
        key = atom.tobytes()
        sq = float(x @ x)
        if sq + sval <= tol * (1.0 + sq) or key in keys:
            break
        keys.append(key)
        corral.append(atom)
        w = np.append(w, 0.0)
        for _ in range(len(corral) + 1):  # minor cycle; each pass drops an atom
            sub = np.array(corral)
            y, alpha = _affine_min_norm(sub)
            if np.all(alpha > drop_eps):
                x, w = y, alpha
                break
            mask = alpha < drop_eps
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask & (w > alpha), w / (w - alpha), np.inf)
            theta = float(min(1.0, ratios.min()))
            if theta <= 0.0 or not np.isfinite(theta):
                # roundoff stall: evict the worst-weighted atom outright
                keep = np.arange(len(corral)) != int(np.argmin(alpha))
            else:
                w = (1.0 - theta) * w + theta * alpha
                w[w < drop_eps] = 0.0
                keep = w > 0.0
                if not np.any(keep):  # numerical stalemate; keep best atom
                    sq = np.einsum("ij,ij->i", sub, sub)
                    if not finite(sq):
                        trap_row_dots((sub, sub))
                    keep[int(np.argmin(sq))] = True
            keys = [k for k, kept in zip(keys, keep) if kept]
            corral = [a for a, kept in zip(corral, keep) if kept]
            w = w[keep]
            w = w / w.sum()
            x = w @ np.array(corral)

    atoms = np.array(corral)
    return _finish(s, w @ atoms, atoms, w, iters, tol)


# ---------------------------------------------------------------------------
# zonotopes, row by row


def _dots(cols, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """<a, v> row by row for a generator block a over the columns cols of
    a full v: np.einsum over whole rows where cols is None, else column
    products over one or two columns, summed in column order.  These are
    the einsum's bits over the full rows, whose other products are zeros,
    up to the sign of a zero; a third column would change the order of
    its sum."""
    if cols is None:
        return np.einsum("ij,ij->i", a, v)
    out = a[:, 0] * v[:, cols[0]]
    if len(cols) == 2:
        out += a[:, 1] * v[:, cols[1]]
    return out


def zonotope_min_norm(q: np.ndarray, gens: list, tol: float = _CERT_TOL
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate minimum-norm points of the zonotopes q + sum_i lambda_i a_i,
    one per row, each with its certificate.

    q has shape (N, d), gens is a list of generators a_i, each a pair
    (columns, a) of increasing columns of R^d and a block a of shape
    (N, len(columns)), zero on every other column, and lambda ranges over
    [-1, 1]^k.  Each row's candidate is the clip
    lambda_i = min(max(-<q, a_i> / ||a_i||^2, -1), 1); a zero generator
    gets lambda_i = 0.  Where a row's generators are pairwise orthogonal,
    ||x||^2 separates into one parabola per lambda_i and the clip is
    exact; elsewhere it is a point of the zonotope that its gap judges.
    The generators are taken one at a time, with no (N, k, d) stack: a
    generator over one or two columns by column products, a wider one by
    row dot products of (N, d) arrays.  Returns (points, gaps,
    certified).  The gap ||x||^2 - <q, x> + sum_i |<a_i, x>| is
    min_norm_point's <x, x> - min_{s in S} <x, s>, taken from the
    zonotope's support function, and a row is certified under the same
    rule: gap <= tol * (1 + ||x||^2).  The bits are those of row dots
    of the full rows up to the signs of zeros, which neither the shift
    nor the gap sees.
    """
    # a generator over more than two columns is widened to whole rows
    gens = [(None, _widened(q, cols, a)) if len(cols) > 2 else (cols, a)
            for cols, a in gens]
    # The shift starts at +0, so a row whose terms are all zero gets +0
    # whatever their signs, as it does with no generators at all.
    shift = np.zeros_like(q)
    hidden = []     # the wide einsums the gap does not see
    for cols, a in gens:
        sq = _dots(None if cols is None else range(len(cols)), a, a)
        qa = _dots(cols, a, q)
        if cols is None:
            hidden += [sq, qa]
        sq += sq == 0.0  # a zero generator divides by 1, for lambda = 0
        lam = np.minimum(np.maximum(-qa / sq, -1.0), 1.0)
        if cols is None:
            shift += lam[:, None] * a
        else:
            for m, c in enumerate(cols):
                shift[:, c] += lam * a[:, m]
    x = q + shift
    xx = np.einsum("ij,ij->i", x, x)
    spread = 0.0
    for cols, a in gens:
        spread = spread + np.abs(_dots(cols, a, x))
    gap = xx - np.einsum("ij,ij->i", q, x) + spread
    # einsum sets no floating-point flags; where an einsum, which the gap
    # sums unless it is hidden, is not finite, trap_row_dots raises
    if not finite(gap, *hidden):
        trap_row_dots((x, x), (q, x), *[pair for cols, a in gens if cols is None
                                         for pair in ((a, a), (q, a), (a, x))])
    return x, gap, gap <= tol * (1.0 + xx)


def _widened(q: np.ndarray, cols: tuple, a: np.ndarray) -> np.ndarray:
    """The block a over the columns cols as whole rows like q's."""
    if len(cols) == q.shape[1]:
        return a
    full = np.zeros_like(q)
    contiguous = cols[-1] - cols[0] == len(cols) - 1
    full[:, slice(cols[0], cols[-1] + 1) if contiguous else list(cols)] = a
    return full
