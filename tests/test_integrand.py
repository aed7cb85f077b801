"""Expression parsing, evaluation, and first-order information.

Layout convention checked throughout: gradients and subdifferential sets
live in R^{2n} ordered (x1..xn, z1..zn).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nsvar

from _oracles import (
    dual_gradient,
    fd_directional,
    full_generators,
    min_activity_margin,
    random_expr,
    random_smooth_expr,
    scalar_eval,
    vertex_list,
)
from nsvar.convexgeom import (
    Ball, Hull, MinkowskiSum, Polytope, Singleton, min_norm_point, support,
)
from nsvar.functional import ProblemSpec, eval_J
from nsvar.integrand import (
    Abs,
    Add,
    Const,
    Div,
    DomainError,
    EvalPoint,
    ExprError,
    Max,
    Mul,
    Neg,
    Norm,
    ParseError,
    Pow,
    Sub,
    SubdiffError,
    Time,
    VarX,
    VarZ,
    _Parser,
    _SD_RULES,
    _args,
    _compile,
    _leaf_block,
    _uses_vars,
    _value_and_set,
    compile_line,
    compile_subdiff,
    directional_derivative,
    eval_expr,
    eval_expr_grid,
    format_expr,
    is_smooth,
    next_tolerance,
    parse_expr,
    subdiff_expr,
    uses_var_z,
)
from nsvar.trajectory import Grid, PairTraj, Traj

EX2 = "abs(x1 - max(t - 0.5, 0))"
EX3 = "max(pow(z1, 2) - pow(x1, 2) - 2 * t * x1, x2)"
EX4 = "norm(z1 - 1, x2) + pow(x1 - x3 - sin(t), 2)"


def _pt(x, z, t=0.0):
    return EvalPoint(np.atleast_1d(np.asarray(x, float)),
                     np.atleast_1d(np.asarray(z, float)), t)


def test_parse_structural():
    assert parse_expr("abs(x1)", 1) == Abs(VarX(1))
    e = parse_expr("max(x1, z2)", 2)
    assert e == Max((VarX(1), VarZ(2)))


def test_parse_precedence():
    p = _pt([1.0], [0.0], 0.75)
    assert eval_expr(parse_expr("2 + 3 * 4", 1), p) == 14.0
    assert eval_expr(parse_expr("2 - 3 - 4", 1), p) == -5.0
    assert eval_expr(parse_expr("(1 + 2) * 3", 1), p) == 9.0
    assert eval_expr(parse_expr("-x1 + 2", 1), p) == 1.0
    assert eval_expr(parse_expr("2 * t - 1", 1), p) == 0.5
    assert eval_expr(parse_expr("pow(2, 3)", 1), p) == 8.0


def test_parse_errors():
    with pytest.raises(ExprError, match="nonsmooth subexpression inside sin"):
        parse_expr("sin(abs(x1))", 1)
    with pytest.raises(ExprError, match="out of range"):
        parse_expr("x3", 2)
    with pytest.raises(ParseError, match="must be >= 1"):
        parse_expr("x0", 1)
    with pytest.raises(ParseError, match="position 7"):
        parse_expr("(x1 + 1", 1)
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expr("foo(x1)", 1)
    with pytest.raises(ParseError):
        parse_expr("", 1)
    with pytest.raises(ExprError, match="only t"):
        parse_expr("x1 + t", 1, allow_vars=False)


# Trees the grammar parses and the validation rejects, with the message.
_REJECTED = [
    ("abs(x1) * x1", "nonsmooth subexpression inside a product"),
    ("x1 * max(x1, 0)", "nonsmooth subexpression inside a product"),
    ("x1 / abs(x1)", "nonsmooth subexpression inside a quotient"),
    ("pow(norm(x1), 2)", "nonsmooth subexpression inside pow"),
    ("-2 * abs(x1)", "nonsmooth subexpression scaled by a negative constant"),
    ("abs(x1) * -0.5", "nonsmooth subexpression scaled by a negative constant"),
    ("pow(x1, 2) - abs(x1)", "nonsmooth subexpression subtracted"),
    ("-abs(x1)", "nonsmooth subexpression negated"),
    ("pow(x1, 2) + -1 * abs(x1)", "nonsmooth subexpression scaled by a negative constant"),
    ("-(x1 + max(x1, t))", "nonsmooth subexpression negated"),
    ("x1 - 2 * norm(x1, t)", "nonsmooth subexpression subtracted"),
    ("abs(abs(x1) - 1)", "nonsmooth subexpression inside abs"),
    ("abs(max(x1, z1))", "nonsmooth subexpression inside abs"),
    # norm(u) is abs(u), and a norm of several operands flips each sign
    ("norm(abs(x1) - 1)", "nonsmooth subexpression inside norm"),
    ("norm(max(x1, z1), x2)", "nonsmooth subexpression inside norm"),
    ("max(x1)", "max takes at least 2 arguments"),
    ("pow(x1, 0)", "pow exponent must be >= 1, got 0"),
    ("pow(x1 + 1, -1)", "pow exponent must be >= 1, got -1"),
    ("pow(x1, t)", "pow exponent must be an integer literal"),
    ("pow(x1, 1e400)", "pow exponent must be an integer literal"),
]


@pytest.mark.parametrize("text, message", _REJECTED)
def test_parse_rejects_nonsmooth_in_smooth_only_context(text, message):
    with pytest.raises(ExprError) as info:
        parse_expr(text, 1)
    assert type(info.value) is ExprError
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", _REJECTED + [
    ("x1 + z3", "variable z3 out of range 1..1")])
def test_problem_rejects_the_trees_the_parser_rejects(text, message):
    """A tree built without the parser's checks meets them in ProblemSpec."""
    tree = _Parser(text).parse()
    with pytest.raises(ExprError) as info:
        ProblemSpec(n=1, horizon=1.0, x0=[0.0], integrand=tree)
    assert type(info.value) is ExprError
    assert str(info.value) == message
    # the initial guesses may use t alone
    with pytest.raises(ExprError, match="^only t may appear in this expression$"):
        ProblemSpec(n=1, horizon=1.0, x0=[0.0], integrand=parse_expr("abs(x1)", 1),
                    initial_x=(_Parser("t + x1").parse(),))


@pytest.mark.parametrize("tree, message", [
    (Pow(VarX(1), 2.5), "pow exponent must be an integer literal"),
    (Norm(()), "norm takes at least 1 argument"),
])
def test_problem_rejects_trees_built_in_python(tree, message):
    with pytest.raises(ExprError) as info:
        ProblemSpec(n=1, horizon=1.0, x0=[0.0], integrand=tree)
    assert type(info.value) is ExprError
    assert str(info.value) == message


@pytest.mark.parametrize("text, tree", [
    ("2 * abs(x1)", Mul(Const(2.0), Abs(VarX(1)))),
    ("abs(x1) * 0.5", Mul(Abs(VarX(1)), Const(0.5))),
    ("-2 * pow(x1, 2)", Mul(Const(-2.0), Pow(VarX(1), 2))),
    ("pow(x1, 2) * -2", Mul(Pow(VarX(1), 2), Const(-2.0))),
    # a kink in t alone is no kink along any direction in x or z
    ("-1 * max(t, 0)", Mul(Const(-1.0), Max((Time(), Const(0.0))))),
    ("x1 - max(t - 0.5, 0)",
     Sub(VarX(1), Max((Sub(Time(), Const(0.5)), Const(0.0))))),
    ("-abs(t) + x1", Add(Neg(Abs(Time())), VarX(1))),
    ("norm(max(t - 0.5, 0), x1)",
     Norm((Max((Sub(Time(), Const(0.5)), Const(0.0))), VarX(1)))),
])
def test_parse_accepts_constant_factors(text, tree):
    assert parse_expr(text, 1) == tree


def test_error_hierarchy():
    assert issubclass(ParseError, ExprError)
    assert issubclass(DomainError, ExprError)
    assert issubclass(SubdiffError, ExprError)


def test_eval_values():
    assert eval_expr(parse_expr("abs(x1)", 1), _pt([-0.5], [0.0])) == 0.5
    assert eval_expr(parse_expr(EX2, 1), _pt([-1.0], [0.0], 0.0)) == 1.0
    assert eval_expr(parse_expr(EX4, 3),
                     _pt([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0.0)) == 0.0
    assert eval_expr(parse_expr("max(x1, z1, t)", 1), _pt([0.2], [0.9], 0.5)) == 0.9


def test_eval_domain_errors():
    with pytest.raises(DomainError, match="t=0.0"):
        eval_expr(parse_expr("1 / x1", 1), _pt([0.0], [0.0], 0.0))
    with pytest.raises(DomainError):
        eval_expr(parse_expr("sqrt(x1)", 1), _pt([-1.0], [0.0], 0.0))


def test_eval_grid_matches_scalar_loop():
    rng = np.random.default_rng(5)
    done = 0
    while done < 40:
        n = int(rng.integers(1, 4))
        e = random_expr(rng, n)
        x = rng.standard_normal((7, n))
        z = rng.standard_normal((7, n))
        t = np.linspace(0.0, 1.0, 7)
        try:
            vec = eval_expr_grid(e, x, z, t)
            ref = [eval_expr(e, EvalPoint(x[i], z[i], t[i])) for i in range(7)]
        except DomainError:
            continue
        assert np.allclose(vec, ref, rtol=1e-14, atol=1e-14)
        done += 1


def _check_against_scalar_oracle(e, x, z, t):
    """eval_expr_grid agrees with the math-module oracle at every node.

    Returns False when the point is outside the domain: then both raise.
    """
    try:
        ref = [scalar_eval(e, x[i], z[i], t[i]) for i in range(t.shape[0])]
    except (ZeroDivisionError, ValueError):
        with pytest.raises(DomainError):
            eval_expr_grid(e, x, z, t)
        return False
    vec = eval_expr_grid(e, x, z, t)
    assert vec.shape == t.shape
    assert vec == pytest.approx(ref, rel=1e-12, abs=1e-12)
    return True


def test_eval_grid_matches_math_module_oracle():
    rng = np.random.default_rng(11)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 4))
        e = random_expr(rng, n)
        x = rng.standard_normal((9, n))
        z = rng.standard_normal((9, n))
        t = np.linspace(0.0, 1.0, 9)
        done += _check_against_scalar_oracle(e, x, z, t)


# Every node type, sqrt, exp and unbounded divisors included.
NODE_TYPES = [
    "sqrt(x1 * x1 + 1) / (2 + cos(z1)) - exp(-t)",
    "exp(sin(x2)) * cos(t) + norm(x1, z1 - t, 3) + abs(x1 - 0.5)",
    "2 * max(pow(z1, 3), -x2) + max(x1, z2, t) - max(t, 1)",
    "sqrt(x1) + z2 / x2",
]


@pytest.mark.parametrize("text", NODE_TYPES)
def test_eval_grid_matches_oracle_on_every_node_type(text):
    # random_expr draws no sqrt or exp and no unbounded divisor; these do.
    e = parse_expr(text, 2)
    rng = np.random.default_rng(3)
    inside = 0
    for _ in range(20):
        x = rng.standard_normal((6, 2))
        z = rng.standard_normal((6, 2))
        t = np.linspace(0.0, 2.0, 6)
        inside += _check_against_scalar_oracle(e, x, z, t)
    assert inside >= 1


def test_eval_grid_domain_errors_match_oracle():
    e = parse_expr("sqrt(x1) + z2 / x2", 2)
    x = np.ones((5, 2))
    z = np.ones((5, 2))
    t = np.linspace(0.0, 1.0, 5)
    x[3, 1] = 0.0
    assert not _check_against_scalar_oracle(e, x, z, t)
    with pytest.raises(DomainError, match="division by zero") as exc:
        eval_expr_grid(e, x, z, t)
    assert exc.value.node_index == 3
    x[1, 0] = -1.0
    assert not _check_against_scalar_oracle(e, x, z, t)
    with pytest.raises(DomainError, match="sqrt of a negative") as exc:
        eval_expr_grid(e, x, z, t)
    assert exc.value.node_index == 1


def test_eval_grid_domain_error_reports_node():
    e = parse_expr("1 / x1", 1)
    x = np.array([[1.0], [1.0], [0.0], [1.0]])
    z = np.zeros((4, 1))
    with pytest.raises(DomainError, match="node 2"):
        eval_expr_grid(e, x, z, np.linspace(0.0, 1.0, 4))


def test_eval_grid_constant_operands():
    # A constant operand is a scalar inside the evaluator; results are
    # still one value per node, with the bits of a constant array.
    t = np.linspace(0.0, 1.0, 4)
    x = np.array([[0.5], [-1.0], [2.0], [0.25]])
    z = np.zeros((4, 1))
    got = eval_expr_grid(parse_expr("2 * t * x1", 1), x, z, t)
    assert np.array_equal(got, np.full(4, 2.0) * t * x[:, 0])
    for text in ("2", "1 + 2", "max(1, 2)", "norm(3, 4)", "max(x1, 0) - 1"):
        assert eval_expr_grid(parse_expr(text, 1), x, z, t).shape == (4,)
    for text, message in (("x1 / 0", "division by zero"),
                          ("sqrt(-1)", "sqrt of a negative value")):
        with pytest.raises(DomainError) as exc:
            eval_expr_grid(parse_expr(text, 1), x, z, t)
        assert str(exc.value) == f"{message} at t=0.0 (node 0)"
        assert exc.value.node_index == 0


def _check_line_against_value_pass(e, x, z, t, gx, gz):
    """compile_line's at(gamma) is eval_expr_grid at the stepped point.

    Values agree to 1e-12 relative to their magnitude; outside the
    domain both raise the same DomainError, naming the same node.
    Returns how many of the three steps were inside the domain.
    """
    at = compile_line(e)(x, z, t, gx, gz)
    inside = 0
    for gamma in (0.0, 1e-3, 0.5):
        try:
            want = eval_expr_grid(e, x + gamma * gx, z + gamma * gz, t)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                at(gamma)
            assert str(got.value) == str(exc)
            assert got.value.node_index == exc.node_index
            continue
        got = at(gamma)[0]
        assert got.shape == t.shape
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
        inside += 1
    return inside


def test_line_pass_matches_value_pass_on_random_expressions():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        e = random_expr(rng, n)
        x, z, gx, gz = rng.standard_normal((4, 9, n))
        _check_line_against_value_pass(e, x, z, np.linspace(0.0, 1.0, 9), gx, gz)


@pytest.mark.parametrize("text", NODE_TYPES)
def test_line_pass_matches_value_pass_on_every_node_type(text):
    e = parse_expr(text, 2)
    rng = np.random.default_rng(19)
    t = np.linspace(0.0, 2.0, 6)
    inside = 0
    for _ in range(20):
        x, z, gx, gz = rng.standard_normal((4, 6, 2))
        inside += _check_line_against_value_pass(e, x, z, t, gx, gz)
    assert inside >= 1


def _kink_model(kinks, gamma):
    """The nodal values compile_line's at.kinks describes at gamma."""
    terms, smooth = kinks
    out = sum(c * gamma ** k for k, c in enumerate(smooth))
    return out + sum(w * np.abs(a + b * gamma) for a, b, w in terms)


@pytest.mark.parametrize("text, kinks", [
    ("abs(x1)", 1),
    ("abs(x1) * 2 + 1", 1),
    ("abs(x1 - max(t - 0.5, 0)) + abs(x2 - sin(6 * t))", 2),
    ("max(x1, z1) + 0.5 * pow(z1, 2)", 1),
    ("2 * abs(x1 - 1) + 3 * (abs(x1) + pow(x1, 2)) - x2 - abs(t - 0.5)", 2),
    ("pow(x1 - 1, 2) + z2", 0),
    ("abs(x1 + x2) + max(t, z1) - max(2, 3)", 2),
])
def test_line_kink_data_is_the_line_pass(text, kinks):
    e = parse_expr(text, 2)
    rng = np.random.default_rng(29)
    t = np.linspace(0.0, 1.0, 7)
    x, z, gx, gz = rng.standard_normal((4, 7, 2))
    at = compile_line(e)(x, z, t, gx, gz)
    assert at.kinks is not None and len(at.kinks[0]) == kinks
    assert all(w >= 0.0 for _, _, w in at.kinks[0])
    for gamma in (0.0, 0.3, 2.0):
        want = at(gamma)[0]
        assert np.all(np.abs(_kink_model(at.kinks, gamma) - want)
                      <= 1e-12 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("text", [
    "max(x1, z1, 0)",
    "abs(pow(x1, 2) - 1)",
    "max(pow(z1, 2) - pow(x1, 2) - 2 * t * x1, x2)",
    "norm(z1 - 1, x2) + pow(x1 - x2 - sin(t), 2)",
    "abs(x1) + sin(x1)",
    "abs(x1) + pow(x1, 3)",
    "max(x1, 0) + pow(x1, 2) * x2",
])
def test_lines_outside_the_sweep_class_have_no_kink_data(text):
    # a max of three branches or of degree-2 branches, a kink of a
    # degree-2 fold, a norm, a node that does not fold next to a kink
    e = parse_expr(text, 2)
    rng = np.random.default_rng(31)
    t = np.linspace(0.0, 1.0, 7)
    x, z, gx, gz = rng.standard_normal((4, 7, 2))
    assert compile_line(e)(x, z, t, gx, gz).kinks is None


def test_random_line_kink_data_is_the_line_pass():
    rng = np.random.default_rng(37)
    t = np.linspace(0.0, 1.0, 9)
    swept = 0
    for _ in range(300):
        n = int(rng.integers(1, 3))
        e = random_expr(rng, n)
        x, z, gx, gz = rng.standard_normal((4, 9, n))
        try:
            at = compile_line(e)(x, z, t, gx, gz)
            at(0.7)
        except DomainError:
            continue
        if at.kinks is None:
            continue
        swept += 1
        for gamma in (0.0, 0.7):
            want = at(gamma)[0]
            assert np.all(np.abs(_kink_model(at.kinks, gamma) - want)
                          <= 1e-12 * (1.0 + np.abs(want)))
    assert swept >= 30


def _check_slopes_against_the_node_route(e, x, z, t, gx, gz):
    """compile_line's left and right slopes are the per-node route's
    one-sided directional derivatives: right f'(p; g) and left
    -f'(p; -g), with g the direction at the node.

    Steps outside the domain and nodes the per-node route cannot answer
    (sqrt at 0, a ball it cannot represent) are skipped.  Returns how
    many nodes were checked and how many of them sat on a kink.
    """
    at = compile_line(e)(x, z, t, gx, gz)
    checked = kinks = 0
    for gamma in (0.0, 0.5, 1.0):
        try:
            _, left, right = at(gamma)
        except DomainError:
            continue
        for i in range(t.shape[0]):
            g = np.concatenate([gx[i], gz[i]])
            p = EvalPoint(x[i] + gamma * gx[i], z[i] + gamma * gz[i], float(t[i]))
            try:
                want_right = directional_derivative(e, p, g)
                want_left = -directional_derivative(e, p, -g)
            except (DomainError, SubdiffError):
                continue
            assert right[i] == pytest.approx(want_right, abs=1e-10 * (1.0 + abs(want_right)))
            assert left[i] == pytest.approx(want_left, abs=1e-10 * (1.0 + abs(want_left)))
            checked += 1
            kinks += want_left != want_right
    return checked, kinks


def test_line_slopes_are_one_sided_directional_derivatives():
    """On the random draws, at normal points and on a half-integer lattice,
    where abs, max and norm sit exactly on their kinks."""
    rng = np.random.default_rng(17)
    kinks = 0
    for _ in range(300):
        n = int(rng.integers(1, 4))
        e = random_expr(rng, n)
        t = np.linspace(0.0, 1.0, 9)
        x, z, gx, gz = rng.standard_normal((4, 9, n))
        assert _check_slopes_against_the_node_route(e, x, z, t, gx, gz)[0] > 0
        x, z, gx, gz = 0.5 * rng.integers(-2, 3, (4, 9, n))
        kinks += _check_slopes_against_the_node_route(e, x, z, t, gx, gz)[1]
    assert kinks >= 100


@pytest.mark.parametrize("text", NODE_TYPES)
def test_line_slopes_are_one_sided_directional_derivatives_on_every_node_type(text):
    e = parse_expr(text, 2)
    rng = np.random.default_rng(41)
    t = np.linspace(0.0, 2.0, 6)
    checked = kinks = 0
    for _ in range(20):
        # x >= 0 keeps sqrt(x1) inside its domain at gamma = 0
        for points in (rng.standard_normal((4, 6, 2)),
                       0.5 * rng.integers(-2, 3, (4, 6, 2))):
            x, z, gx, gz = points
            c, k = _check_slopes_against_the_node_route(e, np.abs(x), z, t, gx, gz)
            checked, kinks = checked + c, kinks + k
    assert checked >= 100
    if not is_smooth(e):
        assert kinks >= 1


def test_line_pass_domain_errors_name_the_node_of_the_value_pass():
    e = parse_expr("sqrt(x1) + z2 / x2", 2)
    t = np.linspace(0.0, 1.0, 6)
    # at gamma = 0.5, x2 + 0.5 * 2 is exactly 0 at node 4, then also
    # x1 + 0.5 * -2 < 0 at node 1: the sqrt comes first in the walk
    x, z, gx, gz = np.ones((4, 6, 2))
    x[4, 1], gx[4, 1] = -1.0, 2.0
    assert _check_line_against_value_pass(e, x, z, t, gx, gz) == 2
    with pytest.raises(DomainError, match="division by zero at t=0.8 "):
        compile_line(e)(x, z, t, gx, gz)(0.5)
    x[1, 0], gx[1, 0] = 0.5, -2.0
    assert _check_line_against_value_pass(e, x, z, t, gx, gz) == 2
    with pytest.raises(DomainError, match="sqrt of a negative value at t=0.2 "):
        compile_line(e)(x, z, t, gx, gz)(0.5)
    # a quotient takes its divisor first
    quotient = parse_expr("sqrt(x1) / x2", 2)
    assert _check_line_against_value_pass(quotient, x, z, t, gx, gz) == 2
    with pytest.raises(DomainError, match="division by zero at t=0.8 "):
        compile_line(quotient)(x, z, t, gx, gz)(0.5)


def test_line_pass_evaluates_subtrees_without_variables_once(monkeypatch):
    """Subtrees without x or z run once per grid in each compiled pass, and
    on every call with a writable t."""
    calls = {"sin": 0, "abs": 0}

    def counting(key, ufunc):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return ufunc(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "sin", counting("sin", np.sin))
    monkeypatch.setattr(np, "abs", counting("abs", np.abs))
    text = "abs(x1 - max(t - 0.5, 0)) + abs(x2 - sin(6.0 * t))"
    p = ProblemSpec(n=2, horizon=1.0, x0=[0.0, 0.0], integrand=parse_expr(text, 2))
    line, subdiff = p.integrand_line, p.integrand_subdiff
    rng = np.random.default_rng(29)
    x, z, gx, gz = rng.standard_normal((4, 51, 2))
    grid = Grid(1.0, 51)
    at = line(x, z, grid.nodes, gx, gz)
    assert calls == {"sin": 1, "abs": 0}
    for gamma in np.linspace(0.0, 2.0, 10):
        at(gamma)
    assert calls == {"sin": 1, "abs": 20}
    line(x, z, grid.nodes, -gx, gz)
    eval_J(p, PairTraj(Traj(grid, x), Traj(grid, z)))
    assert calls["sin"] == 1
    for tol in (1e-9, 1e-3, 1e-9):
        subdiff(x, z, grid.nodes, tol)
    assert calls["sin"] == 2
    other = Grid(1.0, 51)
    line(x, z, other.nodes)
    subdiff(x, z, other.nodes, 1e-9)
    assert calls["sin"] == 4
    # a writable t is evaluated on every call, so it can change in place
    t = np.linspace(0.0, 1.0, 51)
    for shift in (0.0, 0.25):
        t += shift
        assert np.array_equal(line(x, z, t)(0.0)[0],
                              eval_expr_grid(p.integrand, x, z, t.copy()))
        fresh = compile_subdiff(p.integrand, p.n)(x, z, t.copy(), 1e-9)
        _assert_same_bits(subdiff(x, z, t, 1e-9), fresh)


def _assert_same_bits(got, want):
    """Two (value, q, gens, per_node, ties) results agree bit for bit."""
    (v1, q1, gens1, bad1, ties1), (v2, q2, gens2, bad2, ties2) = got, want
    assert [c for c, _ in gens1] == [c for c, _ in gens2]
    assert [len(u) for _, u in ties1] == [len(u) for _, u in ties2]
    tied1 = [np.asarray(a) for top, u in ties1 for a in (top, *u)]
    tied2 = [np.asarray(a) for top, u in ties2 for a in (top, *u)]
    blocks1, blocks2 = [a for _, a in gens1], [a for _, a in gens2]
    for a, b in zip((v1, q1, bad1, *blocks1, *tied1), (v2, q2, bad2, *blocks2, *tied2)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _has_subtree_without_variables(e) -> bool:
    return any((_args(a) and not _uses_vars(a)) or _has_subtree_without_variables(a)
               for a in _args(e))


def test_passes_kept_per_grid_match_fresh_passes():
    """A compiled pass called again on one grid's nodes, at alternating
    tolerances, gives a freshly compiled pass's bits."""
    rng = np.random.default_rng(31)
    t = Grid(1.0, 9).nodes
    # at t = 0.5, x1 = 0 meets max(t - a, 0)'s kink: a tie over a segment
    # for a = 0.5, and for a = 0.5005 at the looser tolerance only
    kinks = [parse_expr(f"abs(x1 - max(t - {a}, 0))", 1) for a in (0.5, 0.5005)]
    cases = [(e, np.zeros((9, n)), np.zeros((9, n))) for e in kinks for n in (1, 2)]
    while len(cases) < 150:
        n = int(rng.integers(1, 3))
        e = random_expr(rng, n)
        if _has_subtree_without_variables(e):
            cases.append((e, *(0.5 * rng.integers(-2, 3, (2, 9, n)))))
    for e, x, z in cases:
        n = x.shape[1]
        subdiff, line = compile_subdiff(e, n), compile_line(e)
        for tol in (1e-9, 1e-3, 1e-9, 1e-3):
            _assert_same_bits(subdiff(x, z, t, tol), compile_subdiff(e, n)(x, z, t, tol))
            assert line(x, z, t)(0.0)[0].tobytes() == compile_line(e)(x, z, t)(0.0)[0].tobytes()
    for e, masked in zip(kinks, ([True, True], [False, True])):
        subdiffs = {n: compile_subdiff(e, n) for n in (1, 2)}
        for tol, mask in zip((1e-9, 1e-3), masked):
            for n in (1, 2, 1):
                x = np.zeros((9, n))
                assert subdiffs[n](x, x, t, tol)[3][4] == mask


def test_leaf_rows_kept_per_grid_give_a_fresh_pass_bits():
    """Passes compiled for both n, called on two grids in turn, give the
    bits of a pass compiled and run with no leaf rows kept."""
    rng = np.random.default_rng(37)
    grids = (Grid(1.0, 9).nodes, Grid(1.0, 21).nodes)
    for _ in range(40):
        e = random_expr(rng, 1)
        subdiffs = {n: compile_subdiff(e, n) for n in (1, 2)}
        for t, n in ((grids[0], 1), (grids[1], 2), (grids[0], 2), (grids[1], 1)):
            x, z = rng.standard_normal((2, t.shape[0], n))
            got = subdiffs[n](x, z, t, 1e-9)
            _leaf_block.cache_clear()
            _assert_same_bits(got, compile_subdiff(e, n)(x, z, t, 1e-9))


def test_leaf_rows_are_built_once_and_read_only():
    block = _leaf_block(9, 1)
    assert _leaf_block(9, 1) is block
    assert np.array_equal(block, np.ones((9, 1)))
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    assert _leaf_block(9, 0).shape == (9, 0)
    # a bare variable's rule hands the kept block out as its center, over
    # the variable's one column; the pass widens it to R^(2n)
    t = Grid(1.0, 9).nodes
    node, = _compile(parse_expr("z2", 2), 2)
    rule = _SD_RULES[node.op]
    assert rule(node, [None], np.zeros((9, 2)), np.zeros((9, 2)), t, 1e-9, [])[1] is block
    assert node.support == (3,)
    _, q, _, _, _ = compile_subdiff(parse_expr("z2", 2), 2)(np.zeros((9, 2)), np.zeros((9, 2)), t)
    assert np.array_equal(q, np.eye(4)[[3] * 9])


def test_format_round_trip_builtins():
    for text, n in (("abs(x1)", 1), (EX2, 1), (EX3, 2), (EX4, 3)):
        e = parse_expr(text, n)
        assert parse_expr(format_expr(e), n) == e


def test_format_round_trip_random():
    """Formatting preserves meaning; on parser output it round-trips exactly.

    The parser folds a sign only into a number token, so a generated
    tree's negated constant comes back as the same tree;
    test_format_round_trip_is_exact_on_random_trees pins that exact round
    trip on generated trees, and this test checks the reparsed form and
    the values.
    """
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        e = random_expr(rng, n)
        e2 = parse_expr(format_expr(e), n)
        assert parse_expr(format_expr(e2), n) == e2
        for _ in range(3):
            p = EvalPoint(rng.standard_normal(n), rng.standard_normal(n),
                          float(rng.random()))
            try:
                a = eval_expr(e, p)
            except DomainError:
                continue
            assert eval_expr(e2, p) == pytest.approx(a, rel=1e-14, abs=1e-14)


def test_format_round_trip_is_exact_on_random_trees():
    """format_expr writes a negated constant as -(c), which parses back to
    the same tree: the parser folds a sign only into a number."""
    rng = np.random.default_rng(27)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        e = random_expr(rng, n)
        assert parse_expr(format_expr(e), n) == e, format_expr(e)
    assert format_expr(Neg(Const(2.0))) == "-(2.0)"
    assert parse_expr("-(2.0)", 1) == Neg(Const(2.0))
    assert parse_expr("-2.0", 1) == Const(-2.0)


def test_a_negated_constant_in_parentheses_is_no_constant_factor():
    """A sign folds only into a number, so -(c) stays a negation: it is
    neither a product's constant factor nor a pow exponent."""
    assert parse_expr("0.5 * abs(x1)", 1) == Mul(Const(0.5), Abs(VarX(1)))
    with pytest.raises(ExprError, match="nonsmooth subexpression inside a product"):
        parse_expr("-(-0.5) * abs(x1)", 1)
    with pytest.raises(ExprError, match="nonsmooth subexpression inside a product"):
        parse_expr("-(2) * abs(x1)", 1)
    with pytest.raises(ExprError, match="pow exponent must be an integer literal"):
        parse_expr("pow(x1, -(-2))", 1)


def test_format_puts_one_pair_of_parentheses_around_an_operand():
    assert format_expr(Neg(Add(VarX(1), VarX(2)))) == "-(x1 + x2)"
    assert format_expr(Neg(Neg(VarX(1)))) == "-(-x1)"
    assert format_expr(Neg(Const(-2.0))) == "-(-2.0)"
    assert format_expr(Sub(VarX(1), Neg(VarZ(1)))) == "x1 - (-z1)"
    assert format_expr(Mul(Neg(VarX(1)), Div(Time(), Add(VarX(1), Const(1.0))))) == \
        "(-x1) * (t / (x1 + 1.0))"


def test_is_smooth_and_uses_z():
    assert not is_smooth(parse_expr("abs(x1)", 1))
    assert is_smooth(parse_expr("sin(t) * x1 + pow(z1, 2)", 1))
    assert uses_var_z(parse_expr(EX4, 3))
    assert not uses_var_z(parse_expr("abs(x1) + t", 1))


def test_subdiff_abs_at_kink():
    s = subdiff_expr(parse_expr("abs(x1)", 1), _pt([0.0], [0.0]))
    assert isinstance(s, Polytope)
    rows = sorted(s.vertices.tolist())
    assert np.allclose(rows, [[-1.0, 0.0], [1.0, 0.0]])


def test_subdiff_abs_off_kink():
    s = subdiff_expr(parse_expr("abs(x1)", 1), _pt([-1.0], [0.0]))
    assert isinstance(s, Singleton)
    assert np.allclose(s.point, [-1.0, 0.0])


def test_subdiff_norm_at_kink_is_masked_ball():
    s = subdiff_expr(parse_expr("norm(z1 - 1, x2)", 2), _pt([0.0, 0.0], [1.0, 0.0]))
    assert isinstance(s, Ball)
    assert s.radius == 1.0
    assert np.allclose(s.center, 0.0)
    assert np.array_equal(s.mask, [False, True, True, False])


def test_subdiff_norm_off_kink():
    s = subdiff_expr(parse_expr("norm(z1 - 1, x2)", 3),
                     _pt([0.0, 3.0, 0.0], [5.0, 0.0, 0.0]))
    assert isinstance(s, Singleton)
    assert np.allclose(s.point, [0.0, 0.6, 0.0, 0.8, 0.0, 0.0], atol=1e-15)


def test_subdiff_smooth_plus_norm_is_sum():
    s = subdiff_expr(parse_expr(EX4, 3), _pt([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]))
    assert isinstance(s, MinkowskiSum)
    balls = [m for m in s.members if isinstance(m, Ball)]
    assert len(balls) == 1
    assert np.array_equal(balls[0].mask, [False, True, False, True, False, False])


def test_subdiff_max_tie_hull():
    s = subdiff_expr(parse_expr("max(x1, z1, t)", 1), _pt([0.5], [0.5], 0.5))
    assert isinstance(s, Polytope)
    rows = sorted(s.vertices.tolist())
    assert np.allclose(rows, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("text, widened", [
    ("abs(x1)", [[-1.0, 0.0], [1.0, 0.0]]),
    ("max(x1, 0)", [[0.0, 0.0], [1.0, 0.0]]),
])
def test_subdiff_widened_tie(text, widened):
    e = parse_expr(text, 1)
    near = _pt([1e-5], [0.0])
    s = subdiff_expr(e, near, tol_act=1e-3)
    assert isinstance(s, Polytope)
    assert sorted(s.vertices.tolist()) == widened
    s = subdiff_expr(e, near)
    assert isinstance(s, Singleton)
    assert s.point.tolist() == [1.0, 0.0]


def test_subdiff_norm_keeps_exact_zero_test():
    e = parse_expr("norm(x1, x2)", 2)
    near = _pt([1e-5, 0.0], [0.0, 0.0])
    wide = subdiff_expr(e, near, tol_act=1e-3)
    exact = subdiff_expr(e, near)
    assert isinstance(wide, Singleton) and isinstance(exact, Singleton)
    assert np.array_equal(wide.point, exact.point)
    assert exact.point.tolist() == [1.0, 0.0, 0.0, 0.0]


_SCHEDULE = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)


def test_next_tolerance_reads_the_tie_margins():
    """abs(v) has margin |v| / (1 + |v|) and a max branch u
    (vmax - u) / (1 + |vmax|); the next tolerance is the first one below
    the widest margin that holds, else len(schedule)."""
    def absolute(v):
        return (np.abs(np.array(v, float)), (0.0,))

    def maximum(*branches):
        vals = [np.array(b, float) for b in branches]
        return (np.maximum.reduce(vals), vals)

    assert next_tolerance([], _SCHEDULE, 0) == 7
    assert next_tolerance([absolute([5e-6, 0.0, -3.0])], _SCHEDULE, 0) == 3
    assert next_tolerance([absolute([5e-6])], _SCHEDULE, 3) == 7   # no longer tied
    assert next_tolerance([absolute([2e-3])], _SCHEDULE, 0) == 7   # never tied
    assert next_tolerance([absolute([-5e-4])], _SCHEDULE, 0) == 1
    # the branch at the top holds at every tolerance
    assert next_tolerance([maximum([1.0], [1.0])], _SCHEDULE, 0) == 7
    assert next_tolerance([maximum([1.0], [1.0 - 6e-8])], _SCHEDULE, 0) == 5
    assert next_tolerance([maximum([1.0, 2.0], [3.0, 2.0 - 3e-9])], _SCHEDULE, 2) == 6
    # a margin within roundoff of a tolerance counts as changing there
    assert next_tolerance([absolute([1e-5 * (1.0 + 1e-5)])], _SCHEDULE, 0) == 2
    # the widest margin over all ties decides
    ties = [absolute([5e-8]), maximum([0.0], [-3e-6]), absolute([0.0])]
    assert next_tolerance(ties, _SCHEDULE, 0) == 3
    assert next_tolerance(ties, _SCHEDULE, 3) == 5


def test_subtrees_kept_per_grid_hand_out_their_ties():
    # at t = 0.5 the max without x or z is 5e-5 from its tie: it holds at
    # 1e-3 and 1e-4, so the field may change at 1e-5, on every call
    f = compile_subdiff(parse_expr("abs(x1 - max(t - 0.50005, 0))", 1), 1)
    t, x = Grid(1.0, 3).nodes, np.zeros((3, 1))
    for _ in range(2):    # computed, then kept
        assert next_tolerance(f(x, x, t, 1e-3)[4], _SCHEDULE, 0) == 2


def test_next_tolerance_is_conservative_where_margins_are_not_finite():
    with np.errstate(over="raise", invalid="raise"):
        for ties in ([(np.array([np.inf]), (0.0,))],
                     [(np.array([np.nan]), (0.0,))],
                     [(np.array([1.0]), [np.array([1.0]), np.array([np.nan])])],
                     [(np.array([1e308]), [np.array([1e308]), np.array([-1e308])])]):
            assert next_tolerance(ties, _SCHEDULE, 2) == 3


def test_next_tolerance_stops_at_the_first_tie_that_decides():
    # the ties are read outermost, last listed, first: the first one
    # listed is never read, since the last one already changes at 1e-4
    assert next_tolerance([None, (np.array([5e-4]), (0.0,))], _SCHEDULE, 0) == 1


def test_subdiff_max_over_ball_tie_is_a_hull():
    s = subdiff_expr(parse_expr("max(norm(x1), z1)", 1), _pt([0.0], [0.0]))
    assert isinstance(s, Hull)
    ball, point = Ball([0.0, 0.0], 1.0, np.array([True, False])), Singleton([0.0, 1.0])
    directions = np.vstack([np.eye(2), -np.eye(2),
                            np.random.default_rng(5).standard_normal((20, 2))])
    for g in directions:
        assert support(s, g)[0] == max(support(ball, g)[0], support(point, g)[0])
    r = min_norm_point(s)
    assert r.certified and np.array_equal(r.point, [0.0, 0.0])


def test_subdiff_ties_over_points_are_polytopes_in_branch_order():
    s = subdiff_expr(parse_expr("max(x1, z1, 2 * x1)", 1), _pt([0.0], [0.0]))
    assert isinstance(s, Polytope)
    assert np.array_equal(s.vertices, [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    s = subdiff_expr(parse_expr("abs(x1 + z1)", 1), _pt([1.0], [-1.0]))
    assert np.array_equal(s.vertices, [[1.0, 1.0], [-1.0, -1.0]])


def test_subdiff_nested_tie_hull_gives_the_vertex_product_point():
    """A tie over a sum of ties is a hull of the sum and the other branch;
    its minimum-norm point is that of the vertex product's polytope."""
    for text, x, z in [("max(abs(x1) + abs(x2), z1)", [0.0, 0.0], [0.0, 0.0]),
                       ("max(abs(x1 - 1) + abs(x2), z1 - 1, z2 + 1)", [1.0, 0.0], [1.0, -1.0]),
                       ("max(abs(x1) + abs(z1 - 2), 0.5 * z1 + x2 - 1)", [0.0, 0.0], [2.0, 0.0])]:
        s = subdiff_expr(parse_expr(text, 2), _pt(x, z))
        assert isinstance(s, Hull)
        got = min_norm_point(s)
        want = min_norm_point(Polytope(vertex_list(s)))
        assert got.certified
        assert np.abs(got.point - want.point).max() <= 1e-12, text


def test_subdiff_of_a_subtree_without_x_or_z_is_a_point():
    # max(t - 0.5, 0) ties at t = 0.5, and abs(t - 0.5) too: both are {0}
    for text in ("x1 - max(t - 0.5, 0)", "x1 + abs(t - 0.5)",
                 "norm(x1 - max(t - 0.5, 0))"):
        s = subdiff_expr(parse_expr(text, 1), _pt([0.3], [0.0], 0.5))
        assert isinstance(s, Singleton), text
    s = subdiff_expr(parse_expr("abs(x1 - max(t - 0.5, 0))", 1), _pt([0.0], [0.0], 0.5))
    assert np.array_equal(s.vertices, [[1.0, 0.0], [-1.0, 0.0]])


def test_subdiff_norm_rows_on_one_coordinate_add_their_squares():
    s = subdiff_expr(parse_expr("norm(x1, x1)", 1), _pt([0.0], [0.0]))
    assert isinstance(s, Ball)
    assert s.radius == np.sqrt(2.0) and s.mask.tolist() == [True, False]
    s = subdiff_expr(parse_expr("norm(x1, z1, -x1, -z1)", 1), _pt([0.0], [0.0]))
    assert s.radius == np.sqrt(2.0) and s.mask.all()
    with pytest.raises(SubdiffError, match="mismatched scales"):
        subdiff_expr(parse_expr("norm(x1, x1, x2)", 2), _pt([0.0, 0.0], [0.0, 0.0]))


def test_subdiff_norm_mismatched_scales_raises():
    with pytest.raises(SubdiffError, match="mismatched scales"):
        subdiff_expr(parse_expr("norm(2 * x1, x2)", 2), _pt([0.0, 0.0], [0.0, 0.0]))


def test_subdiff_scaled_max_support():
    s = subdiff_expr(parse_expr("0.5 * max(x1, z1)", 1), _pt([0.3], [0.3]))
    val, _ = support(s, np.array([1.0, 0.0]))
    assert val == pytest.approx(0.5, abs=1e-12)
    val, _ = support(s, np.array([-1.0, -1.0]))
    assert val == pytest.approx(-0.5, abs=1e-12)


def test_smooth_gradient_matches_dual_numbers():
    rng = np.random.default_rng(13)
    done = 0
    while done < 200:
        n = int(rng.integers(1, 4))
        e = random_smooth_expr(rng, n, 3)
        x = rng.standard_normal(n)
        z = rng.standard_normal(n)
        t = float(rng.random())
        try:
            s = subdiff_expr(e, EvalPoint(x, z, t))
            ref = dual_gradient(e, x, z, t)
        except DomainError:
            continue
        assert isinstance(s, Singleton)
        assert np.allclose(s.point, ref, rtol=1e-10, atol=1e-10)
        done += 1


def test_grid_subdiff_smooth_gradient_matches_dual_numbers():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        e = random_smooth_expr(rng, n, 3)
        x = rng.standard_normal((6, n))
        z = rng.standard_normal((6, n))
        t = rng.random(6)
        value, q, gens, per_node, _ = compile_subdiff(e, n)(x, z, t, 1e-9)
        assert gens == [] and not per_node.any()
        assert np.allclose(value, eval_expr_grid(e, x, z, t), rtol=1e-14, atol=0.0)
        for i in range(6):
            ref = dual_gradient(e, x[i], z[i], t[i])
            assert np.allclose(q[i], ref, rtol=1e-10, atol=1e-10)


def _post_order(e):
    """e's subtrees in the order of its node list: post-order, with a
    quotient's divisor first."""
    kids = _args(e)
    for a in kids[::-1] if isinstance(e, Div) else kids:
        yield from _post_order(a)
    yield e


def _assert_within_static_support(e, n: int, point: EvalPoint, tol_act: float) -> None:
    """Every subtree with x or z: its per-node set at point has no extent
    on a column outside the columns its node in e's node list can reach."""
    d = 2 * n
    nodes = _compile(e, n)
    subtrees = list(_post_order(e))
    assert [type(u) for u in subtrees] == [node.op for node in nodes]
    for u, node in zip(subtrees, nodes):
        assert node.reads == _uses_vars(u)
        if not node.reads:
            continue
        reach = {c for s in (node.support, *node.gens) for c in s}
        try:
            _, s = _value_and_set(u, point, tol_act)
        except ExprError:
            continue
        for j in set(range(d)) - reach:
            for sign in (1.0, -1.0):
                assert support(s, sign * np.eye(d)[j])[0] == 0.0


@pytest.mark.parametrize("tol_act", [1e-9, 1e-3])
@pytest.mark.parametrize("draw", [random_expr, random_smooth_expr])
def test_grid_and_per_node_routes_agree_bit_for_bit(draw, tol_act):
    """Where compile_subdiff gives a node a point and no segment, the
    per-node route gives that node the same point and value, to the bit:
    both call the same value and gradient rules.  Half the nodes sit on
    a lattice of tenths, where ties hold exactly; a tie between equal
    gradients (abs(t - 0.5) at t = 0.5) is a polytope whose vertices
    all equal the point.  Where it gives segments too, the same value,
    and the zonotope of q and the generators' blocks widened to R^(2n)
    is the per-node set: their support functions agree on every
    coordinate direction and on random ones, up to the roundoff of a max
    tie's (g1 + g2)/2 +- (g1 - g2)/2.  At those nodes, no subtree's
    per-node set reaches a column outside its static support."""
    rng = np.random.default_rng(31)
    # a second stream of nodes on a half-integer lattice, where more ties hold
    lattice = np.random.default_rng(32)
    checked = segments = 0
    for _ in range(350):
        n = int(rng.integers(1, 4))
        e = random_smooth_expr(rng, n, 3) if draw is random_smooth_expr \
            else random_expr(rng, n)
        x, z = rng.standard_normal((2, 40, n))
        t = rng.random(40)
        x[::2], z[::2], t[::2] = (np.round(a[::2], 1) for a in (x, z, t))
        x, z = (np.vstack([a, 0.5 * lattice.integers(-2, 3, (20, n))]) for a in (x, z))
        t = np.concatenate([t, 0.5 * lattice.integers(0, 3, 20)])
        value, q, gens, per_node, _ = compile_subdiff(e, n)(x, z, t, tol_act)
        full = full_generators(gens, 2 * n)
        directions = np.vstack([np.eye(2 * n), -np.eye(2 * n),
                                lattice.standard_normal((4, 2 * n))])
        for i in np.flatnonzero(~per_node):
            point = EvalPoint(x[i], z[i], float(t[i]))
            v, s = _value_and_set(e, point, tol_act)
            assert v == value[i]
            if not any(a[i].any() for a in full):
                assert (vertex_list(s) == q[i]).all()
                checked += 1
                continue
            for g in directions:
                want = support(s, g)[0]
                got = q[i] @ g + sum(abs(a[i] @ g) for a in full)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            _assert_within_static_support(e, n, point, tol_act)
            segments += 1
    assert checked > 4000
    assert segments > 200 if draw is random_expr else segments == 0


def test_grid_subdiff_ties_are_a_point_plus_segments():
    f = compile_subdiff(parse_expr("abs(x1) + 2 * max(x2, z1)", 2), 2)
    x = np.array([[0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]])
    z = np.array([[0.0, 0.0], [1.0, 0.0], [0.25, 0.0]])
    value, q, gens, per_node, _ = f(x, z, np.zeros(3), 1e-9)
    assert np.array_equal(value, [2.0, 3.0, 2.0])
    assert not per_node.any()
    # node 0: abs tie, x2 wins; node 1: max tie; node 2: neither
    assert np.array_equal(q, [[0.0, 2.0, 0.0, 0.0],
                              [1.0, 1.0, 1.0, 0.0],
                              [-1.0, 2.0, 0.0, 0.0]])
    assert [c for c, _ in gens] == [(0,), (1, 2)]
    full = full_generators(gens, 4)
    assert np.array_equal(full[0], [[1.0, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4])
    assert np.array_equal(full[1], [[0.0] * 4, [0.0, 1.0, -1.0, 0.0], [0.0] * 4])


@pytest.mark.parametrize("text, x, z", [
    ("norm(z1 - 1, x2)", [0.0, 0.0], [1.0, 0.0]),
    ("max(x1, z1, t)", [0.0, 0.0], [0.0, 0.0]),
    ("max(abs(x1), z1)", [0.0, 0.0], [0.0, 0.0]),
    ("max(abs(x1) + x2, z1)", [0.0, 0.0], [0.0, 0.0]),
    ("abs(x1 - max(t, 0))", [0.0, 0.0], [0.0, 0.0]),   # tie over a zero segment
    ("sqrt(x1)", [0.0, 0.0], [0.0, 0.0]),
    ("1 / x1", [0.0, 0.0], [0.0, 0.0]),
])
def test_grid_subdiff_masks_what_it_cannot_represent(text, x, z):
    f = compile_subdiff(parse_expr(text, 2), 2)
    xs = np.array([x, [2.0, 3.0]])
    zs = np.array([z, [4.0, 5.0]])
    _, _, _, per_node, _ = f(xs, zs, np.zeros(2), 1e-9)
    assert per_node.tolist() == [True, False]


def test_grid_subdiff_masks_rows_that_are_not_finite():
    """Finiteness is checked on whole arrays first, and then row by row:
    a row whose value, center or one generator is not finite is masked."""
    f = compile_subdiff(parse_expr("max(1e308 * x1, -1e308 * x1) + pow(x2, 3)", 2), 2)
    x = np.array([[0.0, 1.0], [1e-300, 1.0], [1e-300, 1e120], [1e-300, np.nan],
                  [-1e-300, 3.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        value, q, gens, per_node, _ = f(x, np.zeros((5, 2)), np.zeros(5), 1e-9)
        # node 0 ties, and only the tie's generator (g1 - g2) / 2 overflows
        assert np.isfinite(value[0]) and np.isfinite(q[0]).all()
        assert np.isinf(gens[0][1][0, 0])
        assert per_node.tolist() == [True, False, True, True, False]
        # values and centers all finite: a generator alone masks node 0
        _, _, _, per_node, _ = f(x[[0, 1, 4]], np.zeros((3, 2)), np.zeros(3), 1e-9)
        assert per_node.tolist() == [True, False, False]


def test_sqrt_of_t_is_differentiable_at_its_zero():
    """sqrt of a subtree without x or z has a zero gradient, so its zero
    lies in the domain on both routes; a negative argument does not."""
    e = parse_expr("abs(x1 - sqrt(t))", 1)
    s = subdiff_expr(e, _pt([0.0], [0.0], 0.0))
    assert np.array_equal(sorted(s.vertices.tolist()), [[-1.0, 0.0], [1.0, 0.0]])
    t = np.array([0.0, 0.25])
    value, q, gens, per_node, _ = compile_subdiff(e, 1)(np.zeros((2, 1)), np.zeros((2, 1)),
                                                     t, 1e-9)
    assert value.tolist() == [0.0, 0.5] and not per_node.any()
    assert q.tolist() == [[0.0, 0.0], [-1.0, 0.0]]
    assert [a.tolist() for a in full_generators(gens, 2)] == [[[1.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(DomainError, match="sqrt not differentiable at 0"):
        subdiff_expr(parse_expr("sqrt(x1 - t)", 1), _pt([0.0], [0.0], 0.0))
    shifted = parse_expr("abs(x1 - sqrt(t - 0.5))", 1)
    with pytest.raises(DomainError, match="sqrt of a negative value at t=0.25"):
        subdiff_expr(shifted, _pt([0.0], [0.0], 0.25))
    _, _, _, per_node, _ = compile_subdiff(shifted, 1)(np.zeros((2, 1)), np.zeros((2, 1)),
                                                    np.array([0.25, 0.5]), 1e-9)
    assert per_node.tolist() == [True, False]


def test_per_node_route_gives_a_quotient_without_x_or_z_a_zero_gradient():
    """The divisor's square underflows to 0, so the quotient rule would
    give 0 / 0; a subtree without x or z skips it, as the grid pass does."""
    e = parse_expr("norm(x1) + 1 / (1e-200 * (t + 1))", 1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        v, s = _value_and_set(e, _pt([0.0], [0.0], 0.5))
        _, _, _, per_node, _ = compile_subdiff(e, 1)(
            np.zeros((1, 1)), np.zeros((1, 1)), np.array([0.5]), 1e-9)
    assert v == 1.0 / (1e-200 * 1.5) and per_node.tolist() == [True]
    assert [support(s, g)[0] for g in np.eye(2)] == [1.0, 0.0]


def test_per_node_route_gives_sqrt_without_x_or_z_its_value():
    """The per-node route runs its chain rules on Python floats: sqrt(t)
    at t = 0.0625 is 0.25, so x1 = 0.25 ties and x1 = 0 does not."""
    assert _value_and_set(parse_expr("sqrt(t)", 1), _pt([0.0], [0.0], 0.0625))[0] == 0.25
    e = parse_expr("abs(x1 - sqrt(t))", 1)
    s = subdiff_expr(e, _pt([0.25], [0.0], 0.0625))
    assert np.array_equal(s.vertices, [[1.0, 0.0], [-1.0, 0.0]])
    s = subdiff_expr(e, _pt([0.0], [0.0], 0.0625))
    assert isinstance(s, Singleton) and np.array_equal(s.point, [-1.0, 0.0])


def test_per_node_route_raises_where_the_line_pass_does():
    """Where both sides of a quotient fail at a point, the per-node route
    and the line pass raise the same first DomainError: the divisor's
    subtree and its zero before the numerator."""
    for text, message in (("sqrt(x1) / sqrt(x1 - 1)", "sqrt of a negative value"),
                          ("sqrt(x1) / (t - t)", "division by zero"),
                          ("sqrt(x1 - 1) / (t - t)", "division by zero"),
                          ("sqrt(x1 - 1) / (1 / (t - t))", "division by zero")):
        e, p = parse_expr(text, 1), _pt([0.0], [0.0])
        with pytest.raises(DomainError, match=message):
            eval_expr(e, p)
        with pytest.raises(DomainError, match=message):
            subdiff_expr(e, p)


def test_per_node_route_keeps_no_stale_tree():
    """Calls on tree A, then B over the same n, then A again each give the
    set that a fresh interpreter gives for that tree."""
    texts = ("max(x1, z1) + norm(x2)", "abs(x1 - z2) + 2 * max(z1, x2)")
    point = "EvalPoint(np.zeros(2), np.zeros(2), 0.0)"
    directions = np.vstack([np.eye(4), -np.eye(4),
                            np.random.default_rng(5).standard_normal((4, 4))])
    script = (
        "import json, sys\nimport numpy as np\n"
        "from nsvar.convexgeom import support\n"
        "from nsvar.integrand import EvalPoint, parse_expr, subdiff_expr\n"
        f"s = subdiff_expr(parse_expr(sys.argv[1], 2), {point})\n"
        "print(repr([support(s, d)[0] for d in np.array(json.loads(sys.argv[2]))]))\n")
    src = str(Path(nsvar.__file__).parents[1])
    fresh = [subprocess.run(
        [sys.executable, "-c", script, text, json.dumps(directions.tolist())],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True).stdout.strip() for text in texts]
    trees = [parse_expr(text, 2) for text in texts]
    for k in (0, 1, 0):
        s = subdiff_expr(trees[k], EvalPoint(np.zeros(2), np.zeros(2), 0.0))
        assert repr([support(s, d)[0] for d in directions]) == fresh[k]


def test_a_pass_rejects_arrays_of_another_width():
    f = compile_subdiff(parse_expr("abs(x1) + z2", 2), 2)
    t = np.zeros(3)
    for width in (1, 3):
        other, right = np.zeros((3, width)), np.zeros((3, 2))
        for x, z in ((other, right), (right, other), (other, other)):
            with pytest.raises(ValueError, match=r"shape \(N, 2\)"):
                f(x, z, t, 1e-9)


def test_pow_ties_are_decided_alike_on_both_paths():
    """At tol_act 0 an abs tie needs its argument to be exactly 0, so a
    last-bit difference in pow between the grid pass and subdiff_expr
    would put the node on a tie on one path only."""
    v = np.random.default_rng(5).uniform(0.5, 2.0, 2000)
    cubes = v ** 3
    libm = np.array([float(a) ** 3 for a in v])
    v, cubes = v[libm != cubes][:20], cubes[libm != cubes][:20]
    assert v.size == 20
    for a, c in zip(v, cubes):
        e = parse_expr(f"abs(pow(x1, 3) - {float(c)!r})", 1)
        value, q, gens, per_node, _ = compile_subdiff(e, 1)(
            np.array([[a]]), np.zeros((1, 1)), np.zeros(1), 0.0)
        assert value[0] == 0.0 and not per_node[0] and len(gens) == 1
        s = subdiff_expr(e, _pt([a], [0.0]), 0.0)
        assert isinstance(s, Polytope)
        assert np.array_equal(np.abs(s.vertices),
                              np.abs(full_generators(gens, 2)[0]).repeat(2, 0))
        assert eval_expr(parse_expr("pow(x1, 3)", 1), _pt([a], [0.0])) == c


def test_directional_derivative_examples():
    e = parse_expr("abs(x1)", 1)
    at0 = _pt([0.0], [0.0])
    assert directional_derivative(e, at0, np.array([1.0, 0.0])) == 1.0
    assert directional_derivative(e, at0, np.array([-1.0, 0.0])) == 1.0
    tie = _pt([0.3], [0.3])
    e = parse_expr("max(x1, z1)", 1)
    assert directional_derivative(e, tie, np.array([2.0, -1.0])) == 2.0
    assert directional_derivative(e, tie, np.array([-1.0, 2.0])) == 2.0
    e = parse_expr("sin(t) * x1", 1)
    p = _pt([2.0], [0.0], 0.5)
    g = np.array([3.0, 1.0])
    assert directional_derivative(e, p, g) == pytest.approx(3.0 * np.sin(0.5), abs=1e-14)


def test_directional_derivative_is_support_value():
    """For the convex pieces the grammar generates, f'(p; g) = h_{subdiff}(g)."""
    rng = np.random.default_rng(17)
    done = 0
    while done < 300:
        n = int(rng.integers(1, 4))
        e = random_expr(rng, n)
        x = rng.standard_normal(n)
        z = rng.standard_normal(n)
        t = float(rng.random())
        p = EvalPoint(x, z, t)
        g = rng.standard_normal(2 * n)
        try:
            dd = directional_derivative(e, p, g)
            val, _ = support(subdiff_expr(e, p), g)
        except DomainError:
            continue
        assert dd == pytest.approx(val, abs=1e-9 * (1.0 + abs(val)))
        done += 1


def test_directional_derivative_finite_difference():
    rng = np.random.default_rng(19)
    done = 0
    while done < 250:
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
        except DomainError:
            continue
        assert dd == pytest.approx(est, abs=1e-5 * (1.0 + abs(dd)))
        done += 1
