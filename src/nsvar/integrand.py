"""Integrand expression trees with a pointwise subdifferential calculus.

An integrand f(x, z, t) is a tree over the variables x1..xn (state),
z1..zn (derivative) and t, built from arithmetic, a few smooth
elementary functions, and three nonsmooth constructs: ``abs``, ``max``
and the Euclidean ``norm``.  The grammar deliberately restricts where
the nonsmooth constructs may appear so that an exact convex
subdifferential is available at every point:

* smooth subtrees contribute their gradients, and subtrees without x
  or z the gradient 0, ``abs`` and ``max`` among them,
* sums add subdifferentials (Minkowski sum),
* nonnegative constant factors scale them,
* ``abs``/``max`` at a tie contribute the convex hull of the active
  branches' sets, and ``norm`` at a zero of its argument contributes a
  ball in the spanned coordinate subspace.

Nonsmooth nodes inside ``*``, ``/``, ``pow``, ``sin``, ``cos``, ``exp``
or ``sqrt`` are rejected when the expression is parsed, except for
multiplication by a constant.  So is any negation, by unary minus, as
the right side of ``-`` or by a negative constant factor, of an operand
holding an ``abs``, ``max`` or ``norm`` over x or z, and any such
operand inside ``abs`` or ``norm``: it would be concave.  A tree deeper
than ``MAX_DEPTH`` nodes is rejected too.

Subdifferentials live in R^(2n), laid out as the n x-partials followed
by the n z-partials, as is the iterate every pass reads, (N, 2n) or a
(2n,) row.  Every pass compiles the tree once into a post-order node
list (``_compile``), which holds each node's facts: whether it reads x
or z, its constant factor, its column in R^(2n).  Each walks
the list with one rule table: ``compile_line`` folds the integrand along
a line, ``compile_subdiff`` gives every grid node's set at once, as a
point plus segments, and marks the nodes whose sets take another form,
and ``subdiff_expr`` builds one node's set, a gradient except at ties
and norm zeros, where it becomes a tree of convex sets whose ties are
hulls under the support function.  ``format_expr`` writes the tree back
in one loop over the same list.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convexgeom import (
    Ball,
    ConvexSet,
    Hull,
    MinkowskiSum,
    Polytope,
    Singleton,
    scale,
)
from .trajectory import finite

__all__ = [
    "Const", "Time", "VarX", "VarZ", "Neg", "Add", "Sub", "Mul", "Div",
    "Pow", "Sin", "Cos", "Exp", "Sqrt", "Abs", "Max", "Norm", "Expr",
    "ExprError", "ParseError", "DomainError", "SubdiffError",
    "parse_expr", "format_expr", "compile_line", "eval_expr_grid",
    "subdiff_expr", "compile_subdiff", "next_tolerance", "uses_var_z",
    "is_smooth",
]


class ExprError(ValueError):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class DomainError(ExprError):
    def __init__(self, message: str, t: float, node_index: int | None = None):
        where = f" at t={t!r}" + ("" if node_index is None else f" (node {node_index})")
        super().__init__(message + where)
        self.t = t
        self.node_index = node_index


class SubdiffError(ExprError):
    """Raised when no exact subdifferential is representable."""


# ---------------------------------------------------------------------------
# nodes


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Time:
    pass


@dataclass(frozen=True)
class VarX:
    index: int  # 1-based


@dataclass(frozen=True)
class VarZ:
    index: int  # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int  # integer >= 1


@dataclass(frozen=True)
class Sin:
    arg: "Expr"


@dataclass(frozen=True)
class Cos:
    arg: "Expr"


@dataclass(frozen=True)
class Exp:
    arg: "Expr"


@dataclass(frozen=True)
class Sqrt:
    arg: "Expr"


@dataclass(frozen=True)
class Abs:
    arg: "Expr"


@dataclass(frozen=True)
class Max:
    args: tuple


@dataclass(frozen=True)
class Norm:
    args: tuple


Expr = (
    Const | Time | VarX | VarZ | Neg | Add | Sub | Mul | Div | Pow
    | Sin | Cos | Exp | Sqrt | Abs | Max | Norm
)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[a-z]+\d*)"
    r"|(?P<sym>[-+*/(),]))"
)

_FUNCS = {"sin", "cos", "exp", "sqrt", "abs", "pow", "max", "norm"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# The deepest expression tree accepted, in nodes from the root to a leaf.
# Parsing, validation and compilation walk trees recursively, a few
# Python frames per level, and this bound keeps every walk inside
# the interpreter's default recursion limit of 1000.
MAX_DEPTH = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0  # open expr() calls: the top level, '(' and calls

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_sym(self, sym: str):
        kind, val, pos = self.next()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}, found {val!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprError("expression nested too deeply")
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "+-":
                self.next()
                rhs = self.term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                self.nesting -= 1
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val in "*/":
                self.next()
                rhs = self.factor()
                e = Mul(e, rhs) if val == "*" else Div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "sym" and val == "-":
            self.next()
            if self.peek()[0] == "num":     # fold the sign into a number
                return Const(-float(self.next()[1]))
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "sym" and val == "(":
            e = self.expr()
            self.expect_sym(")")
            return e
        if kind == "name":
            if val == "t":
                return Time()
            m = re.fullmatch(r"([xz])(\d+)", val)
            if m:
                idx = int(m.group(2))
                if idx < 1:
                    raise ParseError(f"variable index must be >= 1: {val!r}", pos)
                return VarX(idx) if m.group(1) == "x" else VarZ(idx)
            if val in _FUNCS:
                # The arguments are parsed here, not in call, so a nested
                # call costs the stack as few frames as a parenthesis.
                self.expect_sym("(")
                args = [self.expr()]
                while self.peek()[:2] == ("sym", ","):
                    self.next()
                    args.append(self.expr())
                self.expect_sym(")")
                return self.call(val, args, pos)
            raise ParseError(f"unknown identifier {val!r}", pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def call(self, name: str, args: list, pos: int) -> Expr:
        if name in ("sin", "cos", "exp", "sqrt", "abs"):
            if len(args) != 1:
                raise ParseError(f"{name} takes exactly 1 argument", pos)
            cls = {"sin": Sin, "cos": Cos, "exp": Exp, "sqrt": Sqrt, "abs": Abs}[name]
            return cls(args[0])
        if name == "pow":
            if len(args) != 2:
                raise ParseError("pow takes exactly 2 arguments", pos)
            # _validate judges the exponent: an integer literal >= 1
            k = args[1].value if isinstance(args[1], Const) else args[1]
            return Pow(args[0], int(k) if isinstance(k, float) and k.is_integer() else k)
        if name == "max":
            return Max(tuple(args))
        if name == "norm":
            return Norm(tuple(args))
        raise ParseError(f"unknown function {name!r}", pos)


def _args(e: Expr) -> tuple:
    """The subexpressions of e, in order."""
    if isinstance(e, (Const, Time, VarX, VarZ)):
        return ()
    if isinstance(e, (Neg, Sin, Cos, Exp, Sqrt, Abs)):
        return (e.arg,)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Max, Norm)):
        return e.args
    raise TypeError(f"not an Expr: {e!r}")


def is_smooth(e: Expr) -> bool:
    """True when the subtree contains no abs/max/norm node."""
    return not isinstance(e, (Abs, Max, Norm)) and all(map(is_smooth, _args(e)))


def uses_var_z(e: Expr) -> bool:
    return isinstance(e, VarZ) or any(map(uses_var_z, _args(e)))


def _uses_vars(e: Expr) -> bool:
    return isinstance(e, (VarX, VarZ)) or any(map(_uses_vars, _args(e)))


def _varies_nonsmoothly(e: Expr) -> bool:
    """True when e holds an abs, max or norm node that reads x or z."""
    if isinstance(e, (Abs, Max, Norm)) and _uses_vars(e):
        return True
    return any(map(_varies_nonsmoothly, _args(e)))


# Nodes whose arguments must be smooth, as the rejection names them.  A
# product with a constant factor is exempt: it only scales the other side.
_SMOOTH_ONLY = {Mul: "a product", Div: "a quotient", Pow: "pow", Sin: "sin",
                Cos: "cos", Exp: "exp", Sqrt: "sqrt"}


def _negated(e: Expr) -> tuple:
    """The operands e may negate, and how the rejection names the place.

    A convex kink turned upside down is concave, and the set calculus
    would give it the hull of both sides, which holds 0: the method would
    stop on it.  So an operand that varies nonsmoothly in x or z may not
    be negated, however the negation is spelled, nor sit inside abs or
    norm, which negate it where it is negative: abs(abs(x1) - 1) and
    norm(abs(x1) - 1) are concave on [-1, 1].
    """
    if isinstance(e, Abs):
        return (e.arg,), "inside abs"
    if isinstance(e, Norm):
        return e.args, "inside norm"
    if isinstance(e, Neg):
        return (e.arg,), "negated"
    if isinstance(e, Sub):
        return (e.right,), "subtracted"
    if isinstance(e, Mul):
        factor = next((a for a in _args(e) if isinstance(a, Const)), None)
        if factor is not None and factor.value < 0.0:
            return _args(e), "scaled by a negative constant"
    return (), ""


def _validate(e: Expr, n: int, allow_vars: bool) -> None:
    if isinstance(e, (VarX, VarZ)):
        if not allow_vars:
            raise ExprError("only t may appear in this expression")
        if not 1 <= e.index <= n:
            kind = "x" if isinstance(e, VarX) else "z"
            raise ExprError(f"variable {kind}{e.index} out of range 1..{n}")
        return
    if isinstance(e, Pow):
        k = e.exponent
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ExprError("pow exponent must be an integer literal")
        if k < 1:
            raise ExprError(f"pow exponent must be >= 1, got {k}")
    if isinstance(e, Max) and len(e.args) < 2:
        raise ExprError("max takes at least 2 arguments")
    if isinstance(e, Norm) and not e.args:
        raise ExprError("norm takes at least 1 argument")
    args = _args(e)
    context = _SMOOTH_ONLY.get(type(e))
    if isinstance(e, Mul) and any(isinstance(a, Const) for a in args):
        context = None
    negated, how = _negated(e)
    if any(map(_varies_nonsmoothly, negated)):
        raise ExprError(f"nonsmooth subexpression {how}")
    for a in args:
        if context is not None and not is_smooth(a):
            raise ExprError(f"nonsmooth subexpression inside {context}")
        _validate(a, n, allow_vars)


def check_expr(e: Expr, n: int, allow_vars: bool = True) -> None:
    """ExprError where parse_expr would reject the tree e.

    The depth comes first, walked one level at a time without recursion
    (a subtree shared between branches is visited once per level), so
    the recursive _validate after it stays inside the recursion limit.
    """
    level = [e]
    for _ in range(MAX_DEPTH):
        level = list({id(a): a for node in level for a in _args(node)}.values())
        if not level:
            break
    else:
        raise ExprError("expression nested too deeply")
    _validate(e, n, allow_vars)


def parse_expr(text: str, n: int, allow_vars: bool = True) -> Expr:
    """Parse and validate an integrand over x1..xn, z1..zn, t."""
    e = _Parser(text).parse()
    check_expr(e, n, allow_vars)
    return e


# format_expr's infix operators: the text between the operands and the
# binding level, 1 for sums and 3 for products.  Unary minus binds at 1,
# a constant at 4 and a variable, t or a call at 5.
_INFIX = {Add: (" + ", 1), Sub: (" - ", 1), Mul: (" * ", 3), Div: (" / ", 3)}


def _wrap(text: str, wrap: bool) -> str:
    return f"({text})" if wrap else text


def format_expr(e: Expr) -> str:
    """Render an expression in the input grammar (reparseable).

    One loop over e's node list (_compile) writes each node from its
    arguments' (text, level): an infix operand gets one pair of
    parentheses when it binds more loosely than its operator (on the
    right, also when as loosely), and a negated operand unless it is a
    variable, t or a call.  So a negated constant reads -(c), which
    parses back to the same tree: the parser folds a sign only into a
    number.
    """
    out: list = []
    for node in _compile(e):
        args = [out[a] for a in node.args]
        op, level = node.op, 5
        if op in _INFIX:
            sym, level = _INFIX[op]
            (left, l1), (right, l2) = args
            text = _wrap(left, l1 < level) + sym + _wrap(right, l2 <= level)
        elif op is Neg:
            (arg, l1), = args
            text, level = "-" + _wrap(arg, l1 < 5), 1
        elif op is Const:
            text, level = repr(node.value), 4
        elif op is Time:
            text = "t"
        elif op in (VarX, VarZ):
            text = f"{'x' if op is VarX else 'z'}{node.value + 1}"
        else:
            params = [a for a, _ in args] + ([f"{node.value}"] if op is Pow else [])
            text = f"{op.__name__.lower()}({', '.join(params)})"
        out.append((text, level))
    return out[-1][0]


# ---------------------------------------------------------------------------
# the compiled node list


@dataclass(frozen=True, slots=True)
class _Node:
    """One node of a compiled integrand (_compile), one per occurrence.

    op is its Expr class, args its arguments' slots and start the slot
    where its subtree begins.  value is a Const's value, a variable's
    0-based index, pow's exponent, or for a product with a constant
    factor (factor, slot of the other operand).  reads: the subtree reads
    x or z; tied: it holds an abs or max.  For the passes at n, support
    lists the columns of R^(2n) the center's block covers (x_i's
    column i - 1, z_i's n + i - 1, none without x or z), gens each
    generator's support, and places where each argument's block goes in
    support: None where the supports are equal, else a slice or a list.
    """

    op: type
    args: tuple
    start: int
    value: object
    reads: bool
    tied: bool
    support: tuple
    gens: tuple
    places: tuple


def _compile(e: Expr, n: int | None = None) -> tuple:
    """e's nodes in post-order, a quotient's divisor before its numerator
    as a walk of the expression takes them, so that each subtree is the
    run nodes[start:slot + 1]; with the columns of R^(2n) when n is
    given."""
    nodes: list = []

    def visit(e: Expr) -> int:
        start, kids, op = len(nodes), _args(e), type(e)
        slots = [0] * len(kids)
        for k in (1, 0) if op is Div else range(len(kids)):
            slots[k] = visit(kids[k])
        args = [nodes[s] for s in slots]
        value = getattr(e, "value", getattr(e, "exponent", None))
        if op in (VarX, VarZ):
            value = e.index - 1
        elif op is Mul and Const in (args[0].op, args[1].op):
            c = 0 if args[0].op is Const else 1     # the left one first
            value = (kids[c].value, slots[1 - c])
        reads = op in (VarX, VarZ) or any(a.reads for a in args)
        tied = op in (Abs, Max) or any(a.tied for a in args)
        support = gens = places = ()
        if n is not None:
            support = ((n * (op is VarZ) + value,) if op in (VarX, VarZ)
                       else tuple(sorted(set().union(*(a.support for a in args)))))
            if reads and (op in (Neg, Add, Sub, Abs, Max)
                          or (op is Mul and value is not None)):
                gens = sum((a.gens for a in args), ())
                if op in (Abs, Max):
                    gens += (support,)
            places = tuple(None if a.support == support
                           else _positions(a.support, support) for a in args)
        nodes.append(_Node(op, tuple(slots), start, value, reads, tied,
                           support, gens, places))
        return len(nodes) - 1

    visit(e)
    return tuple(nodes)


def _positions(support: tuple, target: tuple):
    """support's places in target, as a slice where they are contiguous."""
    at = [target.index(s) for s in support]
    if at and at == list(range(at[0], at[0] + len(at))):
        return slice(at[0], at[0] + len(at))
    return at


def _widen(a: np.ndarray, at, width: int) -> np.ndarray:
    """Block a placed at positions at of a wider one, zeros elsewhere."""
    if at is None:
        return a
    out = np.zeros((a.shape[0], width))
    out[:, at] = a
    return out


def _steps(nodes: tuple, rules: list) -> list:
    """The (slot, node, rule) a pass runs per call, in order: every node
    that reads x or z, and of each largest subtree without them only its
    root, with rule None, which the pass reads from its store (_kept)."""
    steps, i = [], len(nodes) - 1
    while i >= 0:
        node = nodes[i]
        steps.append((i, node, rules[i] if node.reads else None))
        i = i - 1 if node.reads else node.start - 1
    return steps[::-1]


def _with_divisors(nodes: tuple, rules: list, divisor: Callable) -> list:
    """rules with each divisor's rule wrapped in divisor, which raises at
    its zero before the numerator, later in the list, runs."""
    for node in nodes:
        if node.op is Div:
            rules[node.args[1]] = functools.partial(divisor, rules[node.args[1]])
    return rules


def _walk(nodes: tuple, rules: list, root: int, out: list, *point):
    """Run the rule of every node of the subtree ending at slot root."""
    for i in range(nodes[root].start, root + 1):
        out[i] = rules[i](nodes[i], out, *point)
    return out[root]


def _kept(store: list, t: np.ndarray) -> dict:
    """The results a pass keeps in store, [t, results], for a call on t:
    kept while calls pass the array t itself, so each is computed once
    per grid.  A writable t may change in place and gets a new dict."""
    if t.flags.writeable:
        return {}
    if store[0] is not t:
        store[:] = t, {}
    return store[1]


# ---------------------------------------------------------------------------
# evaluation


def _power(v, k: int) -> np.ndarray:
    """v ** k by numpy's array kernel, for a grid or a single value.

    Python's float ** (libm pow) differs from numpy's array power in the
    last bit on a few percent of values, so the grid and per-node paths
    both come here and a tie on a pow value is decided alike.
    """
    return np.asarray(v) ** k


# Subtrees fold up to this degree in gamma.  Horner's rule on degree k
# costs 2k array operations per probe, while pow(u, k) on an evaluated u
# costs one.
_LINE_DEGREE = 2

# A subtree folded along a line: its coefficient arrays (c0, .., ck) in
# gamma, k <= _LINE_DEGREE, or, when it does not fold, the function
# gamma -> (values, left slopes, right slopes) at its nodes.  The slopes
# are the one-sided derivatives in gamma; one array stands for both
# sides wherever the subtree meets no kink at gamma.
Folded = tuple | Callable[[float], tuple]


def compile_line(e: Expr, n: int) -> Callable[..., Callable[[float], tuple]]:
    """Compile e over x1..xn, z1..zn once into a pass along lines,
    line(xz, t, d=None).

    The iterate xz and the direction d have shape (N, 2n) and t shape
    (N,).  A call returns at(gamma) = (values, left, right): the nodal
    values at xz + gamma * d and their left and right derivatives in
    gamma, each of shape (N,); left is right (one array) where no node
    meets a kink at gamma.  The call walks e's node list, compiled for n
    (_compile), with one rule per node type (_LINE_RULES).  It folds
    every subtree that is a polynomial of degree <= _LINE_DEGREE in gamma
    into its coefficient arrays, in truncated Taylor arithmetic (Griewank
    and Walther, Evaluating Derivatives, 2008, ch. 13); a subtree without
    x or z is kept (_kept), once per grid.  at(gamma) evaluates only the
    nodes that do not fold (abs, max, norm, sqrt, smooth functions and
    division by subtrees that change along the line, products and powers
    above degree 2), on Horner values of their folded children, so it
    matches the values at the stepped point to roundoff.

    The slopes ride in the same pass, one left and one right array per
    node that does not fold: a folded subtree's slope is c1 + 2 c2 gamma,
    sums and smooth functions take the chain rule on each side, an abs at
    zero gives -|u'(gamma-)| and |u'(gamma+)|, a max takes the min of its
    tied branches' left slopes and the max of their right slopes, and a
    norm at a zero gives -|u'(gamma-)| and |u'(gamma+)| of its argument
    vector.  Ties are exact: a kink counts only where the values are
    equal.  A sqrt at a zero of its argument has infinite slopes.

    Without a direction every subtree has degree 0: the call makes the
    numpy calls a recursive walk would, in the same order, and at returns
    the values, bit-for-bit those of the expression, and zero slopes, for
    any gamma.  A constant operand of an arithmetic, max or norm node
    beside one that is not is a numpy scalar: the same bits.

    A zero divisor or a negative sqrt argument raises DomainError naming
    the first offending node: at(gamma) raises it, or the call itself
    when the subtree does not change along the line (every subtree,
    without a direction), a divisor before its numerator.

    at.kinks is the line's kink data, (kinks, smooth), on a sweep line:
    one where every node that does not fold is an abs of a fold of degree
    <= 1 in gamma, or a two-branch max of such folds, under only sums,
    differences and constant factors.  There the nodal values are
    smooth[0] + smooth[1] gamma + smooth[2] gamma^2 (a shorter tuple
    means zero coefficients) plus factor * |a + b gamma| for each
    (a, b, factor) in kinks; max(u1, u2) counts as (u1 + u2)/2 +
    |u1 - u2|/2.  On every other line at.kinks is None.
    """
    nodes = _compile(e, n)
    rules = [_LINE_RULES[node.op] for node in nodes]
    for node in nodes:
        if node.op in (Add, Sub, Mul, Div, Max, Norm):
            consts = [a for a in node.args if nodes[a].op is Const]
            if len(consts) < len(node.args):
                for a in consts:
                    rules[a] = _line_scalar
    steps, store = _steps(nodes, _with_divisors(nodes, rules, _divisor)), [None, {}]

    def line(xz, t, d=None):
        out, kept = [None] * len(nodes), _kept(store, t)
        for i, node, rule in steps:
            if rule is not None:
                out[i] = rule(node, out, xz, t, d)
            elif i in kept:
                out[i] = kept[i]
            else:
                out[i] = kept[i] = _walk(nodes, rules, i, out, xz, t, d)
        r = out[-1]
        if _constant(r):
            zero = np.zeros(t.shape)

            def at(g):
                return r[0], zero, zero
        else:
            at = _at(r)
        at.kinks = _kinks(r)
        return at
    return line


def _at(r: Folded) -> Callable[[float], tuple]:
    """A folded subtree as a function of gamma: Horner's rule on its
    coefficients, and their derivative c1 + 2 c2 gamma on both sides."""
    if callable(r):
        return r
    if len(r) == 1:
        c0, = r
        return lambda g: (c0, 0.0, 0.0)
    if len(r) == 2:
        c0, c1 = r
        return lambda g: (c0 + g * c1, c1, c1)
    c0, c1, c2 = r

    def quadratic(g):
        u = c1 + g * c2
        slope = u + g * c2
        return c0 + g * u, slope, slope
    return quadratic


def _constant(r: Folded) -> bool:
    """True when a folded subtree does not change along the line."""
    return not callable(r) and len(r) == 1


def _kinks(r: Folded) -> tuple | None:
    """A folded subtree's kink data, as compile_line's at.kinks gives it:
    a fold is all smooth, a node that does not fold has the kink data
    its rule attached, if any."""
    if callable(r):
        return getattr(r, "kinks", None)
    return (), r


def _poly_add(op: Callable, a: tuple, b: tuple) -> tuple:
    """op (add or sub) of two polynomials in gamma, coefficient-wise; a
    coefficient only one side has is 0 on the other."""
    m = min(len(a), len(b))
    return (tuple(op(u, v) for u, v in zip(a, b)) + a[m:]
            + tuple(op(0.0, v) for v in b[m:]))


def _poly_mul(a: tuple, b: tuple) -> tuple:
    """Coefficients of the product of two polynomials in gamma."""
    out = [None] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            term = ai * bj
            out[i + j] = term if out[i + j] is None else out[i + j] + term
    return tuple(out)


# The line pass's rules: rule(node, out, xz, t, d) is the node's
# Folded, from its arguments' in out.


def _line_const(node, out, xz, t, d):
    return (t,) if node.op is Time else (np.full(t.shape, node.value),)


def _line_scalar(node, out, xz, t, d):
    return (np.float64(node.value),)


def _line_var(node, out, xz, t, d):
    col = node.support[0]
    return (xz[:, col],) if d is None else (xz[:, col], d[:, col])


def _line_neg(node, out, xz, t, d):
    r = out[node.args[0]]
    if callable(r):
        return _smooth(operator.neg, lambda u, s: -s, r)
    return tuple(-c for c in r)


def _line_add(node, out, xz, t, d):
    r1, r2 = out[node.args[0]], out[node.args[1]]
    op = operator.add if node.op is Add else operator.sub
    if not (callable(r1) or callable(r2)):
        return _poly_add(op, r1, r2)
    result = _binary(op, lambda u1, u2, s1, s2: op(s1, s2), r1, r2)
    k1, k2 = _kinks(r1), _kinks(r2)
    # a subtracted kink would be concave
    if k1 and k2 and (op is operator.add or not k2[0]):
        result.kinks = (k1[0] + k2[0], _poly_add(op, k1[1], k2[1]))
    return result


def _line_mul(node, out, xz, t, d):
    r1, r2 = out[node.args[0]], out[node.args[1]]
    if not (callable(r1) or callable(r2)
            or len(r1) + len(r2) - 2 > _LINE_DEGREE):
        return _poly_mul(r1, r2)
    result = _binary(operator.mul, lambda u1, u2, s1, s2: u1 * s2 + u2 * s1,
                     r1, r2)
    c, k = (r1, _kinks(r2)) if callable(r2) else (r2, _kinks(r1))
    if k and _constant(c):
        result.kinks = (tuple((a, b, c[0] * w) for a, b, w in k[0]),
                        tuple(c[0] * s for s in k[1]))
    return result


def _divisor(rule, node, out, xz, t, d):
    """A divisor's rule, raising at its first zero if it is constant."""
    r = rule(node, out, xz, t, d)
    if _constant(r):
        _raise_at_first(r[0] == 0.0, "division by zero", t)
    return r


def _line_div(node, out, xz, t, d):
    r1, r2 = out[node.args[0]], out[node.args[1]]
    if _constant(r2):       # without a zero: _divisor checked it
        den = r2[0]
        if callable(r1):
            return _smooth(lambda u: u / den, lambda u, s: s / den, r1)
        return tuple(c / den for c in r1)
    fden, fnum = _at(r2), _at(r1)

    def quotient(gamma):
        den, dl, dr = fden(gamma)
        _raise_at_first(den == 0.0, "division by zero", t)
        num, nl, nr = fnum(gamma)
        v = num / den
        right = (nr - v * dr) / den
        left = right if nl is nr and dl is dr else (nl - v * dl) / den
        return v, left, right
    return quotient


def _line_pow(node, out, xz, t, d):
    r, k = out[node.args[0]], node.value
    if callable(r) or (len(r) - 1) * k > _LINE_DEGREE:
        return _line_smooth(node, out, xz, t, d)
    if len(r) == 1 or k == 1:
        return tuple(_power(c, k) for c in r)
    c0, c1 = r  # degree 1, squared
    return _power(c0, 2), 2.0 * c0 * c1, _power(c1, 2)


def _line_smooth(node, out, xz, t, d):
    """A smooth function of a folded subtree, its slope by the chain rule
    on the argument's value u and slope s: infinite, with the sign of s,
    where the rule leaves it undefined, sqrt at 0."""
    chain, k = _SD_CHAIN[node.op], node.value
    value = {Pow: lambda u: _power(u, k), Sqrt: lambda u: _checked_sqrt(u, t),
             Sin: np.sin, Cos: np.cos, Exp: np.exp}[node.op]

    def slope(u, s):
        _, ds, undefined = chain(u, _col(s), k)
        return np.where(undefined, np.copysign(np.inf, s), ds[..., 0])
    return _smooth(value, slope, out[node.args[0]])


def _line_max(node, out, xz, t, d):
    return functools.reduce(_max2, [out[a] for a in node.args])


def _smooth(op: Callable, slope: Callable, r: Folded) -> Folded:
    """op of a folded subtree, with slope(u, u's slope) on each side."""
    if _constant(r):
        return (op(r[0]),)
    f = _at(r)

    def probe(g):
        u, left, right = f(g)
        v = op(u)
        out = slope(u, right)
        return v, (out if left is right else slope(u, left)), out
    return probe


def _binary(op: Callable, slope: Callable, r1: Folded, r2: Folded) -> Folded:
    """op of two folded subtrees, at least one of them changing along the
    line, with slope(u1, u2, u1's slope, u2's slope) on each side."""
    f1, f2 = _at(r1), _at(r2)

    def probe(g):
        u1, l1, s1 = f1(g)
        u2, l2, s2 = f2(g)
        right = slope(u1, u2, s1, s2)
        left = right if l1 is s1 and l2 is s2 else slope(u1, u2, l1, l2)
        return op(u1, u2), left, right
    return probe


def _line_abs(node, out, xz, t, d):
    """abs of a folded subtree: its slopes times its sign, and at a zero
    -|u'(gamma-)| on the left and |u'(gamma+)| on the right."""
    r = out[node.args[0]]
    if _constant(r):
        return (np.abs(r[0]),)
    f = _at(r)

    def probe(g):
        u, left, right = f(g)
        sign = np.sign(u)
        out = sign * right
        out_left = out if left is right else sign * left
        # sign * slope loses a slope only at a zero of u, and only then
        # does it need the zero's rule
        if np.count_nonzero(out) < np.count_nonzero(right) or (
                out_left is not out
                and np.count_nonzero(out_left) < np.count_nonzero(left)):
            zero = sign == 0.0
            out_left = np.where(zero, -np.abs(left), out_left)
            out = np.where(zero, np.abs(right), out)
        return np.abs(u), out_left, out
    if not callable(r) and len(r) == 2:
        probe.kinks = (((r[0], r[1], 1.0),), ())
    return probe


def _max2(r1: Folded, r2: Folded) -> Folded:
    """max of two folded subtrees: the slopes of the larger one, and where
    they tie the min of both left slopes and the max of both right ones."""
    if _constant(r1) and _constant(r2):
        return (np.maximum(r1[0], r2[0]),)
    f1, f2 = _at(r1), _at(r2)

    def probe(g):
        u1, l1, s1 = f1(g)
        u2, l2, s2 = f2(g)
        first = u1 > u2
        right = np.where(first, s1, s2)
        left = right if l1 is s1 and l2 is s2 else np.where(first, l1, l2)
        tie = u1 == u2
        if np.count_nonzero(tie):
            left = np.where(tie, np.minimum(l1, l2), left)
            right = np.where(tie, np.maximum(s1, s2), right)
        return np.maximum(u1, u2), left, right
    if not (callable(r1) or callable(r2)) and max(len(r1), len(r2)) == 2:
        a, b = _poly_add(operator.sub, r1, r2)
        probe.kinks = (((a, b, 0.5),),
                       tuple(0.5 * c for c in _poly_add(operator.add, r1, r2)))
    return probe


def _line_norm(node, out, xz, t, d):
    """norm of folded subtrees: u . u' / |u| on each side, and at a zero
    -|u'(gamma-)| on the left and |u'(gamma+)| on the right, where u is
    the vector of the arguments."""
    parts = [out[a] for a in node.args]
    if all(map(_constant, parts)):
        return (_norm_value(*[r[0] for r in parts]),)
    fs = [_at(r) for r in parts]

    def probe(g):
        tgs = [f(g) for f in fs]
        vals = [tg[0] for tg in tgs]
        nrm = _norm_value(*vals)
        zero = nrm == 0.0
        safe = np.where(zero, 1.0, nrm)

        def side(sign, slopes):
            dot = sum(u * s for u, s in zip(vals, slopes))
            return np.where(zero, sign * _norm_value(*slopes), dot / safe)
        right = side(1.0, [tg[2] for tg in tgs])
        left = right
        if zero.any() or not all(tg[1] is tg[2] for tg in tgs):
            left = side(-1.0, [tg[1] for tg in tgs])
        return nrm, left, right
    return probe


_LINE_RULES = {
    Const: _line_const, Time: _line_const, VarX: _line_var, VarZ: _line_var,
    Neg: _line_neg, Add: _line_add, Sub: _line_add, Mul: _line_mul,
    Div: _line_div, Pow: _line_pow, Sin: _line_smooth, Cos: _line_smooth,
    Exp: _line_smooth, Sqrt: _line_smooth, Abs: _line_abs, Max: _line_max,
    Norm: _line_norm,
}


def _raise_at_first(bad, message: str, t: np.ndarray) -> None:
    """DomainError naming the first node where bad holds, if any does."""
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(message, float(t[i]), i)


def _checked_sqrt(v, t: np.ndarray) -> np.ndarray:
    _raise_at_first(v < 0.0, "sqrt of a negative value", t)
    return np.sqrt(v)


def _norm_value(*vals) -> np.ndarray:
    acc = vals[0] * vals[0]
    for v in vals[1:]:
        acc = acc + v * v
    return np.sqrt(acc)


def eval_expr_grid(e: Expr, xz: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized evaluation at N points: xz has shape (N, 2n), t (N,)."""
    return compile_line(e, xz.shape[1] // 2)(xz, t)(0.0)[0]


# ---------------------------------------------------------------------------
# subdifferential


def _as_set(g) -> ConvexSet:
    """A per-node rule's gradient or set as a set: a gradient, a (2n,)
    array, as its point."""
    return Singleton(g) if isinstance(g, np.ndarray) else g


def _tie(sets: list) -> ConvexSet:
    """The convex hull of the active branches' gradients or sets: a
    Polytope of their stacked vertices when each is a point or a
    polytope, else a Hull."""
    if all(isinstance(s, (np.ndarray, Polytope)) for s in sets):
        return Polytope(np.vstack([s if isinstance(s, np.ndarray)
                                   else s.vertices for s in sets]))
    return Hull(tuple(map(_as_set, sets)))


def _msum(g1, g2):
    """The sum of two gradients or sets: a gradient for two gradients."""
    if isinstance(g1, np.ndarray) and isinstance(g2, np.ndarray):
        return g1 + g2
    return MinkowskiSum((_as_set(g1), _as_set(g2)))


def _coordinate_ball(rows: np.ndarray, d: int):
    """Image of the unit ball under J^T when J has scaled coordinate rows.

    rows is the (m, d) Jacobian of the norm arguments.  Zero rows drop
    out; the remaining rows must each touch a single coordinate, whose
    radius is the norm of its rows, and the radii must share a common
    value c, giving a radius-c ball on those coordinates, or the zero
    gradient where every row is zero.  Anything else has no
    representation here.
    """
    mags = np.zeros(d)
    for row in rows:
        scale_row = float(np.max(np.abs(row)))
        if scale_row == 0.0:
            continue
        nz = np.flatnonzero(np.abs(row) > 1e-12 * scale_row)
        if nz.shape[0] != 1:
            raise SubdiffError(
                "norm vanishes but its Jacobian is not coordinate-aligned"
            )
        j = int(nz[0])
        mags[j] = math.hypot(mags[j], float(row[j]))
    mask = mags > 0.0
    if not mask.any():
        return np.zeros(d)
    r = mags[mask]
    if r.max() - r.min() > 1e-9 * (1.0 + r.max()):
        raise SubdiffError("norm arguments have mismatched scales at a zero")
    return Ball(np.zeros(d), float(r[0]), mask)


# Relative activity tolerance of abs, max and norm; see subdiff_expr.
_TOL_ACT = 1e-9

# The empty gradient a chain rule gets for a subtree without x or z.
_NO_COLUMNS = np.zeros(0)


# The per-node route's node list, compiled for the tree and n of the last
# call, kept while calls pass that tree object itself: (tree, n, steps).
# Trees need not hash (their arguments may be lists), so none is a key.
# A call reads the tuple once, so a call on another tree in between
# costs a compile, never a wrong list.
_per_node: tuple = (None, 0, ())


def _value_and_set(e: Expr, row, t: float,
                   tol_act: float = _TOL_ACT) -> tuple[float, ConvexSet]:
    """The integrand's value and subdifferential at the node (row, t)
    (subdiff_expr), for a tree e that passes check_expr.

    The call walks e's node list, compiled for n = len(row) / 2
    (_compile), with one rule per node type (_NODE_RULES), on Python
    floats, and wraps the root's gradient, if it is one, as a Singleton.
    As in the other passes, a quotient's divisor comes before its
    numerator and raises at its zero before the numerator runs, so all
    report the same first DomainError.
    """
    global _per_node
    row = np.asarray(row, float)
    if row.ndim != 1 or not row.shape[0] or row.shape[0] % 2:
        raise ValueError(f"a row must have shape (2n,), got {row.shape}")
    n = row.shape[0] // 2
    tree, kept_n, steps = _per_node
    if tree is not e or kept_n != n:
        nodes = _compile(e, n)
        rules = _with_divisors(nodes, [_NODE_RULES[node.op] for node in nodes],
                               _node_divisor)
        steps = list(zip(nodes, rules))
        _per_node = e, n, steps
    out = [None] * len(steps)
    for i, (node, rule) in enumerate(steps):
        out[i] = rule(node, out, row, t, tol_act)
    v, g = out[-1]
    return v, _as_set(g)


# The per-node route's rules: rule(node, out, row, t, tol) gives the
# node's (value, g) at (row, t) from its arguments' in out.  g is a set in
# R^(2n) only where an abs or max over x or z ties or a norm is at its
# zero, and in the sums, hulls and nonnegative multiples of such sets;
# everywhere else it is the gradient, a (2n,) array.  A tree that passes
# check_expr negates no set and hands none to a product, quotient,
# smooth function, abs or norm, so those rules see gradients alone.  A
# node without x or z has the gradient 0, as on the grid: its product and
# quotient rules are not run, its chain rules run on an empty gradient,
# so a gradient that would be 0 / 0 cannot be nan, and its abs and max
# return the point.


def _node_const(node, out, row, t, tol):
    return (node.value if node.op is Const else t), np.zeros(row.shape[0])


def _node_var(node, out, row, t, tol):
    g = np.zeros(row.shape[0])
    g[node.support[0]] = 1.0
    return float(row[node.support[0]]), g


def _node_neg(node, out, row, t, tol):
    v, g = out[node.args[0]]
    return -v, -g


def _node_add(node, out, row, t, tol):
    (v1, g1), (v2, g2) = out[node.args[0]], out[node.args[1]]
    if node.op is Add:
        return v1 + v2, _msum(g1, g2)
    return v1 - v2, _msum(g1, -g2)


def _node_divisor(rule, node, out, row, t, tol):
    """A divisor's rule, raising at its zero."""
    v, g = rule(node, out, row, t, tol)
    if v == 0.0:
        raise DomainError("division by zero", t)
    return v, g


def _node_product(node, out, row, t, tol):
    (v1, g1), (v2, g2) = out[node.args[0]], out[node.args[1]]
    if node.value is not None:  # a constant factor scales the other side
        c, other = node.value
        g = out[other][1]
        return v1 * v2, c * g if isinstance(g, np.ndarray) else scale(c, g)
    if not node.reads:
        return (v1 / v2 if node.op is Div else v1 * v2), np.zeros_like(g1)
    if node.op is Div:     # without a zero divisor: _node_divisor checked it
        return _quotient(v1, g1, v2, g2)
    return _product(v1, g1, v2, g2)


def _node_smooth(node, out, row, t, tol):
    v, g = out[node.args[0]]
    chain = _SD_CHAIN[node.op]
    if node.op is Sqrt:
        if v < 0.0:
            raise DomainError("sqrt of a negative value", t)
        if v == 0.0 and node.reads:
            raise DomainError("sqrt not differentiable at 0", t)
    if not node.reads:
        val, _, _ = chain(v, _NO_COLUMNS, node.value)
        return float(val), np.zeros_like(g)
    val, g, _ = chain(v, g, node.value)
    return float(val), g


def _node_abs(node, out, row, t, tol):
    v, g = out[node.args[0]]
    act = tol * (1.0 + abs(v))
    if v > act:
        return v, g
    if v < -act:
        return -v, -g
    return abs(v), _tie([g, -g]) if node.reads else g


def _node_max(node, out, row, t, tol):
    pairs = [out[a] for a in node.args]
    vals = np.array([v for v, _ in pairs])
    vmax = float(vals.max())
    act = tol * (1.0 + abs(vmax))
    active = [g for (_, g), va in zip(pairs, vals) if va >= vmax - act]
    if len(active) == 1 or not node.reads:
        return vmax, active[0]
    return vmax, _tie(active)


def _node_norm(node, out, row, t, tol):
    pairs = [out[a] for a in node.args]
    rows = np.vstack([g for _, g in pairs])
    nrm, g, nonzero = _norm(np.array([v for v, _ in pairs]), rows)
    return float(nrm), g if nonzero else _coordinate_ball(rows, rows.shape[1])


_NODE_RULES = {
    Const: _node_const, Time: _node_const, VarX: _node_var, VarZ: _node_var,
    Neg: _node_neg, Add: _node_add, Sub: _node_add, Mul: _node_product,
    Div: _node_product, Pow: _node_smooth, Sin: _node_smooth, Cos: _node_smooth,
    Exp: _node_smooth, Sqrt: _node_smooth, Abs: _node_abs, Max: _node_max,
    Norm: _node_norm,
}


def subdiff_expr(e: Expr, row, t: float,
                 tol_act: float = _TOL_ACT) -> ConvexSet:
    """Convex subdifferential of the integrand at one node, as a set in
    R^(2n): row is its (2n,) row of the iterate, t its time; a row of
    another shape raises ValueError.

    e must pass check_expr, as every ProblemSpec integrand does; the call
    does not check it again.  A tie is the convex hull of its active
    branches' sets (_tie), and a subtree without x or z the point 0.
    SubdiffError is left to norm at a zero whose set is no ball: rows
    that are not coordinate-aligned, or coordinates with unequal radii.

    An abs or max branch counts as active when it is within
    tol_act * (1 + |value|) of the deciding value.  The default gives the
    exact subdifferential up to roundoff; a larger tol_act gives the
    epsilon-subdifferential of epsilon-steepest descent, which already
    holds the gradients from the far side of a nearby kink.  norm always
    tests its zero at _TOL_ACT: it stays exact.

    The set is built by one walk of e's node list (_value_and_set), which
    is compiled once and kept while calls pass the same tree object e, as
    the grid passes keep their results per grid; nothing hashes e.  The
    walk carries a plain gradient wherever the integrand is
    differentiable and builds sets only at ties and norm zeros.
    """
    _, s = _value_and_set(e, row, t, tol_act)
    return s


def compile_subdiff(e: Expr, n: int) -> Callable[..., tuple]:
    """Compile e over x1..xn, z1..zn once into a grid subdifferential
    subdiff(xz, t, tol_act).

    xz has shape (N, 2n) and t shape (N,); another width raises
    ValueError.  The result is (value, q, gens, per_node) for every node
    at once: the value, shape (N,), compile_line's without a direction
    to the bit; a center q, shape (N, 2n); a list of segment generators,
    each a pair (columns, a) of a tuple of columns of R^(2n), increasing,
    and an array a of shape (N, len(columns)), zero on every other
    column; and a bool mask, shape (N,).  At a node outside the mask,
    subdiff_expr's set is the zonotope q + sum_k lambda_k gens[k] with
    lambda in [-1, 1]^k.
    Gradients are carried in forward mode (Griewank and Walther,
    Evaluating Derivatives, 2008) by the value and gradient rules the
    per-node route also calls, and with its tie rules: an abs tie on a
    point g gives the generator g, a two-way max tie on points g1, g2
    gives the center (g1 + g2)/2 and the generator (g1 - g2)/2.

    A call walks e's node list, compiled for n (_compile), with one rule
    per node type (_SD_RULES).  Each subtree's gradients are blocks over
    its column support (_Node), widened only where two supports differ;
    a term of a subtree without x or z is left out of a gradient.  On the
    columns it keeps, each rule does the arithmetic of the full rows, so
    the blocks hold the full rows' bits up to the signs of zeros.  Only q
    is widened to R^(2n), at the end.

    A zero divisor or a negative sqrt argument raises compile_line's
    DomainError at the first such node.  The mask holds the nodes where
    the set is not such a zonotope, or where subdiff_expr raises: norm
    at a zero, three or more active max branches, a tie or a smooth
    operation over a set already carrying a segment, sqrt(0) over x or
    z, and anything not finite (checked on whole arrays, and row by row
    only when some value is not).  A set carries a segment where a tie
    below it holds at that node, as in subdiff_expr's tree, even when
    the generator is zero (a max tie between branches of equal
    gradient).
    Masked rows mean nothing; subdiff_expr builds their sets.

    A subtree without x or z has a zero center and no generators; its
    values, masks and ties are kept (_kept), per tolerance when it holds
    an abs or max.  A fifth item, ties, lists every tie test the pass
    made, on every row, in the node list's order, as (top, values):
    abs(v) is (|v|, (0.0,)) and a max is (its value, its branches'
    values).  They do not depend on tol_act; next_tolerance reads them.
    """
    nodes = _compile(e, n)
    rules = _with_divisors(nodes, [_SD_RULES[node.op] for node in nodes],
                           _sd_divisor)
    steps, store = _steps(nodes, rules), [None, {}]
    root, full = nodes[-1], tuple(range(2 * n))
    at = None if root.support == full else _positions(root.support, full)

    def walk(i, out, xz, t, tol):
        own: list = []
        v, q, _, bad, seg = _walk(nodes, rules, i, out, xz, t, tol, own)
        # shared by every later call: read-only, and None where they hold
        # nowhere, so that no later rule combines them
        bad, seg = (None if m is None or not np.count_nonzero(m) else m
                    for m in (bad, seg))
        for mask in (bad, seg):
            if mask is not None:
                mask.flags.writeable = False
        return (v, q, [], bad, seg), own

    def subdiff(xz, t, tol_act=_TOL_ACT):
        if xz.shape[1:] != (2 * n,):
            raise ValueError(f"the iterate must have shape (N, {2 * n}), "
                             f"got {xz.shape}")
        ties: list = []
        out, kept = [None] * len(nodes), _kept(store, t)
        for i, node, rule in steps:
            if rule is not None:
                out[i] = rule(node, out, xz, t, tol_act, ties)
                continue
            key = (i, tol_act) if node.tied else i
            if key not in kept:
                kept[key] = walk(i, out, xz, t, tol_act)
            out[i], own = kept[key]
            ties += own
        v, q, gens, per_node, _ = out[-1]
        gens = [(c, a) for c, a in zip(root.gens, gens) if np.count_nonzero(a)]
        if per_node is None:
            per_node = np.zeros(t.shape, bool)
        if not finite(v, q, *(a for _, a in gens)):
            rows = np.isfinite(v) & np.isfinite(q).all(axis=1)
            for _, a in gens:
                rows &= np.isfinite(a).all(axis=1)
            per_node = per_node | ~rows
        return v, _widen(q, at, 2 * n), gens, per_node, ties
    return subdiff


# A tie margin's relative and absolute roundoff.  The tie tests round,
# at most a few ulps of 1 in margin units, and the per-node route's
# values may differ from the grid's in their last bits.
_MARGIN_REL = 1e-9
_MARGIN_ABS = 1e-15


def next_tolerance(ties: list, schedule: tuple, i: int) -> int:
    """The first index j > i at which a tie test of compile_subdiff's
    pass may come out differently than at schedule[i], or len(schedule)
    when none may.  schedule decreases.

    The test of a value u in a tie (top, values) holds at eps when
    u >= top - eps (1 + |top|), that is when its margin
    (top - u) / (1 + |top|) is at most eps: for abs(v), |v| <= eps
    (1 + |v|).  A test that fails at eps fails at every smaller eps', and
    one that holds changes only where its margin exceeds eps'.  Margins
    count as holding up to eps (1 + _MARGIN_REL) + _MARGIN_ABS, and a
    smaller tolerance sees the same tests only when it is at least
    m (1 + _MARGIN_REL) + _MARGIN_ABS for every margin m that holds.  A
    margin that is not finite makes it i + 1.  The walk stops at the
    first tie that sets it to i + 1, and takes the ties outermost first:
    the pass lists a subtree's ties before its ancestors', and those of
    subtrees without x or z, which do not move with the iterate, early.
    """
    held = schedule[i] * (1.0 + _MARGIN_REL) + _MARGIN_ABS
    # a held margin above this may fail the test at schedule[i + 1]
    kept = (schedule[i + 1] - _MARGIN_ABS) / (1.0 + _MARGIN_REL)
    widest = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for top, values in reversed(ties):
            scale = 1.0 + np.abs(top)
            for u in values:
                m = (top - u) / scale
                most = np.maximum.reduce(m)
                if not most <= held:        # some test fails, or is nan
                    if not most < math.inf:
                        return i + 1
                    m = m[m <= held]
                    most = np.maximum.reduce(m) if m.size else 0.0
                if most > kept:
                    return i + 1
                widest = max(widest, most)
    widest = widest * (1.0 + _MARGIN_REL) + _MARGIN_ABS
    return next((j for j in range(i + 1, len(schedule))
                 if schedule[j] < widest), len(schedule))


def _col(v) -> np.ndarray:
    """v with a trailing axis, to scale gradients: (N,) -> (N, 1), () -> (1,)."""
    return np.asarray(v)[..., None]


def _or(a, b):
    """a | b for row masks, None standing for a mask that holds nowhere.
    May return a or b itself: no rule writes into a mask it was given."""
    if a is None:
        return b
    if b is None:
        return a
    return a | b


# The grid pass's rules: rule(node, out, xz, t, tol, ties) gives the
# node's (value, q, gens, bad, seg) from its arguments' in out: q and
# each generator a block over its support (_Node), bad masking the nodes
# left to the per-node route and seg those where a tie in the subtree
# holds, each None where it cannot hold.  A rule appends its tie tests
# to ties.


def _sd_const(node, out, xz, t, tol, ties):
    value = np.full(t.shape, node.value) if node.op is Const else t
    return value, _leaf_block(t.shape[0], 0), [], None, None


def _sd_var(node, out, xz, t, tol, ties):
    return xz[:, node.support[0]], _leaf_block(t.shape[0], 1), [], None, None


def _sd_neg(node, out, xz, t, tol, ties):
    v, q, gens, bad, seg = out[node.args[0]]
    return -v, -q, [-a for a in gens], bad, seg


def _sd_add(node, out, xz, t, tol, ties):
    v1, q1, gens1, bad1, seg1 = out[node.args[0]]
    v2, q2, gens2, bad2, seg2 = out[node.args[1]]
    plus = node.op is Add
    k1, k2, width = q1.shape[1], q2.shape[1], len(node.support)
    if not k2:
        q = q1
    elif not k1:
        q = q2 if plus else -q2
    elif k1 + k2 == width and node.places[0] == slice(0, k1):
        # disjoint supports, q1's columns first
        q = np.concatenate((q1, q2 if plus else -q2), axis=1)
    else:
        (at1, at2) = node.places
        q1, q2 = _widen(q1, at1, width), _widen(q2, at2, width)
        q = q1 + q2 if plus else q1 - q2
    gens = gens1 + (gens2 if plus else [-a for a in gens2])
    return (v1 + v2 if plus else v1 - v2, q, gens, _or(bad1, bad2),
            _or(seg1, seg2))


def _sd_product(node, out, xz, t, tol, ties):
    if node.value is not None:  # a constant factor scales the other side
        c, other = node.value
        v, q, gens, bad, seg = out[other]
        return c * v, c * q, [c * a for a in gens], bad, seg
    v1, q1, _, bad1, seg1 = out[node.args[0]]
    v2, q2, _, bad2, seg2 = out[node.args[1]]
    bad = _or(_or(bad1, bad2), _or(seg1, seg2))
    (at1, at2), width = node.places, len(node.support)
    if node.op is Div:     # without a zero divisor: _sd_divisor checked it
        return (*_quotient(v1, _widen(q1, at1, width), v2, _widen(q2, at2, width)),
                [], bad, None)
    # a side without x or z has a zero gradient: its term is left out
    if not q1.shape[1]:
        return v1 * v2, _col(v1) * q2, [], bad, None
    if not q2.shape[1]:
        return v1 * v2, _col(v2) * q1, [], bad, None
    return (*_product(v1, _widen(q1, at1, width), v2, _widen(q2, at2, width)),
            [], bad, None)


def _sd_divisor(rule, node, out, xz, t, tol, ties):
    """A divisor's rule, raising at its first zero."""
    r = rule(node, out, xz, t, tol, ties)
    _raise_at_first(r[0] == 0.0, "division by zero", t)
    return r


def _sd_smooth(node, out, xz, t, tol, ties):
    v, q, _, bad, seg = out[node.args[0]]
    if node.op is Sqrt:
        _raise_at_first(v < 0.0, "sqrt of a negative value", t)
    val, dq, undefined = _SD_CHAIN[node.op](v, q, node.value)
    if node.op is Sqrt and node.reads:
        bad = _or(bad, undefined)
    return val, dq, [], _or(bad, seg), None


def _sd_abs(node, out, xz, t, tol, ties):
    v, q, gens, bad, seg = out[node.args[0]]
    av = np.abs(v)
    ties.append((av, (0.0,)))
    act = tol * (1.0 + av)
    pos, neg = v > act, v < -act
    tie = ~(pos | neg)
    pos, neg = pos[:, None], neg[:, None]
    gens = [np.where(pos, a, np.where(neg, -a, 0.0)) for a in gens]
    if node.reads:
        gens.append(np.where(tie[:, None], q, 0.0))
    q = np.where(pos, q, np.where(neg, -q, 0.0))
    return (av, q, gens, bad if seg is None else _or(bad, tie & seg),
            _or(seg, tie))


def _sd_max(node, out, xz, t, tol, ties):
    parts = [out[a] for a in node.args]
    values = [part[0] for part in parts]
    vmax = functools.reduce(np.maximum, values)
    ties.append((vmax, values))
    floor = vmax - tol * (1.0 + np.abs(vmax))
    active = [v >= floor for v in values]
    width = len(node.support)
    qs = [_widen(part[1], at, width) for part, at in zip(parts, node.places)]
    if len(parts) == 2:
        tie, bad = active[0] & active[1], ~(active[0] | active[1])
        sole = [m & ~tie for m in active]
        # the active branch's center; a row where none is is masked
        first, second = np.where(_col(active[0]), qs[0], qs[1]), qs[1]
    else:
        count = sum(m.astype(int) for m in active)
        tie, bad = count == 2, (count < 1) | (count > 2)
        sole = [m & (count == 1) for m in active]
        # first and second active branch, in argument order
        first = second = np.zeros((t.shape[0], width))
        seen = np.zeros_like(count)
        for q, m in zip(qs, active):
            first = np.where(_col(m & (seen == 0)), q, first)
            second = np.where(_col(m & (seen == 1)), q, second)
            seen += m
    seg, gens = tie, []
    for (_, _, branch_gens, branch_bad, branch_seg), m, alone in zip(
            parts, active, sole):
        if branch_bad is not None:
            bad |= branch_bad
        if branch_seg is not None:
            bad |= m & tie & branch_seg
            seg = seg | (alone & branch_seg)
        gens += [np.where(_col(alone), a, 0.0) for a in branch_gens]
    q = np.where(_col(tie), (first + second) / 2.0, first)
    if node.reads:
        gens.append(np.where(_col(tie), (first - second) / 2.0, 0.0))
    return vmax, q, gens, bad, seg


def _sd_norm(node, out, xz, t, tol, ties):
    parts = [out[a] for a in node.args]
    width = len(node.support)
    rows = np.stack([_widen(p[1], at, width) for p, at in zip(parts, node.places)],
                    axis=1)
    nrm, grad, nonzero = _norm(np.stack([p[0] for p in parts], axis=1), rows)
    bad = ~nonzero
    for _, _, _, branch_bad, branch_seg in parts:
        bad = _or(_or(bad, branch_bad), branch_seg)
    return nrm, grad, [], bad, None


_SD_RULES = {
    Const: _sd_const, Time: _sd_const, VarX: _sd_var, VarZ: _sd_var,
    Neg: _sd_neg, Add: _sd_add, Sub: _sd_add, Mul: _sd_product, Div: _sd_product,
    Pow: _sd_smooth, Sin: _sd_smooth, Cos: _sd_smooth, Exp: _sd_smooth,
    Sqrt: _sd_smooth, Abs: _sd_abs, Max: _sd_max, Norm: _sd_norm,
}


@functools.lru_cache(maxsize=64)
def _leaf_block(npoints: int, width: int) -> np.ndarray:
    """A leaf's gradient block, shape (npoints, width): a variable's one
    column of ones (width 1), or no column at all for Const and Time
    (width 0).  Built once per (npoints, width) and read-only, since
    every pass on such a grid shares it."""
    q = np.ones((npoints, width))
    q.flags.writeable = False
    return q


# The value and gradient rules of the smooth operations, the one copy
# both routes call: the per-node rules (_NODE_RULES) with a value and a
# (d,) gradient per argument, the grid pass with (N,) values and (N, k)
# gradient blocks.
# The same numpy operations on the same numbers give both routes the same
# bits, column by column.  The line pass takes its slopes from the chain
# rules too (_line_smooth), with (N, 1) slopes for gradients.


def _product(v1, q1, v2, q2):
    return v1 * v2, _col(v1) * q2 + _col(v2) * q1


def _quotient(v1, q1, v2, q2):
    """v1 / v2 and its gradient, for a nonzero v2."""
    return v1 / v2, (q1 * _col(v2) - _col(v1) * q2) / _col(v2 * v2)


def _norm(vals, rows):
    """(norm, gradient, nonzero) of norm's arguments.

    vals holds the arguments' values, shape (..., m), and rows their
    gradients, shape (..., m, d).  Where the norm is zero (within
    _TOL_ACT) the gradient means nothing: the set is a ball there.  The
    value is the line pass's (_norm_value), and the gradient too sums
    the rows' terms one by one: matmul's kernel, and with it the last
    bit, depends on d, which is the node's support on the grid and 2n
    per node.
    """
    nrm = _norm_value(*vals.T)
    nonzero = nrm > _TOL_ACT * (1.0 + nrm)
    w = vals / _col(np.where(nonzero, nrm, 1.0))
    grad = rows[..., 0, :] * w[..., :1]
    for k in range(1, vals.shape[-1]):
        grad = grad + rows[..., k, :] * w[..., k:k + 1]
    return nrm, grad, nonzero


# The chain rule of each smooth function: (value, gradient, where the
# argument lies outside the domain) from the argument's value v,
# gradient q and, for pow, the exponent k.
def _chain_pow(v, q, k):
    return _power(v, k), _col(k * _power(v, k - 1)) * q, False


def _chain_sin(v, q, k):
    return np.sin(v), _col(np.cos(v)) * q, False


def _chain_cos(v, q, k):
    return np.cos(v), _col(-np.sin(v)) * q, False


def _chain_exp(v, q, k):
    ev = np.exp(v)
    return ev, _col(ev) * q, False


def _chain_sqrt(v, q, k):
    """sqrt of v >= 0 (every pass raises at v < 0): undefined at 0 over x
    or z, where the gradient divides by 1 instead.  A sqrt without x or
    z has a zero gradient, so its zero lies in the domain."""
    undefined = np.logical_not(v > 0.0)  # not ~: v may be a Python float
    r = np.sqrt(v)  # a nan argument gives a nan
    return r, q / _col(2.0 * np.where(undefined, 1.0, r)), undefined


_SD_CHAIN = {Pow: _chain_pow, Sin: _chain_sin, Cos: _chain_cos,
             Exp: _chain_exp, Sqrt: _chain_sqrt}
