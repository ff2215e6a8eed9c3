"""A small arithmetic expression language for defining test functions.

Grammar (precedence low to high): ``+ -`` < ``* /`` < unary ``-`` < ``^``,
with ``+ - * /`` left associative and ``^`` right associative, so ``-x^2``
means ``-(x^2)`` and ``2^3^2`` means ``2^(3^2)``.  The table ``_PREC`` fixes
this precedence for the parser and for ``Expr.precedence``, which ``unparse``
reads.  Variables are ``x1 .. xN`` and ``t``; ``pi`` and ``e`` are named
constants.  ``parse`` can also read named parameters, leaves that ``bind``
replaces by numbers: one parse then serves every member of a family of
expressions.  Evaluation is plain IEEE-754 double arithmetic and refuses to
produce non-finite numbers: ``log``/``sqrt`` of a negative argument, division
by zero, a negative base with a fractional exponent, and overflow all raise a
domain error naming the offending sub-expression.  A numeric literal that
overflows, such as ``1e400``, is already a syntax error naming its offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np


class ExprSyntaxError(ValueError):
    """Source text could not be parsed; carries the byte offset."""


class ExprNameError(ValueError):
    """Unknown identifier or wrong call arity."""


class ExprDomainError(ArithmeticError):
    """Evaluation left the domain of a function or overflowed."""


_UNARY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
    "sqrt": np.sqrt,
}
_BINARY_FUNCS = {"pow", "min", "max"}
_CONSTANTS = {"pi": math.pi, "e": math.e}

# Binding power of each operator node; atoms bind tighter than all of them.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}
_PREC_UNARY, _PREC_ATOM = _PREC["neg"], 5

# Results that are finite whenever their arguments are, and results that can
# leave the finite range and so are checked.
_EXACT = {"neg": np.negative, "min": np.minimum, "max": np.maximum}
_CHECKED = {**_UNARY_FUNCS, "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


@dataclass(frozen=True)
class Expr:
    """A node of the syntax tree; ``op`` distinguishes the node kind."""

    op: str  # 'num', 'var', 'param', 'neg', 'call', or a binary operator symbol
    args: tuple = ()
    name: str = ""
    value: float = 0.0

    @property
    def precedence(self) -> int:
        if self.op == "num" and math.copysign(1.0, self.value) < 0:
            # Negative literals print with a leading '-', so they bind like a
            # unary minus when re-parsed.
            return _PREC_UNARY
        return _PREC.get(self.op, _PREC_ATOM)


# -- tokenizer ---------------------------------------------------------------

_OPERATORS = set("+-*/^(),")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPERATORS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            start = i
            while i < n and (source[i].isdigit() or source[i] == "."):
                i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j
                    while i < n and source[i].isdigit():
                        i += 1
            text = source[start:i]
            try:
                value = float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number {text!r} at offset {start}") from None
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {text!r} at offset {start} overflows")
            tokens.append(("num", text, start))
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(("name", source[start:i], start))
            continue
        raise ExprSyntaxError(f"unexpected character {c!r} at offset {i}")
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, n_dim: int, params):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.n_dim = n_dim
        self.source = source
        self.params = frozenset(params)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError(f"unexpected end of input at offset {len(self.source)}")
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != symbol:
            raise ExprSyntaxError(f"expected {symbol!r} at offset {tok[2]}, got {tok[1]!r}")

    def parse(self) -> Expr:
        e = self.expr(1)
        tok = self.peek()
        if tok is not None:
            raise ExprSyntaxError(f"trailing input {tok[1]!r} at offset {tok[2]}")
        return e

    def expr(self, floor: int) -> Expr:
        """An operand and every following operator that binds at least ``floor``.
        A unary ``-`` takes the operand of a ``^`` chain; ``^`` is right
        associative with a unary exponent, the others are left associative."""
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            left = Expr("neg", (self.expr(_PREC_UNARY),))
        else:
            left = self.atom()
        while True:
            tok = self.peek()
            prec = _PREC.get(tok[1], 0) if tok and tok[0] == "op" else 0
            if prec < floor:
                return left
            self.next()
            right = self.expr(_PREC_UNARY if tok[1] == "^" else prec + 1)
            left = Expr(tok[1], (left, right))

    def atom(self) -> Expr:
        tok = self.next()
        kind, text, off = tok
        if kind == "num":
            return Expr("num", value=float(text))
        if kind == "op" and text == "(":
            e = self.expr(1)
            self.expect_op(")")
            return e
        if kind == "name":
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "(":
                return self.call(text, off)
            return self.variable(text, off)
        raise ExprSyntaxError(f"unexpected token {text!r} at offset {off}")

    def call(self, name: str, off: int) -> Expr:
        if name not in _UNARY_FUNCS and name not in _BINARY_FUNCS:
            raise ExprNameError(f"unknown function {name!r} at offset {off}")
        self.expect_op("(")
        args = [self.expr(1)]
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == ",":
                self.next()
                args.append(self.expr(1))
            else:
                break
        self.expect_op(")")
        arity = 1 if name in _UNARY_FUNCS else 2
        if len(args) != arity:
            raise ExprNameError(
                f"{name} expects {arity} argument{'s' if arity > 1 else ''}, got {len(args)}"
            )
        return Expr("call", tuple(args), name=name)

    def variable(self, name: str, off: int) -> Expr:
        if name in self.params:
            return Expr("param", name=name)
        if name in _CONSTANTS:
            return Expr("num", value=_CONSTANTS[name])
        if name == "t":
            return Expr("var", name="t")
        digits = name[1:]
        if name[0] == "x" and digits.isascii() and digits.isdigit():
            # an axis x1..xN: ASCII digits, no leading zero, at most N
            in_range = len(digits) <= len(str(self.n_dim)) and int(digits) <= self.n_dim
            if digits[0] != "0" and in_range:
                return Expr("var", name=name)
            raise ExprNameError(
                f"unknown identifier {name!r} at offset {off}: "
                f"dimension {self.n_dim} defines x1..x{self.n_dim} and t"
            )
        raise ExprNameError(f"unknown identifier {name!r} at offset {off}")


def parse(source: str, n_dim: int, params=()) -> Expr:
    """Parse ``source`` against dimension ``n_dim`` (variables x1..xN, t).

    Each identifier named in ``params`` is read as a parameter leaf, before
    the variables and constants; :func:`bind` gives it a value.  A tree with
    parameters left unbound does not evaluate."""
    if n_dim < 1:
        raise ValueError(f"dimension must be >= 1, got {n_dim}")
    return _Parser(source, n_dim, params).parse()


def bind(e: Expr, values: dict) -> Expr:
    """``e`` with each parameter leaf replaced by its value in ``values``, as
    :func:`parse` reads the value's ``repr``: a negative value (``-0.0``
    included) becomes the negation of its magnitude.  So where no parameter
    is the base of a ``^``, the tree of ``parse(source, n, params)`` bound to
    some values is the tree of the source with each parameter written as
    its value's ``repr``, and evaluates bit for bit as it does."""
    if e.op == "param":
        v = values[e.name]
        if math.copysign(1.0, v) < 0:
            return Expr("neg", (Expr("num", value=-v),))
        return Expr("num", value=v)
    if not e.args:
        return e
    return Expr(e.op, tuple(bind(a, values) for a in e.args), e.name)


# -- evaluation ---------------------------------------------------------------


def _fail(node: Expr, reason: str):
    raise ExprDomainError(f"domain error in {unparse(node)!r}: {reason}")


def _check_finite(node: Expr, result):
    if not np.all(np.isfinite(result)):
        _fail(node, "result is not finite")
    return result


def _eval(node: Expr, env: dict):
    op = node.op
    if op == "num":
        return node.value
    if op == "var":
        return env[node.name]
    if op == "param":
        raise ExprNameError(f"parameter {node.name!r} has no value; bind it first")
    # map, not a comprehension, which would add a frame per level of nesting
    args = tuple(map(_eval, node.args, repeat(env)))
    if op == "call":
        op = node.name
    if op in _EXACT:
        return _EXACT[op](*args)
    if op in ("^", "pow"):
        return _pow(node, *args)
    if op in ("log", "sqrt") and np.any(np.asarray(args[0]) < 0):
        _fail(node, f"{op} of a negative value")
    if op == "/" and np.any(np.asarray(args[1]) == 0):
        _fail(node, "division by zero")
    return _check_finite(node, _CHECKED[op](*args))


def _pow(node: Expr, a, b):
    a_arr, b_arr = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    fractional = b_arr != np.floor(b_arr)
    if np.any((a_arr < 0) & fractional):
        _fail(node, "negative base with a fractional exponent")
    if np.any((a_arr == 0) & (b_arr < 0)):
        _fail(node, "zero base with a negative exponent")
    return _check_finite(node, np.power(a, b))


def evaluate(e: Expr, x, t):
    """Evaluate at ``x`` (sequence of coordinates) and ``t``; scalars or arrays."""
    env = {f"x{i + 1}": x[i] for i in range(len(x))}
    env["t"] = t
    # non-finite results are caught by the domain checks, not by warnings
    with np.errstate(all="ignore"):
        out = _eval(e, env)
    if np.ndim(out) == 0:
        return float(out)
    return out


def as_grid_callable(e: Expr):
    """Adapter with the ``f(x, t)`` signature that grid sampling expects."""

    def f(x, t):
        return evaluate(e, x, t)

    return f


# -- unparsing ----------------------------------------------------------------


def _wrap(child: Expr, need_parens: bool) -> str:
    text = unparse(child)
    return f"({text})" if need_parens else text


def unparse(e: Expr) -> str:
    """Source text whose parse evaluates identically to ``e``.

    Parentheses are inserted exactly where re-parsing would otherwise change
    the tree, including right operands of same-precedence left-associative
    operators (so floating-point grouping is preserved).
    """
    if e.op == "num":
        return repr(e.value)
    if e.op in ("var", "param"):
        return e.name
    if e.op == "call":
        return f"{e.name}({', '.join(unparse(a) for a in e.args)})"
    if e.op == "neg":
        return "-" + _wrap(e.args[0], e.args[0].precedence < _PREC_UNARY)
    left, right = e.args
    if e.op == "^":
        # The base parses at atom level; the exponent at unary level.
        return (
            _wrap(left, left.precedence < _PREC_ATOM)
            + "^"
            + _wrap(right, right.precedence < _PREC_UNARY)
        )
    prec = e.precedence
    return (
        _wrap(left, left.precedence < prec)
        + e.op
        + _wrap(right, right.precedence <= prec)
    )
