"""A small arithmetic grammar for user-supplied smooth objectives.

Supports +, -, *, /, ^ (or pow(a, b)), sin, cos, exp, sum, numeric
literals, the full coordinate vector ``x`` and 1-indexed coordinates
``x1`` ... ``xd``. Arithmetic is elementwise on vectors; ``sum``
reduces a vector to a scalar. The compiled expression must evaluate to
a scalar.

The compiled callable evaluates one point ``(d,)`` or all rows
``(N, d)`` at once. A scalar term keeps a trailing length-1 axis, so it
broadcasts against the vector ``x`` row by row for every N; constant-only
subexpressions are folded once, at compile time.

Examples: "sum(sin(x))", "x1*x1 + 100*pow(x2 - x1^2, 2)".
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["compile_expression"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^,]))"
)

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise DomainError(f"cannot parse expression at: {text[pos:]!r}")
        if m.lastgroup == "num":
            # numpy scalars, so constant arithmetic gives inf/nan like x does
            tokens.append(("num", np.float64(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


@dataclass(frozen=True)
class _Node:
    """A compiled subexpression. ``fn`` maps x ``(..., d)`` to ``(..., d)`` for a
    vector and to ``(..., 1)`` for a scalar; a constant carries its ``value``."""

    fn: Callable
    vector: bool = False
    value: np.float64 | None = None


def _constant(value) -> _Node:
    return _Node(lambda x: value, value=value)


def _apply(op, *args: _Node) -> _Node:
    """``op`` of the argument nodes, folded now when every argument is constant."""
    if all(a.value is not None for a in args):
        with np.errstate(all="ignore"):  # 1/0 folds to inf, rejected when called
            return _constant(op(*(a.value for a in args)))
    fns = [a.fn for a in args]
    return _Node(lambda x: op(*[f(x) for f in fns]), any(a.vector for a in args))


def _power(base: _Node, expo: _Node) -> _Node:
    # scalar terms use libm pow, as numpy scalar arithmetic does; numpy's
    # array ** can differ from it in the last bit
    op = operator.pow if base.vector or expo.vector else np.float_power
    return _apply(op, base, expo)


class _Parser:
    def __init__(self, tokens, dim: int):
        self.tokens = tokens
        self.dim = dim
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise DomainError(f"expected {kind}, got {tok}")
        if value is not None and tok[1] != value:
            raise DomainError(f"expected {value!r}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def parse(self) -> _Node:
        node = self.expr()
        if self.peek()[0] != "end":
            raise DomainError(f"trailing input at token {self.peek()}")
        return node

    def expr(self) -> _Node:
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = operator.add if self.take()[1] == "+" else operator.sub
            node = _apply(op, node, self.term())
        return node

    def term(self) -> _Node:
        node = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = operator.mul if self.take()[1] == "*" else operator.truediv
            node = _apply(op, node, self.unary())
        return node

    def unary(self) -> _Node:
        if self.peek() == ("op", "-"):
            self.take()
            return _apply(operator.neg, self.unary())
        return self.power()

    def power(self) -> _Node:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            expo = self.unary()  # right-associative, allows -x in exponents
            return _power(base, expo)
        return base

    def call(self, n_args: int = 1) -> list[_Node]:
        self.take("op", "(")
        args = [self.expr()]
        while len(args) < n_args:
            self.take("op", ",")
            args.append(self.expr())
        self.take("op", ")")
        return args

    def atom(self) -> _Node:
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return _constant(value)
        if kind == "op" and value == "(":
            return self.call()[0]
        if kind == "name":
            self.take()
            if value == "x":
                return _Node(lambda x: x, vector=True)
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                idx = int(m.group(1)) - 1
                if idx < 0:
                    raise DomainError("coordinates are 1-indexed: x1, x2, ...")
                if idx >= self.dim:
                    raise DomainError(f"coordinate {value} is out of range for d={self.dim}")
                return _Node(lambda x, i=idx: x[..., i:i + 1])
            if value == "sum":
                inner = self.call()[0]
                if inner.value is not None:
                    return inner  # the sum of one number is that number
                return _Node(lambda x, f=inner.fn: np.sum(f(x), axis=-1, keepdims=True))
            if value == "pow":
                return _power(*self.call(2))
            if value in _FUNCS:
                return _apply(_FUNCS[value], *self.call())
            raise DomainError(f"unknown identifier {value!r}")
        raise DomainError(f"unexpected token {self.peek()}")


def compile_expression(text: str, dim: int):
    """Compile the expression text into a callable of a point ``(dim,)``,
    returning a float, or of rows ``(N, dim)``, returning an ``(N,)`` array.

    Coordinates beyond x<dim> are rejected here; the callable raises if
    the expression does not reduce to a scalar.
    """
    node = _Parser(_tokenize(text), dim).parse()

    def fun(x):
        if node.vector:
            raise DomainError(
                "expression must evaluate to a scalar; wrap vector terms in sum(...)"
            )
        x = np.asarray(x, dtype=float)
        if node.value is None:
            out = node.fn(x)[..., 0]
        else:
            out = np.full(x.shape[:-1], node.value)
        return float(out) if out.ndim == 0 else out

    return fun
