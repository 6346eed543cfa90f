"""A small arithmetic grammar for user-supplied smooth objectives.

Supports +, -, *, /, ^ (or pow(a, b)), sin, cos, exp, sum, numeric
literals, the full coordinate vector ``x`` and 1-indexed coordinates
``x1`` ... ``xd``. Arithmetic is elementwise on vectors; ``sum``
reduces a vector to a scalar. The compiled expression must evaluate to
a scalar.

Examples: "sum(sin(x))", "x1*x1 + 100*pow(x2 - x1^2, 2)".
"""
from __future__ import annotations

import operator
import re

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

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise DomainError(f"trailing input at token {self.peek()}")
        return node

    @staticmethod
    def _binary(op, left, right):
        return lambda x: op(left(x), right(x))

    def expr(self):
        node = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = operator.add if self.take()[1] == "+" else operator.sub
            node = self._binary(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = operator.mul if self.take()[1] == "*" else operator.truediv
            node = self._binary(op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.unary()
            return lambda x: -inner(x)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            expo = self.unary()  # right-associative, allows -x in exponents
            return lambda x: base(x) ** expo(x)
        return base

    def atom(self):
        kind, value = self.peek()
        if kind == "num":
            self.take()
            return lambda x, v=value: v
        if kind == "op" and value == "(":
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        if kind == "name":
            self.take()
            if value == "x":
                return lambda x: x
            m = re.fullmatch(r"x(\d+)", value)
            if m:
                idx = int(m.group(1)) - 1
                if idx < 0:
                    raise DomainError("coordinates are 1-indexed: x1, x2, ...")
                if idx >= self.dim:
                    raise DomainError(f"coordinate {value} is out of range for d={self.dim}")
                return lambda x, i=idx: x[i]
            if value == "sum":
                self.take("op", "(")
                inner = self.expr()
                self.take("op", ")")
                return lambda x: np.sum(inner(x))
            if value == "pow":
                self.take("op", "(")
                base = self.expr()
                self.take("op", ",")
                expo = self.expr()
                self.take("op", ")")
                return lambda x: base(x) ** expo(x)
            if value in _FUNCS:
                fn = _FUNCS[value]
                self.take("op", "(")
                inner = self.expr()
                self.take("op", ")")
                return lambda x: fn(inner(x))
            raise DomainError(f"unknown identifier {value!r}")
        raise DomainError(f"unexpected token {self.peek()}")


def compile_expression(text: str, dim: int):
    """Compile the expression text into a callable of a length-``dim`` vector.

    Coordinates beyond x<dim> are rejected here; the callable raises if
    the expression does not reduce to a scalar.
    """
    node = _Parser(_tokenize(text), dim).parse()

    def fun(x):
        out = node(np.asarray(x, dtype=float))
        out = np.asarray(out, dtype=float)
        if out.ndim != 0:
            raise DomainError(
                "expression must evaluate to a scalar; wrap vector terms in sum(...)"
            )
        return float(out)

    return fun
