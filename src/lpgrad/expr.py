"""A small arithmetic grammar for user-supplied smooth objectives.

One recursive-descent reader takes the regex tokens of the text through
exactly ``sum := product {+|- product}``, ``product := factor {*|/ factor}``,
``factor := - factor | atom [^ factor]`` and ``atom := number | x | xK | (sum)
| name(sum, ...)`` (sin, cos, exp, sum, pow). Chains are loops, of any length;
calls, ``^``, unary minus and parentheses each nest one level, at most
``_MAX_DEPTH``. The callable takes a point ``(d,)`` or rows ``(N, d)``; scalar
terms keep a length-1 last axis, so they broadcast against ``x`` row by row.
"""
from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["compile_expression"]

_MAX_DEPTH = 50  # nesting of calls, powers, unary minus and parentheses
_CHARS = re.compile(r"[0-9A-Za-z_.()+\-*/^, ]*")
_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_TOKEN = re.compile(rf"{_NUMBER.pattern}|\w+|\S")
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


@dataclass(frozen=True)
class _Node:
    """A compiled subexpression. ``fn`` maps x ``(..., d)`` to ``(..., d)`` for a
    vector and to ``(..., 1)`` for a scalar; a constant carries its ``value``."""

    fn: Callable
    vector: bool = False
    value: np.float64 | None = None


def _quote(text: str) -> str:
    """``text`` quoted for an error message, cut to its head and tail when long."""
    return repr(text if len(text) <= 60 else f"{text[:30]} ... {text[-25:]}")


def _apply(op, *args: _Node) -> _Node:
    """``op`` of the argument nodes, folded now when every argument is constant."""
    if all(a.value is not None for a in args):
        with np.errstate(all="ignore"):  # 1/0 folds to inf, rejected when called
            value = op(*(a.value for a in args))
        return _Node(lambda x: value, value=value)
    fns = [a.fn for a in args]
    return _Node(lambda x: op(*[f(x) for f in fns]), any(a.vector for a in args))


def _power(base: _Node, expo: _Node) -> _Node:
    """libm pow on scalar terms, as numpy scalars use; array ``**`` can differ in the last bit."""
    return _apply(operator.pow if base.vector or expo.vector else np.float_power, base, expo)


class _Reader:
    """The tokens of ``text``, read once; each method reads one rule of the grammar."""

    def __init__(self, text: str, dim: int):
        found = list(_TOKEN.finditer(text))
        self.tokens = [m.group() for m in found] + [""]  # "" is the end
        self.columns = [m.start() + 1 for m in found] + [len(text) + 1]
        self.text, self.dim, self.pos = text, dim, 0
        self.open_after = list(itertools.accumulate((tok == "(") - (tok == ")") for tok in self.tokens))
        if min(self.open_after) < 0 or self.open_after[-1]:
            raise DomainError(f"unbalanced parentheses in {_quote(text)}")

    def take(self, tok: str) -> bool:
        """Step past the next token if it is ``tok``."""
        found = self.tokens[self.pos] == tok
        self.pos += found
        return found

    def fail(self):
        raise DomainError(f"{_quote(self.text)} is not in the expression grammar at column {self.columns[self.pos]}")

    def chain(self, depth: int, signs: tuple = ("+", "-", "*", "/")) -> _Node:
        """A chain of ``signs[:2]`` over chains of ``signs[2:]`` or, with none left, factors,
        folded left to right: the constant prefix now, the rest in one loop."""
        read = (lambda: self.chain(depth, signs[2:])) if signs[2:] else (lambda: self.factor(depth))
        nodes, ops = [read()], [None]
        while self.tokens[self.pos] in signs[:2]:
            ops.append(_OPS[self.tokens[self.pos]])
            self.pos += 1
            nodes.append(read())
        head, k = nodes[0], 1
        while k < len(nodes) and head.value is not None:
            head, k = _apply(ops[k], head, nodes[k]), k + 1
        rest = [(op, node.fn) for op, node in zip(ops[k:], nodes[k:])]

        def fn(x):
            value = head.fn(x)
            for op, f in rest:
                value = op(value, f(x))
            return value

        return _Node(fn, any(node.vector for node in nodes)) if rest else head

    def factor(self, depth: int) -> _Node:
        """``- factor`` or ``atom [^ factor]``; each operand is one level deeper."""
        minus = self.take("-")
        k = self.pos if self.tokens[self.pos] in ("(", "") else self.pos + 1  # the atom's "(", if any
        if self.tokens[k] == "(":  # the atom ends at the ")" that closes it
            k = self.open_after.index(self.open_after[k] - 1, k) + 1
        power = not minus and self.tokens[k] == "^"
        if depth + power > _MAX_DEPTH:
            raise DomainError(f"expression nests deeper than {_MAX_DEPTH} levels")
        if minus:
            return _apply(operator.neg, self.factor(depth + 1))
        base = self.atom(depth + power)
        return _power(base, self.factor(depth + 1)) if self.take("^") else base

    def atom(self, depth: int) -> _Node:
        """A number, ``x``, ``xK``, ``(sum)`` or a call; the chain in parentheses
        and each argument of a call are one level deeper."""
        tok, column = self.tokens[self.pos], self.columns[self.pos]
        self.pos += 1
        if tok == "(" or tok in ("pow", "sum", *_FUNCS) and self.take("("):
            args = [self.chain(depth + 1)]
            while self.take(","):
                args.append(self.chain(depth + 1))
            self.take(")") or self.fail()
            if len(args) != 1 + (tok == "pow"):
                raise DomainError(f"wrong arguments in {_quote(self.text[column - 1:self.columns[self.pos - 1]])}")
            if tok == "(" or tok == "sum" and args[0].value is not None:
                return args[0]  # a chain in parentheses, or the sum of one number
            if tok == "sum":
                return _Node(lambda x, f=args[0].fn: np.sum(f(x), axis=-1, keepdims=True))
            return _power(*args) if tok == "pow" else _apply(_FUNCS[tok], *args)
        if _NUMBER.fullmatch(tok):
            return _apply(lambda: np.float64(tok))  # folded; numpy scalars give inf as x does
        if tok == "x":
            return _Node(lambda x: x, vector=True)
        if re.fullmatch(r"x\d+", tok):
            digits = tok[1:].lstrip("0")
            i = int(digits) if 0 < len(digits) <= 18 else 0  # more than 18 digits exceeds any d
            if not 1 <= i <= self.dim:
                raise DomainError(f"coordinate {_quote(tok)} is out of range for d={self.dim}; x1 is the first")
            return _Node(lambda x: x[..., i - 1:i])
        self.pos -= 1
        self.fail()


def compile_expression(text: str, dim: int):
    """A callable of a point ``(dim,)``, returning a float, or of rows ``(N, dim)``,
    returning ``(N,)``. Raises if the expression does not reduce to a scalar."""
    text = " ".join(text.split())
    if not _CHARS.fullmatch(text):
        raise DomainError(f"{_quote(text)} has a character outside the expression grammar")
    reader = _Reader(text, dim)
    node = reader.chain(0)
    reader.take("") or reader.fail()  # a token left over is not in the grammar
    if node.vector:
        raise DomainError("expression must evaluate to a scalar; wrap vector terms in sum(...)")

    def fun(x):
        x = np.asarray(x, dtype=float)
        out = node.fn(x)[..., 0] if node.value is None else np.full(x.shape[:-1], node.value)
        return float(out) if out.ndim == 0 else out

    return fun
