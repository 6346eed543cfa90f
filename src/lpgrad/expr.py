"""A small arithmetic grammar for user-supplied smooth objectives.

+ - * / ^ (or pow(a, b)), sin, cos, exp, sum, numeric literals, the vector
``x`` and coordinates ``x1`` ... ``xd``, elementwise; ``sum`` reduces a vector
and the result must be a scalar. The callable takes a point ``(d,)`` or rows
``(N, d)``; scalar terms keep a length-1 last axis, so they broadcast against
``x`` row by row. Constant subexpressions fold at compile time.

Python's ``ast`` parses the text and one walker accepts only this grammar's
nodes. ``^`` is rewritten to ``**`` first, because in Python ``^`` is XOR;
so a literal ``**`` or ``//`` is rejected. As ``ast`` nests a chain of n
terms n levels deep, the text is first cut at its top-level ``+ -``, then
``* /`` signs (found with ``tokenize``), so such a chain may be of any length.
"""
from __future__ import annotations

import ast
import io
import operator
import re
import tokenize
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["compile_expression"]

_MAX_DEPTH = 50  # nesting of calls, powers, unary minus and parenthesized chains
_CHARS = re.compile(r"[0-9A-Za-z_.()+\-*/^, ]*")
_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")  # Python rejects 01; the grammar reads 1
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
    """``text`` quoted for an error message, with ``^`` for the ``**`` it was
    rewritten to, and cut to its head and tail when long."""
    text = text.replace("**", "^")
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


def _compile(text: str, dim: int, depth: int = 0, signs: tuple = ("+", "-", "*", "/")) -> _Node:
    """``text`` cut at its binary ``signs[:2]`` outside parentheses (binary: after
    an operand), each piece compiled with ``signs[2:]`` and folded left to right,
    the constant prefix now as _apply folds it and the rest in one loop. With no
    signs left, ``text`` is one factor, parsed by ``ast``."""
    if not signs:
        try:
            tree = ast.parse(text, mode="eval")
        except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
            raise DomainError(f"cannot parse {_quote(text)}: {exc}") from None
        return _walk(tree.body, text, dim, depth)
    bounds, ops, parens, after_operand = [0], [None], 0, False
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.string in signs[:2] and parens == 0 and after_operand:
                bounds += [tok.start[1], tok.end[1]]
                ops.append(_OPS[tok.string])
            parens += (tok.string == "(") - (tok.string == ")")
            after_operand = tok.type in (tokenize.NAME, tokenize.NUMBER) or tok.string == ")"
    except tokenize.TokenError:
        raise DomainError(f"unbalanced parentheses in {_quote(text)}") from None
    nodes = [_compile(text[a:b].strip(), dim, depth, signs[2:])
             for a, b in zip(bounds[::2], bounds[1::2] + [len(text)])]
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


def _walk(node: ast.AST, text: str, dim: int, depth: int) -> _Node:
    """The compiled node of one grammar node of ``text``; any other node is an error."""
    if depth > _MAX_DEPTH:
        raise DomainError(f"expression nests deeper than {_MAX_DEPTH} levels")
    segment = text[node.col_offset:node.end_col_offset]  # the text is one ASCII line
    sub = lambda child: _walk(child, text, dim, depth + 1)  # noqa: E731
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        return _compile(segment, dim, depth + 1)  # a parenthesized chain, cut like the whole text
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _power(sub(node.left), sub(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _apply(operator.neg, sub(node.operand))
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        return _apply(lambda: np.float64(segment))  # folded; numpy scalars give inf as x does
    if isinstance(node, ast.Name) and re.fullmatch(r"x\d*", node.id):
        if node.id == "x":
            return _Node(lambda x: x, vector=True)
        digits = node.id[1:].lstrip("0")
        i = int(digits) if 0 < len(digits) <= 18 else 0  # more than 18 digits exceeds any d
        if not 1 <= i <= dim:
            raise DomainError(f"coordinate {_quote(node.id)} is out of range for d={dim}; x1 is the first")
        return _Node(lambda x: x[..., i - 1:i])
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("pow", "sum", *_FUNCS):
        name, args = node.func.id, node.args
        # one argument, or two for pow; no keywords, (sin)(x) or trailing comma
        if (len(args) != 1 + (name == "pow") or node.keywords or node.func.col_offset != node.col_offset
                or "," in text[args[-1].end_col_offset:node.end_col_offset]):
            raise DomainError(f"wrong arguments in {_quote(segment)}")
        args = [sub(arg) for arg in args]
        if name == "sum":  # the sum of one number is that number
            return args[0] if args[0].value is not None else _Node(
                lambda x, f=args[0].fn: np.sum(f(x), axis=-1, keepdims=True))
        return _power(*args) if name == "pow" else _apply(_FUNCS[name], *args)
    raise DomainError(f"{_quote(segment)} is not in the expression grammar")


def compile_expression(text: str, dim: int):
    """A callable of a point ``(dim,)``, returning a float, or of rows ``(N, dim)``,
    returning ``(N,)``. Raises if the expression does not reduce to a scalar."""
    text = " ".join(text.split())
    if "**" in text or "//" in text:
        raise DomainError("** and // are not in the expression grammar; use ^ and /")
    if not _CHARS.fullmatch(text):
        raise DomainError(f"{_quote(text)} has a character outside the expression grammar")
    node = _compile(_LEADING_ZEROS.sub("", text).replace("^", "**"), dim)
    if node.vector:
        raise DomainError("expression must evaluate to a scalar; wrap vector terms in sum(...)")

    def fun(x):
        x = np.asarray(x, dtype=float)
        out = node.fn(x)[..., 0] if node.value is None else np.full(x.shape[:-1], node.value)
        return float(out) if out.ndim == 0 else out

    return fun
