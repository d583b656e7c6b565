"""Safe arithmetic expressions for user-supplied weights and partial losses.

The grammar is deliberately tiny: the binary operators ``+ - * / ^``, unary
minus, the functions ``log exp sqrt min max``, numeric literals, and the
single variable ``c``.  Expressions are parsed with :mod:`ast`, checked
against the grammar once, and compiled to a tree of closures over numpy
ufuncs; anything outside the grammar is rejected.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np

from .links import numeric_inverse
from .numerics import array_fn

__all__ = ["compile_expression", "expression_knots", "ExpressionError"]


class ExpressionError(ValueError):
    """The expression uses something outside the supported grammar."""


_FUNCTIONS = {
    "log": np.log,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "min": np.minimum,
    "max": np.maximum,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def _variable(c):
    return c


def _compile_node(node: ast.AST) -> Callable:
    """Check ``node`` against the grammar and return its closure ``c -> value``.

    Nodes are checked depth first, left to right, so the first construct
    outside the grammar is the one reported.  Nothing is evaluated here.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExpressionError(f"literal {value!r} is not numeric")
        try:
            k = float(value)
        except OverflowError as err:
            raise ExpressionError(f"literal {value!r} is too large") from err
        return lambda c: k
    if isinstance(node, ast.Name):
        if node.id == "c":
            return _variable
        raise ExpressionError(f"unknown variable {node.id!r}; only 'c' is allowed")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile_node(node.operand)
        if isinstance(node.op, ast.UAdd):
            return operand
        return lambda c: -operand(c)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left = _compile_node(node.left)
        right = _compile_node(node.right)
        return lambda c: op(left(c), right(c))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only log, exp, sqrt, min, max calls are allowed")
        if node.keywords:
            raise ExpressionError("keyword arguments are not allowed")
        args = [_compile_node(a) for a in node.args]
        fn = _FUNCTIONS[node.func.id]
        if node.func.id in ("min", "max"):
            if len(args) != 2:
                raise ExpressionError(f"{node.func.id} takes exactly two arguments")
            first, second = args
            return lambda c: fn(first(c), second(c))
        if len(args) != 1:
            raise ExpressionError(f"{node.func.id} takes exactly one argument")
        (arg,) = args
        return lambda c: fn(arg(c))
    raise ExpressionError(f"unsupported syntax: {ast.dump(node)}")


def compile_expression(source: str) -> Callable:
    """Compile an expression in the variable ``c`` to a vectorised callable.

    The expression is parsed and checked against the grammar once, here, and
    compiled to nested closures that apply the numpy ufuncs in the order the
    expression is written; a call runs those closures and nothing else,
    under the contract of :func:`~cploss.numerics.array_fn`.  Nothing is
    evaluated at compile time.  The result has the shape of ``c``, also for
    a constant expression.
    """
    if not isinstance(source, str):
        raise ExpressionError(f"expression must be a string, not {type(source).__name__}")
    text = source.replace("^", "**")
    try:
        body = _compile_node(ast.parse(text, mode="eval").body)
    except SyntaxError as err:
        raise ExpressionError(f"cannot parse expression {source!r}: {err}") from err
    except (RecursionError, MemoryError) as err:
        # the parser and the compiler both recurse once per nesting level
        raise ExpressionError("expression is nested too deeply") from err

    fn = array_fn(lambda c: body(c) + np.zeros_like(c))
    fn.__doc__ = f"expression: {source}"
    return fn


def expression_knots(source: str) -> tuple[float, ...]:
    """The kinks of ``source`` at its ``min`` and ``max``, sorted: for each
    ``min(a, b)`` or ``max(a, b)``, the isolated zeros of the switch ``a - b``
    on the grid ``k/1024`` with the graded ends ``2^-k`` and ``1 - 2^-k``
    (k = 11..40), and its sign changes there, each solved between its two grid
    points by :func:`~cploss.links.numeric_inverse` to the machine epsilon.
    Values that are not finite are left out, and a switch that is 0
    throughout gives none.  Other kinks, as in ``sqrt((c-0.5)^2)``, are not found."""
    compile_expression(source)   # the grammar check, and its errors
    ends = 2.0 ** -np.arange(40, 10, -1)
    knots, grid = set(), np.concatenate([ends, np.arange(1, 1024) / 1024.0, 1.0 - ends[::-1]])
    for node in ast.walk(ast.parse(source.replace("^", "**"), mode="eval")):
        if isinstance(node, ast.Call) and node.func.id in ("min", "max"):
            first, second = map(_compile_node, node.args)
            switch = array_fn(lambda c: first(c) - second(c) + np.zeros_like(c))
            d = switch(grid)
            x, d = grid[np.isfinite(d)], d[np.isfinite(d)]
            zero = np.concatenate([[False], d == 0, [False]])
            knots.update(x[zero[1:-1] & ~zero[:-2] & ~zero[2:]].tolist())
            for i in np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0):
                rise = lambda c, sign=np.sign(d[i + 1]): sign * switch(c)
                knots.add(float(numeric_inverse(rise, np.finfo(float).eps, (x[i], x[i + 1]))(0.0)))
    return tuple(sorted(knots))
