"""The README's library quick start runs and gives the values its comments state."""

import ast
import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    return re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S).group(1)


def test_the_quick_start_gives_what_its_comments_state():
    source = _quick_start()
    lines = source.splitlines()
    namespace, values, comments = {}, [], []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
            comments.append(lines[stmt.end_lineno - 1].split("#", 1)[1].strip())
        else:
            exec(compile(ast.Module(body=[stmt], type_ignores=[]), "README", "exec"), namespace)
    assert comments == ["log 2", "binary KL(0.5 || 0.25)", "(-1/2, 1/2)", "False"]
    pos, kl, gradients, convex = values
    assert float(pos) == pytest.approx(math.log(2.0), rel=1e-12)
    assert kl == pytest.approx(0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75), rel=1e-12)
    assert gradients == pytest.approx((-0.5, 0.5), rel=1e-12)
    assert convex is False
