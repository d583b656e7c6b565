"""The expression grammar, the shapes of compiled values, and a tree-walk oracle.

The oracle is a direct recursive evaluator over the parsed tree, kept here
and sharing no code with the compiler: for every expression the compiled
callable must give the same bytes.
"""

import ast
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cploss import expressions
from cploss.expressions import ExpressionError, compile_expression

_REF_FUNCTIONS = {"log": np.log, "exp": np.exp, "sqrt": np.sqrt,
                  "min": np.minimum, "max": np.maximum}
_REF_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
               ast.Div: np.divide, ast.Pow: np.power}


def _ref_node(node, c):
    if isinstance(node, ast.Expression):
        return _ref_node(node.body, c)
    if isinstance(node, ast.Constant):
        return float(node.value)
    if isinstance(node, ast.Name):
        return c
    if isinstance(node, ast.UnaryOp):
        val = _ref_node(node.operand, c)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp):
        return _REF_BINOPS[type(node.op)](_ref_node(node.left, c), _ref_node(node.right, c))
    args = [_ref_node(a, c) for a in node.args]
    return _REF_FUNCTIONS[node.func.id](*args)


def reference(source, c):
    """Walk the parsed tree on every call, as a direct interpreter would."""
    tree = ast.parse(source.replace("^", "**"), mode="eval")
    x = np.asarray(c, dtype=float)
    with np.errstate(all="ignore"):
        out = _ref_node(tree, x)
    return np.asarray(out, dtype=float) + np.zeros_like(x)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


C = np.array([0.0, 0.25, 0.5, 0.75, 1.0])

ACCEPTED = [
    ("2", lambda c: np.full_like(c, 2.0)),
    ("2.5", lambda c: np.full_like(c, 2.5)),
    ("1e-3", lambda c: np.full_like(c, 1e-3)),
    ("c", lambda c: c),
    ("c+1", lambda c: c + 1.0),
    ("c-1", lambda c: c - 1.0),
    ("3*c", lambda c: 3.0 * c),
    ("c/4", lambda c: c / 4.0),
    ("c^3", lambda c: c ** 3.0),
    ("c**3", lambda c: c ** 3.0),
    ("-c", lambda c: -c + 0.0),  # the final broadcast turns -0.0 into +0.0
    ("+c", lambda c: c),
    ("--c", lambda c: c),
    ("log(1+c)", lambda c: np.log(1.0 + c)),
    ("exp(c)", np.exp),
    ("sqrt(c)", np.sqrt),
    ("min(c, 0.5)", lambda c: np.minimum(c, 0.5)),
    ("max(c, 0.5)", lambda c: np.maximum(c, 0.5)),
    ("(1-c)*c", lambda c: (1.0 - c) * c),
    ("2^-1*c", lambda c: 0.5 * c),
]


class TestGrammar:
    @pytest.mark.parametrize("source,expected", ACCEPTED, ids=[s for s, _ in ACCEPTED])
    def test_accepted(self, source, expected):
        assert same_bytes(compile_expression(source)(C), expected(C))

    @pytest.mark.parametrize("source", [
        "x", "C", "pi", "c.real", "np.log(c)", "c[0]", "c < 1", "c == c", "0 < c < 1",
        "True", "False", "True+c", "c*False", "'c'", "b'c'", "1j", "c+2j", "None", "...",
        "not c", "~c", "c % 2", "c // 2", "c @ c", "c and 1", "c if c else 1",
        "lambda c: c", "[c]", "(c, c)", "{c}", "f'{c}'", "abs(c)", "log()", "log(c, 2)",
        "min(c)", "max(c, 1, 2)", "sqrt(x=c)", "exp(*c)", "log(c)(c)", "",
        "import os", "c = 1", pytest.param("1" + "0" * 400, id="huge-int"),
    ])
    def test_rejected(self, source):
        with pytest.raises(ExpressionError):
            compile_expression(source)

    def test_bool_literals_are_not_numbers(self):
        with pytest.raises(ExpressionError, match="literal True is not numeric"):
            compile_expression("True+c")

    def test_first_construct_outside_the_grammar_is_reported(self):
        with pytest.raises(ExpressionError, match="unknown variable 'x'"):
            compile_expression("min(x)")
        with pytest.raises(ExpressionError, match="min takes exactly two arguments"):
            compile_expression("min(c)")

    @pytest.mark.parametrize("source", [3, 1.5, None, ["c"]])
    def test_source_must_be_a_string(self, source):
        with pytest.raises(ExpressionError, match="must be a string"):
            compile_expression(source)

    def test_deep_nesting_is_an_expression_error(self):
        with pytest.raises(ExpressionError):
            compile_expression("+".join(["c"] * 3000))


class TestShapes:
    @pytest.mark.parametrize("c", [0.3, np.asarray(0.3), np.linspace(0.1, 0.9, 7),
                                   np.linspace(0.1, 0.9, 6).reshape(2, 3)])
    @pytest.mark.parametrize("source", ["c*(1-c)", "2", "max(1, 3)"])
    def test_float_output_of_the_input_shape(self, c, source):
        out = compile_expression(source)(c)
        assert np.shape(out) == np.shape(c)
        assert np.asarray(out).dtype == np.float64

    def test_constant_broadcasts_to_the_input(self):
        out = compile_expression("2.5")(np.zeros((2, 3)))
        assert out.shape == (2, 3)
        assert np.all(out == 2.5)


class TestEvaluation:
    def test_compiling_evaluates_nothing_and_emits_no_warning(self, monkeypatch):
        calls = []

        def counting_log(x):
            calls.append(np.shape(x))
            return np.log(x)

        monkeypatch.setitem(expressions._FUNCTIONS, "log", counting_log)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fn = compile_expression("-log(c)+0*log(c-0.5)")
            assert calls == []
            out = fn(np.array([0.25, 0.75]))
        assert calls == [(2,), (2,)]
        assert np.isnan(out[0]) and np.isfinite(out[1])

    def test_beta_weight_matches_the_reference(self):
        xs = np.linspace(0.0, 1.0, 101)
        for a, b in [(0.5, 0.5), (0.0, 0.0), (-0.5, -0.5), (2.0, 3.0)]:
            source = f"c^({a - 1:g})*(1-c)^({b - 1:g})"
            assert same_bytes(compile_expression(source)(xs), reference(source, xs))


# -- property: compiled == tree walk, bitwise ------------------------------------

_numbers = st.one_of(
    st.integers(min_value=0, max_value=1000).map(str),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(repr),
    st.sampled_from(["0.5", "1e-300", "1e300", "2.5e-3"]),
)
_leaves = st.one_of(st.just("c"), _numbers)


def _extend(children):
    binop = st.tuples(children, st.sampled_from(["+", "-", "*", "/", "^", "**"]), children)
    return st.one_of(
        binop.map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(st.sampled_from(["-", "+"]), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["log", "exp", "sqrt"]), children)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["min", "max"]), children, children)
        .map(lambda t: f"{t[0]}({t[1]}, {t[2]})"),
    )


_expressions = st.recursive(_leaves, _extend, max_leaves=12)
_PROBE_POINTS = np.array([-2.0, -0.0, 0.0, 1e-300, 0.1, 0.5, 0.9, 1.0, 3.0, 1e300,
                          np.inf, -np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(_expressions)
def test_compiled_values_equal_the_tree_walk_bitwise(source):
    fn = compile_expression(source)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (_PROBE_POINTS, _PROBE_POINTS.reshape(13, 1), np.asarray(0.5), 0.25):
            assert same_bytes(fn(c), reference(source, c)), source
