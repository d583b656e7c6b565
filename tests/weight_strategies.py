"""Hypothesis generators of weights shared by the property tests."""

from hypothesis import strategies as st

from cploss.expressions import compile_expression

# Exponents (a, b) of the Beta family c^(a-1) (1-c)^(b-1) (Buja, Stuetzle &
# Shen 2005), down to the strong ends of a, b = -0.9.
BETA_EXPONENTS = (st.floats(-0.9, 3.0), st.floats(-0.9, 3.0))


def beta_expression(a: float, b: float):
    """The compiled expression weight ``c^(a-1) (1-c)^(b-1)``."""
    return compile_expression(f"c^({a - 1})*(1-c)^({b - 1})")
