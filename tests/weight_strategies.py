"""Hypothesis generators of weights shared by the property tests."""

from hypothesis import strategies as st

from cploss.expressions import compile_expression

# Exponents (a, b) of the Beta family c^(a-1) (1-c)^(b-1) (Buja, Stuetzle &
# Shen 2005), down to the strong ends of a, b = -0.9.
BETA_EXPONENTS = (st.floats(-0.9, 3.0), st.floats(-0.9, 3.0))

# min(B1, B2) or max(B1, B2) of two Beta members, as ("min" or "max", a1, b1,
# a2, b2): kinked where the two cross.  With a, b > -1 both partials of
# either are finite on (0, 1).
BETA_ENVELOPES = st.tuples(st.sampled_from(("min", "max")), *BETA_EXPONENTS, *BETA_EXPONENTS)


def beta_source(a: float, b: float) -> str:
    """The expression ``c^(a-1) (1-c)^(b-1)``."""
    return f"c^({a - 1})*(1-c)^({b - 1})"


def beta_expression(a: float, b: float):
    """The compiled expression weight ``c^(a-1) (1-c)^(b-1)``."""
    return compile_expression(beta_source(a, b))
