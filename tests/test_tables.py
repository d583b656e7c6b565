"""Tabulated weights: exact antiderivatives, partial losses and canonical links.

The reference below integrates the piecewise-linear interpolant of a table in
exact rational arithmetic, with np.interp's conventions written out: rows are
sorted by ``c`` keeping the order of equal ``c``, ``w`` is flat beyond the end
knots, and between two neighbouring rows it is the line through them, so a
repeated ``c`` is a jump.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cploss.links import canonical_link
from cploss.proper import from_weight, schervish_check
from cploss.weights import WeightFunction, catalog_weight, normalize_weight, tabulated_weight

CHECK_GRID = (0.1, 0.2, 0.3, 0.4, 0.45, 0.55, 0.6, 0.7, 0.8, 0.9)


def _moment(rows, p0, p1, lo, hi) -> Fraction:
    """Exact integral of (p0 + p1 c) w(c) from lo to hi (negative when hi < lo)."""
    if hi < lo:
        return -_moment(rows, p0, p1, hi, lo)
    rows = sorted(((Fraction(c), Fraction(y)) for c, y in rows), key=lambda r: r[0])
    (c_first, y_first), (c_last, y_last) = rows[0], rows[-1]
    # (a, b, alpha, beta): w(c) = alpha + beta c on [a, b]
    pieces = [(min(lo, c_first), c_first, y_first, Fraction(0)),
              (c_last, max(hi, c_last), y_last, Fraction(0))]
    for (a, ya), (b, yb) in zip(rows, rows[1:]):
        if a < b:
            beta = (yb - ya) / (b - a)
            pieces.append((a, b, ya - beta * a, beta))
    total = Fraction(0)
    for a, b, alpha, beta in pieces:
        a, b = max(a, lo), min(b, hi)
        if a < b:
            coef = (p0 * alpha, p0 * beta + p1 * alpha, p1 * beta)
            total += sum(coef[k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k in range(3))
    return total


def _W_ref(rows, a, x) -> float:
    """W(x) - W(a)."""
    return float(_moment(rows, 1, 0, Fraction(a), Fraction(x)))


def _Wbar_ref(rows, a, x) -> float:
    """Wbar(x) - Wbar(a) - (x - a) W(a), the integral of (x - t) w(t) from a to x."""
    a, x = Fraction(a), Fraction(x)
    return float(_moment(rows, x, -1, a, x))


def _tolerance(rows) -> float:
    cs = [c for c, _ in rows] + [0.0, 1.0]
    wmax = max([1.0] + [y for _, y in rows])
    return 1e-12 * wmax * (1.0 + max(cs) - min(cs)) ** 2


# knots anywhere, on the check grid, and within 1.5 check steps of it
_knot = st.one_of(st.floats(-0.5, 1.5), st.sampled_from(CHECK_GRID + (0.0, 0.5, 1.0)),
                  st.builds(lambda g, d: g + d, st.sampled_from(CHECK_GRID),
                            st.floats(-1.5e-5, 1.5e-5)))


def _tables(w_min):
    return st.lists(st.tuples(_knot, st.floats(w_min, 50.0)), min_size=2, max_size=60)


_points = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).map(
    lambda xs: np.array(xs + [0.0, 0.3, 0.5, 1.0]))


@settings(max_examples=80, deadline=None)
@given(_tables(0.0), _points)
def test_antiderivatives_match_exact_integrals(rows, xs):
    wf = tabulated_weight(rows)
    tol = _tolerance(rows)
    W, Wbar = wf.W(xs), wf.Wbar(xs)
    W_half, Wbar_half = float(wf.W(0.5)), float(wf.Wbar(0.5))
    for x, Wx, Wbarx in zip(xs, W, Wbar):
        assert abs((Wx - W_half) - _W_ref(rows, 0.5, x)) <= tol
        got = Wbarx - Wbar_half - (x - 0.5) * W_half
        assert abs(got - _Wbar_ref(rows, 0.5, x)) <= tol


@settings(max_examples=80, deadline=None)
@given(_tables(0.0), _points)
def test_partials_match_exact_integrals(rows, es):
    loss = from_weight(tabulated_weight(rows))
    tol = _tolerance(rows)
    for e, pos, neg in zip(es, loss.ell_pos(es), loss.ell_neg(es)):
        assert abs(pos - float(_moment(rows, 1, -1, Fraction(e), Fraction(1)))) <= tol
        assert abs(neg - float(_moment(rows, 0, 1, Fraction(0), Fraction(e)))) <= tol


@settings(max_examples=80, deadline=None)
@given(_tables(0.01), st.lists(st.floats(1e-3, 1.0 - 1e-3), min_size=1, max_size=8))
def test_canonical_psi_matches_exact_integral_and_inverts(rows, xs):
    link = canonical_link(tabulated_weight(rows))
    xs = np.array(xs + [0.1, 0.5, 0.9])
    psi = link.psi(xs)
    tol = _tolerance(rows)
    for x, v in zip(xs, psi):
        assert abs(v - _W_ref(rows, 0.5, x)) <= tol
    assert np.all(np.abs(link.q(psi) - xs) <= 1e-11)


def test_repeated_knot_on_the_check_grid_is_a_jump():
    rows = [[0.1, 1.0], [0.3, 1.0], [0.3, 5.0], [0.9, 5.0]]
    wf = tabulated_weight(rows)
    assert float(wf.w(0.2)) == 1.0 and float(wf.w(0.5)) == 5.0
    assert float(wf.W(0.5) - wf.W(0.2)) == pytest.approx(0.1 * 1.0 + 0.2 * 5.0, rel=1e-13)


# a jump inside a check interval [x - 1e-5, x + 1e-5], off its centre: midway,
# and between the outermost quadrature node of the interval and its end
@pytest.mark.parametrize("knot", [0.3 + 5e-6, 0.3 - 3e-6, 0.3 + 1e-5 - 1e-9, 0.9 - 1e-5 + 1e-12,
                                  0.9 + 1e-5])
@pytest.mark.parametrize("low, high", [(1.0, 5.0), (0.0, 1e6), (1e4, 0.0)])
def test_jump_near_a_check_point_is_accepted(knot, low, high):
    rows = [[0.1, low], [knot, low], [knot, high], [0.95, high]]
    wf = tabulated_weight(rows)
    xs = np.array([0.2, knot - 2e-6, knot, knot + 2e-6, 0.5])
    tol = _tolerance(rows)
    W_half, Wbar_half = float(wf.W(0.5)), float(wf.Wbar(0.5))
    for x, Wx, Wbarx in zip(xs, wf.W(xs), wf.Wbar(xs)):
        assert abs((Wx - W_half) - _W_ref(rows, 0.5, x)) <= tol
        assert abs(Wbarx - Wbar_half - (x - 0.5) * W_half - _Wbar_ref(rows, 0.5, x)) <= tol
    if float(wf.w(0.5)) > 0:   # the scaled copy keeps the knots for its checks
        assert normalize_weight(wf).knots == wf.knots


def test_unsorted_rows_give_the_sorted_table():
    rows = [[0.7, 2.0], [0.1, 1.0], [0.4, 3.0]]
    xs = np.linspace(0.0, 1.0, 11)
    a, b = tabulated_weight(rows), tabulated_weight(sorted(rows))
    for f in ("w", "W", "Wbar"):
        assert np.array_equal(getattr(a, f)(xs), getattr(b, f)(xs))


@pytest.mark.parametrize("rows", [[[np.nan, 1.0], [0.8, 1.0]], [[0.2, 1.0], [np.inf, 1.0]],
                                  [[0.2, np.nan], [0.8, 1.0]], [[0.2, 1.0], [0.8, -np.inf]]])
def test_non_finite_table_entries_are_rejected(rows):
    with pytest.raises(ValueError, match="finite"):
        tabulated_weight(rows)


def _library_table(n):
    """The 5-, 10- and 50-knot tables of the benchmark's synthesis study."""
    rng = np.random.default_rng([20091217, n])
    cs = np.array([0.1, 0.3, 0.5, 0.7, 0.9]) if n == 5 else np.linspace(0.02, 0.98, n)
    return np.column_stack([cs, np.round(rng.uniform(0.5, 2.0, n), 6)])


@pytest.mark.parametrize("n", [5, 10, 50])
def test_schervish_mixture_of_a_table_matches_its_partials(n):
    # quadrature across a knot can miss the kink there by 1e-6 in silence;
    # taken piecewise between the knots, the mixture is exact to rounding
    loss = from_weight(tabulated_weight(_library_table(n)))
    for e in np.linspace(0.02, 0.98, 97):
        for y, partial in ((1, loss.ell_pos), (-1, loss.ell_neg)):
            assert schervish_check(loss, y, e) == pytest.approx(float(partial(e)), rel=1e-11)


class TestAntiderivativeChecks:
    """The construction checks still reject antiderivatives that are off by 1e-5."""

    def test_scaled_W_is_rejected(self):
        log = catalog_weight("log")
        with pytest.raises(ValueError, match="W inconsistent with w"):
            WeightFunction(w=log.w, W=lambda c: (1.0 + 1e-5) * log.W(c), Wbar=log.Wbar)

    def test_scaled_Wbar_is_rejected(self):
        log = catalog_weight("log")
        with pytest.raises(ValueError, match="Wbar inconsistent with W"):
            WeightFunction(w=log.w, W=log.W, Wbar=lambda c: (1.0 + 1e-5) * log.Wbar(c))

    @pytest.mark.parametrize("field, label", [("W", "W inconsistent with w"),
                                              ("Wbar", "Wbar inconsistent with W")])
    def test_scaled_table_antiderivative_is_rejected(self, field, label):
        table = tabulated_weight([[0.1, 1.0], [0.3 + 5e-6, 1.0], [0.3 + 5e-6, 5.0], [0.9, 5.0]])
        fields = {"w": table.w, "W": table.W, "Wbar": table.Wbar, "knots": table.knots}
        fields[field] = lambda c, f=fields[field]: (1.0 + 1e-5) * f(c)
        with pytest.raises(ValueError, match=label):
            WeightFunction(**fields)

    def test_failed_check_integral_is_a_mismatch(self):
        # w is finite on the grid, and W its antiderivative away from the
        # pole just right of 0.3, where w is not integrable
        pole = 0.3 + 1e-6
        w = lambda c: 1.0 / np.abs(c - pole)
        W = lambda c: np.sign(c - pole) * np.log(np.abs(c - pole))
        with pytest.raises(ValueError, match=r"W inconsistent with w for 'pole' at x=0.3$"):
            WeightFunction(w=w, W=W, name="pole")
