"""Quadrature, antiderivatives, minimisation, Lambert W and finite differences.

Independent oracles: a fixed-grid composite Gauss-Legendre rule for the
integrals and scipy for the transcendental functions.
"""

import gc
import math
import re
import weakref
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar as scipy_minimize

import cploss
from cploss import numerics
from cploss.expressions import compile_expression
from cploss.links import _MESH
from cploss.numerics import (
    IntegrationError,
    NumericsError,
    QuadratureSpec,
    antiderivative,
    finite_diff,
    integrate,
    lambert_w0,
    minimize_scalar,
)
from weight_strategies import BETA_EXPONENTS, beta_expression


def gauss_legendre_fixed(f, a, b, panels=256, order=20):
    """Independent high-order fixed-grid rule (no adaptivity shared with integrate)."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        xs = 0.5 * (lo + hi) + half * nodes
        total += half * float(weights @ np.asarray(f(xs), dtype=float))
    return total


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: np.ones_like(x), 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_monomial(self):
        assert integrate(lambda x: x ** 2, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-13)

    def test_full_risk_integrand_vs_fixed_grid_oracle(self):
        # the slope-2/3 linear-predictor risk integrand; integrable log
        # singularity in the derivative at the left endpoint
        def f(x):
            return x * x * (x * (2 / 3) - 1.0 - np.log((2 / 3) * x)) + (1 - x * x) * (2 / 3) * x

        got = integrate(f, 0.0, 1.0)
        oracle = gauss_legendre_fixed(f, 1e-12, 1.0)
        assert got == pytest.approx(oracle, abs=1e-8)
        # frozen closed form: 1/9 + log(3/2)/3
        assert got == pytest.approx(1 / 9 + math.log(1.5) / 3, abs=1e-11)

    def test_log_endpoint_singularity(self):
        assert integrate(lambda x: np.log(x), 0.0, 1.0) == pytest.approx(-1.0, abs=1e-10)

    def test_linearity_on_random_polynomials(self):
        rng = np.random.default_rng(20240817)
        for _ in range(20):
            cf = rng.uniform(-2, 2, size=rng.integers(2, 7))
            cg = rng.uniform(-2, 2, size=rng.integers(2, 7))
            a, b = rng.uniform(-3, 3, size=2)
            f = np.polynomial.Polynomial(cf)
            g = np.polynomial.Polynomial(cg)
            lhs = integrate(lambda x: a * f(x) + b * g(x), 0.0, 1.0)
            rhs = a * integrate(f, 0.0, 1.0) + b * integrate(g, 0.0, 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_interval_additivity(self):
        rng = np.random.default_rng(7)
        f = lambda x: np.sin(3 * x) + x ** 3
        for _ in range(10):
            c = float(rng.uniform(0.05, 0.95))
            whole = integrate(f, 0.0, 1.0)
            split = integrate(f, 0.0, c) + integrate(f, c, 1.0)
            assert whole == pytest.approx(split, abs=1e-9)

    def test_reversed_bounds_rejected(self):
        with pytest.raises(NumericsError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_nan_integrand_is_hard_error(self):
        with pytest.raises(NumericsError):
            integrate(lambda x: np.where(x > 0.3, np.nan, 1.0), 0.0, 1.0)

    def test_depth_exhaustion_carries_partial_estimate(self):
        # every annulus of 1/x next to 0 holds log 2, so no tail is taken and
        # the end panel is split until it is 60 bisections deep
        with pytest.raises(IntegrationError, match="depth 60") as exc:
            integrate(lambda x: 1.0 / x, 0.0, 1.0)
        assert math.isfinite(exc.value.estimate)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=-1e-10)


def _within(got, want):
    """|got - want| in units of the default tolerance of integrate."""
    spec = numerics.DEFAULT_QUADRATURE
    return abs(got - want) / max(spec.abs_tol, spec.rel_tol * abs(want))


class TestEndpoints:
    """Integrals that meet their tolerance or raise, near and at the ends."""

    @pytest.mark.parametrize("p,want", [(0.5, 2.0), (0.9, 10.0)])
    def test_power_singularity_at_an_end_is_exact(self, p, want):
        assert abs(integrate(lambda x: x ** -p, 0.0, 1.0) - want) <= 1e-12

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("d", [10.0 ** -k for k in range(2, 15)])
    def test_singularity_just_beyond_an_end_is_bisected_to_tolerance(self, d, p):
        want = ((1 + d) ** (1 - p) - d ** (1 - p)) / (1 - p)
        assert _within(integrate(lambda x: (x + d) ** -p, 0.0, 1.0), want) <= 10

    @pytest.mark.parametrize("f", [lambda x: 1 / x, lambda x: 1 / (1 - x),
                                   lambda x: (1 - x) ** -2, lambda x: (1 - x) ** -1.2],
                             ids=["1/x", "1/(1-x)", "(1-x)^-2", "(1-x)^-1.2"])
    def test_divergent_integral_raises_integration_error(self, f):
        # the annulus sums of (1-x)^-1.2 grow by 2^0.2 a split; extrapolated
        # anyway they give its analytic continuation, -5
        with pytest.raises(IntegrationError, match="did not converge"):
            integrate(f, 0.0, 1.0)

    def test_logarithmically_divergent_end_raises(self):
        # -log(1-u)/u^2 = 1/u + 1/2 + ...: the annulus sums shrink, but towards
        # log 2, not 0, so the end takes no tail and is bisected until it
        # cannot be split
        with pytest.raises(IntegrationError, match="did not converge"):
            integrate(lambda u: -np.log1p(-u) / u ** 2, 0.0, 0.5)

    @pytest.mark.parametrize("f,want", [
        (lambda x: x ** -0.9 + 2.5, 12.5),
        (lambda x: (1 - x) ** -0.9 + 2.5, 12.5),
        (lambda x: -np.log1p(-x) * (1 - x) ** -0.5 + 1, 5.0),
    ], ids=["x^-0.9+2.5", "(1-x)^-0.9+2.5", "-log(1-x)(1-x)^-0.5+1"])
    def test_singular_end_under_a_smooth_part_is_extrapolated(self, f, want):
        # no single ratio of annulus sums holds here: the ratio of the powers
        # climbs from 0.65 towards 2^-0.1 and the log's settles only as 1/log h
        assert _within(integrate(f, 0.0, 1.0), want) <= 10

    def test_lower_partial_of_a_beta_weight_with_negative_exponents(self):
        # the integrand of from_weight's ell_neg for w = c^-1.9 (1-c)^-1.9 is
        # c^-0.9 (1 + 1.9 c + ...) at 0; its integral is an incomplete beta
        # function B(x; 0.1, -0.9), here through the hypergeometric series
        ell_neg = antiderivative(lambda c: c * c ** -1.9 * (1 - c) ** -1.9, 0.0, ())
        for x in (0.01, 0.1, 0.3, 0.5, 0.9, 0.99):
            want = x ** 0.1 / 0.1 * scipy.special.hyp2f1(0.1, 1.9, 1.1, x)
            assert _within(float(ell_neg(x)), want) <= 10

    def test_singularity_just_beyond_an_end_near_one_raises(self):
        # nodes within 1e-12 of 1 are rounded to 1e-4 of their distance from
        # 1, so no panel rule there can meet the tolerance: no value comes back
        with pytest.raises(IntegrationError):
            integrate(lambda c: 1 / ((1 - c) * c), 0.5, 1 - 1e-12)

    def test_incomplete_beta_integrals_against_scipy(self):
        rng = np.random.default_rng(20261018)
        misses = []
        for _ in range(400):
            a, b = rng.uniform(0.1, 3.0, size=2)
            x = float(rng.uniform(0.001, 0.999))
            f = lambda c, a=a, b=b: c ** (a - 1) * (1 - c) ** (b - 1)
            whole = scipy.special.beta(a, b)
            left = scipy.special.betainc(a, b, x) * whole
            for lo, hi, want in ((0.0, x, left), (x, 1.0, whole - left)):
                misses.append(_within(integrate(f, lo, hi), want))
        assert max(misses) <= 10


def reference_gk15(f, mid, half):
    """One panel, written apart from the library: every value is scanned for
    finiteness first, then each rule's 15 weighted values are added as the
    documented tree, node i with node i + 7 (so the middle node, its weight
    halved, in two pairs) and then the first half of the sums with the second,
    down to one sum."""
    xs = mid + half * numerics._NODES
    ys = np.asarray(f(xs), dtype=float)
    if ys.shape != xs.shape:
        raise NumericsError("integrand must map an ndarray of points to an ndarray")
    if not np.all(np.isfinite(ys)):
        bad = xs[~np.isfinite(ys)][0]
        raise NumericsError(f"integrand returned a non-finite value at x={bad!r}")
    k15, g7 = (half * _tree_sum(weights, ys) for weights in (numerics._KRONROD_W, numerics._GAUSS_W))
    return k15, abs(k15 - g7)


def _tree_sum(weights, ys):
    weights = weights.tolist()
    weights[7] /= 2.0
    terms = [w * y for w, y in zip(weights, ys.tolist())]
    terms = [terms[i] + terms[i + 7] for i in range(8)]
    while len(terms) > 1:
        terms = [x + y for x, y in zip(terms[:len(terms) // 2], terms[len(terms) // 2:])]
    return terms[0]


def reference_panels(f, panels):
    """``numerics._gk15`` through :func:`reference_gk15`, one panel at a time."""
    out = []
    for mid, half in panels:
        try:
            out.append(reference_gk15(f, mid, half))
        except NumericsError as err:
            if "non-finite" not in str(err):
                raise
            out.append(str(err))
    return out


def ones_with(values):
    """An integrand of ones except at the given node indices of each panel."""
    def f(x):
        y = np.ones_like(x)
        for node, value in values.items():
            y[node] = value
        return y
    return f


class TestPanelFiniteness:
    A, B = 0.2, 0.7
    XS = 0.5 * (A + B) + 0.5 * (B - A) * numerics._NODES

    def test_kronrod_weights_are_all_positive(self):
        # the once-per-panel check relies on this: a sum of positive multiples
        # of finite values can only be non-finite by overflow
        assert numerics._KRONROD_W.shape == (15,)
        assert np.all(numerics._KRONROD_W > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("node", range(15))
    def test_bad_value_at_any_node_is_named(self, node, bad):
        f = ones_with({node: bad})
        with pytest.raises(NumericsError) as new:
            integrate(f, self.A, self.B)
        with pytest.raises(NumericsError) as old:
            reference_gk15(f, 0.5 * (self.A + self.B), 0.5 * (self.B - self.A))
        assert str(new.value) == str(old.value)
        assert str(new.value) == f"integrand returned a non-finite value at x={self.XS[node]!r}"

    def test_first_of_several_bad_nodes_is_named(self):
        f = ones_with({3: np.inf, 9: np.nan, 14: np.inf})
        with pytest.raises(NumericsError, match=re.escape(f"x={self.XS[3]!r}")):
            integrate(f, self.A, self.B)

    def test_opposite_infinities_are_named_too(self):
        f = ones_with({5: -np.inf, 11: np.inf})
        with warnings.catch_warnings():
            # numpy may warn that inf - inf is invalid while summing the panel
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NumericsError, match=re.escape(f"x={self.XS[5]!r}")):
                integrate(f, self.A, self.B)

    @pytest.mark.parametrize("f", [
        lambda x: np.full_like(x, 1e308),
        lambda x: np.full_like(x, -1e308),
        lambda x: np.where(x > 1.0, 1e308, 1.0),
    ], ids=["max", "min", "half"])
    @pytest.mark.parametrize("a,b", [(0.0, 2.0), (0.0, 1.0), (-1e300, 1e300)])
    def test_finite_panel_whose_sum_overflows_behaves_as_before(self, f, a, b):
        panel = (0.5 * (a + b), 0.5 * (b - a))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert repr(numerics._gk15(f, [panel])) == repr([reference_gk15(f, *panel)])

    @pytest.mark.parametrize("f", [
        lambda x: np.full_like(x, 1e308),
        lambda x: np.full_like(x, -1e308),
        lambda x: np.where(x > 1.0, 1e308, 1.0),
    ], ids=["max", "min", "half"])
    @pytest.mark.parametrize("a,b", [(0.0, 2.0), (-1e300, 1e300)])
    def test_integral_whose_panel_sum_overflows_raises_at_once(self, f, a, b):
        calls = []

        def counted(x):
            calls.append(x.size)
            if len(calls) > 100:
                raise AssertionError("still splitting after 100 panels")
            return f(x)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow in the panel sums
            with pytest.raises(IntegrationError, match="overflowed"):
                integrate(counted, a, b)
        assert len(calls) <= 3


def _beta(a, b):
    return compile_expression(f"c^({a - 1:g})*(1-c)^({b - 1:g})")


_TABLE5 = cploss.tabulated_weight([[0.05, 1.0], [0.3, 1.5], [0.5, 0.7], [0.7, 1.2], [0.95, 0.9]])
_INTEGRANDS = {
    **{name: cploss.catalog_weight(name).w for name in ("square", "log", "boosting", "minimal")},
    **{f"beta({a},{b})": _beta(a, b)
       for a, b in [(0.5, 0.5), (0.0, 0.0), (-0.5, -0.5), (0.3, 0.7), (2.0, 3.0)]},
    "table5": _TABLE5.w,
    "table5-partial": lambda c: (1.0 - c) * _TABLE5.w(c),
}


def _integrals(f):
    outs = []
    for a, b in [(0.0, 1.0), (0.1, 0.9), (0.0, 0.5), (0.5, 1.0), (0.31, 0.37)]:
        try:
            outs.append(integrate(f, a, b))
        except NumericsError as err:
            outs.append(f"{type(err).__name__}: {err}")
    xs = np.array([1e-6, 0.05, 0.2, 0.5, 0.77, 0.999])
    for anchor in (0.5, 1.0):
        try:
            outs.append(antiderivative(f, anchor, ())(xs).tobytes())
        except NumericsError as err:
            outs.append(f"{type(err).__name__}: {err}")
    return [np.float64(v).tobytes() if isinstance(v, float) else v for v in outs]


@pytest.mark.parametrize("name", list(_INTEGRANDS))
def test_integrals_are_bitwise_those_of_the_per_value_scan(name, monkeypatch):
    f = _INTEGRANDS[name]
    new = _integrals(f)
    monkeypatch.setattr(numerics, "_gk15", reference_panels)
    assert new == _integrals(f)


def _raise(err):
    raise err


def _outcome(compute):
    """A float's bytes, an array's, or the type, message and estimate of the error raised."""
    try:
        return np.asarray(compute(), dtype=float).tobytes()
    except NumericsError as err:
        return type(err), str(err), np.float64(getattr(err, "estimate", math.nan)).tobytes()


# Bounds in [0, 1], with the ends, where a Beta integrand with a negative exponent is singular.
UNIT_BOUND = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


def _assert_batch_is_each_alone(batch, alone, n):
    """``batch(idx)`` over index arrays is ``alone(i)`` entry by entry, bitwise; a
    failing batch raises what its lowest-index failing entry raises alone."""
    singles = [alone(i) for i in range(n)]
    failing = [r for r in singles if isinstance(r, tuple)]
    assert batch(np.arange(n)) == (failing[0] if failing else b"".join(singles))
    passing = np.array([i for i, r in enumerate(singles) if not isinstance(r, tuple)], dtype=int)
    assert batch(passing) == b"".join(singles[i] for i in passing)


class TestLockstep:
    """Arrays of bounds or points advance together, each as if alone."""

    @settings(max_examples=30, deadline=None)
    @given(*BETA_EXPONENTS, st.lists(st.tuples(UNIT_BOUND, UNIT_BOUND), min_size=1, max_size=6))
    @example(-0.9, -0.9, [(0.0, 1.0), (0.5, 1.0), (0.2, 0.3)])
    def test_array_bounds_give_each_scalar_integral_bitwise(self, a, b, pairs):
        f = beta_expression(a, b)
        lo = np.array([min(p) for p in pairs])
        hi = np.array([max(p) for p in pairs])
        _assert_batch_is_each_alone(lambda idx: _outcome(lambda: integrate(f, lo[idx], hi[idx])),
                                    lambda i: _outcome(lambda: integrate(f, lo[i], hi[i])),
                                    len(pairs))

    @settings(max_examples=30, deadline=None)
    @given(*BETA_EXPONENTS, UNIT_BOUND, st.lists(UNIT_BOUND, min_size=1, max_size=6))
    @example(0.5, 0.5, 0.5, [0.0, 1e-9, 0.3, 1.0])
    def test_antiderivative_points_are_each_point_alone(self, a, b, anchor, xs):
        F = antiderivative(beta_expression(a, b), anchor, ())
        xs = np.array(xs)
        _assert_batch_is_each_alone(lambda idx: _outcome(lambda: F(xs[idx])),
                                    lambda i: _outcome(lambda: F(xs[i])), len(xs))

    @settings(max_examples=30, deadline=None)
    @given(*BETA_EXPONENTS, UNIT_BOUND, st.lists(UNIT_BOUND, min_size=1, max_size=6),
           st.lists(UNIT_BOUND, min_size=1, max_size=4))
    @example(-0.5, -0.5, 0.5, [1e-12, 0.3, 0.5, 1.0 - 1e-9], list(_MESH))
    @example(-0.9, -0.9, 0.3, [0.1, 0.2, 0.5, 0.9], [0.0, 0.2, 0.6, 1.0])  # end panels diverge
    def test_antiderivative_with_knots_is_each_point_alone(self, a, b, anchor, xs, knots):
        F = antiderivative(beta_expression(a, b), anchor, knots)
        xs = np.array(xs)
        _assert_batch_is_each_alone(lambda idx: _outcome(lambda: F(xs[idx])),
                                    lambda i: _outcome(lambda: F(xs[i])), len(xs))

    @staticmethod
    def failing_in_every_way(x):
        # divergent at 0, NaN on (0.5, 0.55), finite but overflowing the panel sums above 0.75
        return np.where(x < 0.25, 1.0 / (x * x), np.where(x > 0.75, 1e308, np.where(
            (x > 0.5) & (x < 0.55), np.nan, 1.0)))

    INTERVALS = [(0.0, 0.2), (0.8, 0.9), (0.5, 0.55), (math.nan, 0.3), (0.4, 0.3), (0.3, 0.45)]

    def test_every_way_of_failing_is_seen_alone(self):
        f = self.failing_in_every_way
        with np.errstate(all="ignore"):
            errors = [_outcome(lambda: integrate(f, lo, hi)) for lo, hi in self.INTERVALS]
        assert [e[0] for e in errors[:5]] == [IntegrationError, IntegrationError, NumericsError,
                                              NumericsError, NumericsError]
        assert "did not converge" in errors[0][1] and "overflowed" in errors[1][1]
        assert "non-finite value" in errors[2][1] and "bounds must be finite" in errors[3][1]
        assert "a <= b" in errors[4][1] and isinstance(errors[5], bytes)

    def test_each_failing_interval_is_reported_and_the_lowest_raised(self):
        # (0.0, 0.2) fails after 60 passes, (0.5, 0.55) in the first
        f = self.failing_in_every_way
        lo, hi = np.array([(0.1, 0.2), (0.0, 0.2), (0.3, 0.45), (0.5, 0.55), (0.6, 0.7)]).T
        with np.errstate(all="ignore"):
            alone = [_outcome(lambda: integrate(f, p, q)) for p, q in zip(lo, hi)]
            values, errors = numerics._integrals(f, lo, hi, numerics.DEFAULT_QUADRATURE)
            with pytest.raises(NumericsError) as raised:
                integrate(f, lo, hi)
        assert sorted(errors) == [1, 3]
        for i, want in enumerate(alone):
            if i in errors:
                assert np.isnan(values[i]) and _outcome(lambda: _raise(errors[i])) == want
            else:
                assert values[i].tobytes() == want
        assert _outcome(lambda: _raise(raised.value)) == alone[1]
        assert "did not converge" in alone[1][1] and "non-finite value" in alone[3][1]

    def test_a_handled_error_holds_nothing_in_a_cycle(self):
        # a frame that held its own error would keep the integrand alive until a collection
        class Integrand:
            def __call__(self, x):
                return TestLockstep.failing_in_every_way(x)

        gc.disable()
        try:
            for lo, hi in [(0.5, 0.55), ([0.3, 0.5, 0.0], [0.45, 0.55, 0.2])]:
                f = Integrand()
                alive = weakref.ref(f)
                with np.errstate(all="ignore"), pytest.raises(NumericsError):
                    integrate(f, lo, hi)
                del f
                assert alive() is None
        finally:
            gc.enable()

    @settings(max_examples=40, deadline=None)
    @given(st.permutations(range(6)), st.integers(1, 6))
    def test_the_lowest_index_failure_is_raised(self, order, n):
        f = self.failing_in_every_way
        lo, hi = np.array([self.INTERVALS[i] for i in order[:n]]).T
        with np.errstate(all="ignore"):
            _assert_batch_is_each_alone(
                lambda idx: _outcome(lambda: integrate(f, lo[idx], hi[idx])),
                lambda i: _outcome(lambda: integrate(f, lo[i], hi[i])), n)


class TestMinimizeScalar:
    def test_parabola(self):
        res = minimize_scalar(lambda x: x * x, -1.0, 1.0, tol=1e-8)
        assert res.converged
        assert res.argmin == pytest.approx(0.0, abs=1e-8)
        assert res.min_value == pytest.approx(0.0, abs=1e-15)

    def test_shifted_unimodal_closed_forms(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = float(rng.uniform(0.1, 0.9))
            res = minimize_scalar(lambda x: (x - a) ** 2, 0.0, 1.0, tol=1e-8)
            assert res.argmin == pytest.approx(a, abs=1e-8)

    def test_quartic(self):
        res = minimize_scalar(lambda x: (x - 0.3) ** 4, 0.0, 1.0, tol=1e-9)
        assert res.argmin == pytest.approx(0.3, abs=1e-3)  # quartic valley is flat

    def test_boundary_minimum_left(self):
        res = minimize_scalar(lambda x: x, 0.0, 1.0, tol=1e-9)
        assert res.argmin == 0.0

    def test_boundary_minimum_right_with_stationary_endpoint(self):
        # derivative vanishes exactly at the right bracket endpoint
        f = lambda a: a / 2 - (math.log(a) / 2 if a > 0 else -1e9) - 1 / 12
        res = minimize_scalar(f, 0.0, 1.0, tol=1e-10)
        assert res.argmin == 1.0

    def test_matches_scipy_bounded(self):
        f = lambda x: math.cos(x) + 0.1 * x
        ours = minimize_scalar(f, 0.0, 6.0, tol=1e-9)
        ref = scipy_minimize(f, bounds=(0.0, 6.0), method="bounded",
                             options={"xatol": 1e-10})
        assert ours.argmin == pytest.approx(ref.x, abs=1e-6)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            minimize_scalar(lambda x: x * x, 0.0, 1.0, tol=0.0)

    def test_min_value_matches_objective(self):
        f = lambda x: (x - 0.4) ** 2 + 1.0
        res = minimize_scalar(f, 0.0, 1.0, tol=1e-9)
        assert res.min_value == pytest.approx(f(res.argmin), abs=1e-12)


class TestLambertW:
    def test_trivial_values(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w0(-1.0 / math.e) == -1.0

    def test_round_trip_on_log_grid(self):
        lo = -1.0 / math.e + 1e-9
        zs = np.concatenate([
            np.array([lo, -0.3, -0.1, -1e-6]),
            np.exp(np.linspace(np.log(1e-9), np.log(1e6), 120)),
        ])
        for z in zs:
            w = lambert_w0(float(z))
            # residual evaluated in extended precision; scaled tolerance
            # because one double ulp of w already moves w*e^w by ~eps*|z|
            wl = np.longdouble(w)
            resid = float(abs(wl * np.exp(wl) - np.longdouble(z)))
            assert resid <= 1e-12 * max(1.0, abs(float(z)))

    def test_against_scipy(self):
        for z in [-0.36, -0.2, -1e-3, 0.5, 1.0, 10.0, 1e4]:
            ref = float(scipy.special.lambertw(z).real)
            assert lambert_w0(z) == pytest.approx(ref, abs=1e-13, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(NumericsError):
            lambert_w0(-1.0)


class TestAntiderivative:
    def test_sign_follows_orientation_on_both_sides(self):
        F = antiderivative(lambda c: 3.0 * c * c, 0.5, ())
        xs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        got = F(xs)
        assert np.allclose(got, xs ** 3 - 0.125, rtol=0, atol=1e-14)
        assert np.all(got[:2] < 0) and np.all(got[3:] > 0)

    def test_below_anchor_is_the_negated_forward_integral(self):
        f = lambda c: np.exp(c)
        assert float(antiderivative(f, 0.8, ())(0.2)) == -integrate(f, 0.2, 0.8)
        assert float(antiderivative(f, 0.2, ())(0.8)) == integrate(f, 0.2, 0.8)
        xs = np.array([0.0, 0.2, 0.5, 0.7, 1.0])   # knot-free: bitwise the bare integrals
        v = integrate(f, np.minimum(xs, 0.5), np.maximum(xs, 0.5))
        assert antiderivative(f, 0.5, ())(xs).tobytes() == np.where(xs >= 0.5, v, -v).tobytes()

    def test_value_at_anchor_is_positive_zero(self):
        F = antiderivative(lambda c: np.ones_like(c), 1.0, ())
        value = float(F(1.0))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_a_table_point_sums_the_panels_from_the_anchor(self):
        f = lambda c: np.exp(c)
        F = antiderivative(f, 0.5, (0.1, 0.25, 0.75, 0.9))
        assert float(F(0.9)) == integrate(f, 0.5, 0.75) + integrate(f, 0.75, 0.9)
        assert float(F(0.1)) == -integrate(f, 0.25, 0.5) - integrate(f, 0.1, 0.25)
        # a point between table points adds the piece from the one on the anchor's side
        assert float(F(0.8)) == float(F(0.75)) + integrate(f, 0.75, 0.8)
        assert float(F(0.2)) == float(F(0.25)) - integrate(f, 0.2, 0.25)
        xs = np.linspace(0.0, 1.0, 11)
        assert np.allclose(F(xs), np.exp(xs) - np.exp(0.5), rtol=0, atol=1e-14)

    def test_a_failing_panel_spoils_only_the_points_beyond_it(self):
        f = TestLockstep.failing_in_every_way    # NaN on (0.5, 0.55)
        with np.errstate(all="ignore"):
            F = antiderivative(f, 0.3, (0.5, 0.55, 0.6))
            assert np.allclose(F(np.array([0.3, 0.4, 0.5])), [0.0, 0.1, 0.2], rtol=0, atol=1e-15)
            alone = _outcome(lambda: integrate(f, 0.5, 0.55))
            assert isinstance(alone, tuple) and "non-finite value" in alone[1]
            assert _outcome(lambda: F(np.array([0.4, 0.58]))) == alone
            assert _outcome(lambda: F(0.7)) == alone

    def test_a_failing_panel_leaves_the_table_one_lockstep_call(self, monkeypatch):
        f = TestLockstep.failing_in_every_way    # NaN on (0.5, 0.55)
        points = np.array([0.3, 0.35, 0.4, 0.5, 0.55, 0.6, 0.7])
        calls, integrals = [], numerics._integrals

        def counting(*args):
            calls.append(integrals(*args))
            return calls[-1]

        with np.errstate(all="ignore"):
            monkeypatch.setattr(numerics, "_integrals", counting)
            antiderivative(f, 0.3, points)
            monkeypatch.undo()
            alone = [_outcome(lambda: integrate(f, p, q)) for p, q in zip(points[:-1], points[1:])]
        (panels, errors), = calls
        assert list(errors) == [3] and np.isnan(panels[3])
        assert [panels[i].tobytes() for i in (0, 1, 2, 4, 5)] == [alone[i] for i in (0, 1, 2, 4, 5)]

    def test_keeps_the_shape_of_its_argument(self):
        F = antiderivative(lambda c: 2.0 * c, 0.0, ())
        xs = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert F(xs).shape == (2, 2)
        assert np.allclose(F(xs), xs ** 2, rtol=0, atol=1e-14)
        assert np.ndim(F(0.5)) == 0


class TestFiniteDiff:
    def test_array_argument_matches_pointwise_calls(self):
        f = lambda t: t * t * t - 2.0 * t
        xs = np.array([-3.0, -0.2, 0.0, 0.4, 2.5, 40.0])
        got = finite_diff(f, xs)
        want = np.array([finite_diff(f, float(x)) for x in xs])
        assert got.shape == xs.shape
        assert np.array_equal(got, want)

    def test_array_argument_with_fixed_step(self):
        xs = np.linspace(0.1, 0.9, 5)
        assert np.allclose(finite_diff(np.sin, xs, h=1e-6), np.cos(xs), rtol=0, atol=1e-9)

    def test_first_order_exact_for_quadratics(self):
        assert finite_diff(lambda x: x * x, 3.0) == pytest.approx(6.0, abs=1e-7)

    @staticmethod
    def _second_difference(f, x, h=1e-5):
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)

    def test_square_loss_bayes_curvature(self):
        # Bayes risk of the square loss is e(1-e)/2, so curvature is -w = -1
        assert self._second_difference(lambda e: e * (1 - e) / 2, 0.3) == pytest.approx(-1.0, abs=1e-5)

    def test_log_loss_bayes_curvature(self):
        lbar = lambda e: -(e * math.log(e) + (1 - e) * math.log(1 - e))
        assert self._second_difference(lbar, 0.5) == pytest.approx(-4.0, abs=1e-4)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            finite_diff(lambda x: x, 0.0, h=0.0)


def test_package_has_no_memo_caches_or_vectorize_loops():
    pattern = re.compile(r"lru_cache|np\.vectorize")
    offenders = [f"{path.name}:{i}"
                 for path in sorted(Path(cploss.__file__).parent.glob("*.py"))
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []
