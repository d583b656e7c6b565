"""Weight catalog, link catalog, normalisation and canonical links."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cploss import weights
from cploss.analysis import convexity_characterization
from cploss.composite import MarginLoss, logistic_margin, margin_to_link
from cploss.links import canonical_link, catalog_link, numeric_inverse, rho_of
from cploss.numerics import NumericsError, finite_diff
from cploss.weights import WeightFunction, catalog_weight, tabulated_weight
from weight_strategies import BETA_EXPONENTS, beta_expression

GRID = np.linspace(0.05, 0.95, 19)
CLOSED_FORM_WEIGHTS = ["square", "log", "boosting", "w1-over-c", "w1-over-1mc", "minimal"]
ALL_LINKS = ["identity", "logit", "cll", "square-link", "cosine"]
PARAMETERLESS_WEIGHTS = CLOSED_FORM_WEIGHTS + ["zero-one"]


class TestWeightCatalog:
    def test_square_row(self):
        wf = catalog_weight("square")
        assert float(wf.w(np.asarray(0.37))) == 1.0
        assert float(wf.W(np.asarray(0.37))) == pytest.approx(0.37)
        assert float(wf.Wbar(np.asarray(0.4))) == pytest.approx(0.08)

    def test_log_row(self):
        wf = catalog_weight("log")
        assert float(wf.w(np.asarray(0.5))) == pytest.approx(4.0)
        assert float(wf.w(np.asarray(0.2))) == pytest.approx(1.0 / 0.16)

    def test_boosting_row(self):
        wf = catalog_weight("boosting")
        assert float(wf.w(np.asarray(0.5))) == pytest.approx(8.0)
        assert float(wf.w(np.asarray(0.25))) == pytest.approx((0.75 * 0.25) ** -1.5)

    def test_minimal_is_pointwise_min(self):
        wf = catalog_weight("minimal")
        xs = np.linspace(0.05, 0.95, 37)
        want = 0.5 * np.minimum(1 / xs, 1 / (1 - xs))
        assert np.allclose(np.asarray(wf.w(xs)), want, atol=1e-14)
        assert float(wf.w(np.asarray(0.5))) == 1.0

    def test_atom_weights(self):
        zo = catalog_weight("zero-one")
        assert zo.atoms == ((0.5, 2.0),)
        assert zo.is_pure_atomic
        cost = catalog_weight("cost", {"c0": 0.3})
        assert cost.atoms == ((0.3, 1.0),)

    def test_unknown_name_and_bad_cost(self):
        with pytest.raises(ValueError):
            catalog_weight("nope")
        with pytest.raises(ValueError):
            catalog_weight("cost", {"c0": 1.5})
        with pytest.raises(ValueError):
            catalog_weight("cost")

    @pytest.mark.parametrize("name", CLOSED_FORM_WEIGHTS)
    def test_antiderivative_consistency(self, name):
        # d(Wbar)/dx == W and dW/dx == w, checked by central differences
        wf = catalog_weight(name)
        for x in GRID:
            x = float(x)
            dW = finite_diff(lambda t: float(wf.Wbar(np.asarray(t))), x)
            assert abs(dW - float(wf.W(np.asarray(x)))) <= 1e-5 * max(1.0, abs(dW))
            dw = finite_diff(lambda t: float(wf.W(np.asarray(t))), x)
            assert abs(dw - float(wf.w(np.asarray(x)))) <= 1.01e-5 * max(1.0, abs(dw))

    def test_symmetry_flags(self):
        for name in ["square", "log", "boosting", "zero-one", "minimal"]:
            assert catalog_weight(name).is_symmetric(), name
        for wf in [catalog_weight("w1-over-c"), catalog_weight("w1-over-1mc"),
                   catalog_weight("cost", {"c0": 0.3})]:
            assert not wf.is_symmetric(), wf.name

    def test_tabulated_weight_interpolates(self):
        wf = tabulated_weight([[0.1, 1.0], [0.5, 2.0], [0.9, 1.0]])
        assert float(wf.w(np.asarray(0.3))) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            tabulated_weight([[0.1, -1.0], [0.9, 1.0]])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightFunction(w=lambda c: np.asarray(c, dtype=float) - 0.5, name="bad")


class TestCatalogIsBuiltOnce:
    """Catalog lookups share the instances built and checked at import."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"integrate": 0, "build": 0}
        integrals, post_init = weights._integrals, WeightFunction.__post_init__

        def counting_integrals(*args, **kwargs):
            counts["integrate"] += 1
            return integrals(*args, **kwargs)

        def counting_post_init(wf):
            counts["build"] += 1
            post_init(wf)

        monkeypatch.setattr(weights, "_integrals", counting_integrals)
        monkeypatch.setattr(WeightFunction, "__post_init__", counting_post_init)
        return counts

    @pytest.mark.parametrize("name", PARAMETERLESS_WEIGHTS)
    def test_weight_lookup_is_shared(self, name):
        assert catalog_weight(name) is catalog_weight(name)

    @pytest.mark.parametrize("name", ALL_LINKS)
    def test_link_lookup_is_shared(self, name):
        assert catalog_link(name) is catalog_link(name)

    def test_lookups_build_and_integrate_nothing(self, counts):
        for i in range(100):
            catalog_weight(PARAMETERLESS_WEIGHTS[i % len(PARAMETERLESS_WEIGHTS)])
            catalog_link(ALL_LINKS[i % len(ALL_LINKS)])
        assert counts == {"integrate": 0, "build": 0}

    def test_parametrised_weights_are_built_and_checked_per_call(self, counts):
        a, b = (catalog_weight("cost", {"c0": 0.3}) for _ in range(2))
        assert a is not b and a.atoms == b.atoms == ((0.3, 1.0),)
        assert counts == {"integrate": 0, "build": 2}
        table = {"table": [[0.1, 1.0], [0.5, 2.0], [0.9, 1.0]]}
        c, d = (catalog_weight("custom-tabulated", table) for _ in range(2))
        assert c is not d and counts["build"] == 4
        assert counts["integrate"] > 0   # the construction checks of W


class TestLinkCatalog:
    def test_logit(self):
        lk = catalog_link("logit")
        assert float(lk.psi_prime(np.asarray(0.5))) == pytest.approx(4.0)
        vs = np.linspace(-8, 8, 41)
        assert np.allclose(np.asarray(lk.q(vs)), 1 / (1 + np.exp(-vs)), atol=1e-14)

    def test_identity(self):
        lk = catalog_link("identity")
        xs = np.linspace(0.01, 0.99, 21)
        assert np.allclose(np.asarray(lk.psi_prime(xs)), 1.0)

    def test_cll(self):
        lk = catalog_link("cll")
        x = 0.7
        assert float(lk.psi(np.asarray(x))) == pytest.approx(math.log(-math.log(0.3)))
        v = float(lk.psi(np.asarray(x)))
        assert float(lk.q(np.asarray(v))) == pytest.approx(x, abs=1e-12)

    def test_cosine_derivative_and_endpoints(self):
        lk = catalog_link("cosine")
        for x in [0.2, 0.5, 0.8]:
            fd = finite_diff(lambda t: float(lk.psi(np.asarray(t))), x)
            assert fd == pytest.approx(math.pi * math.sin(math.pi * x), rel=1e-6)
        assert float(lk.psi_prime(np.asarray(1e-6))) == pytest.approx(0.0, abs=1e-4)
        assert float(lk.psi_prime(np.asarray(1 - 1e-6))) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("name", ALL_LINKS)
    def test_round_trip_both_ways(self, name):
        lk = catalog_link(name)
        xs = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(np.asarray(lk.q(np.asarray(lk.psi(xs)))) - xs)) <= 1e-9
        vs = np.asarray(lk.psi(xs), dtype=float)
        assert np.max(np.abs(np.asarray(lk.psi(np.asarray(lk.q(vs)))) - vs)) <= 1e-8

    def test_unknown_link(self):
        with pytest.raises(ValueError):
            catalog_link("probit")


class TestCanonicalLink:
    @pytest.mark.parametrize("name", CLOSED_FORM_WEIGHTS)
    def test_psi_prime_is_the_weight(self, name):
        wf = catalog_weight(name)
        link = canonical_link(wf)
        assert link.psi_prime is wf.w  # shared object, exact equality
        xs = np.linspace(0.05, 0.95, 19)
        assert np.allclose(np.asarray(rho_of(wf, link)(xs)), 1.0, atol=1e-12)

    def test_anchored_at_half(self):
        for name in CLOSED_FORM_WEIGHTS:
            link = canonical_link(catalog_weight(name))
            assert float(link.psi(np.asarray(0.5))) == pytest.approx(0.0, abs=1e-12)

    def test_square_gives_shifted_identity(self):
        link = canonical_link(catalog_weight("square"))
        xs = np.linspace(0.05, 0.95, 19)
        assert np.allclose(np.asarray(link.psi(xs)), xs - 0.5, atol=1e-12)

    def test_log_gives_logit(self):
        link = canonical_link(catalog_weight("log"))
        logit = catalog_link("logit")
        xs = np.linspace(0.02, 0.98, 49)
        assert np.max(np.abs(np.asarray(link.psi(xs)) - np.asarray(logit.psi(xs)))) <= 1e-12
        vs = np.asarray(logit.psi(xs), dtype=float)
        assert np.max(np.abs(np.asarray(link.q(vs)) - xs)) <= 1e-9

    def test_boosting_derivative_matches_weight(self):
        wf = catalog_weight("boosting")
        link = canonical_link(wf)
        for x in np.linspace(0.1, 0.9, 9):
            fd = finite_diff(lambda t: float(link.psi(np.asarray(t))), float(x))
            assert fd == pytest.approx(float(wf.w(np.asarray(x))), rel=1e-6)

    def test_numeric_inverse_round_trip(self):
        wf = catalog_weight("boosting")
        link = canonical_link(wf)
        xs = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(np.asarray(link.q(np.asarray(link.psi(xs)))) - xs)) <= 1e-9

    def test_jump_weight_without_W(self):
        # psi by quadrature across the jump at 0.31, and the weight is not re-checked
        jump = WeightFunction(w=lambda c: np.where(c < 0.31, 1.0, 5.0), name="jump")
        link = canonical_link(jump)
        assert float(link.psi(0.8)) == pytest.approx(1.5, abs=1e-9)
        xs = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(link.q(link.psi(xs)) - xs)) <= 1e-9

    def test_atoms_rejected(self):
        with pytest.raises(ValueError):
            canonical_link(catalog_weight("zero-one"))

    @settings(max_examples=25, deadline=None)
    @given(*BETA_EXPONENTS)
    @example(-0.9, -0.9)
    def test_beta_links_invert(self, a, b):
        link = canonical_link(WeightFunction(w=beta_expression(a, b)))
        xs = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(link.q(link.psi(xs)) - xs)) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(*BETA_EXPONENTS)
    @example(-0.9, -0.9)
    def test_beta_canonical_composites_are_certified_convex(self, a, b):
        wf = WeightFunction(w=beta_expression(a, b))
        assert convexity_characterization(wf, canonical_link(wf)).convex

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.01, 3.0), st.floats(0.01, 3.0))
    @example(0.01, 0.01)
    def test_beta_psi_is_the_incomplete_beta_integral(self, a, b):
        # psi(x) = integral from 1/2 to x = B(a, b) (I_x(a, b) - I_{1/2}(a, b)); scipy
        # needs a, b > 0, and loses B(a, b) eps to cancellation, so a, b >= 0.01
        xs = np.linspace(0.01, 0.99, 99)
        psi = canonical_link(WeightFunction(w=beta_expression(a, b))).psi(xs)
        want = scipy.special.beta(a, b) * (scipy.special.betainc(a, b, xs)
                                           - scipy.special.betainc(a, b, 0.5))
        assert np.all(np.abs(psi - want) <= 1e-8 * np.abs(want) + 1e-13)

    def test_rho_rejects_atoms(self):
        with pytest.raises(ValueError):
            rho_of(catalog_weight("zero-one"), catalog_link("identity"))


def test_numeric_inverse_helper():
    q = numeric_inverse(lambda x: np.asarray(x, dtype=float) ** 3)
    assert float(q(np.asarray(0.125))) == pytest.approx(0.5, abs=1e-10)


def _increasing(x):
    # (x - 1/2) / (x (1 - x)) is strictly increasing on (0, 1) and uses only
    # correctly rounded operations, so scalar and array calls agree exactly.
    x = np.asarray(x, dtype=float)
    return (x - 0.5) / (x * (1.0 - x))


def _increasing_root(v):
    """The exact root of ``_increasing(x) = v``, from ``v x^2 + (1 - v) x - 1/2 = 0``."""
    with mpmath.workdps(50):
        v = mpmath.mpf(v)
        return float(1 / (mpmath.sqrt(1 + v * v) - v + 1))


def _sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=float)))


_LOG = catalog_weight("log")


def _counting(fn, calls):
    def counted(x):
        calls.append(np.size(x))
        return fn(x)
    return counted


# Halvings of the default domain (1e-12, 1 - 1e-12) to the default tol 1e-12:
# the calls of psi that plain bisection takes, 40.
_HALVINGS = math.ceil(math.log2((1.0 - 2e-12) / 1e-12))


class TestNumericInverse:
    @pytest.mark.parametrize("shape", [(), (9,), (3, 4)])
    def test_array_call_matches_scalar_calls(self, shape):
        vs = np.linspace(-40.0, 25.0, max(1, math.prod(shape))).reshape(shape) + 0.3
        q = numeric_inverse(_increasing)
        got = np.asarray(q(vs))
        assert got.shape == shape
        # each point steps on its own data only: the same floats one at a time
        alone = np.array([float(q(float(v))) for v in vs.ravel()]).reshape(shape)
        assert np.array_equal(got, alone)
        # and the stopping rule holds against the exact root
        for x, v in zip(got.ravel(), vs.ravel()):
            root = _increasing_root(v)
            assert abs(x - root) <= 1e-12 * max(1.0, abs(root)), v

    def test_clamps_to_the_domain_ends(self):
        q = numeric_inverse(_increasing, domain=(0.2, 0.7))
        vs = np.array([-np.inf, -1e300, float(_increasing(0.2)), 0.0,
                       float(_increasing(0.7)), 1e300, np.inf])
        got = np.asarray(q(vs))
        assert got[0] == got[1] == got[2] == 0.2
        assert got[4] == got[5] == got[6] == 0.7
        assert got[3] == pytest.approx(0.5, abs=1e-12)

    def test_all_points_step_together(self):
        calls = []

        def psi(x):
            calls.append(np.size(x))
            return _increasing(x)

        q = numeric_inverse(psi)
        assert len(calls) == 2  # psi at the two domain ends, once
        q(np.linspace(-5.0, 5.0, 1000))
        assert len(calls) <= 2 + 60  # one array call per halving, not one per point

    def test_domain_ends_step_in_past_a_failing_psi(self):
        calls = []

        def psi(x):
            calls.append(float(x))
            if min(x, 1.0 - x) < 1e-7:
                raise NumericsError("no value this close to an end")
            return _increasing(x)

        q = numeric_inverse(psi)
        assert calls == [1e-12, 1e-9, 1e-6, 1.0 - 1e-12, 1.0 - 1e-9, 1.0 - 1e-6]
        assert np.asarray(q(np.array([-np.inf, np.inf]))).tolist() == [1e-6, 1.0 - 1e-6]
        assert len(calls) == 6  # psi at each kept end once, when the inverse is built

    def test_no_evaluable_end_is_an_error(self):
        with pytest.raises(ValueError, match="near 1"):
            numeric_inverse(lambda x: np.where(x > 0.9, np.nan, x))

    # with a derivative: safeguarded Newton inside the bisection bracket
    XS = np.linspace(0.01, 0.99, 1000)

    def _calls(self, dpsi):
        calls = []
        q = numeric_inverse(_counting(_LOG.W, calls), dpsi=dpsi)
        got = np.asarray(q(np.asarray(_LOG.W(self.XS))))
        return got, len(calls) - 2, sum(calls[2:])

    def test_canonical_log_link_inverts_to_the_sigmoid(self):
        cl = canonical_link(_LOG)
        vs = np.linspace(-9.0, 9.0, 1001)
        got = np.asarray(cl.q(vs))
        assert np.max(np.abs(got - _sigmoid(vs))) <= 1e-12
        assert float(cl.q(np.asarray(0.0))) == 0.5  # psi(1/2) = 0 exactly: stops there

    def test_canonical_link_inverts_in_few_array_calls(self):
        calls = []
        wf = WeightFunction(w=_LOG.w, W=_counting(_LOG.W, calls), Wbar=_LOG.Wbar, name="log")
        cl = canonical_link(wf)
        vs = np.asarray(cl.psi(self.XS))
        calls.clear()
        assert np.max(np.abs(np.asarray(cl.q(vs)) - self.XS)) <= 1e-12
        assert len(calls) <= 14  # bisection needs 40 halvings for this tolerance

    def test_newton_against_bisection_work(self):
        got, calls, points = self._calls(_LOG.w)
        assert calls <= 14 and points <= 7 * self.XS.size
        assert np.max(np.abs(got - self.XS)) <= 1e-12
        # without the derivative: secant steps, in at most half of bisection's halvings
        got, calls, _ = self._calls(None)
        assert calls <= _HALVINGS // 2
        assert np.max(np.abs(got - self.XS)) <= 1e-12

    @pytest.mark.parametrize("dpsi", [
        lambda x: 2.0 * _LOG.w(x),
        lambda x: 0.5 * _LOG.w(x),
        lambda x: 1e6 * _LOG.w(x),
        lambda x: 1e-3 * _LOG.w(x),
        lambda x: -_LOG.w(x),
        lambda x: np.ones_like(x),
        lambda x: np.zeros_like(x),
        lambda x: np.full_like(x, np.inf),
        lambda x: np.full_like(x, np.nan),
    ], ids=["2x", "half", "1e6x", "1e-3x", "negative", "one", "zero", "inf", "nan"])
    def test_a_wrong_derivative_still_converges(self, dpsi):
        got, calls, _ = self._calls(dpsi)
        assert np.max(np.abs(got - self.XS)) <= 1e-12
        # at most 12 Newton steps per point on top of bisection, inside the
        # bisection bound of test_all_points_step_together
        assert calls <= _HALVINGS + 12 and calls <= 60

    @pytest.mark.parametrize("psi", [
        lambda x: x + 1e6 * (x > 0.3),
        lambda x: x ** 15,
        lambda x: np.tan(np.pi * (x - 0.5)),
        lambda x: np.log(x / (1.0 - x)) ** 3,
        lambda x: x ** (1 / 15),
    ], ids=["jump", "x^15", "tan", "logit^3", "x^(1/15)"])
    def test_hard_secant_cases_close_in_few_calls(self, psi):
        calls = []
        q = numeric_inverse(_counting(psi, calls))
        vs = psi(np.append(self.XS, 0.3))   # for the jump, the root at 0.3 is the jump itself
        got = np.asarray(q(vs))
        assert len(calls) - 2 <= 100
        h = 1e-12 * np.maximum(1.0, np.abs(got))   # the stopping rule: a sign change within h
        assert np.all((psi(got - h) <= vs) & (vs <= psi(got + h)))

    def test_margin_link_psi_in_few_calls_of_q(self):
        calls = []
        m = logistic_margin()
        link = margin_to_link(MarginLoss(m.phi, _counting(m.phi_prime, calls), m.name))
        calls.clear()
        link.psi(np.linspace(0.01, 0.99, 99))
        assert len(calls) // 2 <= 25   # q reads phi' twice; bisection took 49 calls of q

    def test_quadrature_canonical_link_reads_its_graded_table(self):
        # psi, each Newton step of q and each end probe integrate only from the
        # nearest table point; integrating every one from 1/2 took 989 calls of w
        calls = []
        wf = WeightFunction(w=_counting(beta_expression(-0.5, -0.5), calls))
        calls.clear()
        link = canonical_link(wf)
        xs = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(link.q(link.psi(xs)) - xs)) <= 1e-9
        assert len(calls) <= 250

    # a NaN score is no score: it never steps, and its inverse is NaN as in the closed forms
    def test_nan_target_of_a_canonical_inverse(self):
        q = canonical_link(catalog_weight("log")).q
        assert np.isnan(q(np.nan))
        assert np.array_equal(q(np.array([np.nan, 0.0, -np.inf])), [np.nan, 0.5, q(-np.inf)],
                              equal_nan=True)

    def test_nan_target_of_a_margin_link(self):
        psi = margin_to_link(logistic_margin()).psi
        assert np.isnan(psi(np.nan))
        assert np.array_equal(np.isnan(psi(np.array([0.3, np.nan, 0.7]))), [False, True, False])

    def test_nan_target_on_a_given_domain(self):
        calls = []
        q = numeric_inverse(_counting(lambda x: x ** 3, calls), domain=(-1.0, 1.0))
        calls.clear()
        assert np.isnan(q(np.nan)) and calls == []
        got = q(np.array([np.nan, 0.125, -2.0, np.inf]))
        assert np.allclose(got, [np.nan, 0.5, -1.0, 1.0], rtol=0, atol=1e-12, equal_nan=True)
        assert calls and max(calls) == 1   # only 0.125 steps
