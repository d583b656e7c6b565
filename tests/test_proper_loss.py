"""Proper-loss construction, risks, regrets, representations, reconstruction."""

import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cploss.analysis import check_proper
from cploss.expressions import compile_expression
from cploss.numerics import IntegrationError, integrate
from cploss.proper import (
    ImpropernessError,
    ProperLoss,
    bayes_risk,
    catalog_loss,
    conditional_risk,
    cost_loss,
    from_weight,
    reconstruct_symmetric,
    regret,
    savage_check,
    schervish_check,
    weight_from_loss,
    zero_one_loss,
)
from cploss.weights import WeightFunction, catalog_weight, tabulated_weight
from weight_strategies import BETA_EXPONENTS, beta_expression

GRID = np.linspace(0.05, 0.95, 19)


def table_row(name):
    """Closed-form partial losses (ell_neg, ell_pos) for the classic rows."""
    if name == "square":
        return (lambda e: e ** 2 / 2, lambda e: (1 - e) ** 2 / 2)
    if name == "log":
        return (lambda e: -np.log(1 - e), lambda e: -np.log(e))
    if name == "boosting":
        return (lambda e: 2 * np.sqrt(e / (1 - e)), lambda e: 2 * np.sqrt((1 - e) / e))
    raise KeyError(name)


class TestFromWeight:
    @pytest.mark.parametrize("name", ["square", "log", "boosting"])
    def test_matches_closed_forms(self, name):
        loss = catalog_loss(name)
        en, ep = table_row(name)
        assert np.max(np.abs(np.asarray(loss.ell_neg(GRID)) - en(GRID))) <= 1e-12
        assert np.max(np.abs(np.asarray(loss.ell_pos(GRID)) - ep(GRID))) <= 1e-12

    def test_numeric_route_agrees_with_closed_forms(self):
        # same log weight, but stripped of its antiderivatives: forces the
        # quadrature path
        base = catalog_weight("log")
        bare = type(base)(w=base.w, name="log-bare")
        loss = from_weight(bare)
        en, ep = table_row("log")
        xs = np.linspace(0.1, 0.9, 9)
        assert np.max(np.abs(np.asarray(loss.ell_neg(xs)) - en(xs))) <= 1e-9
        assert np.max(np.abs(np.asarray(loss.ell_pos(xs)) - ep(xs))) <= 1e-9

    def test_cost_atom_reproduces_indicator_partials(self):
        loss = cost_loss(0.3)
        es = np.array([0.0, 0.29, 0.3, 0.31, 1.0])
        assert np.allclose(np.asarray(loss.ell_neg(es)), 0.3 * (es >= 0.3))
        assert np.allclose(np.asarray(loss.ell_pos(es)), 0.7 * (es < 0.3))

    def test_zero_one_threshold_convention(self):
        loss = zero_one_loss()
        # at the threshold itself: the >= convention puts the mass on ell_neg
        assert float(loss.ell_neg(np.asarray(0.5))) == 1.0
        assert float(loss.ell_pos(np.asarray(0.5))) == 0.0

    def test_cost_threshold_outside_the_open_interval_rejected(self):
        with pytest.raises(ValueError):
            cost_loss(0.0)

    @pytest.mark.parametrize("y", [0, 2, "1", None])
    def test_cost_loss_rejects_other_labels(self, y):
        with pytest.raises(ValueError):
            cost_loss(0.3).ell(y, 0.5)

    def test_non_definite_weight_rejected(self):
        # w = 1/((1-c)^2 c): the positive partial integral diverges everywhere
        wf = type(catalog_weight("log"))(
            w=lambda c: 1.0 / ((1 - np.asarray(c, dtype=float)) ** 2 * np.asarray(c, dtype=float)),
            name="non-definite")
        with pytest.raises(Exception):
            from_weight(wf)

    def test_strictness_flags(self):
        assert catalog_loss("square").strictly_proper
        assert catalog_loss("log").strictly_proper
        assert not cost_loss(0.4).strictly_proper
        gap = tabulated_weight(
            [[0.01, 1.0], [0.39, 1.0], [0.4, 0.0], [0.6, 0.0], [0.61, 1.0], [0.99, 1.0]],
            name="gap")
        assert not from_weight(gap).strictly_proper

    def test_infinite_endpoint_partials_still_usable(self):
        loss = catalog_loss("log")
        assert math.isinf(float(loss.ell_pos(np.asarray(0.0))))
        assert float(loss.ell_neg(np.asarray(0.0))) == 0.0

    def test_quadrature_partials_vanish_as_positive_zero_at_their_anchors(self):
        loss = from_weight(WeightFunction(w=lambda c: 1.0 + np.asarray(c, dtype=float),
                                          name="one-plus-c"))
        for value in (float(loss.ell_pos(np.asarray(1.0))), float(loss.ell_neg(np.asarray(0.0)))):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
        # ell_pos(e) = integral of (1-c)(1+c) over [e, 1] = 2/3 - e + e^3/3
        es = np.array([0.2, 0.5, 0.9])
        assert np.allclose(loss.ell_pos(es), 2 / 3 - es + es ** 3 / 3, rtol=0, atol=1e-12)

    def test_quadrature_partials_of_the_boosting_expression_match_the_closed_form(self):
        # both ends of c^-1.5 (1-c)^-1.5 are singular: each partial integral
        # meets its tolerance through the geometric tail at its singular end
        loss = from_weight(WeightFunction(w=compile_expression("c^-1.5*(1-c)^-1.5")))
        ref = catalog_loss("boosting")
        es = np.array([1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-4])
        for got, want in ((loss.ell_pos(es), ref.ell_pos(es)), (loss.ell_neg(es), ref.ell_neg(es))):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-8
        for e in (0.2, 0.6, 0.9):
            for y, partial in ((1, ref.ell_pos), (-1, ref.ell_neg)):
                assert schervish_check(loss, y, e) == pytest.approx(float(partial(e)), rel=1e-9)

    def test_strong_end_singularities_are_regular(self):
        # w = c^-1.9 (1-c)^-1.9 is definite, so e*ell_pos(e) -> 0 although it is
        # still about e^0.1/0.9 = 0.44 at e = 1e-4; the partials are incomplete
        # beta functions, by symmetry ell_pos(e) = ell_neg(1-e) =
        # (1-e)^0.1/0.1 * 2F1(1.9, 0.1; 1.1; 1-e)
        loss = from_weight(WeightFunction(w=compile_expression("c^-1.9*(1-c)^-1.9")))
        es = np.array([0.01, 0.1, 0.3, 0.5, 0.9, 0.99])
        want = (1 - es) ** 0.1 / 0.1 * scipy.special.hyp2f1(1.9, 0.1, 1.1, 1 - es)
        assert np.max(np.abs(loss.ell_pos(es) / want - 1)) <= 1e-9
        assert np.max(np.abs(loss.ell_neg(1 - es) / want - 1)) <= 1e-9


class TestRisks:
    def test_square_conditional_risk(self):
        assert conditional_risk(catalog_loss("square"), 0.3, 0.3) == pytest.approx(0.105)

    def test_log_conditional_risk(self):
        assert conditional_risk(catalog_loss("log"), 0.5, 0.5) == pytest.approx(math.log(2))

    def test_fair_perfect_prediction_is_free(self):
        for name in ["square", "log", "boosting", "minimal"]:
            assert conditional_risk(catalog_loss(name), 0.0, 0.0) == 0.0
            assert conditional_risk(catalog_loss(name), 1.0, 1.0) == 0.0

    def test_array_eta_keeps_the_guard(self):
        loss = catalog_loss("log")
        etas = np.array([0.0, 0.5, 1.0])
        got = conditional_risk(loss, etas, etas)
        assert got.shape == (3,)
        assert got[0] == 0.0 and got[2] == 0.0
        assert got[1] == pytest.approx(math.log(2))
        assert np.array_equal(bayes_risk(loss, etas), got)
        with pytest.raises(ValueError):
            conditional_risk(loss, np.array([0.2, 1.5]), 0.5)

    def test_each_partial_is_read_only_where_its_term_has_weight(self):
        # the quadrature partials of 1/(c(1-c)) diverge at the ends, where the
        # other term carries all the weight
        loss = from_weight(WeightFunction(w=compile_expression("1/(c*(1-c))"), name="log-expr"))
        etas = np.array([0.0, 1.0, 0.3, 0.0, 0.7, 1.0])
        got = conditional_risk(loss, etas, etas)
        want = conditional_risk(catalog_loss("log"), etas, etas)
        assert got[0] == got[1] == got[3] == got[5] == 0.0
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)
        # one prediction against every eta
        got = conditional_risk(loss, etas, 0.5)
        assert got.shape == etas.shape
        assert np.allclose(got, math.log(2.0), rtol=1e-9, atol=0.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            conditional_risk(catalog_loss("square"), 1.2, 0.5)
        with pytest.raises(ValueError):
            conditional_risk(catalog_loss("square"), 0.5, -0.1)

    @pytest.mark.parametrize("eta, etahat", [(math.nan, 0.5), (0.3, math.nan),
                                             (0.3, [0.2, math.nan])])
    def test_nan_is_outside_the_unit_interval(self, eta, etahat):
        with pytest.raises(ValueError, match="must lie in"):
            conditional_risk(catalog_loss("square"), eta, etahat)

    def test_bayes_square(self):
        for eta in [0.1, 0.3, 0.7]:
            assert bayes_risk(catalog_loss("square"), eta) == pytest.approx(eta * (1 - eta) / 2)

    def test_bayes_cost_half(self):
        loss = cost_loss(0.5)
        for eta in [0.2, 0.5, 0.9]:
            assert bayes_risk(loss, eta) == pytest.approx(0.5 * min(eta, 1 - eta))

    def test_bayes_concavity_on_grid(self):
        xs = np.linspace(0.01, 0.99, 99)
        for name in ["square", "log", "boosting", "minimal", "w1-over-c", "w1-over-1mc"]:
            loss = catalog_loss(name)
            vals = np.array([bayes_risk(loss, float(x)) for x in xs])
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert np.max(second) <= 1e-9, name

    def test_properness_on_grid(self):
        xs = np.linspace(0.01, 0.99, 99)
        for name in ["square", "log", "boosting", "minimal", "w1-over-c", "w1-over-1mc"]:
            loss = catalog_loss(name)
            for eta in xs[::7]:
                risks = np.array([conditional_risk(loss, float(eta), float(e)) for e in xs])
                diag = bayes_risk(loss, float(eta))
                assert diag <= np.min(risks) + 1e-9, name
                if loss.strictly_proper:
                    off = risks[np.abs(xs - eta) > 1e-12]
                    assert np.min(off) > diag, name


class TestRegret:
    def test_zero_on_diagonal(self):
        for name in ["square", "log", "minimal"]:
            assert regret(catalog_loss(name), 0.4, 0.4) == 0.0

    def test_square_is_half_squared_distance(self):
        assert regret(catalog_loss("square"), 0.2, 0.7) == pytest.approx(0.125)

    def test_log_is_binary_kl(self):
        kl = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert regret(catalog_loss("log"), 0.5, 0.25) == pytest.approx(kl, abs=1e-12)

    def test_nonnegative_and_definite_when_strict(self):
        rng = np.random.default_rng(3)
        loss = catalog_loss("boosting")
        for _ in range(50):
            eta, etahat = rng.uniform(0.02, 0.98, size=2)
            r = regret(loss, float(eta), float(etahat))
            assert r >= -1e-12
            if abs(eta - etahat) > 1e-3:
                assert r > 0.0

    def test_matches_bregman_form(self):
        # regret equals the divergence of the negative Bayes risk:
        # -Lbar(eta) + Lbar(etahat) + (eta - etahat) Lbar'(etahat)
        loss = catalog_loss("log")
        from cploss.proper import bayes_risk_prime
        for eta, etahat in [(0.3, 0.6), (0.8, 0.2), (0.5, 0.5)]:
            breg = (-bayes_risk(loss, eta) + bayes_risk(loss, etahat)
                    + (eta - etahat) * bayes_risk_prime(loss, etahat))
            assert regret(loss, eta, etahat) == pytest.approx(breg, abs=1e-10)


class TestRepresentations:
    def test_savage_residual_square(self):
        grid = [(a, b) for a in GRID for b in GRID]
        assert savage_check(catalog_loss("square"), grid) <= 1e-8

    def test_savage_residual_log(self):
        grid = [(a, b) for a in GRID for b in GRID]
        assert savage_check(catalog_loss("log"), grid) <= 1e-6

    def test_savage_diagonal_is_zero(self):
        grid = [(a, a) for a in GRID]
        assert savage_check(catalog_loss("boosting"), grid) <= 1e-9

    def test_schervish_square(self):
        assert schervish_check(catalog_loss("square"), -1, 0.6) == pytest.approx(0.18, abs=1e-10)

    def test_schervish_log(self):
        assert schervish_check(catalog_loss("log"), 1, 0.5) == pytest.approx(math.log(2), abs=1e-9)

    def test_schervish_cost_exact(self):
        loss = cost_loss(0.3)
        for y, e in [(1, 0.2), (1, 0.4), (-1, 0.2), (-1, 0.4)]:
            assert schervish_check(loss, y, e) == float(loss.ell(y, np.asarray(e)))

    @pytest.mark.parametrize("y, etahat", [(-1, 1.5), (1, -0.5), (1, 1.5), (-1, math.nan)])
    def test_schervish_rejects_etahat_outside_the_unit_interval(self, y, etahat):
        # as conditional_risk does: the mixture is over costs in [0, 1]
        with pytest.raises(ValueError, match="etahat must lie in"):
            schervish_check(catalog_loss("square"), y, etahat)

    def test_schervish_divergent_tail_raises(self):
        # a weight whose positive-label mixture integral diverges at 1: no
        # finite value comes back
        wf = catalog_weight("square")
        divergent = type(wf)(
            w=lambda c: 1.0 / ((1 - np.asarray(c, dtype=float)) ** 2
                               * np.asarray(c, dtype=float)),
            name="divergent-tail")
        host = ProperLoss(ell_pos=lambda e: np.zeros_like(np.asarray(e, dtype=float)),
                          ell_neg=lambda e: np.zeros_like(np.asarray(e, dtype=float)),
                          weight=divergent, fair=False, name="host")
        with pytest.raises(IntegrationError, match="did not converge"):
            schervish_check(host, 1, 0.5)

    def test_schervish_minimal_splits_at_its_kink(self):
        # the minimal weight declares its kink at 1/2, where the mixture splits
        loss = catalog_loss("minimal")
        for e in np.linspace(0.02, 0.98, 97):
            for y, partial in ((1, loss.ell_pos), (-1, loss.ell_neg)):
                want = float(partial(e))
                assert abs(schervish_check(loss, y, e) - want) <= 1e-11 * abs(want), (y, e)

    @pytest.mark.parametrize("name", ["square", "log", "boosting"])
    def test_schervish_reproduces_partials(self, name):
        loss = catalog_loss(name)
        for e in [0.2, 0.5, 0.8]:
            assert schervish_check(loss, 1, e) == pytest.approx(
                float(loss.ell_pos(np.asarray(e))), abs=1e-7)
            assert schervish_check(loss, -1, e) == pytest.approx(
                float(loss.ell_neg(np.asarray(e))), abs=1e-7)


class TestWeightFromLoss:
    @pytest.mark.parametrize("name", ["square", "log", "boosting", "minimal",
                                      "w1-over-c", "w1-over-1mc"])
    def test_round_trip(self, name):
        loss = catalog_loss(name)
        est = weight_from_loss(loss, grid=GRID)
        got = np.asarray(est.w(GRID), dtype=float)
        want = np.asarray(loss.weight.w(GRID), dtype=float)
        assert np.max(np.abs(got - want) / want) <= 1e-4, name

    def test_log_centre_value(self):
        est = weight_from_loss(catalog_loss("log"), grid=np.array([0.4, 0.5, 0.6]))
        assert float(est.w(np.asarray(0.5))) == pytest.approx(4.0, rel=1e-5)

    def test_improper_pair_detected(self):
        # reversed square partials: the conditional risk prefers 1 - eta, so
        # the Bayes-risk curvature comes out positive
        bad = ProperLoss(
            ell_pos=lambda e: np.asarray(e, dtype=float) ** 2 / 2,
            ell_neg=lambda e: (1 - np.asarray(e, dtype=float)) ** 2 / 2,
            weight=catalog_weight("square"),
            fair=False, name="reversed-square")
        with pytest.raises(ImpropernessError):
            weight_from_loss(bad, grid=np.linspace(0.2, 0.8, 7))

    def test_default_grid_reads_the_catalog_weights(self):
        grid = np.linspace(1.0 / 512.0, 511.0 / 512.0, 511)
        for name in ["square", "log", "boosting", "minimal", "w1-over-c", "w1-over-1mc"]:
            loss = catalog_loss(name)
            got, want = weight_from_loss(loss).w(grid), loss.weight.w(grid)
            off_kink = np.abs(grid - 0.5) > 3e-4
            assert np.max(np.abs(got - want)[off_kink] / want[off_kink]) <= 1e-5, name


# The two slope readings of w at x take central differences (step 1e-5) of
# partials that quadrature gives to a relative 1e-10, so each reading carries
# up to 1e-10 |ell| / 1e-5 of noise, over x or 1-x.  At the kink of minimal at
# 1/2 the differences are biased by h/4 times the jump of ell'': at most 1e-5
# of w.  The bound below doubles both.
WEIGHT_GRID = np.linspace(0.05, 0.95, 19)
WEIGHT_NOISE = 1e-10 / 1e-5
CLOSED_FORMS = ["square", "log", "boosting", "w1-over-c", "w1-over-1mc", "minimal"]


def assert_weight_recovered(wf):
    loss = from_weight(wf)
    g = WEIGHT_GRID
    got, want = weight_from_loss(loss, g).w(g), wf.w(g)
    noise = WEIGHT_NOISE * (np.abs(loss.ell_pos(g)) / (1 - g) + np.abs(loss.ell_neg(g)) / g)
    assert np.all(np.abs(got - want) <= 2e-5 * np.maximum(1.0, want) + 2.0 * noise)
    assert np.array_equal(got, check_proper(loss.ell_pos, loss.ell_neg, g)[1].w(g))


@settings(max_examples=40, deadline=None)
@given(*BETA_EXPONENTS)
@example(-0.9, -0.9)
def test_weight_from_loss_recovers_beta_weights(a, b):
    # c^(a-1) (1-c)^(b-1) through quadrature partials, strong ends included
    assert_weight_recovered(WeightFunction(w=beta_expression(a, b)))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(CLOSED_FORMS), st.floats(0.1, 3.0), min_size=1))
def test_weight_from_loss_recovers_catalog_mixtures(masses):
    parts = [(m, catalog_weight(name)) for name, m in masses.items()]
    mix = lambda field: (lambda c: sum(m * getattr(wf, field)(c) for m, wf in parts))
    assert_weight_recovered(WeightFunction(w=mix("w"), W=mix("W"), Wbar=mix("Wbar"),
                                           knots=(0.5,) if "minimal" in masses else ()))


def reconstruction_quadrature_oracle(half_derivative, e):
    """Direct quadrature of the completion integral, independent of the library."""
    return integrate(
        lambda x: (np.asarray(x) / (1 - np.asarray(x))) * half_derivative(1 - np.asarray(x)),
        0.5, e)


class TestSymmetricReconstruction:
    def test_first_example(self):
        # ell_neg = 1/(1-e) on [0, 1/2] completes to 2 + log(e/(1-e)) above
        loss = reconstruct_symmetric(lambda e: 1.0 / (1.0 - np.asarray(e, dtype=float)), "lower")
        es = np.linspace(0.51, 0.99, 50)
        want = 2.0 + np.log(es / (1 - es))
        got = np.asarray(loss.ell_neg(es), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_second_example(self):
        # the same half supplied on [1/2, 1] completes downward
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # implied weight is huge near 0
            loss = reconstruct_symmetric(
                lambda e: 1.0 / (1.0 - np.asarray(e, dtype=float)), "upper")
        es = np.linspace(0.02, 0.49, 50)
        want = 2.0 + np.log(es / (1 - es))
        got = np.asarray(loss.ell_neg(es), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_fourth_example(self):
        # ell_neg = e on [0, 1/2] completes to 1 - log 2 - e - log(1-e)
        loss = reconstruct_symmetric(lambda e: np.asarray(e, dtype=float), "lower")
        es = np.linspace(0.51, 0.99, 50)
        want = 1.0 - math.log(2.0) - es - np.log(1 - es)
        got = np.asarray(loss.ell_neg(es), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-6

    def test_third_example_resolves_against_the_integral(self):
        # ell_neg = 1/(1-e)^2 on [0, 1/2].  The completion integral gives
        # 8 - 2/e + 2 log(e/(1-e)) on [1/2, 1] (continuous at 1/2 with value
        # 4); the widely-quoted closed form (4 + 2(2e + e log e -
        # e log(1-e) - 1))/e is discontinuous there and does not satisfy the
        # derivative coupling, so the integral is the authority.
        half = lambda e: 1.0 / (1.0 - np.asarray(e, dtype=float)) ** 2
        dhalf = lambda t: 2.0 / (1.0 - np.asarray(t, dtype=float)) ** 3
        loss = reconstruct_symmetric(half, "lower")
        es = np.linspace(0.51, 0.95, 50)
        derived = 8.0 - 2.0 / es + 2.0 * np.log(es / (1 - es))
        quoted = (4.0 + 2.0 * (2 * es + es * np.log(es) - es * np.log(1 - es) - 1.0)) / es
        got = np.asarray(loss.ell_neg(es), dtype=float)
        oracle = np.array([reconstruction_quadrature_oracle(dhalf, float(e)) for e in es]) + 4.0
        assert np.max(np.abs(got - derived)) <= 1e-6
        assert np.max(np.abs(oracle - derived)) <= 1e-9
        assert np.max(np.abs(got - quoted)) > 0.1  # the quoted form disagrees

    @pytest.mark.parametrize("name", ["square", "log", "boosting"])
    def test_round_trip_on_symmetric_catalog_losses(self, name):
        full = catalog_loss(name)
        loss = reconstruct_symmetric(lambda e: full.ell_neg(e), "lower")
        es = np.linspace(0.5, 0.99, 50)
        got = np.asarray(loss.ell_neg(es), dtype=float)
        want = np.asarray(full.ell_neg(es), dtype=float)
        assert np.max(np.abs(got - want)) <= 1e-6, name

    @pytest.mark.parametrize("half, side, closed, es", [
        pytest.param(lambda e: 1.0 / (1.0 - e), "lower",
                     lambda e: 2.0 + np.log(e / (1 - e)), np.linspace(0.51, 0.99, 50), id="first"),
        pytest.param(lambda e: 1.0 / (1.0 - e), "upper",
                     lambda e: 2.0 + np.log(e / (1 - e)), np.linspace(0.02, 0.49, 50), id="second"),
        pytest.param(lambda e: e, "lower",
                     lambda e: 1.0 - math.log(2.0) - e - np.log(1 - e), np.linspace(0.51, 0.99, 50),
                     id="fourth"),
        pytest.param(lambda e: 1.0 / (1.0 - e) ** 2, "lower",
                     lambda e: 8.0 - 2.0 / e + 2.0 * np.log(e / (1 - e)), np.linspace(0.51, 0.95, 50),
                     id="third"),
    ])
    def test_worked_examples_are_exact(self, half, side, closed, es):
        # the completion integrates h(u)/u^2 and takes no derivative of h
        loss = reconstruct_symmetric(half, side)
        assert np.max(np.abs(loss.ell_neg(es) - closed(es))) <= 1e-11

    @pytest.mark.parametrize("name", ["square", "log", "boosting"])
    def test_round_trip_is_exact(self, name):
        full = catalog_loss(name)
        loss = reconstruct_symmetric(full.ell_neg, "lower")
        es = np.linspace(0.5, 0.99, 50)
        assert np.max(np.abs(loss.ell_neg(es) - full.ell_neg(es))) <= 1e-11, name

    @pytest.mark.parametrize("name", ["square", "log", "boosting"])
    def test_upper_half_of_a_fair_loss_completes_fair(self, name):
        # ell_neg(0) lies on the completed side; the middle term takes its limit 0
        full = catalog_loss(name)
        loss = reconstruct_symmetric(full.ell_neg, "upper")
        assert loss.fair
        es = np.linspace(0.01, 0.5, 50)
        assert np.max(np.abs(loss.ell_neg(es) - full.ell_neg(es))) <= 1e-11, name

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_square_completion_reaches_both_ends(self, side):
        # the middle term's 0 * inf at e = 0 or e = 1 is its limit 0
        loss = reconstruct_symmetric(catalog_loss("square").ell_neg, side)
        assert np.max(np.abs(loss.ell_neg(np.array([0.0, 1.0])) - [0.0, 0.5])) <= 1e-11
        assert np.max(np.abs(loss.ell_pos(np.array([0.0, 1.0])) - [0.5, 0.0])) <= 1e-11

    def test_positive_partial_by_mirror(self):
        loss = reconstruct_symmetric(lambda e: np.asarray(e, dtype=float), "lower")
        for e in [0.2, 0.6, 0.9]:
            assert float(loss.ell_pos(np.asarray(e))) == pytest.approx(
                float(loss.ell_neg(np.asarray(1 - e))), abs=1e-12)

    def test_improper_half_rejected(self):
        # decreasing ell_neg forces a negative implied weight
        with pytest.raises(ImpropernessError):
            reconstruct_symmetric(lambda e: -np.asarray(e, dtype=float), "lower")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            reconstruct_symmetric(lambda e: np.asarray(e, dtype=float), "middle")


class TestSymmetryCoupling:
    @pytest.mark.parametrize("name", ["square", "log", "boosting", "minimal"])
    def test_symmetric_weight_gives_mirrored_partials(self, name):
        loss = catalog_loss(name)
        es = np.linspace(0.02, 0.98, 49)
        lhs = np.asarray(loss.ell_pos(es), dtype=float)
        rhs = np.asarray(loss.ell_neg(1 - es), dtype=float)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9, name

    def test_asymmetric_weight_breaks_the_mirror(self):
        loss = catalog_loss("w1-over-c")
        assert abs(float(loss.ell_pos(np.asarray(0.3)))
                   - float(loss.ell_neg(np.asarray(0.7)))) > 0.1
