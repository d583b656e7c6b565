"""Full risks over the unit interval, the surrogate study, the regret bound."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.integrate import quad
from scipy.optimize import minimize_scalar as scipy_minimize

from cploss.composite import make_composite
from cploss.experiments import (
    Experiment,
    LinearHypothesisClass,
    affine_experiment,
    constrained_bayes,
    full_risk,
    minimal_loss,
    quadratic_experiment,
    regret_bound_invert,
    regret_bound_rhs,
    run_surrogate_experiment,
    surrogate_penalty,
    zero_one_linear_risk,
)
from cploss.links import catalog_link
from cploss.proper import bayes_risk, catalog_loss, cost_loss, from_weight
from cploss.robustness import noisy_loss
from cploss.weights import WeightFunction, catalog_weight
from weight_strategies import BETA_EXPONENTS, beta_expression

EXPERIMENTS = {"eta1": quadratic_experiment(), "eta2": affine_experiment()}


def scipy_argmin(exp, loss):
    """scipy's bounded minimiser of the full risk over the linear class."""
    risk = lambda a: full_risk(exp, loss, LinearHypothesisClass.hypothesis(a))
    return scipy_minimize(risk, bounds=(0.0, 1.0), method="bounded",
                          options={"xatol": 1e-12}).x


class TestFullRisk:
    def test_degenerate_constant_experiment(self):
        exp = Experiment(eta=lambda x: 0.3 * np.ones_like(np.asarray(x, dtype=float)),
                         name="const")
        h = lambda x: 0.3 * np.ones_like(np.asarray(x, dtype=float))
        loss = catalog_loss("square")
        assert full_risk(exp, loss, h) == pytest.approx(bayes_risk(loss, 0.3), abs=1e-12)

    def test_matches_scipy_quad(self):
        exp = quadratic_experiment()
        loss = catalog_loss("w1-over-c")
        h = LinearHypothesisClass().hypothesis(0.5)

        def integrand(x):
            e, p = x * x, 0.5 * x
            return e * (p - 1 - math.log(p)) + (1 - e) * p

        want, _ = quad(integrand, 0, 1, epsabs=1e-13, limit=200)
        assert full_risk(exp, loss, h) == pytest.approx(want, abs=1e-9)

    def test_closed_form_objective(self):
        # the slope-a objective for the 1/c-weight surrogate on the
        # quadratic experiment is a/2 - log(a)/3 - 2/9
        exp = quadratic_experiment()
        loss = catalog_loss("w1-over-c")
        for a in [0.3, 2 / 3, 0.9]:
            want = a / 2 - math.log(a) / 3 - 2 / 9
            got = full_risk(exp, loss, LinearHypothesisClass().hypothesis(a))
            assert got == pytest.approx(want, abs=1e-10)

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            Experiment(eta=lambda x: 2.0 * np.asarray(x, dtype=float), name="bad")

    def test_surrogate_conditional_risks_closed_forms(self):
        # the two study surrogates, synthesised from their weights, realise
        # the conditional risks eta(h-1-log h) + (1-eta)h and
        # eta(1-h) + (1-eta)(-h-log(1-h)) without any constant offset
        from cploss.proper import conditional_risk
        l1 = catalog_loss("w1-over-c")
        l2 = catalog_loss("w1-over-1mc")
        for eta in [0.1, 0.5, 0.9]:
            for h in [0.2, 0.6, 0.95]:
                want1 = eta * (h - 1 - math.log(h)) + (1 - eta) * h
                want2 = eta * (1 - h) + (1 - eta) * (-h - math.log(1 - h))
                assert conditional_risk(l1, eta, h) == pytest.approx(want1, abs=1e-10)
                assert conditional_risk(l2, eta, h) == pytest.approx(want2, abs=1e-10)


class TestConstrainedBayes:
    def test_quadratic_with_one_over_c(self):
        res = constrained_bayes(quadratic_experiment(), catalog_loss("w1-over-c"))
        assert res.argmin == pytest.approx(2 / 3, abs=1e-6)

    def test_affine_with_one_over_c_boundary(self):
        res = constrained_bayes(affine_experiment(), catalog_loss("w1-over-c"))
        assert res.argmin == 1.0

    def test_affine_with_one_over_1mc(self):
        res = constrained_bayes(affine_experiment(), catalog_loss("w1-over-1mc"))
        assert res.argmin == pytest.approx(0.77763472, abs=1e-6)

    def test_quadratic_with_one_over_1mc(self):
        res = constrained_bayes(quadratic_experiment(), catalog_loss("w1-over-1mc"))
        assert res.argmin == pytest.approx(0.81779259, abs=1e-6)

    @pytest.mark.parametrize("weight, eta, want", [
        ("square", "eta1", 3 / 4), ("square", "eta2", 5 / 6), ("w1-over-c", "eta1", 2 / 3)])
    def test_argmin_is_the_exact_rational(self, weight, eta, want):
        # g(alpha) is a polynomial (square) or (3 alpha - 2) / (6 alpha) (1/c, eta1)
        res = constrained_bayes(EXPERIMENTS[eta], catalog_loss(weight))
        assert res.argmin == pytest.approx(want, abs=1e-12)

    def test_min_value_is_the_full_risk_at_the_argmin(self):
        exp, loss = affine_experiment(), catalog_loss("log")
        res = constrained_bayes(exp, loss)
        assert res.min_value == full_risk(exp, loss, LinearHypothesisClass.hypothesis(res.argmin))

    @pytest.mark.parametrize("eta", ["eta1", "eta2"])
    @pytest.mark.parametrize("loss", [
        make_composite(catalog_loss("log"), catalog_link("logit")),
        noisy_loss(catalog_loss("log"), 0.2)], ids=["log@logit", "noisy(log,0.2)"])
    def test_composite_and_noisy_agree_with_scipy(self, loss, eta):
        exp = EXPERIMENTS[eta]
        assert constrained_bayes(exp, loss).argmin == pytest.approx(scipy_argmin(exp, loss),
                                                                    abs=1e-6)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            constrained_bayes(quadratic_experiment(), catalog_loss("square"), tol=tol)

    def test_a_weight_with_atoms_has_no_slope(self):
        with pytest.raises(ValueError, match="atoms"):
            constrained_bayes(quadratic_experiment(), cost_loss(0.3))

    def test_local_minimality(self):
        exp = quadratic_experiment()
        loss = catalog_loss("w1-over-c")
        res = constrained_bayes(exp, loss)
        fam = LinearHypothesisClass()
        for probe in [res.argmin - 1e-3, res.argmin + 1e-3]:
            probe = min(max(probe, 0.0), 1.0)
            if probe != res.argmin:
                assert full_risk(exp, loss, fam.hypothesis(probe)) > res.min_value


# Members with a or b <= 0 have an infinite partial at 0 or 1, which the full
# risk's quadrature reads at its ends and fails on; below 1 the quadrature
# partials grow slow, and scipy's search reads them about 30 times.
_BOUNDED_BETA = tuple(s.filter(lambda t: t >= 1.0) for s in BETA_EXPONENTS)


@settings(max_examples=6, deadline=None)
@given(*_BOUNDED_BETA)
@example(1.0, 3.0)   # 1 - c squared: the minimum at alpha = 1 under eta2
def test_beta_argmins_agree_with_scipy(a, b):
    # c^(a-1) (1-c)^(b-1) through quadrature partials
    loss = from_weight(WeightFunction(w=beta_expression(a, b)))
    for exp in EXPERIMENTS.values():
        assert constrained_bayes(exp, loss).argmin == pytest.approx(scipy_argmin(exp, loss),
                                                                    abs=1e-6)


class TestZeroOneLinearRisk:
    def test_affine_at_full_slope_is_five_twelfths(self):
        assert zero_one_linear_risk(affine_experiment(), 1.0) == pytest.approx(5 / 12, abs=1e-10)

    def test_agrees_with_generic_full_risk_at_full_slope(self):
        # at slope 1 the x = alpha/2 decision boundary coincides with
        # thresholding the prediction itself at 1/2, so the generic
        # misclassification full risk gives the same number
        from cploss.proper import zero_one_loss
        exp = affine_experiment()
        h = LinearHypothesisClass().hypothesis(1.0)
        generic = full_risk(exp, zero_one_loss(), h)
        assert generic == pytest.approx(zero_one_linear_risk(exp, 1.0), abs=1e-9)

    def test_quadratic_closed_form(self):
        # decision boundary x0 = alpha/2; risk = (2/3)x0^3 - x0 + 2/3
        for alpha in [0.4, 2 / 3, 0.9]:
            x0 = alpha / 2
            want = (2 / 3) * x0 ** 3 - x0 + 2 / 3
            assert zero_one_linear_risk(quadratic_experiment(), alpha) == pytest.approx(
                want, abs=1e-10)


class TestSurrogatePenalty:
    def test_self_penalty_is_constrained_bayes_risk(self):
        exp = quadratic_experiment()
        loss = catalog_loss("w1-over-c")
        res = constrained_bayes(exp, loss)
        assert surrogate_penalty(exp, loss, loss) == pytest.approx(res.min_value, abs=1e-9)

    def test_zero_one_reference_orders(self):
        exp1, exp2 = quadratic_experiment(), affine_experiment()
        l1, l2 = catalog_loss("w1-over-c"), catalog_loss("w1-over-1mc")
        s11 = surrogate_penalty(exp1, zero_one_linear_risk, l1)
        s21 = surrogate_penalty(exp1, zero_one_linear_risk, l2)
        s12 = surrogate_penalty(exp2, zero_one_linear_risk, l1)
        s22 = surrogate_penalty(exp2, zero_one_linear_risk, l2)
        assert s21 < s11  # the first experiment prefers the 1/(1-c) surrogate
        assert s12 < s22  # the second prefers 1/c: strict reversal
        assert s11 == pytest.approx(0.3580272, abs=1e-4)
        assert s21 == pytest.approx(0.3033476, abs=1e-4)
        assert s12 == pytest.approx(0.4166666, abs=1e-4)
        assert s22 == pytest.approx(0.4207872, abs=1e-4)


class TestMinimalLoss:
    def test_lower_branch_value(self):
        loss = minimal_loss()
        assert float(loss.ell_neg(np.asarray(0.25))) == pytest.approx(
            0.5 * (-0.25 - math.log(0.75)))

    def test_continuity_at_half(self):
        loss = minimal_loss()
        for part in (loss.ell_neg, loss.ell_pos):
            below = float(part(np.asarray(0.5 - 1e-12)))
            at = float(part(np.asarray(0.5)))
            assert at == pytest.approx(below, abs=1e-10)

    def test_weight_normalised_at_half(self):
        assert float(minimal_loss().weight.w(np.asarray(0.5))) == 1.0

    def test_matches_weight_synthesis(self):
        direct = minimal_loss()
        synthesised = from_weight(catalog_weight("minimal"))
        es = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(np.asarray(direct.ell_neg(es))
                             - np.asarray(synthesised.ell_neg(es)))) <= 1e-8
        assert np.max(np.abs(np.asarray(direct.ell_pos(es))
                             - np.asarray(synthesised.ell_pos(es)))) <= 1e-8


class TestRegretBound:
    def test_zero_at_zero(self):
        assert regret_bound_rhs(0.0) == 0.0
        assert regret_bound_invert(0.0) == 0.0

    def test_closed_form_at_half(self):
        assert regret_bound_rhs(0.5) == pytest.approx(0.5 * math.log(2) - 0.25)

    def test_generic_square_loss(self):
        assert regret_bound_rhs(0.2, catalog_loss("square")) == pytest.approx(0.02)

    def test_a_given_loss_goes_through_its_bayes_risk_whatever_its_name(self):
        log = catalog_loss("log")
        want = bayes_risk(log, 0.5) - bayes_risk(log, 0.7)
        assert regret_bound_rhs(0.2, replace(log, name="minimal")) == want

    def test_minimal_loss_bayes_risk_matches_the_closed_form(self):
        for a in (0.05, 0.2, 0.37, 0.5):
            assert regret_bound_rhs(a, minimal_loss()) == pytest.approx(
                regret_bound_rhs(a), abs=1e-15)

    def test_invert_at_quarter(self):
        assert regret_bound_invert(0.25) == pytest.approx((math.e - 1) / 2)

    def test_round_trip(self):
        for a in np.arange(0.0, 0.5 + 1e-12, 0.01):
            assert regret_bound_invert(regret_bound_rhs(float(a))) == pytest.approx(
                float(a), abs=1e-8)

    def test_nondecreasing_curve(self):
        xs = np.linspace(0.0, 1.0, 101)
        vals = np.array([regret_bound_invert(float(x)) for x in xs])
        assert np.all(np.diff(vals) >= -1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            regret_bound_rhs(0.6)
        with pytest.raises(ValueError):
            regret_bound_invert(-0.1)


class TestSurrogateExperimentReport:
    def test_report_values_and_shape(self):
        rep = run_surrogate_experiment()
        assert rep["schema"] == "cploss/1"
        assert rep["runtime_seconds"] < 10.0
        assert len(rep["cells"]) == 4
        for cell in rep["cells"]:
            assert cell["alpha_star_abs_dev"] <= 1e-4
            assert cell["zero_one_risk_abs_dev"] <= 1e-4
        inc = rep["incommensurable"]
        assert inc["experiment_1_prefers_surrogate_2"]
        assert inc["experiment_2_prefers_surrogate_1"]
        assert inc["strict_reversal"]

    def test_boundary_cell_is_exact(self):
        rep = run_surrogate_experiment()
        cell = next(c for c in rep["cells"] if (c["surrogate"], c["experiment"]) == (1, 2))
        assert cell["alpha_star"] == 1.0
