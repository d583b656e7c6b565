"""Composite losses, links from partials, margin losses, Bregman duality."""

import math
import warnings

import numpy as np
import pytest

from cploss.analysis import certification_grid
from cploss.composite import (
    MarginLoss,
    composite_conditional_risk,
    composite_from_margin,
    composite_regret,
    duality_residual,
    exponential_margin,
    logistic_margin,
    make_composite,
    margin_to_link,
    reference_link,
    score_gradients,
    zhang_margin,
)
from cploss.links import catalog_link, canonical_link
from cploss.numerics import NumericsError, finite_diff
from cploss.proper import catalog_loss, cost_loss, regret
from cploss.weights import WeightFunction, catalog_weight
from weight_strategies import beta_expression

ETA_GRID = np.linspace(0.02, 0.98, 49)


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=float)))


class TestMakeComposite:
    def test_log_logit_is_logistic_margin(self):
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        vs = np.linspace(-8, 8, 65)
        assert np.allclose(np.asarray(cl.ell_pos(vs)), np.log1p(np.exp(-vs)), atol=1e-12)
        assert np.allclose(np.asarray(cl.ell_neg(vs)), np.log1p(np.exp(vs)), atol=1e-12)

    def test_square_identity_is_itself(self):
        cl = make_composite(catalog_loss("square"), catalog_link("identity"))
        es = np.linspace(0.0, 1.0, 21)
        assert np.allclose(np.asarray(cl.ell_pos(es)), (1 - es) ** 2 / 2)

    def test_canonical_pairing_has_unit_rho(self):
        wf = catalog_weight("log")
        cl = make_composite(catalog_loss("log"), canonical_link(wf))
        assert np.allclose(np.asarray(cl.rho(ETA_GRID)), 1.0, atol=1e-12)

    def test_log_canonical_composite_equals_log_logit(self):
        canonical = make_composite(catalog_loss("log"), canonical_link(catalog_weight("log")))
        logit = make_composite(catalog_loss("log"), catalog_link("logit"))
        vs = np.linspace(-5, 5, 21)
        assert np.max(np.abs(np.asarray(canonical.ell_pos(vs))
                             - np.asarray(logit.ell_pos(vs)))) <= 1e-8
        assert np.max(np.abs(np.asarray(canonical.ell_neg(vs))
                             - np.asarray(logit.ell_neg(vs)))) <= 1e-8

    def test_atom_weight_blocks_rho_but_not_evaluation(self):
        cl = make_composite(cost_loss(0.4), catalog_link("identity"))
        assert float(cl.ell_neg(np.asarray(0.5))) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            cl.rho
        with pytest.raises(ValueError):
            score_gradients(cl, 0.5)


class TestConditionalRisk:
    def test_minimised_at_the_linked_probability(self):
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        for eta in [0.2, 0.5, 0.8]:
            v_star = float(cl.link.psi(np.asarray(eta)))
            assert composite_conditional_risk(cl, eta, v_star) == pytest.approx(
                float(np.asarray(catalog_loss("log").ell_pos(np.asarray(eta))) * eta
                      + np.asarray(catalog_loss("log").ell_neg(np.asarray(eta))) * (1 - eta)))

    def test_log_logit_at_zero(self):
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        assert composite_conditional_risk(cl, 0.5, 0.0) == pytest.approx(math.log(2))

    def test_exponential_composite_at_zero(self):
        ec = composite_from_margin(exponential_margin())
        assert composite_conditional_risk(ec, 0.5, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_score_range_enforced(self):
        cl = make_composite(catalog_loss("square"), catalog_link("identity"))
        with pytest.raises(ValueError):
            composite_conditional_risk(cl, 0.5, 1.5)

    def test_score_derivative_formula(self):
        # d/dv of the conditional risk is (q(v) - eta) rho(q(v))
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        for eta in [0.25, 0.6]:
            for v in [-1.5, 0.0, 2.0]:
                fd = finite_diff(lambda t: composite_conditional_risk(cl, eta, t), v, 1)
                q = float(cl.link.q(np.asarray(v)))
                want = (q - eta) * float(cl.rho(np.asarray(q)))
                assert fd == pytest.approx(want, rel=1e-6, abs=1e-9)


class TestScoreGradients:
    def test_log_logit_at_zero(self):
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        d_pos, d_neg = score_gradients(cl, 0.0)
        assert d_pos == pytest.approx(-0.5)
        assert d_neg == pytest.approx(0.5)

    def test_square_identity_formula(self):
        cl = make_composite(catalog_loss("square"), catalog_link("identity"))
        for e in [0.2, 0.7]:
            d_pos, d_neg = score_gradients(cl, e)
            assert d_pos == pytest.approx(e - 1)
            assert d_neg == pytest.approx(e)

    def test_gap_is_rho_and_nonnegative(self):
        cl = make_composite(catalog_loss("boosting"), catalog_link("logit"))
        for v in [-2.0, 0.0, 1.0]:
            d_pos, d_neg = score_gradients(cl, v)
            q = float(cl.link.q(np.asarray(v)))
            assert d_neg - d_pos == pytest.approx(float(cl.rho(np.asarray(q))))
            assert d_neg - d_pos >= 0.0

    @pytest.mark.parametrize("v", [19.0, 20.0])
    def test_saturated_margin_link_raises_naming_v(self, v):
        # q(v) rounds to 1, where the margin link's psi' (1 over a difference
        # quotient of q) is undefined; below, at v = -19, the gradients are finite
        cl = composite_from_margin(exponential_margin())
        assert np.all(np.isfinite(score_gradients(cl, -19.0)))
        with pytest.raises(NumericsError, match=f"v={v!r}"):
            score_gradients(cl, v)

    @pytest.mark.parametrize("builder", [
        lambda: make_composite(catalog_loss("log"), catalog_link("logit")),
        lambda: make_composite(catalog_loss("square"), catalog_link("identity")),
        lambda: composite_from_margin(exponential_margin()),
    ])
    def test_matches_central_differences(self, builder):
        cl = builder()
        vs = np.asarray(cl.link.psi(np.linspace(0.02, 0.98, 99)), dtype=float)
        interior = (vs > cl.link.range[0] + 1e-4) & (vs < cl.link.range[1] - 1e-4)
        for v in vs[interior][::7]:
            d_pos, d_neg = score_gradients(cl, float(v))
            fd_pos = finite_diff(lambda t: float(cl.ell_pos(np.asarray(t))), float(v), 1)
            fd_neg = finite_diff(lambda t: float(cl.ell_neg(np.asarray(t))), float(v), 1)
            assert d_pos == pytest.approx(fd_pos, rel=1e-6, abs=1e-8)
            assert d_neg == pytest.approx(fd_neg, rel=1e-6, abs=1e-8)


class TestCompositeRegret:
    def test_zero_at_linked_probability(self):
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        assert composite_regret(cl, 0.4, float(cl.link.psi(np.asarray(0.4)))) == pytest.approx(0.0, abs=1e-12)

    def test_square_identity(self):
        cl = make_composite(catalog_loss("square"), catalog_link("identity"))
        assert composite_regret(cl, 0.2, 0.7) == pytest.approx(0.125)

    def test_reduces_to_base_regret_through_link(self):
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        v = float(cl.link.psi(np.asarray(0.25)))
        assert composite_regret(cl, 0.5, v) == pytest.approx(
            regret(catalog_loss("log"), 0.5, 0.25), abs=1e-12)


class TestReferenceAndMarginLinks:
    def test_exponential_margin_gives_half_logit(self):
        link = margin_to_link(exponential_margin())
        vs = np.linspace(-8, 8, 81)
        assert np.max(np.abs(np.asarray(link.q(vs)) - sigmoid(2 * vs))) <= 1e-10
        xs = np.linspace(0.02, 0.98, 49)
        want = 0.5 * np.log(xs / (1 - xs))
        assert np.max(np.abs(np.asarray(link.psi(xs)) - want)) <= 1e-9

    def test_logistic_margin_gives_logit(self):
        link = margin_to_link(logistic_margin())
        vs = np.linspace(-8, 8, 81)
        assert np.max(np.abs(np.asarray(link.q(vs)) - sigmoid(vs))) <= 1e-10

    def test_reference_link_specialises_to_margin_link(self):
        m = exponential_margin()
        margin = margin_to_link(m)
        ref = reference_link(lam_pos_prime=lambda v: np.asarray(m.phi_prime(v)),
                             lam_neg_prime=lambda v: -np.asarray(m.phi_prime(-v)))
        vs = np.linspace(-8, 8, 81)
        assert np.max(np.abs(np.asarray(ref.q(vs)) - np.asarray(margin.q(vs)))) <= 1e-10

    @pytest.mark.parametrize("m", [exponential_margin(), logistic_margin(), zhang_margin(2.0)],
                             ids=lambda m: m.name)
    def test_margin_link_is_bitwise_the_reference_link(self, m):
        margin = margin_to_link(m)
        ref = reference_link(lam_pos_prime=m.phi_prime, lam_neg_prime=lambda v: -m.phi_prime(-v))
        vs = np.linspace(-19.5, 19.5, 161)
        xs = np.linspace(0.001, 0.999, 161)
        assert margin.q(vs).tobytes() == ref.q(vs).tobytes()
        assert margin.psi(xs).tobytes() == ref.psi(xs).tobytes()
        assert margin.name == f"link({m.name})"

    def test_reference_link_identity_round_trip(self):
        # square partials with the identity link recover the identity
        ref = reference_link(lam_pos_prime=lambda v: np.asarray(v, dtype=float) - 1.0,
                             lam_neg_prime=lambda v: np.asarray(v, dtype=float),
                             v_range=(0.0, 1.0))
        vs = np.linspace(0.05, 0.95, 19)
        assert np.max(np.abs(np.asarray(ref.q(vs)) - vs)) <= 1e-10

    def test_margin_symmetry(self):
        for m in [exponential_margin(), logistic_margin(), zhang_margin(2.0)]:
            link = margin_to_link(m)
            vs = np.linspace(-8, 8, 81)
            assert np.max(np.abs(np.asarray(link.q(vs)) + np.asarray(link.q(-vs)) - 1.0)) <= 1e-10
            assert float(link.q(np.asarray(0.0))) == pytest.approx(0.5, abs=1e-12)
            assert float(link.psi(np.asarray(0.5))) == pytest.approx(0.0, abs=1e-10)

    def test_zhang_family_closed_form(self):
        for alpha in [0.5, 1.0, 3.0]:
            link = margin_to_link(zhang_margin(alpha))
            vs = np.linspace(-6, 6, 49)
            num = np.exp(2 * alpha) + np.exp(alpha * (1 - vs))
            den = np.exp(2 * alpha) + np.exp(alpha * (1 + vs))
            want = 1.0 / (1.0 + num / den)
            assert np.max(np.abs(np.asarray(link.q(vs)) - want)) <= 1e-10, alpha

    def test_zhang_concentrates_near_half_as_alpha_vanishes(self):
        # near the hinge limit the probability estimates pin to 1/2 except
        # at very large scores, which is why the hinge itself carries no
        # probability information
        link = margin_to_link(zhang_margin(0.05), v_range=(-250.0, 250.0))
        qs = np.asarray(link.q(np.linspace(-5, 5, 11)), dtype=float)
        assert np.max(np.abs(qs - 0.5)) < 0.07
        assert float(link.q(np.asarray(200.0))) > 0.95

    def test_hinge_refused(self):
        hinge = MarginLoss(
            phi=lambda v: np.maximum(1.0 - v, 0.0),
            phi_prime=lambda v: np.where(v < 1.0, -1.0, 0.0),
            name="hinge")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError):
                margin_to_link(hinge)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            reference_link(lam_pos_prime=lambda v: np.cos(np.asarray(v, dtype=float)),
                           lam_neg_prime=lambda v: np.sin(np.asarray(v, dtype=float)),
                           v_range=(-3.0, 3.0))


class TestQuasiConvexityAndArgmin:
    WEIGHTS = ["square", "log", "boosting", "minimal", "w1-over-c", "w1-over-1mc"]
    LINKS = ["identity", "logit", "cll", "square-link", "cosine"]

    @pytest.mark.parametrize("wname", WEIGHTS)
    @pytest.mark.parametrize("lname", LINKS)
    def test_no_interior_local_maximum(self, wname, lname):
        cl = make_composite(catalog_loss(wname), catalog_link(lname))
        grid = certification_grid(499)
        vs = np.asarray(cl.link.psi(grid), dtype=float)
        for eta in [0.1, 0.3, 0.5, 0.7, 0.9]:
            risks = np.asarray(composite_conditional_risk(cl, eta, vs), dtype=float)
            diffs = np.diff(risks)
            rising = np.nonzero(diffs > 1e-12)[0]
            if len(rising):
                assert np.all(diffs[rising[0]:] >= -1e-12), (wname, lname, eta)

    @pytest.mark.parametrize("wname", WEIGHTS)
    def test_argmin_sits_at_the_linked_probability(self, wname):
        cl = make_composite(catalog_loss(wname), catalog_link("logit"))
        grid = certification_grid(999)
        vs = np.asarray(cl.link.psi(grid), dtype=float)
        for eta in [0.2, 0.5, 0.8]:
            risks = np.asarray(composite_conditional_risk(cl, eta, vs), dtype=float)
            k = int(np.argmin(risks))
            v_star = float(cl.link.psi(np.asarray(eta)))
            lo = vs[max(k - 1, 0)]
            hi = vs[min(k + 1, len(vs) - 1)]
            assert lo - 1e-12 <= v_star <= hi + 1e-12, (wname, eta)


class TestDuality:
    def test_identity_generator_is_self_dual(self):
        assert duality_residual(lambda t: np.asarray(t, dtype=float), 0.3, 0.6) <= 1e-12
        assert duality_residual(lambda t: np.asarray(t, dtype=float), 0.5, 0.5) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (-0.5, -0.5)])
    @pytest.mark.parametrize("x,y", [(0.3, 0.6), (0.0898, 0.7078), (0.8828, 0.3413)])
    def test_unbounded_canonical_generator(self, a, b, x, y):
        # psi is unbounded at both ends, and its quadrature cannot reach 1 - 1e-12
        psi = canonical_link(WeightFunction(w=beta_expression(a, b))).psi
        assert duality_residual(psi, x, y) <= 1e-8

    def test_logit_generator_on_grid(self):
        W = lambda t: np.log(np.asarray(t, dtype=float) / (1 - np.asarray(t, dtype=float)))
        worst = 0.0
        for x in np.linspace(0.05, 0.95, 20):
            for y in np.linspace(0.05, 0.95, 20):
                worst = max(worst, duality_residual(W, float(x), float(y)))
        assert worst <= 1e-8
