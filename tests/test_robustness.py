"""Label-noise corruption, noisy losses, minimiser sets, robustness intervals."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cploss.composite import make_composite
from cploss.experiments import Experiment, full_risk
from cploss.links import canonical_link, catalog_link
from cploss.proper import catalog_loss, cost_loss, zero_one_loss
from cploss.robustness import (
    corrupt,
    cost_robust_interval,
    minimizer_set,
    noisy_loss,
    nonrobust_region_report,
    proper_nonrobust_region,
)
from cploss.weights import catalog_weight, tabulated_weight


class TestCorrupt:
    def test_half_is_a_fixed_point(self):
        for alpha in [0.0, 0.1, 0.3, 0.49]:
            assert corrupt(0.5, alpha) == pytest.approx(0.5)

    def test_endpoints_map_to_the_noise_floor(self):
        assert corrupt(0.0, 0.1) == pytest.approx(0.1)
        assert corrupt(1.0, 0.1) == pytest.approx(0.9)

    def test_formula_value(self):
        assert corrupt(0.8, 0.2) == pytest.approx(0.68)

    def test_preserves_the_side_of_half(self):
        etas = np.linspace(0.0, 1.0, 101)
        for alpha in [0.05, 0.2, 0.45]:
            out = corrupt(etas, alpha)
            mask = np.abs(etas - 0.5) > 1e-12
            assert np.all(np.sign(out[mask] - 0.5) == np.sign(etas[mask] - 0.5))
            assert np.all(out >= alpha - 1e-12) and np.all(out <= 1 - alpha + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            corrupt(0.5, 0.5)
        with pytest.raises(ValueError):
            corrupt(1.5, 0.1)

    @pytest.mark.parametrize("eta", [math.nan, [0.2, math.nan]])
    def test_nan_is_outside_the_unit_interval(self, eta):
        with pytest.raises(ValueError, match="eta must lie in"):
            corrupt(eta, 0.1)


class TestNoisyLoss:
    def test_zero_noise_is_identity(self):
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        noisy = noisy_loss(cl, 0.0)
        vs = np.linspace(-3, 3, 13)
        assert np.allclose(np.asarray(noisy.ell_pos(vs)), np.asarray(cl.ell_pos(vs)))

    def test_square_mixture_value(self):
        cl = make_composite(catalog_loss("square"), catalog_link("identity"))
        noisy = noisy_loss(cl, 0.25)
        # at etahat = 1/2 the two square partials coincide at 1/8
        assert float(noisy.ell(1, np.asarray(0.5))) == pytest.approx(0.125)

    def test_risk_identity_exact(self):
        # risk of the noisy loss on eta equals the clean risk on eta_alpha
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        from cploss.composite import composite_conditional_risk
        worst = 0.0
        for alpha in [0.05, 0.1, 0.3]:
            noisy = noisy_loss(cl, alpha)
            for eta in np.linspace(0.0, 1.0, 20):
                for v in np.linspace(-4.0, 4.0, 20):
                    lhs = composite_conditional_risk(cl, corrupt(float(eta), alpha), float(v))
                    rhs = noisy.conditional_risk(float(eta), float(v))
                    worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-12

    def test_spot_identity_value(self):
        cl = make_composite(catalog_loss("square"), catalog_link("identity"))
        from cploss.composite import composite_conditional_risk
        noisy = noisy_loss(cl, 0.1)
        lhs = composite_conditional_risk(cl, corrupt(0.3, 0.1), 0.6)
        assert noisy.conditional_risk(0.3, 0.6) == pytest.approx(lhs, abs=1e-15)


class TestMinimizerSet:
    GRID = np.linspace(0.0, 1.0, 1001)

    def test_cost_loss_low_eta_plateau(self):
        sel = minimizer_set(cost_loss(0.4), 0.2, self.GRID)
        assert np.all(sel < 0.4)
        assert sel.min() == 0.0
        assert sel.max() == pytest.approx(0.399, abs=1e-12)

    def test_cost_loss_high_eta_plateau(self):
        sel = minimizer_set(cost_loss(0.4), 0.7, self.GRID)
        assert np.all(sel >= 0.4)
        assert sel.max() == 1.0

    def test_strictly_proper_near_singleton(self):
        sel = minimizer_set(catalog_loss("square"), 0.3, self.GRID)
        assert len(sel) == 1
        assert sel[0] == pytest.approx(0.3, abs=1e-3)

    def test_zero_one_plateaus(self):
        sel = minimizer_set(zero_one_loss(), 0.2, self.GRID)
        assert np.all(sel < 0.5)

    @pytest.mark.parametrize("eta", [math.nan, -0.5, 1.5])
    def test_eta_outside_the_unit_interval_is_refused(self, eta):
        with pytest.raises(ValueError, match="eta must lie in"):
            minimizer_set(catalog_loss("square"), eta, self.GRID)

    def test_a_composite_inverts_its_link_once_per_call(self):
        log = catalog_weight("log")
        psi_calls = []

        def W(c):   # the canonical link's psi is W less W(1/2)
            psi_calls.append(np.size(c))
            return log.W(c)

        cl = make_composite(catalog_loss("log"), canonical_link(replace(log, W=W)))
        grid = np.linspace(-5.0, 5.0, 1001)
        psi_calls.clear()
        cl.link.q(grid)
        one_q = list(psi_calls)
        psi_calls.clear()
        got = minimizer_set(cl, 0.3, grid)
        assert psi_calls == one_q   # one inversion of q serves both partials
        risks = 0.3 * cl.ell_pos(grid) + 0.7 * cl.ell_neg(grid)
        m = float(np.min(risks))
        assert np.array_equal(got, grid[risks <= m + 1e-12 * (1.0 + abs(m))])


class TestCostRobustInterval:
    def test_half_threshold_is_always_robust(self):
        ri = cost_robust_interval(0.5, 0.2)
        assert ri.interval is None
        assert ri.is_robust_at(0.5) and ri.is_robust_at(0.1)

    def test_quarter_example(self):
        ri = cost_robust_interval(0.25, 0.1)
        lo, hi = ri.interval
        assert lo == pytest.approx(0.1875)
        assert hi == pytest.approx(0.25)
        assert ri.contains(0.2) and not ri.contains(0.25)  # half-open at c0

    def test_zero_noise_is_empty(self):
        for c0 in [0.1, 0.5, 0.9]:
            assert cost_robust_interval(c0, 0.0).interval is None

    def test_upper_halves_shape(self):
        ri = cost_robust_interval(0.75, 0.1)
        lo, hi = ri.interval
        assert lo == pytest.approx(0.75)
        assert hi == pytest.approx((0.75 - 0.1) / 0.8)

    def test_json_shape(self):
        d = cost_robust_interval(0.25, 0.1).to_json_dict()
        assert d["c0"] == 0.25 and d["alpha"] == 0.1
        assert d["interval"][1] == pytest.approx(0.25)
        assert cost_robust_interval(0.3, 0.0).to_json_dict()["interval"] is None


def brute_force_robust(c0: float, alpha: float, eta: float, grid: np.ndarray) -> bool:
    """Oracle: do the clean and corrupted minimiser sets intersect?"""
    loss = cost_loss(c0)
    clean = minimizer_set(loss, eta, grid)
    noisy = minimizer_set(loss, corrupt(eta, alpha), grid)
    return bool(np.intersect1d(clean, noisy).size > 0)


class TestClosedFormAgainstBruteForce:
    def test_interval_matches_minimiser_sets(self):
        grid = np.linspace(0.0, 1.0, 1001)
        etas = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        step = 1e-3
        for c0 in np.round(np.arange(0.1, 0.95, 0.1), 10):
            for alpha in (0.05, 0.1, 0.2):
                ri = cost_robust_interval(float(c0), alpha)
                closed = np.array([not ri.contains(float(e)) for e in etas])
                brute = np.empty_like(closed)
                for i, e in enumerate(etas):
                    brute[i] = brute_force_robust(float(c0), alpha, float(e), grid)
                disagree = etas[closed != brute]
                if len(disagree):
                    # boundary fuzz only: every disagreement within one grid
                    # step of an interval endpoint
                    lo, hi = ri.interval
                    dist = np.minimum(np.abs(disagree - lo), np.abs(disagree - hi))
                    assert np.max(dist) <= step + 1e-12, (c0, alpha)


class TestProperNonrobustRegion:
    def test_strictly_positive_weight_covers_everything(self):
        grid = np.arange(1, 1000) / 1000.0
        for name in ["square", "log", "boosting", "minimal"]:
            union = proper_nonrobust_region(catalog_weight(name), 0.1, grid)
            assert len(union) == 1
            lo, hi = union[0]
            assert lo == 0.0 and hi == 1.0
            assert np.all([(lo <= e < hi) for e in grid])

    def test_atom_at_half_only_is_empty(self):
        union = proper_nonrobust_region(catalog_weight("zero-one"), 0.1)
        assert union == []

    def test_off_centre_atom(self):
        union = proper_nonrobust_region(catalog_weight("cost", {"c0": 0.25}), 0.1)
        assert len(union) == 1
        assert union[0][0] == pytest.approx(0.1875)
        assert union[0][1] == pytest.approx(0.25)

    def test_compact_support(self):
        wf = tabulated_weight([[0.1999, 0.0], [0.2, 1.0], [0.3, 1.0], [0.3001, 0.0]])
        grid = np.arange(1, 1000) / 1000.0
        union = proper_nonrobust_region(wf, 0.1, grid)
        assert len(union) == 1
        lo, hi = union[0]
        assert lo == pytest.approx((0.2 - 0.1) / 0.8, abs=5e-3)
        assert hi == pytest.approx(0.3, abs=5e-3)

    def test_zero_noise_empty(self):
        assert proper_nonrobust_region(catalog_weight("square"), 0.0) == []

    def test_report_shape(self):
        rep = nonrobust_region_report(catalog_weight("square"), 0.1)
        assert rep["alpha"] == 0.1
        assert rep["nonrobust_union"] == [[0.0, 1.0]]


class TestZeroTimesInfinityGuard:
    """A partial loss that is infinite where its label has probability zero adds nothing."""

    SCORES = np.concatenate([[-800.0], np.linspace(-6.0, 6.0, 121), [800.0]])

    def test_composite_minimizer_sets_at_certain_labels(self):
        # q(-800) = 0 and q(800) = 1 exactly, where one log partial is infinite
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        assert minimizer_set(cl, 0.0, self.SCORES)[0] == -800.0
        assert minimizer_set(cl, 1.0, self.SCORES)[-1] == 800.0

    def test_noisy_minimizer_set_at_a_certain_label(self):
        # both noisy partials are infinite at the extreme scores; the clean
        # risk at eta = 0 is the base risk at eta_alpha = 0.1
        noisy = noisy_loss(make_composite(catalog_loss("log"), catalog_link("logit")), 0.1)
        got = minimizer_set(noisy, 0.0, self.SCORES)
        assert len(got) == 1 and got[0] == pytest.approx(np.log(0.1 / 0.9), abs=0.1)
        risks = noisy.conditional_risk(0.0, self.SCORES)
        assert np.isinf(risks[0]) and np.isinf(risks[-1])
        assert np.all(np.isfinite(risks[1:-1]))

    def test_noiseless_mixture_matches_the_clean_loss(self):
        # at alpha = 0 the flipped partial has weight zero and is dropped, so
        # its infinities at etahat = 0 and 1 cannot turn the risk into nan
        grid = [0.0, 0.2, 0.5, 0.8, 1.0]
        clean = minimizer_set(catalog_loss("log"), 0.3, grid)
        assert clean.tolist() == [0.2]
        assert minimizer_set(noisy_loss(catalog_loss("log"), 0.0), 0.3, grid).tolist() == [0.2]

    def test_full_risk_of_a_perfect_predictor(self):
        step = lambda x: (np.asarray(x, dtype=float) > 0.5).astype(float)
        exp = Experiment(eta=step, name="certain")
        assert full_risk(exp, catalog_loss("log"), step) == 0.0
