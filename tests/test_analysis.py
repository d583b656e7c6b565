"""Properness test, convexity certification (both routes), regions, calibration."""

from dataclasses import replace

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cploss.analysis import (
    StrictnessError,
    allowable_region,
    calibration_cc,
    calibration_composite,
    certification_grid,
    check_proper,
    convexity_characterization,
    convexity_oracle,
)
from cploss.composite import composite_from_margin, logistic_margin, make_composite
from cploss.expressions import compile_expression
from cploss.links import canonical_link, catalog_link
from cploss.numerics import NumericsError
from cploss.proper import catalog_loss, cost_loss, from_weight, zero_one_loss
from cploss.weights import WeightFunction, catalog_weight, tabulated_weight
from weight_strategies import BETA_EXPONENTS, beta_expression

GRID = np.linspace(0.05, 0.95, 37)

WEIGHTS = ["square", "log", "boosting", "minimal", "w1-over-c", "w1-over-1mc"]
LINKS = ["identity", "logit", "cll", "square-link", "cosine"]


class TestCheckProper:
    def test_square_partials(self):
        proper, weight, resid = check_proper(
            lambda e: (1 - np.asarray(e, dtype=float)) ** 2 / 2,
            lambda e: np.asarray(e, dtype=float) ** 2 / 2,
            GRID)
        assert proper
        assert resid <= 1e-6
        assert np.allclose(np.asarray(weight.w(GRID)), 1.0, atol=1e-5)

    def test_log_partials(self):
        proper, weight, _ = check_proper(
            lambda e: -np.log(np.asarray(e, dtype=float)),
            lambda e: -np.log(1 - np.asarray(e, dtype=float)),
            GRID)
        assert proper
        assert float(weight.w(np.asarray(0.5))) == pytest.approx(4.0, rel=1e-5)

    def test_mismatched_pair_is_rejected(self):
        proper, _, resid = check_proper(
            lambda e: (1 - np.asarray(e, dtype=float)) ** 2,
            lambda e: np.asarray(e, dtype=float),
            GRID)
        assert not proper
        assert resid > 0.1

    def test_non_finite_slope_names_the_first_grid_point(self):
        # ell_neg is finite up to 0.5; its central difference at x needs x + 1e-5
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="ell_neg has no finite slope") as exc:
                check_proper(lambda e: 1.0 - np.asarray(e, dtype=float),
                             lambda e: np.sqrt(0.5 - np.asarray(e, dtype=float)), GRID)
        first_bad = float(GRID[GRID + 1e-5 > 0.5][0])
        assert str(exc.value).endswith(f"grid point x={first_bad!r}")


class TestConvexityCharacterization:
    def test_square_identity_convex(self):
        report = convexity_characterization(catalog_weight("square"),
                                            catalog_link("identity"))
        assert report.convex and not report.violations

    def test_boosting_identity_violation_set(self):
        # analytic solution of the slope condition: the lower bound fails
        # exactly on x < 1/4 and the upper bound on x > 3/4
        grid = certification_grid(999)
        report = convexity_characterization(catalog_weight("boosting"),
                                            catalog_link("identity"), grid)
        assert not report.convex
        step = 1.0 / 1000.0
        lower = report.violation_xs("lower")
        upper = report.violation_xs("upper")
        assert len(lower) and len(upper)
        assert np.max(lower) <= 0.25 + step
        assert np.min(upper) >= 0.75 - step
        inside = grid[(grid >= 0.25 + step) & (grid <= 0.75 - step)]
        flagged = set(report.violation_xs().tolist())
        assert not flagged.intersection(set(inside.tolist()))

    def test_minimal_identity_sits_on_the_boundary(self):
        report = convexity_characterization(catalog_weight("minimal"),
                                            catalog_link("identity"))
        assert report.convex

    @pytest.mark.parametrize("wname", WEIGHTS)
    def test_canonical_link_always_convex(self, wname):
        wf = catalog_weight(wname)
        report = convexity_characterization(wf, canonical_link(wf))
        assert report.convex, wname

    @pytest.mark.parametrize("lname", ["square-link", "cosine"])
    def test_constant_expression_weight_with_a_curved_link_is_convex(self, lname):
        # w = 1 with psi = x^2 meets the lower bound -1/x with equality: x rho = 1/2
        # is constant, so its slope reads 0; with the cosine link x rho grows only
        # by a factor of about 1 + pi^2 x^2 / 6 near 0
        wf = WeightFunction(w=compile_expression("1"))
        assert convexity_characterization(wf, catalog_link(lname)).convex

    def test_log_weight_with_the_logistic_margin_link_is_convex(self):
        # the margin link is the logit, the canonical link of log loss; its
        # psi' is itself a difference quotient, read here like the weight
        link = composite_from_margin(logistic_margin()).link
        assert convexity_characterization(catalog_weight("log"), link).convex

    def test_atom_weight_rejected(self):
        with pytest.raises(StrictnessError):
            convexity_characterization(catalog_weight("zero-one"), catalog_link("identity"))

    def test_vanishing_weight_rejected(self):
        gap = tabulated_weight([[0.01, 1.0], [0.45, 1.0], [0.5, 0.0], [0.55, 1.0], [0.99, 1.0]])
        with pytest.raises(StrictnessError):
            convexity_characterization(gap, catalog_link("identity"),
                                       np.linspace(0.4, 0.6, 21))

    def test_a_reading_that_is_not_a_number_raises(self):
        # at 5e-7 the offset x - 1e-6 is negative, where c^-1.5 is nan
        wf = WeightFunction(w=compile_expression("c^-1.5"), name="c^-1.5")
        with pytest.raises(NumericsError, match="x=5e-07"):
            convexity_characterization(wf, catalog_link("identity"), [1e-4, 5e-7])
        assert not convexity_characterization(wf, catalog_link("identity"), [1e-4]).convex

    def test_an_empty_grid_raises(self):
        with pytest.raises(ValueError, match="at least one grid point"):
            convexity_characterization(catalog_weight("square"), catalog_link("identity"), [])


# The expression twin of each closed-form catalog weight.
TWINS = {"square": "1", "log": "1/((1-c)*c)", "boosting": "((1-c)*c)^-1.5",
         "minimal": "0.5*min(1/c, 1/(1-c))", "w1-over-c": "1/c", "w1-over-1mc": "1/(1-c)"}


@pytest.mark.parametrize("lname", LINKS + ["canonical"])
@pytest.mark.parametrize("wname", WEIGHTS)
def test_an_expression_twin_gets_the_catalog_verdict(wname, lname):
    def report(wf):
        link = canonical_link(wf) if lname == "canonical" else catalog_link(lname)
        return convexity_characterization(wf, link)

    want = report(catalog_weight(wname))
    got = report(WeightFunction(w=compile_expression(TWINS[wname])))
    assert got.convex == want.convex
    assert [v[:2] for v in got.violations] == [v[:2] for v in want.violations]


_c = sp.Symbol("c", positive=True)
EXACT_W = {"square": sp.Integer(1), "log": 1 / (_c * (1 - _c)),
           "boosting": (_c * (1 - _c)) ** sp.Rational(-3, 2),
           "minimal": sp.Piecewise((1 / (2 * (1 - _c)), _c < sp.Rational(1, 2)), (1 / (2 * _c), True)),
           "w1-over-c": 1 / _c, "w1-over-1mc": 1 / (1 - _c)}
EXACT_PSI = {"identity": _c, "logit": sp.log(_c / (1 - _c)), "cll": sp.log(-sp.log(1 - _c)),
             "square-link": _c ** 2, "cosine": 1 - sp.cos(sp.pi * _c)}


def _exact_log_slope(wname, lname, xs):
    """rho'/rho = w'/w - psi''/psi' from sympy derivatives; 0 for the canonical link."""
    if lname == "canonical":
        return np.zeros_like(xs)
    w, dpsi = EXACT_W[wname], sp.diff(EXACT_PSI[lname], _c)
    f = sp.lambdify(_c, sp.diff(w, _c) / w - sp.diff(dpsi, _c) / dpsi, "numpy")
    return np.broadcast_to(np.asarray(f(xs), dtype=float), xs.shape)


@pytest.mark.parametrize("typed", ["catalog", "expression"])
@pytest.mark.parametrize("lname", LINKS + ["canonical"])
@pytest.mark.parametrize("wname", WEIGHTS)
def test_violations_are_those_of_the_exact_slopes(wname, lname, typed):
    # the kink of the minimal weight at 1/2 has no slope and is left out
    xs = certification_grid()
    xs = xs[xs != 0.5] if wname == "minimal" else xs
    exact = _exact_log_slope(wname, lname, xs)
    want = []
    for side, bound, sign in (("lower", -1.0 / xs, 1.0), ("upper", 1.0 / (1.0 - xs), -1.0)):
        slack = 1e-9 * np.maximum(1.0, np.maximum(np.abs(exact), np.abs(bound)))
        want += [(float(x), side) for x in xs[sign * exact < sign * bound - slack]]
    wf = (catalog_weight(wname) if typed == "catalog"
          else WeightFunction(w=compile_expression(TWINS[wname])))
    link = canonical_link(wf) if lname == "canonical" else catalog_link(lname)
    report = convexity_characterization(wf, link, xs)
    assert [v[:2] for v in report.violations] == sorted(want)
    _assert_matches(report, _loop_characterization(wf, link, xs))
    # each reported lhs is the side's reading of rho'/rho
    got = np.array([v[2] for v in report.violations])
    at = np.array([v[0] for v in report.violations])
    np.testing.assert_allclose(got, _exact_log_slope(wname, lname, at), rtol=1e-4, atol=1e-6)


def _beta_violations(a, b, xs, tol=1e-9):
    """The violations ``(x, side)`` of the Beta weight c^(a-1) (1-c)^(b-1) with the
    identity link, from the closed-form slopes of log(x rho) and log((1-x) rho),
    under the characterisation's tolerance rule; and the smallest distance of a
    reading from its threshold, in units of the slack."""
    A, B = a - 1.0, b - 1.0  # the exponents as the expression holds them
    out, nearest = [], np.inf
    for side, slope, bound, sign in (("lower", (A + 1.0) / xs - B / (1.0 - xs), -1.0 / xs, 1.0),
                                     ("upper", A / xs - (B + 1.0) / (1.0 - xs), 1.0 / (1.0 - xs),
                                      -1.0)):
        lhs = slope + bound
        slack = tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(bound)))
        nearest = min(nearest, float(np.min(np.abs(sign * (lhs - bound) + slack) / slack)))
        out += [(float(x), side) for x in xs[sign * lhs < sign * bound - slack]]
    return sorted(out), nearest


# exact exponents put a weight on a bound: c^-1 on the lower one, (1-c)^-1 on the upper
_BETA_EXACT = st.sampled_from([0.0, 1.0])


@given(st.one_of(_BETA_EXACT, BETA_EXPONENTS[0]), st.one_of(_BETA_EXACT, BETA_EXPONENTS[1]))
@example(0.0, 1.0)
@example(1.0, 0.0)
@example(0.0, 1.001)
def test_beta_violations_follow_the_closed_form_slopes(a, b):
    xs = certification_grid()
    want, nearest = _beta_violations(a, b, xs)
    # a closed-form reading within half the slack of its threshold is not decided
    # by a float reading; on a bound the distance is the whole slack
    assume(nearest > 0.5)
    report = convexity_characterization(WeightFunction(w=beta_expression(a, b)),
                                        catalog_link("identity"), xs)
    assert [v[:2] for v in report.violations] == want
    assert report.convex == (not want)


class TestConvexityOracle:
    def test_logistic_margin_composite_convex(self):
        cl = composite_from_margin(logistic_margin())
        report = convexity_oracle(cl)
        assert report.convex

    def test_boosting_identity_matches_characterization(self):
        cl = make_composite(catalog_loss("boosting"), catalog_link("identity"))
        report = convexity_oracle(cl)
        assert not report.convex
        step = 2e-3
        lower = report.violation_xs("lower")
        upper = report.violation_xs("upper")
        assert np.max(lower) <= 0.25 + step
        assert np.min(upper) >= 0.75 - step

    def test_square_identity_convex(self):
        cl = make_composite(catalog_loss("square"), catalog_link("identity"))
        assert convexity_oracle(cl).convex

    @pytest.mark.parametrize("wname", WEIGHTS)
    @pytest.mark.parametrize("lname", LINKS)
    def test_agrees_with_characterization(self, wname, lname):
        wf = catalog_weight(wname)
        link = catalog_link(lname)
        grid = certification_grid(499)
        char = convexity_characterization(wf, link, grid)
        cl = make_composite(from_weight(wf), link)
        oracle = convexity_oracle(cl, np.asarray(link.psi(grid), dtype=float))
        assert char.convex == oracle.convex, (wname, lname)

    @pytest.mark.parametrize("scores", [[], [1.0], [0.0, 0.0, 0.0], [1.0, 2.0], [0.0, 1.0, np.nan],
                                        [0.0, 1.0, 2.0, np.inf]])
    def test_a_grid_without_a_finite_second_difference_raises(self, scores):
        # with no second difference, or a NaN one, no point could ever fail
        cl = make_composite(catalog_loss("boosting"), catalog_link("identity"))
        with pytest.raises(ValueError, match="at least three distinct scores, all finite"):
            convexity_oracle(cl, scores)


def _loop_characterization(wf, link, xs, tol=1e-9, h=1e-6):
    """Reference: the violations of the characterisation, one grid point at a time.

    At each x, ``x rho`` must not decrease and ``(1-x) rho`` must not increase
    between x - h and x + h; the reading of ``rho'/rho`` is the central slope
    of the log of that function, the log of the ratio of its two values over
    2h, plus the bound.
    """
    out = []
    for x in xs:
        t = np.array([x - h, x + h])
        rho = wf.w(t) / link.psi_prime(t)
        for side, f, bound in (("lower", t * rho, -1.0 / x),
                               ("upper", (1.0 - t) * rho, 1.0 / (1.0 - x))):
            lhs = np.log(abs(f[1] / f[0])) / (2.0 * h) + bound
            slack = tol * max(1.0, abs(lhs), abs(bound))
            if lhs < bound - slack if side == "lower" else lhs > bound + slack:
                out.append((float(x), side, float(lhs), float(bound)))
    return tuple(out)


def _loop_oracle(cl, vs, tol=1e-8):
    """Reference: the oracle's violations, one second difference at a time."""
    qs = np.asarray(cl.link.q(vs), dtype=float)
    out = []
    for y, side in ((-1, "lower"), (1, "upper")):
        f = np.asarray(cl.base.ell(y, qs), dtype=float)
        for i in range(1, len(vs) - 1):
            h0, h1 = vs[i] - vs[i - 1], vs[i + 1] - vs[i]
            dd = 2.0 * ((f[i + 1] - f[i]) / h1 - (f[i] - f[i - 1]) / h0) / (vs[i + 1] - vs[i - 1])
            if dd < -(tol + 4e-15 * max(1.0, abs(f[i])) / min(h0, h1) ** 2):
                out.append((float(qs[i]), side, float(dd), 0.0))
    return tuple(sorted(out))


def _assert_matches(report, want):
    """Every view of the report's violations equals the loop's tuples ``want``."""
    assert report.violations == want
    for v in report.violations:
        assert [type(t) for t in v] == [float, str, float, float]
    rows = report.to_json_dict()["violations"]
    assert [list(row.items()) for row in rows] == [
        list(zip(("x", "side", "lhs", "rhs"), v)) for v in want]
    held = (report.xs, report.upper, report.lhs, report.rhs)
    for side in (None, "lower", "upper"):
        got = report.violation_xs(side)
        assert got.dtype == np.float64
        assert got.tolist() == [v[0] for v in want if side in (None, v[1])]
        # a view would keep the whole report alive with the array
        assert not any(np.shares_memory(got, a) for a in held)


class TestViolationsMatchTheLoopReference:
    """The array-held violations equal a per-point loop in every view, values and types."""

    @pytest.mark.parametrize("wname,lname", [("boosting", "identity"), ("w1-over-c", "logit"),
                                             ("w1-over-1mc", "cll"), ("log", "logit")])
    def test_both_routes(self, wname, lname):
        wf, link = catalog_weight(wname), catalog_link(lname)
        grid = certification_grid(199)
        char = convexity_characterization(wf, link, grid)
        vs = np.unique(np.asarray(link.psi(grid), dtype=float))
        cl = make_composite(from_weight(wf), link)
        oracle = convexity_oracle(cl, vs)
        _assert_matches(char, _loop_characterization(wf, link, grid))
        _assert_matches(oracle, _loop_oracle(cl, vs))

    def test_a_grid_point_can_break_both_bounds(self):
        # beyond (0, 1) the bounds cross, so one point violates both; "lower" comes first
        # with w = exp(-c) and the identity link, rho'/rho = -1; log|.| reads the
        # negative (1-x) rho there
        wf = WeightFunction(w=lambda c: np.exp(-c))
        link = catalog_link("identity")
        xs = np.array([0.5, 1.5])
        report = convexity_characterization(wf, link, xs)
        _assert_matches(report, _loop_characterization(wf, link, xs))
        assert [v[:2] for v in report.violations] == [(1.5, "lower"), (1.5, "upper")]

    @pytest.mark.parametrize("side", ["Lower", "UPPER", "both", ""])
    def test_a_misspelt_side_raises(self, side):
        report = convexity_characterization(catalog_weight("boosting"), catalog_link("identity"))
        with pytest.raises(ValueError, match="side must be"):
            report.violation_xs(side)


class TestAllowableRegion:
    def test_identity_values(self):
        curve = allowable_region(catalog_link("identity"), np.array([0.25, 0.5, 0.75]))
        assert curve.lower[0] == pytest.approx(2.0)       # 1/(2x) at x=1/4
        assert curve.upper[0] == pytest.approx(2.0 / 3.0)  # 1/(2(1-x))
        assert curve.lower[1] == pytest.approx(1.0)
        assert curve.upper[1] == pytest.approx(1.0)

    def test_logit_normalisation_point(self):
        curve = allowable_region(catalog_link("logit"), np.array([0.5]))
        assert curve.lower[0] == pytest.approx(1.0)
        assert curve.upper[0] == pytest.approx(1.0)

    def test_logit_closed_forms(self):
        xs = np.linspace(0.1, 0.9, 17)
        curve = allowable_region(catalog_link("logit"), xs)
        assert np.allclose(curve.lower, 1.0 / (8 * xs ** 2 * (1 - xs)), rtol=1e-12)
        assert np.allclose(curve.upper, 1.0 / (8 * xs * (1 - xs) ** 2), rtol=1e-12)

    def test_cosine_region_floor_vanishes_at_endpoints(self):
        # psi' of the cosine link vanishes at 0 and 1, so the binding lower
        # envelope of the admissible region (the flipped branch on each
        # side) drops to zero there: weights arbitrarily close to the
        # threshold-1/2 point mass become admissible
        xs = np.array([1e-4, 0.5, 1 - 1e-4])
        curve = allowable_region(catalog_link("cosine"), xs)
        assert curve.upper[0] < 1e-3   # binding floor for x <= 1/2
        assert curve.lower[-1] < 1e-3  # binding floor for x >= 1/2
        assert curve.lower[1] == pytest.approx(1.0)
        assert curve.upper[1] == pytest.approx(1.0)

    def test_membership_divides_by_the_weight_at_one_half(self, monkeypatch):
        # eight times the minimal weight leaves the identity region near 1/2 by
        # itself, and lies on its binding envelope once divided by w(1/2) = 8; the
        # division builds no weight, so no check of W is run again
        curve = allowable_region(catalog_link("identity"), certification_grid(99))
        minimal = catalog_weight("minimal")
        eight = WeightFunction(w=lambda c: 8.0 * minimal.w(c), W=lambda c: 8.0 * minimal.W(c),
                               name="eight-minimal", knots=minimal.knots)
        assert np.any(eight.w(curve.xs) > np.maximum(curve.lower, curve.upper))
        monkeypatch.setattr(WeightFunction, "__post_init__", None)
        assert curve.contains(eight) and curve.contains(minimal)

    @pytest.mark.parametrize("wname", ["square", "log", "boosting"])
    def test_membership_does_not_depend_on_scale(self, wname):
        wf = catalog_weight(wname)
        curve = allowable_region(catalog_link("logit"), certification_grid(99))
        for s in (0.125, 3.0):
            assert curve.contains(WeightFunction(w=lambda c: s * wf.w(c))) == curve.contains(wf)

    @pytest.mark.parametrize("wf", [catalog_weight("zero-one"), catalog_weight("cost", {"c0": 0.3})],
                             ids=["atom-at-half", "vanishing-centre"])
    def test_membership_needs_a_finite_positive_centre(self, wf):
        with pytest.raises(ValueError):
            allowable_region(catalog_link("identity")).contains(wf)

    @pytest.mark.parametrize("wname", WEIGHTS)
    @pytest.mark.parametrize("lname", LINKS)
    def test_region_membership_matches_characterization(self, wname, lname):
        wf = catalog_weight(wname)
        link = catalog_link(lname)
        grid = certification_grid(499)
        curve = allowable_region(link, grid)
        verdict = convexity_characterization(wf, link, grid).convex
        assert curve.contains(wf, tol=1e-7) == verdict, (wname, lname)

    def test_convex_identity_weights_stay_positive(self):
        # a weight certified convex with the identity link cannot approach
        # zero in the interior
        grid = certification_grid(499)
        for wname in WEIGHTS:
            wf = catalog_weight(wname)
            if convexity_characterization(wf, catalog_link("identity"), grid).convex:
                assert float(np.min(np.asarray(wf.w(grid), dtype=float))) > 0.0, wname


class TestCalibration:
    def test_cost_loss_only_at_its_threshold(self):
        cs = np.round(np.arange(0.1, 0.95, 0.1), 10)
        for c0 in cs:
            loss = cost_loss(float(c0))
            for c in cs:
                want = bool(abs(c - c0) <= 1e-12)
                assert calibration_cc(loss, float(c)) is want, (c0, c)

    def test_cost_as_proper_loss_matches(self):
        loss = cost_loss(0.3)
        assert calibration_cc(loss, 0.3) is True
        assert calibration_cc(loss, 0.5) is False

    def test_zero_one_only_at_half(self):
        loss = zero_one_loss()
        assert calibration_cc(loss, 0.5) is True
        assert calibration_cc(loss, 0.3) is False

    @pytest.mark.parametrize("wname", WEIGHTS)
    def test_strictly_proper_losses_everywhere(self, wname):
        loss = catalog_loss(wname)
        for c in np.arange(0.1, 0.95, 0.1):
            assert calibration_cc(loss, float(c)) is True, (wname, c)

    def test_gap_weight_fails_inside_the_gap(self):
        gap = tabulated_weight(
            [[0.01, 1.0], [0.39, 1.0], [0.4, 0.0], [0.6, 0.0], [0.61, 1.0], [0.99, 1.0]])
        loss = from_weight(gap)
        assert calibration_cc(loss, 0.5) is False
        assert calibration_cc(loss, 0.2) is True

    def test_partials_route(self):
        pair = (lambda e: (1 - np.asarray(e, dtype=float)) ** 2 / 2,
                lambda e: np.asarray(e, dtype=float) ** 2 / 2)
        assert calibration_cc(pair, 0.3) is True

    def test_partials_route_indeterminate_on_flat_derivative(self):
        pair = (lambda e: np.ones_like(np.asarray(e, dtype=float)),
                lambda e: np.asarray(e, dtype=float) ** 2 / 2)
        assert calibration_cc(pair, 0.3) is None

    @pytest.mark.parametrize("pair, partial", [
        ((lambda e: np.sqrt(0.3 - e), lambda e: e ** 2 / 2), "ell_pos"),
        ((lambda e: (1 - e) ** 2 / 2, lambda e: np.log(e - 0.3)), "ell_neg"),
    ], ids=["sqrt(0.3-c)", "log(c-0.3)"])
    def test_partials_route_raises_on_a_non_finite_slope(self, pair, partial):
        # one side of the central difference at c = 0.3 is NaN
        with pytest.raises(ValueError, match=f"{partial} has no finite slope at grid point x=0.3"):
            calibration_cc(pair, 0.3)

    def test_composite_delegates(self):
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        for c in [0.1, 0.5, 0.9]:
            assert calibration_composite(cl, c) is True
        gap = tabulated_weight(
            [[0.01, 1.0], [0.39, 1.0], [0.4, 0.0], [0.6, 0.0], [0.61, 1.0], [0.99, 1.0]])
        cl2 = make_composite(from_weight(gap), catalog_link("logit"))
        assert calibration_composite(cl2, 0.5) is False

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            calibration_cc(catalog_loss("square"), 0.0)

    def test_a_composite_is_refused_by_name(self):
        cl = make_composite(catalog_loss("log"), catalog_link("logit"))
        with pytest.raises(ValueError, match="^calibration_cc takes a proper loss, not a CompositeLoss$"):
            calibration_cc(cl, 0.3)
        assert calibration_composite(cl, 0.3) is True


def test_oracle_inverts_the_score_grid_once():
    calls = []
    logit = catalog_link("logit")

    def q(v):
        calls.append(np.size(v))
        return logit.q(v)

    cl = make_composite(catalog_loss("log"), replace(logit, q=q))
    vs = np.asarray(logit.psi(certification_grid(99)), dtype=float)
    calls.clear()
    report = convexity_oracle(cl, vs)
    assert report.convex
    assert calls == [len(vs)]
