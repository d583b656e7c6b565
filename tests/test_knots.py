"""Knots: the points where a weight may jump or kink.

Every integral of a weight splits at its knots: quadrature partials, the
``psi`` of a canonical link and the Schervish mixture.  Expression weights
declare the kinks of their ``min`` and ``max``.  The generated property
checks min/max envelopes of Beta members against an mpmath reference that
finds the crossing itself and shares no code with the library.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings

from cploss.cli import _build_weight
from cploss.expressions import ExpressionError, compile_expression, expression_knots
from cploss.links import canonical_link
from cploss.proper import from_weight, schervish_check
from cploss.weights import WeightFunction
from weight_strategies import BETA_ENVELOPES, BETA_EXPONENTS, beta_source

XS = np.linspace(0.01, 0.99, 99)


class TestExpressionKnots:
    @pytest.mark.parametrize("source,want", [
        ("min(1/c,1/(1-c))", (0.5,)),                 # an exact zero on the grid
        ("0.5*min(1/c,1/(1-c))", (0.5,)),
        ("min(1,max(2*c,0.3))", (0.15, 0.5)),         # nested: one knot from each
        ("max(c,0.5)+max(0.5,c)", (0.5,)),            # the same knot twice is one
    ])
    def test_switch_points(self, source, want):
        assert expression_knots(source) == pytest.approx(want, rel=1e-15)

    def test_sign_change_is_bisected_to_a_float_neighbour(self):
        (k,) = expression_knots("max(1,3*c)")
        assert abs(k - 1 / 3) <= 4 * math.ulp(1 / 3)

    @pytest.mark.parametrize("source", [
        "c^-0.5*(1-c)^0.3",       # no min or max
        "max(c,c)",               # a switch that is zero throughout
        "min(c,2)",               # no switch inside (0, 1)
        "max(log(c-0.5),0)",      # NaN left of 1/2; the switch crosses zero at 1.5
        "sqrt((c-0.5)^2)",        # a kink of another kind is not found
    ])
    def test_no_knot(self, source):
        assert expression_knots(source) == ()

    def test_rejects_what_compiling_rejects(self):
        with pytest.raises(ExpressionError, match="unknown variable 'x'"):
            expression_knots("min(x, c)")

    def test_the_cli_declares_them(self):
        wf = _build_weight({"weight": {"expr": "0.5*min(1/c,1/(1-c))"}})
        assert wf.knots == (0.5,)


class TestKnotsAreNormalised:
    def test_sorted_without_repeats(self):
        wf = WeightFunction(w=np.ones_like, knots=(0.7, 0.2, 0.7, np.float64(0.2), 0.5))
        assert wf.knots == (0.2, 0.5, 0.7)
        assert all(type(k) is float for k in wf.knots)

    @pytest.mark.parametrize("knot", [math.nan, math.inf, -math.inf])
    def test_a_knot_must_be_finite(self, knot):
        with pytest.raises(ValueError, match="knots must be finite"):
            WeightFunction(w=np.ones_like, knots=(0.3, knot))


# w = max(1, 3c), kinked at 1/3: exact integrals, with W(1/3) = 1/3.
def _kink_W(x):
    return np.where(x <= 1 / 3, x, 1.5 * x * x + 1 / 6)


def _kink_ell_neg(e):     # integral of c w(c) over [0, e]
    return np.where(e <= 1 / 3, e * e / 2, e ** 3 + 1 / 54)


def _kink_ell_pos(e):     # integral of (1-c) w(c) over [e, 1]
    G = np.where(e <= 1 / 3, e - e * e / 2, 1.5 * e * e - e ** 3 + 4 / 27)
    return 0.5 + 4 / 27 - G


# w = 1 + (c > 0.3), a jump at 0.3.
def _jump_ell_neg(e):
    return np.where(e <= 0.3, e * e / 2, e * e - 0.045)


def _jump_ell_pos(e):
    G = np.where(e <= 0.3, e - e * e / 2, 2 * e - e * e - 0.255)
    return 0.745 - G


class TestDeclaredKnotsAreHonoured:
    @pytest.mark.parametrize("w, knots", [
        (lambda c: np.maximum(1.0, 3.0 * c), (1 / 3,)),
        (compile_expression("max(1,3*c)"), expression_knots("max(1,3*c)")),
    ], ids=["declared", "found"])
    def test_kink_off_the_anchor(self, w, knots):
        wf = WeightFunction(w=w, knots=knots, name="kink")
        psi = canonical_link(wf).psi(XS)
        assert np.max(np.abs(psi - (_kink_W(XS) - _kink_W(0.5)))) <= 1e-12
        loss = from_weight(wf)
        assert np.max(np.abs(loss.ell_neg(XS) - _kink_ell_neg(XS))) <= 1e-12
        assert np.max(np.abs(loss.ell_pos(XS) - _kink_ell_pos(XS))) <= 1e-12

    def test_jump(self):
        wf = WeightFunction(w=lambda c: 1.0 + (c > 0.3), knots=(0.3,), name="jump")
        link = canonical_link(wf)
        assert np.max(np.abs(link.q(link.psi(XS)) - XS)) <= 1e-9
        loss = from_weight(wf)
        assert np.max(np.abs(loss.ell_neg(XS) - _jump_ell_neg(XS))) <= 1e-12
        assert np.max(np.abs(loss.ell_pos(XS) - _jump_ell_pos(XS))) <= 1e-12
        for e in (0.1, 0.3, 0.65):
            assert schervish_check(loss, -1, e) == pytest.approx(_jump_ell_neg(e), abs=1e-12)
            assert schervish_check(loss, 1, e) == pytest.approx(_jump_ell_pos(e), abs=1e-12)


# -- generated property: Beta envelopes against an independent mpmath oracle --

PARTIAL_POINTS = (0.1, 0.45, 0.9)
# c = u^K near 0 and 1 - c = u^K near 1 give c^p, p > -1, the integrand
# u^(K(p+1)-1), bounded for K = 10: tanh-sinh loses no end mass.  The
# integrand takes c and 1 - c apart, as 1 - u^K would round to 1.
_K = 10


def _mp_integral(f, edges):
    """The integral of ``f(c, 1 - c)`` over consecutive ``edges`` in [0, 1]."""
    total = mp.mpf(0)
    for p, q in zip(edges[:-1], edges[1:]):
        if p == 0:
            total += mp.quad(lambda u: f(u ** _K, 1 - u ** _K) * _K * u ** (_K - 1),
                             [0, q ** (mp.mpf(1) / _K)])
        elif q == 1:
            total += mp.quad(lambda u: f(1 - u ** _K, u ** _K) * _K * u ** (_K - 1),
                             [0, (1 - p) ** (mp.mpf(1) / _K)])
        else:
            total += mp.quad(lambda c: f(c, 1 - c), [p, q])
    return total


def _mp_envelope(op, a1, b1, a2, b2):
    """The envelope as ``w(c, 1 - c)``, and where its two members cross (at the working precision)."""
    a1, b1, a2, b2 = map(mp.mpf, (a1, b1, a2, b2))
    pick = min if op == "min" else max
    w = lambda c, d: pick(c ** (a1 - 1) * d ** (b1 - 1), c ** (a2 - 1) * d ** (b2 - 1))
    # log B1 - log B2: monotone, with a root in (0, 1) where its ends differ in sign
    g = lambda c: (a1 - a2) * mp.log(c) + (b1 - b2) * mp.log1p(-c)
    lo, hi = mp.mpf(10) ** -25, 1 - mp.mpf(10) ** -25
    cuts = [mp.findroot(g, (lo, hi), solver="illinois", verify=False)] if g(lo) * g(hi) < 0 else []
    return w, cuts


def _mp_envelope_partials(op, a1, b1, a2, b2):
    """(ell_pos, ell_neg) at PARTIAL_POINTS, split where the two members cross."""
    with mp.workdps(30):
        w, cuts = _mp_envelope(op, a1, b1, a2, b2)
        out = []
        for e in map(mp.mpf, PARTIAL_POINTS):
            pos = _mp_integral(lambda c, d: d * w(c, d), [e, *[k for k in cuts if k > e], 1])
            neg = _mp_integral(lambda c, d: c * w(c, d), [0, *[k for k in cuts if k < e], e])
            out.append((float(pos), float(neg)))
    return np.array(out)


@settings(max_examples=15, deadline=None)
@given(BETA_ENVELOPES)
@example(("max", 2.4438766786915203, -0.769016256308689, 1.9456562410767817, -0.2149430796500198))
@example(("min", -0.9, 3.0, 3.0, -0.9))
@example(("min", 0.0, 0.0, 1.0, -1e-05))     # crosses at 1 - 9.28e-5, past the grid k/1024
@example(("min", 2.125, 0.0, 2.0, 0.0))      # no knot within rounding of 1, where w is inf
def test_envelope_partials_match_mpmath(envelope):
    op, a1, b1, a2, b2 = envelope
    wf = _build_weight({"weight": {"expr": f"{op}({beta_source(a1, b1)}, {beta_source(a2, b2)})"}})
    loss = from_weight(wf)
    pts = np.array(PARTIAL_POINTS)
    got = np.stack([loss.ell_pos(pts), loss.ell_neg(pts)], axis=1)
    assert got == pytest.approx(_mp_envelope_partials(op, a1, b1, a2, b2), rel=1e-9)


# -- generated property: canonical links by quadrature against mpmath ---------

PSI_POINTS = np.array([1e-9, 1e-6, 1e-3, 0.1, 0.3, 0.7, 0.9, 0.999, 1.0 - 1e-6])


def _mp_psi(w, cuts, xs):
    """The integral of ``w(c, 1 - c)`` from 1/2 to each x of ``xs``, summed outward
    from 1/2 over panels graded by 4 in the distance t from the nearer end and cut
    at ``cuts``: ``c = t`` below 1/2 and ``c = 1 - t`` above, so no digit of
    ``1 - c`` is lost."""
    half, psi = mp.mpf(1) / 2, {}
    for sign, to_t, f in ((-1, lambda c: c, lambda t: w(t, 1 - t)),
                          (1, lambda c: 1 - c, lambda t: w(1 - t, t))):
        side = [x for x in xs if sign * (x - 0.5) > 0]
        ts = [to_t(mp.mpf(x)) for x in side]
        edges = {half, *ts, *[to_t(k) for k in cuts if min(ts) < to_t(k) < half],
                 *[half / 4 ** k for k in range(1, 20) if half / 4 ** k > min(ts)]}
        edges, total, acc = sorted(edges, reverse=True), mp.mpf(0), {}
        for hi, lo in zip(edges, edges[1:]):
            total += mp.quad(f, [lo, hi])
            acc[lo] = total
        psi.update({x: float(sign * acc[t]) for x, t in zip(side, ts)})
    return np.array([psi[x] for x in xs])


def _assert_canonical_psi_matches_mpmath(source, envelope):
    wf = _build_weight({"weight": {"expr": source}})
    link = canonical_link(wf)
    psi = link.psi(PSI_POINTS)
    with mp.workdps(30):
        want = _mp_psi(*_mp_envelope(*envelope), PSI_POINTS.tolist())
    assert np.all(np.abs(psi - want) <= 1e-10 * np.abs(want))
    # q resolves x only to the distance over which psi's last bits hold, eps |psi| / w
    spread = 4.0 * np.finfo(float).eps * np.abs(psi) / wf.w(PSI_POINTS)
    assert np.all(np.abs(link.q(psi) - PSI_POINTS) <= 1e-9 + spread)


@settings(max_examples=15, deadline=None)
@given(*BETA_EXPONENTS)
@example(-0.9, -0.9)
@example(-0.5, -0.5)
@example(0.0, 0.0)
@example(3.0, 3.0)
@example(0.0, 2.5)     # psi(1 - 1e-6) lies 4e-16 below psi at the domain end 1 - 1e-12
def test_beta_canonical_psi_matches_mpmath(a, b):
    _assert_canonical_psi_matches_mpmath(beta_source(a, b), ("min", a, b, a, b))


@settings(max_examples=15, deadline=None)
@given(BETA_ENVELOPES)
@example(("min", -0.9, 3.0, 3.0, -0.9))
@example(("max", -0.5, -0.5, 0.5, 2.0))
@example(("min", 0.0, 0.0, 1.0, -1e-05))     # crosses at 1 - 9.28e-5
def test_envelope_canonical_psi_matches_mpmath(envelope):
    op, a1, b1, a2, b2 = envelope
    _assert_canonical_psi_matches_mpmath(f"{op}({beta_source(a1, b1)}, {beta_source(a2, b2)})",
                                         envelope)
