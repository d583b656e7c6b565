"""Reference values computed without any of the package's code.

Every correctness check of the benchmark compares the program's output with
one of these, or with a property the method must have:

* mpmath tanh-sinh quadrature for the partial losses and canonical links of
  the Beta weights ``c^(a-1) (1-c)^(b-1)``;
* exact rational integrals of piecewise-linear (tabulated) weights;
* sympy derivatives for the ``w'/w - psi''/psi'`` convexity verdicts, link
  derivatives, calibration and score gradients of the catalog;
* scipy ``quad`` and ``minimize_scalar`` for the full risks of the
  surrogate study, with partial losses integrated by hand from the weights
  and checked against mpmath in the benchmark's self-tests;
* ``mpmath.lambertw`` for the regret bound;
* the closed forms of the margin losses' links.

No table is stored: every reference is recomputed from these sources when a
run checks its outputs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import sympy as sp

mp.mp.dps = 30

# -- Beta weights (mpmath) ----------------------------------------------------


def _beta_w(a: float, b: float):
    a1, b1 = mp.mpf(a) - 1, mp.mpf(b) - 1
    return lambda c: c ** a1 * (1 - c) ** b1


@functools.lru_cache(maxsize=None)
def beta_partials(a: float, b: float, e: float) -> tuple[float, float]:
    """(ell_pos(e), ell_neg(e)) of the Beta weight by tanh-sinh quadrature."""
    w = _beta_w(a, b)
    e = mp.mpf(e)
    pos = mp.quad(lambda c: (1 - c) * w(c), [e, 1])
    neg = mp.quad(lambda c: c * w(c), [0, e])
    return float(pos), float(neg)


@functools.lru_cache(maxsize=None)
def beta_psi(a: float, b: float, x: float) -> float:
    """Canonical link of the Beta weight: the integral of w from 1/2 to x."""
    return float(mp.quad(_beta_w(a, b), [mp.mpf("0.5"), mp.mpf(x)]))


# -- tabulated weights (exact rationals) --------------------------------------


def _segments(cs, ws):
    """Linear pieces (lo, hi, w0, slope) of np.interp's interpolant on [0, 1]."""
    cs = [Fraction(float(c)) for c in cs]
    ws = [Fraction(float(w)) for w in ws]
    pieces = [(Fraction(0), cs[0], ws[0], Fraction(0))]
    for i in range(len(cs) - 1):
        slope = (ws[i + 1] - ws[i]) / (cs[i + 1] - cs[i])
        pieces.append((cs[i], cs[i + 1], ws[i] - slope * cs[i], slope))
    pieces.append((cs[-1], Fraction(1), ws[-1], Fraction(0)))
    return pieces


def _integral(pieces, p0, p1, lo, hi) -> Fraction:
    """Exact integral of (p0 + p1 c) * w(c) over [lo, hi]."""
    total = Fraction(0)
    for a, b, w0, w1 in pieces:
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        r = (p0 * w0, p0 * w1 + p1 * w0, p1 * w1)
        total += sum(r[k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k in range(3))
    return total


def table_partials(cs, ws, e: float) -> tuple[float, float]:
    return _table_partials(tuple(map(float, cs)), tuple(map(float, ws)), float(e))


@functools.lru_cache(maxsize=None)
def _table_partials(cs, ws, e):
    pieces = _segments(cs, ws)
    e = Fraction(float(e))
    pos = _integral(pieces, Fraction(1), Fraction(-1), e, Fraction(1))
    neg = _integral(pieces, Fraction(0), Fraction(1), Fraction(0), e)
    return float(pos), float(neg)


def table_psi(cs, ws, x: float) -> float:
    return _table_psi(tuple(map(float, cs)), tuple(map(float, ws)), float(x))


@functools.lru_cache(maxsize=None)
def _table_psi(cs, ws, x):
    pieces = _segments(cs, ws)
    x, half = Fraction(float(x)), Fraction(1, 2)
    if x >= half:
        return float(_integral(pieces, Fraction(1), Fraction(0), half, x))
    return float(-_integral(pieces, Fraction(1), Fraction(0), x, half))


# -- catalog weights and links (sympy) ----------------------------------------

_c = sp.Symbol("c", positive=True)

CATALOG_W = {
    "square": sp.Integer(1),
    "log": 1 / (_c * (1 - _c)),
    "boosting": (_c * (1 - _c)) ** sp.Rational(-3, 2),
    "minimal": sp.Piecewise((1 / (2 * (1 - _c)), _c < sp.Rational(1, 2)),
                            (1 / (2 * _c), True)),
    "w1-over-c": 1 / _c,
    "w1-over-1mc": 1 / (1 - _c),
}
# Points where a catalog weight is not differentiable; the slope condition
# and derivative-based estimates are undefined there.
KINKS = {"minimal": (0.5,)}


def away_from_kinks(wname: str, xs: np.ndarray, gap: float) -> np.ndarray:
    """Mask of the points farther than ``gap`` from every kink of the weight."""
    keep = np.ones(np.shape(xs), dtype=bool)
    for k in KINKS.get(wname, ()):
        keep &= np.abs(np.asarray(xs) - k) > gap
    return keep


CATALOG_PSI = {
    "identity": _c,
    "logit": sp.log(_c / (1 - _c)),
    "cll": sp.log(-sp.log(1 - _c)),
    "square-link": _c ** 2,
    "cosine": 1 - sp.cos(sp.pi * _c),
}


def _fn(expr):
    f = sp.lambdify(_c, expr, "numpy")
    return lambda x: np.broadcast_to(np.asarray(f(np.asarray(x, dtype=float)), dtype=float),
                                     np.shape(x)).copy()


@functools.lru_cache(maxsize=None)
def weight_fns(wname: str):
    """(w, w'') of a catalog weight as numpy callables."""
    w = CATALOG_W[wname]
    return _fn(w), _fn(sp.diff(w, _c, 2))


@functools.lru_cache(maxsize=None)
def link_fns(lname: str):
    """(psi, psi') of a catalog link as numpy callables."""
    psi = CATALOG_PSI[lname]
    return _fn(psi), _fn(sp.diff(psi, _c))


@functools.lru_cache(maxsize=None)
def convexity_middle(wname: str, lname: str):
    """``w'/w - psi''/psi'`` as a numpy callable; zero for the canonical link."""
    if lname == "canonical":
        return _fn(sp.Integer(0))
    w = CATALOG_W[wname]
    dpsi = sp.diff(CATALOG_PSI[lname], _c)
    return _fn(sp.diff(w, _c) / w - sp.diff(dpsi, _c) / dpsi)


def certification_points(n: int = 999) -> np.ndarray:
    """i/(n+1) for i = 1..n plus probes 1e-3, 1e-4 from both ends."""
    core = np.arange(1, n + 1) / (n + 1.0)
    extra = np.array([1e-3, 1e-4, 1.0 - 1e-3, 1.0 - 1e-4])
    return np.unique(np.concatenate([core, extra]))


def convexity_violations(wname: str, lname: str, xs: np.ndarray, tol: float = 1e-9):
    """Grid points where the slope condition fails, per side ("lower", "upper").

    Kinks of the weight are left out: the condition needs w' there.
    """
    xs = xs[away_from_kinks(wname, xs, 0.0)]
    mid = convexity_middle(wname, lname)(xs)
    lower, upper = -1.0 / xs, 1.0 / (1.0 - xs)
    lo_bad = mid < lower - tol * np.maximum(1.0, np.maximum(np.abs(mid), np.abs(lower)))
    hi_bad = mid > upper + tol * np.maximum(1.0, np.maximum(np.abs(mid), np.abs(upper)))
    return xs[lo_bad], xs[hi_bad]


# -- margin losses (closed forms, mpmath) -------------------------------------


def _sigmoid(z):
    return 1 / (1 + mp.exp(-z))


def margin_phi(name: str, alpha: float = 2.0):
    """(phi, phi') of a margin loss."""
    if name == "logistic":
        return (lambda v: mp.log(1 + mp.exp(-v)), lambda v: -1 / (1 + mp.exp(v)))
    if name == "exponential":
        return (lambda v: mp.exp(-v), lambda v: -mp.exp(-v))
    if name == "zhang":
        a = mp.mpf(alpha)
        return (lambda v: mp.log(mp.exp(a * (1 - v)) + 1) / a,
                lambda v: -_sigmoid(a * (1 - v)))
    raise ValueError(name)


@functools.lru_cache(maxsize=None)
def margin_q(name: str, v: float, alpha: float = 2.0) -> float:
    """Inverse link phi'(-v) / (phi'(-v) + phi'(v))."""
    _, dphi = margin_phi(name, alpha)
    v = mp.mpf(v)
    return float(dphi(-v) / (dphi(-v) + dphi(v)))


@functools.lru_cache(maxsize=None)
def margin_psi(name: str, x: float, alpha: float = 2.0) -> float:
    """Link of a margin loss: logit for logistic, logit/2 for exponential, else a root of q."""
    x = mp.mpf(x)
    if name == "logistic":
        return float(mp.log(x / (1 - x)))
    if name == "exponential":
        return float(mp.log(x / (1 - x)) / 2)
    _, dphi = margin_phi(name, alpha)
    return float(mp.findroot(lambda v: dphi(-v) / (dphi(-v) + dphi(v)) - x, (-30, 30),
                             solver="anderson"))


@functools.lru_cache(maxsize=None)
def margin_partials(name: str, e: float, alpha: float = 2.0) -> tuple[float, float]:
    """(phi(psi(e)), phi(-psi(e))): the base partial losses of the margin composite."""
    phi, _ = margin_phi(name, alpha)
    v = mp.mpf(margin_psi(name, e, alpha))
    return float(phi(v)), float(phi(-v))


# -- regret bound (mpmath Lambert W) ------------------------------------------


@functools.lru_cache(maxsize=None)
def regret_bound(x: float) -> float:
    """Largest threshold-1/2 regret for minimal-loss regret x: e^(W((4x-1)/e)+1)/2 - 1/2."""
    z = (4 * mp.mpf(x) - 1) / mp.e
    return float(mp.exp(mp.lambertw(z).real + 1) / 2 - mp.mpf(1) / 2)


# -- surrogate study (scipy) --------------------------------------------------

# The two-surrogate study's published constrained minimisers and 0-1 risks,
# keyed (surrogate, experiment).
PAPER_ALPHA_STAR = {(1, 1): 0.66666667, (2, 1): 0.81779259, (1, 2): 1.00000000, (2, 2): 0.77763472}
PAPER_ZERO_ONE = {(1, 1): 0.3580272, (2, 1): 0.3033476, (1, 2): 0.4166666, (2, 2): 0.4207872}

EXPERIMENT_ETA = {
    1: lambda x: x * x,
    2: lambda x: 1.0 / 3.0 + x / 3.0,
}

_LOG2 = math.log(2.0)


def _minimal_pos(e):
    return 0.5 * (_LOG2 - e) if e < 0.5 else 0.5 * (e - 1.0 - math.log(e))


def _minimal_neg(e):
    return 0.5 * (-e - math.log1p(-e)) if e <= 0.5 else 0.5 * (e - 1.0 + _LOG2)


def _mlog(e):
    return math.inf if e <= 0.0 else -math.log(e)


# Partial losses (ell_pos, ell_neg) integrated by hand from each weight:
# ell_pos(e) = int_e^1 (1-c) w(c) dc and ell_neg(e) = int_0^e c w(c) dc.
PARTIALS = {
    "square": (lambda e: (1.0 - e) ** 2 / 2.0, lambda e: e * e / 2.0),
    "log": (_mlog, lambda e: _mlog(1.0 - e)),
    "minimal": (_minimal_pos, _minimal_neg),
    "w1-over-c": (lambda e: _mlog(e) - 1.0 + e, lambda e: e),
    "w1-over-1mc": (lambda e: 1.0 - e, lambda e: _mlog(1.0 - e) - e),
}


@functools.lru_cache(maxsize=None)
def full_risk(loss: str, experiment: int, alpha: float) -> float:
    """Average conditional risk of h(x) = alpha x under the uniform marginal."""
    from scipy.integrate import quad

    pos, neg = PARTIALS[loss]
    eta = EXPERIMENT_ETA[experiment]

    def f(x):
        e, p = alpha * x, eta(x)
        return (p * pos(e) if p > 0.0 else 0.0) + ((1.0 - p) * neg(e) if p < 1.0 else 0.0)

    return quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)[0]


@functools.lru_cache(maxsize=None)
def constrained_alpha(loss: str, experiment: int) -> float:
    """argmin over alpha in [0, 1] of the full risk, by scipy's bounded Brent search."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda a: full_risk(loss, experiment, a), bounds=(0.0, 1.0),
                          method="bounded", options={"xatol": 1e-10})
    best = min([(res.fun, res.x), (full_risk(loss, experiment, 1.0), 1.0)])
    return float(best[1])


def zero_one_risk(experiment: int, alpha: float) -> float:
    """Misclassification risk of "positive iff x >= alpha/2", in closed form."""
    t = min(max(alpha / 2.0, 0.0), 1.0)
    if experiment == 1:       # eta = x^2
        below, above_pos = t ** 3 / 3.0, (1.0 - t ** 3) / 3.0
    else:                     # eta = 1/3 + x/3
        below, above_pos = t / 3.0 + t * t / 6.0, (1.0 - t) / 3.0 + (1.0 - t * t) / 6.0
    return below + (1.0 - t) - above_pos
