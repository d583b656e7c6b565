"""Link functions: strictly increasing maps from probabilities to scores.

A :class:`Link` carries the forward map ``psi`` on (0, 1), its derivative
``psi'``, the inverse map ``q``, and the score range.  The catalog covers the
identity, logit, complementary log-log, square and cosine links;
:func:`canonical_link` builds the link whose derivative equals a given weight
function, which makes the link-adjusted weight ``rho = w / psi'`` identically
one.  No second derivative is held: the convexity characterisation reads
``rho`` alone, as the two monotone functions ``x rho`` and ``(1-x) rho``.

Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import NumericsError, antiderivative, array_fn
from .weights import WeightFunction

__all__ = [
    "Link",
    "catalog_link",
    "canonical_link",
    "rho_of",
    "numeric_inverse",
    "LINK_CATALOG_INFO",
]

_GRID = np.linspace(0.01, 0.99, 99)


@dataclass(frozen=True)
class Link:
    """Strictly increasing map ``psi`` from (0,1) to scores, with inverse ``q``.

    ``psi``, ``psi_prime`` and ``q`` are held under the contract of
    :func:`~cploss.numerics.array_fn`, applied once here: float ndarrays in
    and out, numpy warnings silenced.
    """

    psi: Callable
    psi_prime: Callable
    q: Callable
    range: tuple[float, float] = (-math.inf, math.inf)
    name: str = "custom"

    def __post_init__(self):
        for field in ("psi", "psi_prime", "q"):
            object.__setattr__(self, field, array_fn(getattr(self, field)))
        dpsi = self.psi_prime(_GRID)
        if np.any(dpsi <= 0) or not np.all(np.isfinite(dpsi)):
            raise ValueError(f"link {self.name!r} needs psi_prime > 0 on (0,1)")
        round_trip = self.q(self.psi(_GRID))
        if not np.allclose(round_trip, _GRID, atol=1e-9, rtol=0):
            raise ValueError(f"link {self.name!r}: q(psi(x)) != x on the check grid")

    def contains(self, v) -> bool:
        """Whether every score of ``v`` lies in the range, to within 1e-9."""
        lo, hi = self.range
        v = np.asarray(v, dtype=float)
        return bool(np.all((lo - 1e-9 <= v) & (v <= hi + 1e-9)))


def rho_of(wf: WeightFunction, link: Link) -> Callable:
    """rho(x) = w(x) / psi'(x), the link-adjusted weight; rejects weights with atoms."""
    if wf.has_atoms:
        raise ValueError("rho is undefined for weights with atoms")
    if wf.w is link.psi_prime:
        # canonical pairing shares the very same function object
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    return lambda x: wf.w(x) / link.psi_prime(x)


_NEWTON_STEPS = 12
# Offsets from 0 and from 1, outermost first, tried as the ends of the domain
# when none is given.
_END_OFFSETS = (1e-12, 1e-9, 1e-6, 1e-4)


def _end(psi: Callable, side: float) -> tuple[float, float]:
    # the outermost offset from ``side`` where psi is finite and does not raise
    for eps in _END_OFFSETS:
        x = eps if side == 0.0 else 1.0 - eps
        try:
            val = float(psi(x))
        except NumericsError:
            continue
        if np.isfinite(val):
            return x, val
    raise ValueError(f"psi not evaluable near {side:g}")


def numeric_inverse(psi: Callable, tol: float = 1e-12,
                    domain: tuple[float, float] | None = None,
                    dpsi: Callable | None = None) -> Callable:
    """Invert a strictly increasing map on ``domain``, array-wide.

    Every point keeps its own bracket ``[lo, hi]``, with ``f = psi - v`` at
    both ends, and all open points step together; only they are passed to
    ``psi`` (and ``dpsi``).  After each evaluation at ``x`` the bracket
    shrinks to the side where ``f`` changes sign, and a point stops at ``x``
    when ``f(x) == 0``, else once ``hi - lo <= tol * max(1, |x|)``, at the
    bracket's midpoint (at most 200 steps).  One rule picks the next point:
    ``x - f(x) / s`` when that lands strictly inside the bracket, else the
    midpoint; a step shorter than the tolerance is lengthened to half of it,
    so that the next evaluation closes the bracket and the stopping rule
    certifies the root.  Given ``dpsi``, ``s = dpsi(x)`` (safeguarded Newton,
    Brent 1973) for at most 12 steps per point, so a wrong derivative (zero,
    inf, nan, of the wrong sign or size) costs at most 12 evaluations over
    bisection and never loosens the result.  Else ``s`` is the secant through
    the bracket's ends, the value at an end kept twice in a row halved
    (Illinois, Dowell & Jarratt 1971); an end kept a third time brings the
    midpoint, as halving alone takes about 40 steps to undo a ratio of 1e12.

    Without ``domain``, each end is the outermost of the offsets ``1e-12``,
    ``1e-9``, ``1e-6`` and ``1e-4`` from 0 (and from 1) where ``psi`` gives a
    finite value without raising :class:`~cploss.numerics.NumericsError`, as
    quadrature up to a strong endpoint singularity may not; ``ValueError``
    if there is none.  ``psi`` at the kept domain ends is evaluated once,
    here, and scores at or beyond those values clamp to the domain ends, so
    ``q(-inf)`` and ``q(inf)`` are the ends; a NaN score never steps and
    gives NaN.  ``psi``, ``dpsi`` and the returned inverse keep the contract
    of :func:`~cploss.numerics.array_fn`.
    """
    psi, dpsi = array_fn(psi), array_fn(dpsi)
    if domain is None:
        (lo0, psi_lo), (hi0, psi_hi) = _end(psi, 0.0), _end(psi, 1.0)
    else:
        lo0, hi0 = domain
        psi_lo, psi_hi = float(psi(lo0)), float(psi(hi0))

    def q(v):
        out = np.where(v <= psi_lo, lo0, np.where(v >= psi_hi, hi0, v)).ravel()
        idx = np.flatnonzero((v > psi_lo) & (v < psi_hi))
        target = v.ravel()[idx]
        lo, hi = np.full(idx.size, lo0), np.full(idx.size, hi0)
        f_lo, f_hi = psi_lo - target, psi_hi - target
        x = 0.5 * (lo + hi)
        streak = np.zeros(idx.size)  # the steps in a row that moved one end: -k lo, +k hi
        budget = np.full(idx.size, _NEWTON_STEPS if dpsi is not None else 200)  # slope steps
        for _ in range(200):
            if idx.size == 0:
                break
            f = psi(x) - target
            below = f < 0.0
            lo, hi = np.where(below, x, lo), np.where(below, hi, x)
            scale = tol * np.maximum(1.0, np.abs(x))
            hit = f == 0.0
            done = (hi - lo <= scale) | hit
            out[idx[done]] = np.where(hit, x, 0.5 * (lo + hi))[done]
            keep = ~done
            idx, target, lo, hi, f_lo, f_hi, streak, budget, x, f, scale = (
                a[keep] for a in (idx, target, lo, hi, f_lo, f_hi, streak, budget, x, f, scale))
            if dpsi is not None:
                slope = dpsi(x)
            else:   # Illinois; the midpoint once an end is kept a third time in a row
                streak = np.where(f < 0.0, np.minimum(streak, 0) - 1, np.maximum(streak, 0) + 1)
                halve = np.where(np.abs(streak) >= 2, 0.5, 1.0)  # the other end is kept twice
                f_lo, f_hi = np.where(f < 0.0, f, halve * f_lo), np.where(f < 0.0, halve * f_hi, f)
                slope = np.where(np.abs(streak) < 3, (f_hi - f_lo) / (hi - lo), np.nan)
            step = f / slope
            nxt = x - np.where(np.abs(step) < scale, np.sign(step) * (0.5 * scale), step)
            inside = (nxt > lo) & (nxt < hi) & (budget > 0)
            budget = budget - inside
            x = np.where(inside, nxt, 0.5 * (lo + hi))
        out[idx] = 0.5 * (lo + hi)
        return out.reshape(v.shape)

    return array_fn(q)


# The catalog links, built and checked once, at import, and shared: every
# Link is immutable.
_CATALOG: dict[str, Link] = {link.name: link for link in (
    Link(
        psi=lambda x: x,
        psi_prime=lambda x: np.ones_like(x),
        q=lambda v: v,
        range=(0.0, 1.0),
        name="identity",
    ),
    Link(
        psi=lambda x: np.log(x / (1.0 - x)),
        psi_prime=lambda x: 1.0 / (x * (1.0 - x)),
        q=lambda v: np.where(v >= 0, 1.0 / (1.0 + np.exp(-v)), np.exp(v) / (1.0 + np.exp(v))),
        name="logit",
    ),
    # psi(x) = log(-log(1-x)); q(v) = 1 - exp(-exp(v))
    Link(
        psi=lambda x: np.log(-np.log(1.0 - x)),
        psi_prime=lambda x: 1.0 / ((1.0 - x) * -np.log(1.0 - x)),
        q=lambda v: -np.expm1(-np.exp(v)),
        name="cll",
    ),
    Link(
        psi=lambda x: x * x,
        psi_prime=lambda x: 2.0 * x,
        q=lambda v: np.sqrt(np.maximum(v, 0.0)),
        range=(0.0, 1.0),
        name="square-link",
    ),
    Link(
        psi=lambda x: 1.0 - np.cos(np.pi * x),
        psi_prime=lambda x: np.pi * np.sin(np.pi * x),
        q=lambda v: np.arccos(np.clip(1.0 - v, -1.0, 1.0)) / np.pi,
        range=(0.0, 2.0),
        name="cosine",
    ),
)}


LINK_CATALOG_INFO: dict[str, str] = {
    "identity": "psi(x) = x",
    "logit": "psi(x) = log(x/(1-x)), q(v) = 1/(1+exp(-v))",
    "cll": "psi(x) = log(-log(1-x)), q(v) = 1-exp(-exp(v))",
    "square-link": "psi(x) = x^2",
    "cosine": "psi(x) = 1 - cos(pi*x)",
}


def catalog_link(name: str) -> Link:
    """The catalog link named ``name``: built and checked once, at import, and
    shared by every call."""
    if name not in _CATALOG:
        raise ValueError(f"unknown link name {name!r}")
    return _CATALOG[name]


# The mesh of a quadrature psi: 2^-k to k = 40, 1 - 2^-k only to k = 30 (1 - c loses digits).
_MESH = tuple(2.0 ** -np.arange(1, 41)) + tuple(1.0 - 2.0 ** -np.arange(2, 31))


def canonical_link(wf: WeightFunction) -> Link:
    """The link with psi' = w, anchored so that psi(1/2) = 0.

    With this link the composite's intrinsic weight ``rho = w / psi'`` is
    identically one.  The ``psi_prime`` of the returned link is the weight's
    own ``w`` callable (shared object), and ``q`` is :func:`numeric_inverse`
    of ``psi`` with that exact derivative, so it takes safeguarded Newton
    steps: each costs one evaluation of ``psi`` and one of ``w``.  ``psi`` is
    the weight's own ``W`` when it has one (the catalog weights, and the
    exact piecewise-quadratic ``W`` of a table), else the table
    ``antiderivative(w, 1/2, mesh + knots)``, its mesh ``2^-k`` and ``1 - 2^-k``
    graded toward both ends: a Newton step or an end probe integrates only
    from its nearest mesh point.  The weight is neither rebuilt nor checked
    again.  The domain of ``q`` is the end rule of :func:`numeric_inverse`,
    and the score range is ``psi`` at its two ends.
    """
    if wf.has_atoms:
        raise ValueError("canonical link is undefined for weights with atoms")
    W = wf.W if wf.W is not None else array_fn(antiderivative(wf.w, 0.5, _MESH + wf.knots))
    W_half = float(W(0.5))
    psi = lambda x: W(x) - W_half
    q = numeric_inverse(psi, dpsi=wf.w)
    v_lo, v_hi = psi(q(np.array([-np.inf, np.inf])))
    return Link(
        psi=psi,
        psi_prime=wf.w,
        q=q,
        range=(float(v_lo), float(v_hi)),
        name=f"canonical({wf.name})",
    )
