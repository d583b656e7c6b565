"""Composite losses: a proper loss evaluated through an inverse link.

``ell^psi(y, v) = ell(y, q(v))`` with ``q = psi^{-1}``.  The intrinsic
parametrisation is the pair (weight, link derivative), combined as
``rho = w / psi'``: score-space gradients, convexity and calibration all
factor through rho.  This module also recovers links from partial losses
(the unique link making a composite proper), turns margin losses into
proper composites, and checks the order-reversing duality between a Bregman
divergence and the divergence of its inverse generator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .links import Link, numeric_inverse, rho_of
from .numerics import NumericsError, antiderivative, array_fn, finite_diff
from .proper import ProperLoss, _Loss
from .weights import WeightFunction

__all__ = [
    "CompositeLoss",
    "MarginLoss",
    "make_composite",
    "score_gradients",
    "reference_link",
    "margin_to_link",
    "composite_from_margin",
    "exponential_margin",
    "logistic_margin",
    "zhang_margin",
    "duality_residual",
]


@dataclass(frozen=True)
class CompositeLoss(_Loss):
    """A proper loss paired with a link; its partials take scores ``v``."""

    base: ProperLoss
    link: Link

    @property
    def rho(self) -> Callable:
        """The link-adjusted weight ``w / psi'`` of :func:`~cploss.links.rho_of`,
        under the contract of :func:`~cploss.numerics.array_fn`; ``ValueError``
        when the weight has atoms."""
        return array_fn(rho_of(self.base.weight, self.link))

    @property
    def name(self) -> str:
        return f"{self.base.name}@{self.link.name}"

    def ell_pos(self, v):
        return self.base.ell_pos(self.link.q(v))

    def ell_neg(self, v):
        return self.base.ell_neg(self.link.q(v))

    def _partials_at(self, v):
        return self.base, self.link.q(v)

    def _risk_slope(self, eta, v):   # the risk's derivative in v: (q(v) - eta) rho(q(v))
        e = self.link.q(v)
        return (e - eta) * self.rho(e)

    def _check_pred(self, v):
        if not self.link.contains(v):
            raise ValueError(f"score {v} outside link range {self.link.range}")

    def _bayes_risk(self, eta):
        return self.base._bayes_risk(eta)


@dataclass(frozen=True)
class MarginLoss:
    """A loss of scores through the margin only: ell(y, v) = phi(y*v).

    ``phi`` and ``phi_prime`` are held under the contract of
    :func:`~cploss.numerics.array_fn`.
    """

    phi: Callable
    phi_prime: Callable
    name: str = "margin"

    def __post_init__(self):
        object.__setattr__(self, "phi", array_fn(self.phi))
        object.__setattr__(self, "phi_prime", array_fn(self.phi_prime))


def make_composite(base: ProperLoss, link: Link) -> CompositeLoss:
    """Pair a proper loss with a link.

    For atom weights the composite is still evaluable, but its ``rho`` and
    the operations that need it raise.
    """
    return CompositeLoss(base=base, link=link)


def score_gradients(cl: CompositeLoss, v: float) -> tuple[float, float]:
    """Score derivatives of the two partial composite losses at ``v``.

    Returns ``(d_pos, d_neg) = ((q(v)-1)*rho(q(v)), q(v)*rho(q(v)))``, the
    per-example gradient updates for positive and negative labels; raises
    :class:`~cploss.numerics.NumericsError` naming ``v`` where ``rho(q(v))``
    is not finite.  A margin link's ``psi'`` is 1 over a difference quotient
    of its ``q``, which loses accuracy as ``q`` saturates (exponential margin:
    ``d_neg`` at v = 18 is 5.37e7, not e^18 = 6.57e7) and fails once ``q(v)``
    rounds to 1 (v >= 19).
    """
    rho = cl.rho
    etahat = float(cl.link.q(v))
    r = float(rho(etahat))
    if not np.isfinite(r):
        raise NumericsError(f"rho(q(v)) = {r} is not finite at v={v!r}")
    return ((etahat - 1.0) * r, etahat * r)


def _gap_link(lam_pos_prime: Callable, lam_neg_prime: Callable,
              v_range: tuple[float, float], name: str) -> Link:
    # q(v) = lam_neg'(v) / (lam_neg'(v) - lam_pos'(v)), checked and inverted here
    lam_pos_prime, lam_neg_prime = array_fn(lam_pos_prime), array_fn(lam_neg_prime)

    @array_fn
    def q(v):
        dn = lam_neg_prime(v)
        denom = dn - lam_pos_prime(v)
        if np.any(np.abs(denom) < 1e-300):
            raise ValueError(f"{name}: vanishing derivative gap")
        return dn / denom

    probe = np.linspace(*v_range, 512)
    qs = q(probe)
    if not np.all(np.isfinite(qs)):
        raise ValueError(f"{name}: inverse link not finite on the probe range")
    diffs = np.diff(qs)
    if np.any(diffs < -1e-12):
        raise ValueError(f"{name}: inverse link is not monotone, composite cannot be proper")
    # Flat spots matter only away from the float-saturated tails where q has
    # already pinned to 0 or 1.
    interior = (qs[:-1] > 1e-9) & (qs[1:] < 1.0 - 1e-9)
    if np.any(diffs[interior] <= 0.0):
        warnings.warn(f"{name}: inverse link has flat spots; link may be non-unique",
                      RuntimeWarning)

    psi = numeric_inverse(q, tol=1e-13, domain=v_range)

    def psi_prime(x):
        # finite_diff gives a Python float for a 0-d x, and 1.0 / 0.0 would raise
        return np.divide(1.0, finite_diff(q, psi(x), h=1e-6))

    return Link(psi=psi, psi_prime=psi_prime, q=q, range=tuple(v_range), name=name)


def reference_link(lam_pos_prime: Callable, lam_neg_prime: Callable,
                   v_range: tuple[float, float] = (-20.0, 20.0)) -> Link:
    """The unique link under which given partial losses form a proper composite.

    ``q(v) = lam_neg'(v) / (lam_neg'(v) - lam_pos'(v))``.  The composite
    built with this link attains its conditional minimum at ``v = psi(eta)``.
    Raises if the implied inverse link is non-monotone on the probe range.
    """
    return _gap_link(lam_pos_prime, lam_neg_prime, v_range, "reference-link")


def margin_to_link(m: MarginLoss,
                   v_range: tuple[float, float] = (-20.0, 20.0)) -> Link:
    """Link under which a margin loss is a proper composite.

    The reference link of the partials ``phi(v)`` and ``phi(-v)``:
    ``q(v) = phi'(-v) / (phi'(-v) + phi'(v))``; the resulting inverse link
    is symmetric, ``q(-v) = 1 - q(v)``, hence ``psi(1/2) = 0``.  Margin
    losses with flat spots (vanishing derivative) are rejected because the
    link stops being invertible there.
    """
    probe = np.linspace(v_range[0], v_range[1], 257)
    dvals = m.phi_prime(probe)
    if np.any(dvals == 0.0):
        warnings.warn(f"{m.name}: phi' vanishes on the probe range; "
                      "link may be non-unique", RuntimeWarning)
    return _gap_link(m.phi_prime, lambda v: -m.phi_prime(-v), v_range, f"link({m.name})")


def composite_from_margin(m: MarginLoss,
                          v_range: tuple[float, float] = (-20.0, 20.0)) -> CompositeLoss:
    """Express a margin loss as a proper composite.

    The base partial losses are ``phi(+-psi(etahat))`` and the weight is
    ``rho * psi'`` with ``rho(etahat) = -phi'(-psi(etahat)) / etahat``.
    """
    link = margin_to_link(m, v_range)
    weight = WeightFunction(w=lambda e: -m.phi_prime(-link.psi(e)) / e * link.psi_prime(e),
                            name=f"weight({m.name})")
    base = ProperLoss(
        ell_pos=lambda e: m.phi(link.psi(e)),
        ell_neg=lambda e: m.phi(-link.psi(e)),
        weight=weight,
        fair=False,
        strictly_proper=True,
        name=f"proper({m.name})",
    )
    return CompositeLoss(base=base, link=link)


def exponential_margin() -> MarginLoss:
    return MarginLoss(
        phi=lambda v: np.exp(-v),
        phi_prime=lambda v: -np.exp(-v),
        name="exponential",
    )


def logistic_margin() -> MarginLoss:
    def softplus_neg(v):
        # log(1 + exp(-v)), stable on both tails
        return np.where(v > 0, np.log1p(np.exp(-np.abs(v))),
                        -np.minimum(v, 0.0) + np.log1p(np.exp(-np.abs(v))))

    return MarginLoss(
        phi=softplus_neg,
        phi_prime=lambda v: -1.0 / (1.0 + np.exp(v)),
        name="logistic",
    )


def zhang_margin(alpha: float) -> MarginLoss:
    """Smoothed-hinge family: phi(v) = log(exp(alpha(1-v)) + 1)/alpha.

    Approaches the hinge loss as alpha -> 0 and is differentiable for every
    alpha > 0, with phi'(v) = -exp(alpha(1-v)) / (exp(alpha(1-v)) + 1).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")

    def softplus(z):
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))

    def sigmoid(z):
        return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                        np.exp(z) / (1.0 + np.exp(z)))

    return MarginLoss(
        phi=lambda v: softplus(alpha * (1.0 - v)) / alpha,
        phi_prime=lambda v: -sigmoid(alpha * (1.0 - v)),
        name=f"zhang({alpha})",
    )


def duality_residual(W: Callable, x: float, y: float) -> float:
    """Residual of the Bregman duality D_W(x, y) = D_{W^-1}(W(y), W(x)).

    ``W`` must be strictly increasing on (0, 1).  Its inverse is
    :func:`~cploss.links.numeric_inverse` with the default end rule, and the
    antiderivatives of ``W`` (the divergence generator) and of ``W^-1`` (its
    Legendre dual) are quadratures anchored at 1/2 and W(1/2); Bregman
    divergences are invariant to the anchoring constants.  ``W`` and each
    antiderivative are evaluated once, on both points.
    """
    W = array_fn(W)
    W_inv = numeric_inverse(W)
    x, y = float(x), float(y)
    Wx, Wy, W_half = W(np.array([x, y, 0.5]))
    Gx, Gy = antiderivative(W, 0.5, ())(np.array([x, y]))
    Hx, Hy = antiderivative(W_inv, float(W_half), ())(np.array([Wx, Wy]))
    lhs = Gx - Gy - (x - y) * Wy
    rhs = Hy - Hx - (Wy - Wx) * float(W_inv(Wx))
    return float(abs(lhs - rhs))
