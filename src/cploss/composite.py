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
from .numerics import antiderivative, finite_diff
from .proper import ProperLoss, _risk_terms, conditional_risk, regret
from .weights import WeightFunction, _as_array_fn

__all__ = [
    "CompositeLoss",
    "MarginLoss",
    "make_composite",
    "composite_conditional_risk",
    "score_gradients",
    "composite_regret",
    "reference_link",
    "margin_to_link",
    "composite_from_margin",
    "exponential_margin",
    "logistic_margin",
    "zhang_margin",
    "duality_residual",
]


@dataclass(frozen=True)
class CompositeLoss:
    """A proper loss paired with a link, evaluable at raw scores.

    ``rho`` is the link-adjusted weight ``w / psi'`` as a callable, or None
    when the weight has atoms.
    """

    base: ProperLoss
    link: Link
    rho: Callable | None

    @property
    def name(self) -> str:
        return f"{self.base.name}@{self.link.name}"

    def ell_pos_v(self, v):
        return self.base.ell_pos(self.link.q(v))

    def ell_neg_v(self, v):
        return self.base.ell_neg(self.link.q(v))

    def ell(self, y: int, v):
        if y == 1:
            return self.ell_pos_v(v)
        if y == -1:
            return self.ell_neg_v(v)
        raise ValueError(f"label must be +1 or -1, got {y!r}")

    def require_rho(self) -> Callable:
        if self.rho is None:
            raise ValueError(
                f"{self.name}: rho is unavailable (weight has atoms); "
                "gradient and convexity operations need a density weight")
        return self.rho


@dataclass(frozen=True)
class MarginLoss:
    """A loss of scores through the margin only: ell(y, v) = phi(y*v)."""

    phi: Callable
    phi_prime: Callable | None = None
    name: str = "margin"

    def dphi(self, v):
        if self.phi_prime is not None:
            return self.phi_prime(v)
        return finite_diff(self.phi, v, 1)


def make_composite(base: ProperLoss, link: Link) -> CompositeLoss:
    """Pair a proper loss with a link.

    The intrinsic weight ``rho = w / psi'`` is attached when the loss's
    weight is a density; for atom weights the composite is still evaluable
    but rho-dependent operations raise.
    """
    rho = None if base.weight.has_atoms else rho_of(base.weight, link)
    return CompositeLoss(base=base, link=link, rho=rho)


def composite_conditional_risk(cl: CompositeLoss, eta: float, v: float):
    """Expected composite loss at score ``v``: the base risk at q(v)."""
    vs = np.asarray(v, dtype=float)
    if not np.all((cl.link.range[0] - 1e-9 <= vs) & (vs <= cl.link.range[1] + 1e-9)):
        raise ValueError(f"score {v!r} outside link range {cl.link.range}")
    return conditional_risk(cl.base, eta, cl.link.q(v))


def _pointwise_risk(loss, eta, preds):
    """Conditional risk at predictions: scores for a composite, probabilities otherwise."""
    if isinstance(loss, CompositeLoss):
        return _risk_terms(loss.base, eta, loss.link.q(preds))
    return _risk_terms(loss, eta, preds)


def score_gradients(cl: CompositeLoss, v: float) -> tuple[float, float]:
    """Score derivatives of the two partial composite losses at ``v``.

    Returns ``(d_pos, d_neg) = ((q(v)-1)*rho(q(v)), q(v)*rho(q(v)))``, the
    per-example gradient updates for positive and negative labels.
    """
    rho = cl.require_rho()
    etahat = float(cl.link.q(np.asarray(v, dtype=float)))
    r = float(rho(np.asarray(etahat)))
    return ((etahat - 1.0) * r, etahat * r)


def composite_regret(cl: CompositeLoss, eta: float, v: float) -> float:
    """Excess composite risk over the Bayes risk: the base regret at q(v)."""
    return regret(cl.base, eta, float(cl.link.q(np.asarray(v, dtype=float))))


def _link_from_q(q: Callable, v_range: tuple[float, float], name: str) -> Link:
    lo, hi = v_range
    probe = np.linspace(lo, hi, 512)
    qs = np.asarray(q(probe), dtype=float)
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

    psi = numeric_inverse(q, tol=1e-13, domain=(lo, hi))

    def psi_prime(x):
        return 1.0 / finite_diff(q, psi(x), 1, h=1e-6)

    return Link(psi=psi, psi_prime=_as_array_fn(psi_prime), q=_as_array_fn(q),
                range=(lo, hi), name=name)


def reference_link(lam_pos_prime: Callable, lam_neg_prime: Callable,
                   v_range: tuple[float, float] = (-20.0, 20.0)) -> Link:
    """The unique link under which given partial losses form a proper composite.

    ``q(v) = lam_neg'(v) / (lam_neg'(v) - lam_pos'(v))``.  The composite
    built with this link attains its conditional minimum at ``v = psi(eta)``.
    Raises if the implied inverse link is non-monotone on the probe range.
    """

    def q(v):
        dn = np.asarray(lam_neg_prime(v), dtype=float)
        dp = np.asarray(lam_pos_prime(v), dtype=float)
        denom = dn - dp
        if np.any(np.abs(denom) < 1e-300):
            raise ValueError("reference link: vanishing derivative gap")
        return dn / denom

    return _link_from_q(_as_array_fn(q), v_range, name="reference-link")


def margin_to_link(m: MarginLoss,
                   v_range: tuple[float, float] = (-20.0, 20.0)) -> Link:
    """Link under which a margin loss is a proper composite.

    ``q(v) = phi'(-v) / (phi'(-v) + phi'(v))``; the resulting inverse link
    is symmetric, ``q(-v) = 1 - q(v)``, hence ``psi(1/2) = 0``.  Margin
    losses with flat spots (vanishing derivative) are rejected because the
    link stops being invertible there.
    """
    probe = np.linspace(v_range[0], v_range[1], 257)
    dvals = np.asarray(m.dphi(probe), dtype=float)
    if np.any(dvals == 0.0):
        warnings.warn(f"{m.name}: phi' vanishes on the probe range; "
                      "link may be non-unique", RuntimeWarning)

    def q(v):
        v = np.asarray(v, dtype=float)
        dneg = np.asarray(m.dphi(-v), dtype=float)
        dpos = np.asarray(m.dphi(v), dtype=float)
        denom = dneg + dpos
        if np.any(np.abs(denom) < 1e-300):
            raise ValueError(f"{m.name}: phi'(-v)+phi'(v) vanishes; no admissible link")
        return dneg / denom

    return _link_from_q(_as_array_fn(q), v_range, name=f"link({m.name})")


def composite_from_margin(m: MarginLoss,
                          v_range: tuple[float, float] = (-20.0, 20.0)) -> CompositeLoss:
    """Express a margin loss as a proper composite.

    The base partial losses are ``phi(+-psi(etahat))`` and the weight is
    ``rho * psi'`` with ``rho(etahat) = -phi'(-psi(etahat)) / etahat``.
    """
    link = margin_to_link(m, v_range)

    def ell_pos(e):
        return m.phi(np.asarray(link.psi(e), dtype=float))

    def ell_neg(e):
        return m.phi(-np.asarray(link.psi(e), dtype=float))

    def rho_fn(e):
        e = np.asarray(e, dtype=float)
        return -np.asarray(m.dphi(-np.asarray(link.psi(e), dtype=float)), dtype=float) / e

    def w_fn(e):
        return np.asarray(rho_fn(e), dtype=float) * np.asarray(link.psi_prime(e), dtype=float)

    weight = WeightFunction(w=_as_array_fn(w_fn), name=f"weight({m.name})")
    base = ProperLoss(
        ell_pos=_as_array_fn(ell_pos),
        ell_neg=_as_array_fn(ell_neg),
        weight=weight,
        fair=False,
        strictly_proper=True,
        name=f"proper({m.name})",
    )
    return CompositeLoss(base=base, link=link, rho=_as_array_fn(rho_fn))


def exponential_margin() -> MarginLoss:
    return MarginLoss(
        phi=_as_array_fn(lambda v: np.exp(-v)),
        phi_prime=_as_array_fn(lambda v: -np.exp(-v)),
        name="exponential",
    )


def logistic_margin() -> MarginLoss:
    def softplus_neg(v):
        # log(1 + exp(-v)), stable on both tails
        v = np.asarray(v, dtype=float)
        return np.where(v > 0, np.log1p(np.exp(-np.abs(v))),
                        -np.minimum(v, 0.0) + np.log1p(np.exp(-np.abs(v))))

    return MarginLoss(
        phi=_as_array_fn(softplus_neg),
        phi_prime=_as_array_fn(lambda v: -1.0 / (1.0 + np.exp(v))),
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
        z = np.asarray(z, dtype=float)
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))

    def sigmoid(z):
        z = np.asarray(z, dtype=float)
        return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                        np.exp(z) / (1.0 + np.exp(z)))

    return MarginLoss(
        phi=_as_array_fn(lambda v: softplus(alpha * (1.0 - v)) / alpha),
        phi_prime=_as_array_fn(lambda v: -sigmoid(alpha * (1.0 - v))),
        name=f"zhang({alpha})",
    )


def duality_residual(W: Callable, x: float, y: float,
                     W_inv: Callable | None = None,
                     Wbar: Callable | None = None,
                     dual_antideriv: Callable | None = None) -> float:
    """Residual of the Bregman duality D_W(x, y) = D_{W^-1}(W(y), W(x)).

    ``W`` must be strictly increasing on [0, 1].  Missing pieces are filled
    numerically: the inverse by bisection, the antiderivative of ``W`` (the
    divergence generator) and of ``W^-1`` (its Legendre dual) by quadrature
    anchored at 1/2 and W(1/2).  Bregman divergences are invariant to the
    anchoring constants.
    """
    Wf = _as_array_fn(W)
    if W_inv is None:
        W_inv = numeric_inverse(Wf)
    if Wbar is None:
        Wbar = antiderivative(Wf, 0.5)
    if dual_antideriv is None:
        dual_antideriv = antiderivative(W_inv, float(Wf(np.asarray(0.5))))

    def at(fn, t: float) -> float:
        return float(fn(np.asarray(t)))

    x = float(x)
    y = float(y)
    Wx = at(Wf, x)
    Wy = at(Wf, y)
    lhs = at(Wbar, x) - at(Wbar, y) - (x - y) * Wy
    rhs = at(dual_antideriv, Wy) - at(dual_antideriv, Wx) - (Wy - Wx) * at(W_inv, Wx)
    return abs(lhs - rhs)
