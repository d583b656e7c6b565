"""Proper losses for class probability estimation.

A proper loss is determined (up to constants) by its weight function: the
partial losses are recovered from the weight by integration, the conditional
Bayes risk is concave with curvature equal to minus the weight, and the
regret is the Bregman divergence of the negative Bayes risk.  This module
constructs losses from weights, evaluates risks and regrets, checks the
tangent and mixture representations, recovers weights from losses, and
completes symmetric losses specified on half the unit interval.

ProperLoss values are immutable; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .numerics import NumericsError, antiderivative, array_fn, finite_diff, integrate
from .weights import WeightFunction, catalog_weight, tabulated_weight

__all__ = [
    "ImpropernessError",
    "ProperLoss",
    "from_weight",
    "cost_loss",
    "zero_one_loss",
    "catalog_loss",
    "conditional_risk",
    "bayes_risk",
    "bayes_risk_prime",
    "regret",
    "savage_check",
    "schervish_check",
    "weight_from_loss",
    "reconstruct_symmetric",
]


class ImpropernessError(ValueError):
    """A construction or check found the loss not to be proper."""


class _Loss:
    """Partials ``ell_pos(pred)``, ``ell_neg(pred)`` on the loss's scale: probability or score."""

    def ell(self, y: int, pred):
        """Loss of the prediction ``pred`` against label ``y`` in {-1, +1}."""
        if y == 1:
            return self.ell_pos(pred)
        if y == -1:
            return self.ell_neg(pred)
        raise ValueError(f"label must be +1 or -1, got {y!r}")


@dataclass(frozen=True)
class ProperLoss(_Loss):
    """Partial losses on [0, 1] together with their weight function.

    ``ell_pos`` is the penalty for predicting ``etahat`` when the label is
    positive, ``ell_neg`` for the negative label.  Both are held under the
    contract of :func:`~cploss.numerics.array_fn`, applied once here: float
    ndarrays in and out, numpy warnings silenced.
    """

    ell_pos: Callable
    ell_neg: Callable
    weight: WeightFunction
    fair: bool = True
    strictly_proper: bool = True
    name: str = "proper-loss"

    def __post_init__(self):
        object.__setattr__(self, "ell_pos", array_fn(self.ell_pos))
        object.__setattr__(self, "ell_neg", array_fn(self.ell_neg))

    def validate(self) -> None:
        """Probe fairness and nonnegativity on a small grid.

        Regularity (``e*ell_pos(e) -> 0`` at 0, and its mirror at 1) follows
        from a definite weight, so it is not probed at finite ``e``.
        """
        xs = np.linspace(0.01, 0.99, 25)
        if self.fair:
            if np.any(self.ell_pos(xs) < -1e-9) or np.any(self.ell_neg(xs) < -1e-9):
                raise ImpropernessError(f"{self.name}: fair loss has negative partial values")
            edge = max(abs(float(self.ell_neg(0.0))), abs(float(self.ell_pos(1.0))))
            if not edge <= 1e-9:
                raise ImpropernessError(f"{self.name}: fairness anchors are not zero")


def _dyadic_strictness(wf: WeightFunction) -> bool:
    # strictness needs mass on every open subinterval; approximated by
    # probing the continuous part on 1023 dyadic interior points: a zero
    # stretch of more than 2 adjacent points means not strictly proper.
    zero = wf.w(np.arange(1, 1024) / 1024.0) <= 1e-12
    return not np.any(zero[:-2] & zero[1:-1] & zero[2:])


def from_weight(wf: WeightFunction) -> ProperLoss:
    """Build the fair proper loss whose weight function is ``wf``.

    Closed antiderivatives are used when the weight carries them (the
    catalog weights and tables); otherwise the partial-loss integrals are
    evaluated by quadrature.  Atoms contribute exact step terms.  Partial
    losses of non-definite weights evaluate to +inf at the offending endpoint
    but remain usable on (0, 1).
    """
    if wf.is_pure_atomic:
        continuous_pos = continuous_neg = np.zeros_like
    elif wf.W is not None and wf.Wbar is not None:
        Wf, Wbar = wf.W, wf.Wbar
        wbar0 = float(Wbar(0.0))
        wbar1 = float(Wbar(1.0))
        if not (np.isfinite(wbar0) and np.isfinite(wbar1)):
            raise ImpropernessError(
                f"weight {wf.name!r} is not definite: its partial-loss integrals diverge")

        # The 0*inf products at the very endpoints are the regularity limits
        # and evaluate to zero.
        def continuous_pos(e):
            return wbar1 - Wbar(e) - np.where(e < 1.0, (1.0 - e) * Wf(e), 0.0)

        def continuous_neg(e):
            return wbar0 - Wbar(e) + np.where(e > 0.0, e * Wf(e), 0.0)
    else:
        # ell_pos(e) = integral of (1-c) w(c) over [e, 1], written as the
        # antiderivative of -(1-c) w anchored at 1; ell_neg(e) = integral of
        # c w(c) over [0, e].
        w = wf.w
        continuous_pos = antiderivative(lambda c: -(1.0 - c) * w(c), 1.0)
        continuous_neg = antiderivative(lambda c: c * w(c), 0.0)

    def ell_pos(e):
        total = continuous_pos(e)
        for c, m in wf.atoms:
            total = total + m * (1.0 - c) * (e < c)
        return total

    def ell_neg(e):
        total = continuous_neg(e)
        for c, m in wf.atoms:
            total = total + m * c * (e >= c)
        return total

    loss = ProperLoss(
        ell_pos=ell_pos,
        ell_neg=ell_neg,
        weight=wf,
        fair=True,
        strictly_proper=_dyadic_strictness(wf),
        name=f"loss({wf.name})",
    )
    loss.validate()
    return loss


def cost_loss(c0: float) -> ProperLoss:
    """The cost-weighted misclassification loss as a ProperLoss (atom weight)."""
    return from_weight(catalog_weight("cost", {"c0": c0}))


def zero_one_loss() -> ProperLoss:
    """Misclassification loss: twice the cost loss at threshold 1/2."""
    return from_weight(catalog_weight("zero-one"))


def catalog_loss(name: str, params: dict | None = None) -> ProperLoss:
    """Shorthand for ``from_weight(catalog_weight(name, params))``."""
    return from_weight(catalog_weight(name, params))


def _risk_terms(loss, eta, pred):
    """eta*ell_pos(pred) + (1-eta)*ell_neg(pred) elementwise, ``pred`` on the loss's own scale.

    Each partial is read only where its term has positive weight (the whole
    array when that is everywhere), so no 0*inf arises and no partial is read
    at an end that carries no weight.  No range checks: callers validate.
    """
    eta = np.asarray(eta, dtype=float)
    pred = np.asarray(pred, dtype=float)
    total = np.zeros(np.broadcast_shapes(eta.shape, pred.shape))
    with np.errstate(all="ignore"):
        for partial, p in ((loss.ell_pos, eta), (loss.ell_neg, 1.0 - eta)):
            live = p > 0.0
            if live.all():
                total += p * partial(pred)
            elif live.any():
                live, p, x = np.broadcast_arrays(live, p, pred)
                total[live] += p[live] * partial(x[live])
    return total


def conditional_risk(loss, eta, etahat):
    """Expected loss eta*ell_pos(etahat) + (1-eta)*ell_neg(etahat).

    A partial is read only where its term has positive weight, so a perfect
    prediction never produces 0*inf.  ``eta`` and ``etahat`` broadcast; the
    result is a float when both are scalars.
    """
    eta = np.asarray(eta, dtype=float)
    if not np.all((eta >= 0.0) & (eta <= 1.0)):
        raise ValueError(f"eta must lie in [0,1], got {eta}")
    e = np.asarray(etahat, dtype=float)
    if np.any(e < 0.0) or np.any(e > 1.0):
        raise ValueError("etahat must lie in [0,1]")
    out = _risk_terms(loss, eta, e)
    return float(out) if np.ndim(out) == 0 else out


def bayes_risk(loss, eta):
    """Conditional risk of the honest prediction etahat = eta (elementwise)."""
    return conditional_risk(loss, eta, eta)


def bayes_risk_prime(loss, eta: float) -> float:
    """Derivative of the conditional Bayes risk.

    For a proper loss the stationarity of the risk at the honest prediction
    collapses the derivative to ell_pos(eta) - ell_neg(eta).
    """
    return float(loss.ell_pos(eta)) - float(loss.ell_neg(eta))


def regret(loss, eta: float, etahat: float) -> float:
    """Excess conditional risk over the Bayes risk (a Bregman divergence)."""
    return conditional_risk(loss, eta, etahat) - bayes_risk(loss, eta)


def savage_check(loss, grid: Iterable[tuple[float, float]]) -> float:
    """Max residual of the tangent representation of the conditional risk.

    Checks ``L(eta, etahat) = Lbar(etahat) + (eta - etahat) * Lbar'(etahat)``
    with the Bayes-risk derivative estimated by central differences, so the
    check is independent of the closed-form route.
    """
    eta, etahat = np.asarray(list(grid), dtype=float).reshape(-1, 2).T
    lhs = conditional_risk(loss, eta, etahat)
    dbar = finite_diff(lambda t: bayes_risk(loss, t), etahat, 1)
    rhs = bayes_risk(loss, etahat) + (eta - etahat) * dbar
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def schervish_check(loss, y: int, etahat: float) -> float:
    """Mixture representation: integral of cost losses weighted by w.

    Returns ``integral over c of ell_c(y, etahat) * w(c) dc`` plus the atom
    contributions; for a fair proper loss this reproduces the partial loss.
    The integral is taken piece by piece between the weight's ``knots``
    inside its interval, all pieces in one array call of
    :func:`~cploss.numerics.integrate`, so quadrature never spans a kink or
    jump of a table.  A divergent piece raises its
    :class:`~cploss.numerics.IntegrationError`.
    """
    if y not in (1, -1):
        raise ValueError("y must be +1 or -1")
    etahat = float(etahat)
    wf = loss.weight
    atom_term = 0.0
    for c, m in wf.atoms:
        if y == -1:
            atom_term += m * c * (etahat >= c)
        else:
            atom_term += m * (1.0 - c) * (etahat < c)
    if y == -1:
        f = lambda c: c * wf.w(c)
        a, b = 0.0, etahat
    else:
        f = lambda c: (1.0 - c) * wf.w(c)
        a, b = etahat, 1.0
    edges = [a, *sorted(k for k in wf.knots if a < k < b), b]
    return float(np.sum(integrate(f, edges[:-1], edges[1:]))) + atom_term


def _weight_readings(ell_pos: Callable, ell_neg: Callable, xs: Sequence[float]):
    """The slope readings ``-ell_pos'(x)/(1-x)`` and ``ell_neg'(x)/x`` of ``w`` at ``xs``.

    Central differences, ``ell_neg`` read first.  Raises ``ValueError`` naming
    the first point where a slope is not finite.
    """
    xs = np.asarray(xs, dtype=float)
    ell_pos, ell_neg = array_fn(ell_pos), array_fn(ell_neg)
    r_neg = finite_diff(ell_neg, xs, 1) / xs
    r_pos = -finite_diff(ell_pos, xs, 1) / (1.0 - xs)
    bad = ~(np.isfinite(r_pos) & np.isfinite(r_neg))
    if np.any(bad):
        i = int(np.argmax(bad))
        which = "ell_pos" if not np.isfinite(r_pos[i]) else "ell_neg"
        raise ValueError(f"{which} has no finite slope at grid point x={float(xs[i])!r}")
    return r_pos, r_neg


def weight_from_loss(loss, grid: Sequence[float] | None = None) -> WeightFunction:
    """Recover the weight as the mean of ``-ell_pos'(x)/(1-x)`` and ``ell_neg'(x)/x``.

    Returns the tabulated estimate of :func:`~cploss.analysis.check_proper`
    on ``grid`` (default: 511 interior points).  Raises
    :class:`ImpropernessError` when a slope reading is significantly negative.
    """
    if grid is None:
        grid = np.linspace(1.0 / 512.0, 511.0 / 512.0, 511)
    r_pos, r_neg = readings = _weight_readings(loss.ell_pos, loss.ell_neg, grid)
    if np.min(readings) < -1e-3 * max(1.0, float(np.max(np.abs(readings)))):
        raise ImpropernessError("negative weight estimate: loss is not proper")
    est = np.maximum(0.5 * (r_pos + r_neg), 0.0)
    return tabulated_weight(np.column_stack([grid, est]), name=f"weight({loss.name})")


def reconstruct_symmetric(half: Callable, side: str) -> ProperLoss:
    """Complete a symmetric proper loss from half of its negative partial.

    ``half`` specifies ``h = ell_neg`` on [0, 1/2] (``side="lower"``) or on
    [1/2, 1] (``side="upper"``).  Symmetry, ``ell_pos(e) = ell_neg(1-e)``,
    couples the partial-loss derivatives as ``ell_neg'(e) = (e/(1-e))
    h'(1-e)``; integrating that from 1/2 by parts leaves only ``h`` itself,

        ell_neg(e) = 2 h(1/2) - (e/(1-e)) h(1-e)
                     + integral from 1-e to 1/2 of h(u)/u^2 du,

    one formula for either side, with no derivative of ``h`` taken.  The
    middle term is 0 where a factor is 0, also against an infinite one at
    ``e = 0`` or ``e = 1``: its limit there when the completion is finite.
    The positive partial is
    ``ell_pos(e) = ell_neg(1-e)``.  Both slope readings of the weight, as in
    :func:`weight_from_loss`, must be nonnegative on a probe grid, where
    their mean is the weight.  The loss is fair when ``ell_neg(0) = 0``.
    """
    if side not in ("lower", "upper"):
        raise ValueError("side must be 'lower' or 'upper'")
    half = array_fn(half)
    twice_mid = 2.0 * float(half(0.5))
    G = antiderivative(lambda u: half(u) / (u * u), 0.5)  # G(m): integral from 1/2 to m

    def ell_neg(e):
        given = (e <= 0.5) if side == "lower" else (e >= 0.5)
        out = np.empty(e.shape)
        out[given] = half(e[given])
        x = e[~given]
        m = 1.0 - x
        hm = half(m)
        out[~given] = twice_mid - np.where((x == 0.0) | (hm == 0.0), 0.0, x / m * hm) - G(m)
        return out

    # read below, at a float too, before the loss that holds them exists
    ell_neg = array_fn(ell_neg)
    ell_pos = lambda e: ell_neg(1.0 - e)
    probe = np.linspace(0.02, 0.98, 49)
    r_pos, r_neg = readings = _weight_readings(ell_pos, ell_neg, probe)
    if np.min(readings) < -1e-6 * max(1.0, float(np.max(np.abs(readings)))):
        raise ImpropernessError("reconstructed loss has negative implied weight")
    w_est = 0.5 * (r_pos + r_neg)
    weight = tabulated_weight(np.column_stack([probe, np.maximum(w_est, 0.0)]),
                              name="reconstructed")

    try:
        fair = abs(float(ell_neg(0.0))) <= 1e-9
    except NumericsError:  # the integral up to 1 of the upper side diverges
        fair = False
    return ProperLoss(
        ell_pos=ell_pos,
        ell_neg=ell_neg,
        weight=weight,
        fair=fair,
        strictly_proper=bool(np.all(w_est > 1e-12)),
        name=f"symmetric-reconstruction({side})",
    )
