"""Full-risk machinery over the unit instance space and the surrogate study.

An experiment is an observation-conditional probability ``eta`` on X = [0,1]
with the uniform marginal.  This module integrates conditional risks into
full risks, minimises them over the linear hypothesis class h_alpha(x) =
alpha*x, evaluates the reference misclassification risk of the resulting
classifiers, and reproduces the two-experiment/two-surrogate study whose
reference values are frozen below, including both strict preference
reversals.  It also provides the minimal convex proper loss and the
regret-bound curve with its closed-form inversion.
"""

from __future__ import annotations

import contextlib
import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .links import numeric_inverse
from .numerics import (MinimizeResult, NumericsError, QuadratureSpec, array_fn, integrate,
                       lambert_w0)
from .proper import ProperLoss, _risk_terms, bayes_risk, catalog_loss

__all__ = [
    "Experiment",
    "LinearHypothesisClass",
    "SurrogateReport",
    "quadratic_experiment",
    "affine_experiment",
    "full_risk",
    "constrained_bayes",
    "zero_one_linear_risk",
    "surrogate_penalty",
    "minimal_loss",
    "regret_bound_rhs",
    "regret_bound_invert",
    "run_surrogate_experiment",
    "REFERENCE_ALPHA_STARS",
    "REFERENCE_ZERO_ONE_RISKS",
]

_RISK_QUAD = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12)
_INNER, _OUTER = 1e-4, 1e-12   # the slope's first bracket's ends and its extension's, from 0 or 1


@dataclass(frozen=True)
class Experiment:
    """Conditional probability eta on [0,1] under the uniform marginal.

    ``eta`` is held under the contract of :func:`~cploss.numerics.array_fn`.
    """

    eta: Callable
    name: str = "experiment"

    def __post_init__(self):
        object.__setattr__(self, "eta", array_fn(self.eta))
        vals = self.eta(np.linspace(0.0, 1.0, 41))
        if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
            raise ValueError(f"experiment {self.name!r}: eta must map into [0,1]")


@dataclass(frozen=True)
class LinearHypothesisClass:
    """Hypotheses h_alpha(x) = alpha * x with alpha in [0, 1]."""

    @staticmethod
    def hypothesis(alpha: float) -> Callable:
        return lambda x: alpha * np.asarray(x, dtype=float)


def quadratic_experiment() -> Experiment:
    return Experiment(eta=lambda x: x ** 2, name="eta1")


def affine_experiment() -> Experiment:
    return Experiment(eta=lambda x: 1.0 / 3.0 + x / 3.0, name="eta2")


def full_risk(exp: Experiment, loss, h: Callable) -> float:
    """Marginal average of the conditional risk of ``h`` (on the loss's scale), to 1e-12."""

    def integrand(xs):
        return _risk_terms(loss, exp.eta(xs), h(xs))

    return integrate(integrand, 0.0, 1.0, _RISK_QUAD)


def constrained_bayes(exp: Experiment, loss, tol: float = 1e-12) -> MinimizeResult:
    """Minimise the full risk over the linear class: the root of its slope, to within ``tol``.

    The slope of the conditional risk, ``(etahat - eta) w(etahat)`` (composite: ``(q(v) - eta)
    rho(q(v))``; atoms: ``ValueError``), integrated against ``x`` at ``h = alpha x``, is the
    risk's derivative in alpha.  Its root is taken by Illinois steps of one quadrature each
    (:func:`~cploss.links.numeric_inverse`) on [1e-4, 1 - 1e-4], or, past an end where the slope
    keeps its sign, out to 1e-12 from 0 or 1; that bound wins if its risk is at most ``1e-12
    (1 + |min|)`` higher and the root is within ``max(4 tol, 1e-7 (1 + alpha))`` of it.
    ``min_value`` is :func:`full_risk` at the argmin; ``iterations`` counts slope quadratures.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    calls = []

    def slope(alpha):
        calls.append(a := alpha.item())
        return integrate(lambda x: x * loss._risk_slope(exp.eta(x), a * x), 0.0, 1.0, _RISK_QUAD)

    risk = lambda a: full_risk(exp, loss, LinearHypothesisClass.hypothesis(a))
    root = lambda lo, hi: float(numeric_inverse(slope, tol, (lo, hi))(0.0))
    argmin, end = root(_INNER, 1.0 - _INNER), None
    if argmin in (_INNER, 1.0 - _INNER):   # the slope keeps its sign: the minimum lies beyond
        end = float(round(argmin))
        argmin = root(*sorted((argmin, abs(end - _OUTER))))
    value = risk(argmin)
    if end is not None and abs(end - argmin) <= max(4.0 * tol, 1e-7 * (1.0 + argmin)):
        with contextlib.suppress(NumericsError):   # the risk at the bound may diverge
            if (at_end := risk(end)) <= value + 1e-12 * (1.0 + abs(value)):
                argmin, value = end, at_end
    return MinimizeResult(argmin=argmin, min_value=value, iterations=len(calls), converged=True)


def zero_one_linear_risk(exp: Experiment, alpha: float) -> float:
    """Misclassification risk of the slope-``alpha`` linear predictor.

    The predictor is read as the classifier "positive iff x >= alpha/2",
    the decision rule under which this suite's frozen reference risks were
    generated; the risk is eta-mass below the boundary plus (1-eta)-mass
    above it.
    """
    x0 = min(max(float(alpha) / 2.0, 0.0), 1.0)
    neg_side = integrate(exp.eta, 0.0, x0, _RISK_QUAD) if x0 > 0 else 0.0
    pos_side = integrate(lambda xs: 1.0 - exp.eta(xs), x0, 1.0, _RISK_QUAD) if x0 < 1 else 0.0
    return neg_side + pos_side


def surrogate_penalty(exp: Experiment, ref_loss, surrogate) -> float:
    """Reference risk of the hypothesis that minimises the surrogate risk.

    ``ref_loss`` is either an evaluable CPE/composite loss (scored through
    :func:`full_risk`) or a callable ``(exp, alpha) -> risk`` such as
    :func:`zero_one_linear_risk`.  The surrogate minimiser is assumed unique;
    a flat objective (near-minimal spread beyond 1e-4) triggers a warning.
    """
    res = constrained_bayes(exp, surrogate)
    a = res.argmin
    spread_tol = 1e-9 * (1.0 + abs(res.min_value))
    for probe in (max(0.0, a - 1e-4), min(1.0, a + 1e-4)):
        if probe != a:
            h = LinearHypothesisClass.hypothesis(probe)
            if full_risk(exp, surrogate, h) <= res.min_value + spread_tol:
                warnings.warn("surrogate objective is flat near its minimiser; "
                              "the constrained minimiser may not be unique", RuntimeWarning)
                break
    if callable(ref_loss) and not hasattr(ref_loss, "ell_pos"):
        return ref_loss(exp, a)
    return full_risk(exp, ref_loss, LinearHypothesisClass.hypothesis(a))


def minimal_loss() -> ProperLoss:
    """The pointwise-minimal convex proper loss (normalised to w(1/2) = 1).

    Partial losses are piecewise: linear on the half where the weight rides
    the 1/(2(1-c)) or 1/(2c) envelope and logarithmic on the other half.
    Its Bayes-risk drop is the closed form of :func:`regret_bound_rhs`.
    """
    return catalog_loss("minimal")


def regret_bound_rhs(alpha_reg: float, loss: ProperLoss | None = None) -> float:
    """Bayes-risk drop between 1/2 and 1/2 + alpha: the regret lower bound.

    Without ``loss`` this is the minimal loss's closed form
    ``(alpha/2 + 1/4) log(2 alpha + 1) - alpha/2``; a given symmetric
    proper loss is evaluated through its Bayes risk.
    """
    a = float(alpha_reg)
    if not 0.0 <= a <= 0.5:
        raise ValueError("alpha_reg must lie in [0, 1/2]")
    if loss is None:
        return (a / 2.0 + 0.25) * math.log(2.0 * a + 1.0) - a / 2.0
    return bayes_risk(loss, 0.5) - bayes_risk(loss, 0.5 + a)


def regret_bound_invert(x: float) -> float:
    """Largest threshold-1/2 regret compatible with minimal-loss regret ``x``.

    Closed-form inversion of :func:`regret_bound_rhs` through the principal
    Lambert W branch: ``exp(W((4x-1)/e) + 1)/2 - 1/2``.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return 0.5 * math.exp(lambert_w0((4.0 * x - 1.0) / math.e) + 1.0) - 0.5


# Frozen reference values for the two-experiment/two-surrogate study
# (surrogate index, experiment index) -> value.
REFERENCE_ALPHA_STARS = {
    (1, 1): 0.66666667,
    (2, 1): 0.81779259,
    (1, 2): 1.00000000,
    (2, 2): 0.77763472,
}
REFERENCE_ZERO_ONE_RISKS = {
    (1, 1): 0.3580272,
    (2, 1): 0.3033476,
    (1, 2): 0.4166666,
    (2, 2): 0.4207872,
}


@dataclass(frozen=True)
class SurrogateReport:
    surrogate: int
    experiment: int
    alpha_star: float
    surrogate_risk: float
    zero_one_risk: float

    def to_json_dict(self) -> dict:
        key = (self.surrogate, self.experiment)
        return {
            "surrogate": self.surrogate,
            "experiment": self.experiment,
            "alpha_star": self.alpha_star,
            "surrogate_risk": self.surrogate_risk,
            "zero_one_risk": self.zero_one_risk,
            "reference_alpha_star": REFERENCE_ALPHA_STARS[key],
            "alpha_star_abs_dev": abs(self.alpha_star - REFERENCE_ALPHA_STARS[key]),
            "reference_zero_one_risk": REFERENCE_ZERO_ONE_RISKS[key],
            "zero_one_risk_abs_dev": abs(self.zero_one_risk - REFERENCE_ZERO_ONE_RISKS[key]),
        }


def run_surrogate_experiment() -> dict:
    """Four-cell sweep: two surrogates crossed with two experiments.

    Surrogate 1 has weight 1/c, surrogate 2 has weight 1/(1-c); both use
    the identity link over the linear hypothesis class.  Returns a JSON
    report with every constrained minimiser, its misclassification risk,
    deviations from the frozen reference values, and the two strict
    preference reversals that make the surrogates incommensurable.
    """
    t0 = time.perf_counter()
    experiments = {1: quadratic_experiment(), 2: affine_experiment()}
    surrogates = {1: catalog_loss("w1-over-c"), 2: catalog_loss("w1-over-1mc")}
    cells: dict[tuple[int, int], SurrogateReport] = {}
    for j, exp in experiments.items():
        for i, loss in surrogates.items():
            res = constrained_bayes(exp, loss)
            cells[(i, j)] = SurrogateReport(
                surrogate=i,
                experiment=j,
                alpha_star=res.argmin,
                surrogate_risk=res.min_value,
                zero_one_risk=zero_one_linear_risk(exp, res.argmin),
            )
    elapsed = time.perf_counter() - t0
    risk = {k: c.zero_one_risk for k, c in cells.items()}
    return {
        "schema": "cploss/1",
        "report": "surrogate-experiment",
        "note": ("cells are indexed (surrogate, experiment); surrogate 1 has "
                 "weight 1/c, surrogate 2 has weight 1/(1-c)"),
        "cells": [cells[k].to_json_dict() for k in sorted(cells)],
        "incommensurable": {
            "experiment_1_prefers_surrogate_2": bool(risk[(2, 1)] < risk[(1, 1)]),
            "experiment_2_prefers_surrogate_1": bool(risk[(1, 2)] < risk[(2, 2)]),
            "strict_reversal": bool(risk[(2, 1)] < risk[(1, 1)] and risk[(1, 2)] < risk[(2, 2)]),
        },
        "runtime_seconds": elapsed,
    }
