"""Label-noise robustness of CPE losses.

Symmetric label flipping with rate ``alpha`` turns a class probability
``eta`` into ``eta_alpha = alpha(1-eta) + (1-alpha)eta`` and a loss into the
mixture ``(1-alpha) ell(y, .) + alpha ell(-y, .)``; the two views produce
identical conditional risks.  A loss is alpha-robust at eta when the clean
and corrupted conditional risks share a minimiser.  For cost-weighted
losses the non-robust etas form one half-open interval in closed form; for
a general proper loss the non-robust region is the union of those intervals
over the support of its weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .proper import _Loss, _risk_terms
from .weights import WeightFunction

__all__ = [
    "RobustInterval",
    "corrupt",
    "noisy_loss",
    "NoisyLoss",
    "minimizer_set",
    "cost_robust_interval",
    "proper_nonrobust_region",
    "nonrobust_region_report",
]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"noise level must lie in [0, 1/2), got {alpha}")
    return alpha


def corrupt(eta: float, alpha: float):
    """The flipped-label class probability alpha(1-eta) + (1-alpha)eta.

    Lands in [alpha, 1-alpha] and never crosses 1/2; ``ValueError`` unless 0 <= eta <= 1 (NaN too).
    """
    alpha = _check_alpha(alpha)
    e = np.asarray(eta, dtype=float)
    if not np.all((e >= 0.0) & (e <= 1.0)):
        raise ValueError(f"eta must lie in [0,1], got {e}")
    out = alpha * (1.0 - e) + (1.0 - alpha) * e
    return float(out) if np.ndim(eta) == 0 else out


@dataclass(frozen=True)
class NoisyLoss(_Loss):
    """Label-flip mixture (1-a) ell(y,.) + a ell(-y,.), a in [0, 1/2): the base's
    risk at eta = 1-a or a, which drops a term of zero weight (0 * inf is nan)."""

    base: object
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))

    def ell_pos(self, v):
        return _risk_terms(self.base, 1.0 - self.alpha, v)

    def ell_neg(self, v):
        return _risk_terms(self.base, self.alpha, v)

    def conditional_risk(self, eta: float, v):
        out = _risk_terms(self, float(eta), v)
        return float(out) if np.ndim(v) == 0 else out

    def _risk_slope(self, eta, v):   # the base's, at the flipped eta
        return self.base._risk_slope(self.alpha * (1.0 - eta) + (1.0 - self.alpha) * eta, v)


def noisy_loss(cl, alpha: float) -> NoisyLoss:
    """Mixture loss whose risk on clean eta equals the clean risk on eta_alpha."""
    return NoisyLoss(base=cl, alpha=alpha)


def minimizer_set(loss, eta: float, grid: Sequence[float]) -> np.ndarray:
    """Grid points (on the loss's scale) whose risk is within 1e-12 (1 + |min|) of the minimum.

    That is tight enough that the exact plateaus of piecewise-constant losses are recovered while
    smooth strictly proper losses give a near-singleton.  ``ValueError`` unless 0 <= eta <= 1.
    """
    if not 0.0 <= float(eta) <= 1.0:
        raise ValueError(f"eta must lie in [0,1], got {eta}")
    grid = np.asarray(grid, dtype=float)
    risks = _risk_terms(loss, float(eta), grid)
    m = float(np.min(risks))
    return grid[risks <= m + 1e-12 * (1.0 + abs(m))]


@dataclass(frozen=True)
class RobustInterval:
    """Closed-form non-robust interval of a cost loss; half-open [lo, hi)."""

    c0: float
    alpha: float
    interval: tuple[float, float] | None

    def contains(self, eta: float) -> bool:
        if self.interval is None:
            return False
        lo, hi = self.interval
        return lo <= eta < hi

    def is_robust_at(self, eta: float) -> bool:
        return not self.contains(eta)

    def to_json_dict(self) -> dict:
        return {
            "c0": self.c0,
            "alpha": self.alpha,
            "interval": None if self.interval is None else [self.interval[0], self.interval[1]],
        }


def cost_robust_interval(c0: float, alpha: float) -> RobustInterval:
    """Non-robust etas of the cost loss at threshold ``c0`` under rate ``alpha``.

    For c0 < 1/2 the interval is [(c0-alpha)/(1-2alpha), c0); for c0 >= 1/2
    it is [c0, (c0-alpha)/(1-2alpha)).  Empty when alpha = 0 or c0 = 1/2:
    corruption pulls probabilities toward 1/2 without crossing it, so the
    threshold-1/2 loss never changes its minimiser set.
    """
    alpha = _check_alpha(alpha)
    c0 = float(c0)
    if not 0.0 < c0 < 1.0:
        raise ValueError("c0 must lie in (0,1)")
    pulled = (c0 - alpha) / (1.0 - 2.0 * alpha)
    lo, hi = (pulled, c0) if c0 < 0.5 else (c0, pulled)
    if not lo < hi:
        return RobustInterval(c0=c0, alpha=alpha, interval=None)
    return RobustInterval(c0=c0, alpha=alpha, interval=(lo, hi))


def _positivity_runs(mask: np.ndarray, xs: np.ndarray) -> list[tuple[float, float]]:
    """``(xs[first], xs[last])`` of every maximal run of True in ``mask``, in order."""
    step = np.diff(np.concatenate([[0], np.asarray(mask, dtype=np.int8), [0]]))
    first = np.flatnonzero(step == 1)
    last = np.flatnonzero(step == -1) - 1
    return list(zip(xs[first].tolist(), xs[last].tolist()))


def _merge(intervals: list[tuple[float, float]], gap: float) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    out = [list(intervals[0])]
    for lo, hi in intervals[1:]:
        if lo <= out[-1][1] + gap:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def proper_nonrobust_region(wf: WeightFunction, alpha: float,
                            grid: Sequence[float] | None = None) -> list[tuple[float, float]]:
    """Union of non-robust intervals over the support of the weight.

    The weight's positivity is probed on ``grid``; each maximal positivity
    run [a, b] contributes its exact continuum union of per-threshold
    intervals, [(a-alpha)/(1-2alpha), min(b, 1/2)) from thresholds below 1/2
    and [max(a, 1/2), (b-alpha)/(1-2alpha)) from those above (pointwise
    grids under-resolve near 1/2 where the intervals shrink like
    alpha(1-2c)).  Atoms contribute their own closed-form intervals.
    Gaps smaller than one grid step are merged; the result is clipped to
    [0, 1] and returned as disjoint half-open intervals.
    """
    alpha = _check_alpha(alpha)
    if grid is None:
        grid = np.arange(1, 1000) / 1000.0
    xs = np.asarray(grid, dtype=float)
    step = float(np.max(np.diff(xs))) if len(xs) > 1 else 1e-3
    intervals: list[tuple[float, float]] = []

    if alpha > 0.0:
        mask = wf.w(xs) > 1e-12
        for a, b in _positivity_runs(mask, xs):
            pull = lambda c: (c - alpha) / (1.0 - 2.0 * alpha)
            if a < 0.5:
                lo, hi = pull(a), min(b, 0.5)
                if lo < hi:
                    intervals.append((lo, hi))
            if b >= 0.5:
                lo, hi = max(a, 0.5), pull(b)
                if lo < hi:
                    intervals.append((lo, hi))
    for c, _m in wf.atoms:
        ri = cost_robust_interval(c, alpha)
        if ri.interval is not None:
            intervals.append(ri.interval)

    clipped = [(max(0.0, lo), min(1.0, hi)) for lo, hi in intervals if max(0.0, lo) < min(1.0, hi)]
    return _merge(clipped, gap=step)


def nonrobust_region_report(wf: WeightFunction, alpha: float,
                            grid: Sequence[float] | None = None) -> dict:
    union = proper_nonrobust_region(wf, alpha, grid)
    return {
        "weight": wf.name,
        "alpha": float(alpha),
        "nonrobust_union": [[lo, hi] for lo, hi in union],
    }
