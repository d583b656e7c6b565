"""Certifiers for properness, convexity and classification calibration.

Convexity of a composite loss is decided two independent ways: through the
weight/link characterisation

    -1/x  <=  rho'/rho  <=  1/(1-x)  on (0,1),  rho = w / psi',

read as two monotone functions, and through a brute-force oracle on
discrete second differences of the partial losses over a score grid.
Either route produces a :class:`ConvexityReport` whose violations carry
both compared quantities.  Certification is grid-based and reported as
such, never as a formal proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .composite import CompositeLoss
from .links import Link, rho_of
from .numerics import NumericsError
from .proper import _Loss, _require_proper, _weight_readings
from .weights import WeightFunction, tabulated_weight

__all__ = [
    "ConvexityReport",
    "RegionCurve",
    "StrictnessError",
    "certification_grid",
    "check_proper",
    "convexity_characterization",
    "convexity_oracle",
    "allowable_region",
    "calibration_cc",
    "calibration_composite",
]


class StrictnessError(ValueError):
    """The convexity characterisation needs a strictly positive weight."""


@dataclass(frozen=True, eq=False)
class ConvexityReport:
    """Outcome of a convexity certification.

    Each violation is one entry of four arrays, sorted by ``xs``, then side
    ("lower" first), then ``lhs``, then ``rhs``: the probability coordinate,
    whether the ``upper`` bound failed (it tracks the positive partial,
    "lower" the negative one), and the two compared quantities: that side's
    reading of ``rho'/rho`` and its bound, or a second difference and 0.
    ``violations`` builds the ``(x, side, lhs, rhs)`` tuples on each read.
    """

    convex: bool
    xs: np.ndarray
    upper: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    method: str
    grid_size: int = 0
    tolerance: float = 1e-9

    @property
    def violations(self) -> tuple[tuple[float, str, float, float], ...]:
        sides = np.where(self.upper, "upper", "lower").tolist()
        return tuple(zip(self.xs.tolist(), sides, self.lhs.tolist(), self.rhs.tolist()))

    def violation_xs(self, side: str | None = None) -> np.ndarray:
        """The x of every violation, or of those of one side; a fresh array."""
        if side is None:
            return self.xs.copy()
        if side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower', 'upper' or None, got {side!r}")
        return self.xs[self.upper == (side == "upper")]

    def to_json_dict(self) -> dict:
        return {
            "convex": self.convex,
            "method": self.method,
            "grid_size": self.grid_size,
            "tolerance": self.tolerance,
            "violations": [{"x": x, "side": side, "lhs": l, "rhs": r}
                           for x, side, l, r in self.violations],
        }


def _report(method: str, found: list, grid_size: int, tol: float) -> ConvexityReport:
    # found: one (xs, upper, lhs, rhs) array quadruple per side
    xs, upper, lhs, rhs = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((rhs, lhs, upper, xs))
    return ConvexityReport(not xs.size, xs[order], upper[order], lhs[order], rhs[order],
                           method, grid_size, tol)


@dataclass(frozen=True)
class RegionCurve:
    """The two envelope curves bounding convexity-compatible weights.

    For a link psi (weight normalised to w(1/2) = 1) the curves are
    ``lower = psi'(x) / (2 psi'(1/2) x)`` and
    ``upper = psi'(x) / (2 psi'(1/2) (1-x))``.  Which curve binds from
    below flips at x = 1/2: for x <= 1/2 admissibility means
    upper <= w <= lower, and for x >= 1/2 it means lower <= w <= upper.
    """

    xs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    link_name: str = ""

    def contains(self, wf: WeightFunction, tol: float = 1e-9) -> bool:
        """Whether ``w / w(1/2)`` lies inside the region on the grid; ``ValueError`` for
        an atom at 1/2 or a ``w(1/2)`` that is not finite and positive."""
        if _atom_at(wf, 0.5):
            raise ValueError("cannot normalise a weight with an atom at 1/2")
        w_half = float(wf.w(0.5))
        if not 0.0 < w_half < np.inf:
            raise ValueError(f"w(1/2) must be finite and positive to normalise, got {w_half}")
        w = wf.w(self.xs) / w_half
        lo_bound = np.where(self.xs >= 0.5, self.lower, self.upper)
        hi_bound = np.where(self.xs >= 0.5, self.upper, self.lower)
        slack = tol * np.maximum(1.0, np.maximum(np.abs(lo_bound), np.abs(hi_bound)))
        return bool(np.all(w >= lo_bound - slack) and np.all(w <= hi_bound + slack))


def certification_grid(n: int = 999) -> np.ndarray:
    """n interior points i/(n+1) plus probes at 1e-3 and 1e-4 from both endpoints."""
    core = np.arange(1, n + 1) / (n + 1.0)
    return np.unique(np.concatenate([core, [1e-3, 1e-4, 1.0 - 1e-3, 1.0 - 1e-4]]))


def check_proper(ell_pos: Callable, ell_neg: Callable,
                 grid: Sequence[float]) -> tuple[bool, WeightFunction, float]:
    """Test a pair of partial losses for properness.

    A differentiable pair is proper exactly when the two slope ratios
    ``-ell_pos'(x)/(1-x)`` and ``ell_neg'(x)/x`` agree and are nonnegative;
    their common value is the weight.  Returns ``(proper, weight_estimate,
    max_residual)`` where the estimate averages the two ratios and the
    residual is the largest normalised disagreement; proper means it is at
    most 1e-3.  Raises ``ValueError`` naming the first grid point where a
    ratio is not finite.
    """
    r_pos, r_neg = _weight_readings(ell_pos, ell_neg, grid)
    scale = np.maximum(1.0, np.maximum(np.abs(r_pos), np.abs(r_neg)))
    max_resid = float(np.max(np.abs(r_pos - r_neg) / scale))
    proper = bool(max_resid <= 1e-3 and np.all(np.minimum(r_pos, r_neg) >= -1e-3 * scale))
    est = np.maximum(0.5 * (r_pos + r_neg), 0.0)
    weight = tabulated_weight(np.column_stack([grid, est]), name="slope-ratio-estimate")
    return proper, weight, max_resid


def convexity_characterization(wf: WeightFunction, link: Link,
                               grid: Sequence[float] | None = None,
                               tol: float = 1e-9) -> ConvexityReport:
    """Certify composite convexity through the weight/link slope condition.

    The condition ``-1/x <= rho'/rho <= 1/(1-x)`` on ``rho = w / psi'`` says
    that ``f = x rho`` does not decrease (lower) and ``f = (1-x) rho`` does
    not increase (upper).  A side's reading of ``rho'/rho`` is the central
    slope ``log|f(x+h) / f(x-h)| / 2h``, h = 1e-6, plus its bound.  A weight
    on a bound makes ``f`` constant, so the slope reads 0 up to the rounding
    of ``f``, and no derivative of ``w`` or ``psi'`` is needed.  ``rho`` is
    evaluated once, at each grid point and its two offsets.  The weight must
    be strictly positive on the grid (strict properness is assumed).  A NaN
    reading raises :class:`~cploss.numerics.NumericsError` naming its point.
    """
    if grid is None:
        grid = certification_grid()
    xs = np.asarray(grid, dtype=float)
    if not xs.size:
        raise ValueError("characterisation needs at least one grid point")
    if wf.has_atoms:
        raise StrictnessError("characterisation requires an atom-free weight")
    n, h = xs.size, 1e-6
    ts = np.concatenate([xs - h, xs + h, xs])
    rho = rho_of(wf, link)(ts)
    if np.any(rho[2 * n:] <= 0):
        raise StrictnessError("characterisation requires w > 0 on the grid")
    ts, rho = ts[:2 * n], rho[:2 * n]
    found = []
    # sign 1: lhs below the lower bound fails; sign -1: lhs above the upper one
    for side, factor, bound, sign in (("lower", ts, -1.0 / xs, 1.0),
                                      ("upper", 1.0 - ts, 1.0 / (1.0 - xs), -1.0)):
        f = factor * rho
        with np.errstate(all="ignore"):
            lhs = np.log(np.abs(f[n:] / f[:n])) / (2.0 * h) + bound
        if np.isnan(lhs).any():
            x = float(xs[np.isnan(lhs).argmax()])
            raise NumericsError(f"the {side} reading of rho'/rho is nan at grid point x={x!r}")
        slack = tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(bound)))
        i = np.nonzero(sign * lhs < sign * bound - slack)[0]
        found.append((xs[i], np.full(i.size, sign < 0), lhs[i], bound[i]))
    return _report("characterization", found, len(xs), tol)


def convexity_oracle(cl: CompositeLoss,
                     score_grid: Sequence[float] | None = None,
                     tol: float = 1e-8) -> ConvexityReport:
    """Brute-force convexity check on second differences of the partials.

    Convexity of both score-space partial losses is equivalent to convexity
    of every conditional risk, so checking y = -1 and y = +1 suffices.
    Violations are reported in probability coordinates ``x = q(v)`` with
    side "lower" for the negative partial and "upper" for the positive one.
    The grid is inverted once; both partials are read off the base loss.
    A grid with a score that is not finite, or with fewer than three distinct
    scores (no second difference), raises ``ValueError``.
    """
    if score_grid is None:
        score_grid = cl.link.psi(certification_grid())
    vs = np.unique(np.asarray(score_grid, dtype=float))
    if not np.isfinite(vs).all() or vs.size < 3:
        raise ValueError("the oracle needs at least three distinct scores, all finite")
    qs = cl.link.q(vs)
    found = []
    for y in (-1, 1):
        fv = cl.base.ell(y, qs)
        x0, x1, x2 = vs[:-2], vs[1:-1], vs[2:]
        f0, f1, f2 = fv[:-2], fv[1:-1], fv[2:]
        dd = 2.0 * ((f2 - f1) / (x2 - x1) - (f1 - f0) / (x1 - x0)) / (x2 - x0)
        # rounding floor of a divided difference: eps * |f| / dx^2
        step = np.minimum(x1 - x0, x2 - x1)
        floor = 4e-15 * np.maximum(1.0, np.abs(f1)) / (step * step)
        i = np.nonzero(dd < -(tol + floor))[0]
        found.append((qs[i + 1], np.full(i.size, y > 0), dd[i], np.zeros(i.size)))
    return _report("oracle", found, len(vs), tol)


def allowable_region(link: Link, grid: Sequence[float] | None = None) -> RegionCurve:
    """Envelope curves for weights that keep the composite convex."""
    if grid is None:
        grid = certification_grid()
    xs = np.asarray(grid, dtype=float)
    dpsi_half = float(link.psi_prime(0.5))
    if dpsi_half == 0.0 or not np.isfinite(dpsi_half):
        raise ValueError("allowable_region needs psi'(1/2) finite and nonzero")
    dpsi = link.psi_prime(xs)
    lower = dpsi / (2.0 * dpsi_half * xs)
    upper = dpsi / (2.0 * dpsi_half * (1.0 - xs))
    return RegionCurve(xs=xs, lower=lower, upper=upper, link_name=link.name)


def _atom_at(wf: WeightFunction, c: float, tol: float = 1e-12) -> bool:
    return any(abs(loc - c) <= tol for loc, _ in wf.atoms)


def calibration_cc(ell, c: float) -> bool | None:
    """Classification calibration at threshold ``c``.

    Accepts a :class:`ProperLoss` or a pair of partial losses ``(ell_pos,
    ell_neg)``; a composite or noisy loss raises ``ValueError`` (see
    :func:`calibration_composite`).  For proper losses calibration at ``c``
    is equivalent to the weight not vanishing there (atoms count); for raw
    partials the slope conditions are tested directly:
    ``ell_neg'(c) > 0``, ``ell_pos'(c) < 0`` and the stationarity identity
    ``c ell_pos'(c) + (1-c) ell_neg'(c) = 0`` within 1e-8 after normalising
    by ``|ell_neg'(c)|``, on the slopes that :func:`check_proper` reads.
    Returns None ("indeterminate") when a derivative is numerically zero and
    the verdict would be a guess; a slope that is not finite raises.
    """
    c = float(c)
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0,1)")
    if isinstance(ell, _Loss):
        _require_proper("calibration_cc", ell)
        return _atom_at(ell.weight, c) or float(ell.weight.w(c)) > 1e-12
    r_pos, r_neg = _weight_readings(*ell, [c])
    dp, dn = -(1.0 - c) * float(r_pos[0]), c * float(r_neg[0])
    tau = 1e-8 * max(1.0, abs(dp), abs(dn))
    if abs(dn) <= tau or abs(dp) <= tau:
        return None
    stationary = abs(c * dp + (1.0 - c) * dn) / abs(dn) <= 1e-8
    return bool(dn > 0 and dp < 0 and stationary)


def calibration_composite(cl: CompositeLoss, c: float) -> bool | None:
    """Calibration of a composite loss: delegated to its base proper loss."""
    return calibration_cc(cl.base, c)
