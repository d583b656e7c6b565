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

import csv
import io
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .composite import CompositeLoss
from .links import Link, rho_of
from .numerics import NumericsError
from .proper import ProperLoss, _weight_readings
from .weights import WeightFunction, normalize_weight, tabulated_weight

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


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of a convexity certification.

    ``violations`` holds ``(x, side, lhs, rhs)`` tuples: the probability
    coordinate, which bound failed ("lower" tracks the negative partial,
    "upper" the positive one), and the two compared quantities: that side's
    reading of ``rho'/rho`` and its bound, or a second difference and 0.
    """

    convex: bool
    violations: tuple[tuple[float, str, float, float], ...]
    method: str
    grid_size: int = 0
    tolerance: float = 1e-9

    def violation_xs(self, side: str | None = None) -> np.ndarray:
        if not self.violations:
            return np.zeros(0)
        xs, sides, _, _ = zip(*self.violations)
        xs = np.asarray(xs, dtype=float)
        return xs if side is None else xs[np.asarray(sides) == side]

    def to_json_dict(self) -> dict:
        return {
            "convex": self.convex,
            "method": self.method,
            "grid_size": self.grid_size,
            "tolerance": self.tolerance,
            "violations": [
                {"x": float(x), "side": side, "lhs": float(l), "rhs": float(r)}
                for x, side, l, r in self.violations
            ],
        }


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
        """Whether the (normalised) weight lies inside the region on the grid."""
        w = normalize_weight(wf).w(self.xs)
        lo_bound = np.where(self.xs >= 0.5, self.lower, self.upper)
        hi_bound = np.where(self.xs >= 0.5, self.upper, self.lower)
        slack = tol * np.maximum(1.0, np.maximum(np.abs(lo_bound), np.abs(hi_bound)))
        return bool(np.all(w >= lo_bound - slack) and np.all(w <= hi_bound + slack))

    def to_csv(self, file) -> None:
        """Write ``x,lower,upper`` rows with :func:`write_csv`."""
        write_csv(file, ["x", "lower", "upper"], self.xs, self.lower, self.upper)

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def write_csv(file, header: Sequence[str], *columns) -> None:
    """Write ``header``, then one row per index of ``columns``, to an open text file.

    Every field is printed at 17 significant digits, enough to read back the
    same double.
    """
    writer = csv.writer(file, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([f"{x:.17g}" for x in row])


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
    if wf.has_atoms:
        raise StrictnessError("characterisation requires an atom-free weight")
    n, h = xs.size, 1e-6
    ts = np.concatenate([xs - h, xs + h, xs])
    rho = rho_of(wf, link)(ts)
    if np.any(rho[2 * n:] <= 0):
        raise StrictnessError("characterisation requires w > 0 on the grid")
    ts, rho = ts[:2 * n], rho[:2 * n]
    violations = []
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
        violations += zip(xs[i].tolist(), [side] * i.size, lhs[i].tolist(), bound[i].tolist())
    violations.sort()
    return ConvexityReport(convex=not violations, violations=tuple(violations),
                           method="characterization", grid_size=len(xs), tolerance=tol)


def convexity_oracle(cl: CompositeLoss,
                     score_grid: Sequence[float] | None = None,
                     tol: float = 1e-8) -> ConvexityReport:
    """Brute-force convexity check on second differences of the partials.

    Convexity of both score-space partial losses is equivalent to convexity
    of every conditional risk, so checking y = -1 and y = +1 suffices.
    Violations are reported in probability coordinates ``x = q(v)`` with
    side "lower" for the negative partial and "upper" for the positive one.
    The grid is inverted once; both partials are read off the base loss.
    """
    if score_grid is None:
        score_grid = cl.link.psi(certification_grid())
    vs = np.unique(np.asarray(score_grid, dtype=float))
    qs = cl.link.q(vs)
    violations = []
    for y, side in ((-1, "lower"), (1, "upper")):
        fv = cl.base.ell(y, qs)
        x0, x1, x2 = vs[:-2], vs[1:-1], vs[2:]
        f0, f1, f2 = fv[:-2], fv[1:-1], fv[2:]
        dd = 2.0 * ((f2 - f1) / (x2 - x1) - (f1 - f0) / (x1 - x0)) / (x2 - x0)
        # rounding floor of a divided difference: eps * |f| / dx^2
        step = np.minimum(x1 - x0, x2 - x1)
        floor = 4e-15 * np.maximum(1.0, np.abs(f1)) / (step * step)
        i = np.nonzero(dd < -(tol + floor))[0]
        violations += zip(qs[i + 1].tolist(), [side] * i.size, dd[i].tolist(), [0.0] * i.size)
    violations.sort()
    return ConvexityReport(convex=not violations, violations=tuple(violations),
                           method="oracle", grid_size=len(vs), tolerance=tol)


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
    ell_neg)``.  For proper losses calibration at ``c`` is equivalent to the
    weight not vanishing there (atoms count); for raw partials the slope
    conditions are tested directly:
    ``ell_neg'(c) > 0``, ``ell_pos'(c) < 0`` and the stationarity identity
    ``c ell_pos'(c) + (1-c) ell_neg'(c) = 0`` within 1e-8 after normalising
    by ``|ell_neg'(c)|``, on the slopes that :func:`check_proper` reads.
    Returns None ("indeterminate") when a derivative is numerically zero and
    the verdict would be a guess; a slope that is not finite raises.
    """
    c = float(c)
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0,1)")
    if isinstance(ell, ProperLoss):
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
