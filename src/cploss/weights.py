"""Weight functions: the curvature parametrisation of proper losses.

A weight function is a nonnegative density ``w`` on (0, 1), optionally with
point masses (``atoms``) and antiderivatives ``W`` (of w) and ``Wbar`` (of
W).  Atoms are carried symbolically as ``(location, mass)`` pairs and are
never smoothed; operations that cannot handle them reject them explicitly.
No derivative of ``w`` is held: the convexity characterisation reads
``rho = w / psi'`` as the two monotone functions ``x rho`` and ``(1-x) rho``.

All instances are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import QuadratureSpec, _by_pieces, _integrals, array_fn

__all__ = [
    "WeightFunction",
    "catalog_weight",
    "tabulated_weight",
    "WEIGHT_CATALOG_INFO",
]

# Sanity grid for construction-time checks; avoids 0.5, where the minimal
# catalog weight has its kink.
_CHECK_GRID = np.array([0.1, 0.2, 0.3, 0.4, 0.45, 0.55, 0.6, 0.7, 0.8, 0.9])
_CHECK_H = 1e-5
# 1e-8 of a mean over a check interval, a hundredth of the check's bound.
_CHECK_QUADRATURE = QuadratureSpec(abs_tol=1e-8 * 2.0 * _CHECK_H, rel_tol=1e-8)


def _means(f: Callable, lo: np.ndarray, hi: np.ndarray, knots) -> np.ndarray:
    """Mean of ``f`` over each ``[lo_i, hi_i]`` by quadrature split at the
    ``knots``; NaN where an integral fails."""
    integrals = lambda p, q: _integrals(f, p, q, _CHECK_QUADRATURE)[0]
    return _by_pieces(integrals, lo, hi, knots) / (hi - lo)


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative weight ``w`` on (0, 1) with optional structure.

    Every callable field is held under the contract of
    :func:`~cploss.numerics.array_fn`, applied once here: it takes any
    array-like, computes on a float ndarray with numpy warnings silenced and
    returns a float ndarray.  The callables given need only accept float
    ndarrays.

    Parameters
    ----------
    w : callable
        Continuous part of the weight.
    W, Wbar : callable, optional
        The antiderivatives of ``w`` and ``W``.  Any antiderivative constant
        is acceptable: every consumer is invariant to it.  Each supplied
        antiderivative ``F`` of ``f`` is checked on a fixed grid:
        ``(F(x+h) - F(x-h)) / 2h`` must match the mean of ``f`` over
        ``[x-h, x+h]`` to 1e-6 relative, by quadrature split at the ``knots``.
    atoms : sequence of (location, mass)
        Point masses in (0, 1) with positive mass.
    knots : sequence of float
        Finite points where ``w`` may jump or kink, as at the rows of a
        table, held sorted and without repeats: every integral of ``w`` splits at them.
    """

    w: Callable
    W: Callable | None = None
    Wbar: Callable | None = None
    atoms: tuple[tuple[float, float], ...] = ()
    name: str = "custom"
    knots: tuple[float, ...] = ()

    def __post_init__(self):
        for field in ("w", "W", "Wbar"):
            object.__setattr__(self, field, array_fn(getattr(self, field)))
        object.__setattr__(self, "atoms", tuple((float(c), float(m)) for c, m in self.atoms))
        object.__setattr__(self, "knots", tuple(sorted({float(k) for k in self.knots})))
        if not all(math.isfinite(k) for k in self.knots):
            raise ValueError(f"knots must be finite, got {self.knots}")
        for c, m in self.atoms:
            if not 0.0 < c < 1.0:
                raise ValueError(f"atom location must lie in (0,1), got {c}")
            if not m > 0.0:
                raise ValueError(f"atom mass must be positive, got {m}")
        vals = self.w(_CHECK_GRID)
        if np.any(vals < -1e-12) or not np.all(np.isfinite(vals)):
            raise ValueError(f"weight {self.name!r} must be finite and nonnegative on (0,1)")
        # Interior integrability probe: finite mass over [1e-3, 1-1e-3],
        # estimated on a fixed composite grid (bounded cost by design; this
        # is a sanity net, not a tolerance-grade integral).
        probe = np.linspace(1e-3, 1.0 - 1e-3, 257)
        pv = self.w(probe)
        trapezoid = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
        with np.errstate(all="ignore"):  # finite values near the float maximum overflow the sum
            mass = float(trapezoid(pv, probe))
        if not np.isfinite(mass):
            raise ValueError(f"weight {self.name!r} has non-integrable interior mass")
        # (F(x+h) - F(x-h)) / 2h is exactly the mean of F' over [x-h, x+h]; w(x)
        # or W(x) would be off by h/4 times a jump in w' or w at a knot on the grid.
        if self.Wbar is not None and self.W is None:
            raise ValueError("Wbar supplied without W")
        x = _CHECK_GRID
        lo, hi = x - _CHECK_H, x + _CHECK_H
        for F, f, label in ((self.W, self.w, "W inconsistent with w"),
                            (self.Wbar, self.W, "Wbar inconsistent with W")):
            if F is None:
                continue
            want = _means(f, lo, hi, self.knots)
            got = (F(hi) - F(lo)) / (hi - lo)
            bad = ~(np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want)))
            if bad.any():
                raise ValueError(f"{label} for {self.name!r} at x={x[bad][0]}")

    @property
    def has_atoms(self) -> bool:
        return len(self.atoms) > 0

    @property
    def is_pure_atomic(self) -> bool:
        """True when the continuous part vanishes identically (probed on a grid)."""
        return self.has_atoms and bool(np.all(np.abs(self.w(_CHECK_GRID)) < 1e-300))

    def is_symmetric(self) -> bool:
        """Whether w(c) = w(1-c) (atoms included) within 1e-9 on a grid."""
        xs = np.linspace(0.01, 0.99, 197)
        vals = self.w(xs)
        if not np.allclose(vals, vals[::-1], atol=1e-9, rtol=1e-9):
            return False
        mirrored = sorted((round(1.0 - c, 12), m) for c, m in self.atoms)
        return mirrored == sorted((round(c, 12), m) for c, m in self.atoms)


# The parameterless catalog weights, built and checked once, at import, and
# shared: every WeightFunction is immutable.
_CATALOG: dict[str, WeightFunction] = {wf.name: wf for wf in (
    WeightFunction(
        w=lambda c: np.ones_like(c),
        W=lambda c: c,
        Wbar=lambda c: c * c / 2.0,
        name="square",
    ),
    WeightFunction(
        w=lambda c: 1.0 / ((1.0 - c) * c),
        W=lambda c: np.log(c / (1.0 - c)),
        Wbar=lambda c: (np.where(c > 0, c * np.log(np.maximum(c, 1e-300)), 0.0)
                        + np.where(c < 1, (1.0 - c) * np.log(np.maximum(1.0 - c, 1e-300)), 0.0)),
        name="log",
    ),
    WeightFunction(
        w=lambda c: ((1.0 - c) * c) ** -1.5,
        W=lambda c: 2.0 * (2.0 * c - 1.0) / np.sqrt(c * (1.0 - c)),
        Wbar=lambda c: -4.0 * np.sqrt(c * (1.0 - c)),
        name="boosting",
    ),
    WeightFunction(
        w=lambda c: 1.0 / c,
        W=lambda c: np.log(c),
        Wbar=lambda c: np.where(c > 0, c * np.log(np.maximum(c, 1e-300)) - c, 0.0),
        name="w1-over-c",
    ),
    WeightFunction(
        w=lambda c: 1.0 / (1.0 - c),
        W=lambda c: -np.log(1.0 - c),
        Wbar=lambda c: np.where(c < 1, (1.0 - c) * np.log(np.maximum(1.0 - c, 1e-300)), 0.0) + c,
        name="w1-over-1mc",
    ),
    # Lower envelope of the identity-link convexity region: the pointwise
    # smallest weight (normalised to w(1/2)=1) whose loss is still convex.
    WeightFunction(
        w=lambda c: 0.5 * np.minimum(1.0 / c, 1.0 / (1.0 - c)),
        W=lambda c: np.where(c < 0.5, -0.5 * np.log(2.0 * np.maximum(1.0 - c, 1e-300)),
                             0.5 * np.log(2.0 * np.maximum(c, 1e-300))),
        Wbar=lambda c: np.where(
            c < 0.5, 0.5 * ((1.0 - c) * np.log(2.0 * np.maximum(1.0 - c, 1e-300)) + c) - 0.25,
            0.5 * (c * np.log(2.0 * np.maximum(c, 1e-300)) - c) + 0.25),
        name="minimal",
        knots=(0.5,),
    ),
    WeightFunction(w=np.zeros_like, atoms=((0.5, 2.0),), name="zero-one"),
)}


def _table(table: Sequence[Sequence[float]]) -> np.ndarray:
    """The rows ``(x, y)`` of a table as an n-by-2 float array, n >= 2, sorted
    by ``x``; rows with equal ``x`` keep their order."""
    try:
        arr = np.asarray(table, dtype=float)
    except (TypeError, OverflowError) as err:
        raise ValueError(f"table entries must be numbers: {err}") from None
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
        raise ValueError("table must be a sequence of at least two (c, w) pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("table entries must be finite")
    return arr[np.argsort(arr[:, 0], kind="stable")]


def _interpolant(table: np.ndarray) -> Callable:
    """Piecewise-linear interpolant of the rows ``(x, y)`` of a :func:`_table` array."""
    xs, ys = table.T
    return lambda t: np.interp(t, xs, ys)


def tabulated_weight(table: Sequence[Sequence[float]], name: str = "custom-tabulated") -> WeightFunction:
    """Weight from a table of ``(c, w(c))`` pairs, linearly interpolated.

    ``w`` is ``np.interp`` of the rows sorted by ``c``: flat beyond the end
    knots, and with a jump at a repeated ``c``.  ``W`` and ``Wbar`` are its
    exact piecewise-quadratic and piecewise-cubic antiderivatives, built once
    from cumulative segment integrals ``C_i`` of ``w`` and ``D_i`` of ``W``: on
    the segment from knot ``x_i`` with value ``y_i`` and slope ``s_i``, at
    ``d = c - x_i``,

        W = C_i + y_i d + s_i d^2/2,  Wbar = D_i + C_i d + y_i d^2/2 + s_i d^3/6,

    so a table's values never reach quadrature.  The rows are its ``knots``.
    """
    arr = _table(table)
    if np.any(arr[:, 1] < 0):
        raise ValueError("tabulated weight values must be nonnegative")
    # Knot i starts segment i, of width dx_i and rise dy_i.  The first knot
    # is doubled, so that a point left of the table falls in a segment of
    # rise 0, as does one right of the last knot: np.interp's flat extension.
    # s_i d is taken as (d / dx_i) dy_i, which also holds where dx_i is too
    # small for the slope to be a float.
    xs = np.concatenate([arr[:1, 0], arr[:, 0]])
    ys = np.concatenate([arr[:1, 1], arr[:, 1]])
    dx, dy = np.diff(xs), np.diff(ys)
    C = np.concatenate([[0.0], np.cumsum(dx * (ys[:-1] + dy / 2.0))])
    D = np.concatenate([[0.0], np.cumsum(dx * (C[:-1] + dx * (ys[:-1] / 2.0 + dy / 6.0)))])
    width = np.append(np.where(dx > 0, dx, 1.0), 1.0)
    rise = np.append(dy, 0.0)

    def locate(c):
        i = np.maximum(np.searchsorted(xs, c, side="right") - 1, 0)
        d = c - xs[i]
        return i, d, d / width[i] * rise[i]

    def W(c):
        i, d, r = locate(c)
        return C[i] + d * (ys[i] + r / 2.0)

    def Wbar(c):
        i, d, r = locate(c)
        return D[i] + d * (C[i] + d * (ys[i] / 2.0 + r / 6.0))

    return WeightFunction(w=_interpolant(arr), W=W, Wbar=Wbar, name=name,
                          knots=tuple(np.unique(arr[:, 0])))


WEIGHT_CATALOG_INFO: dict[str, str] = {
    "zero-one": "w(c) = 2*delta(c - 1/2)",
    "cost": "w(c) = delta(c - c0), parameter c0 in (0,1)",
    "square": "w(c) = 1",
    "log": "w(c) = 1/((1-c)c)",
    "boosting": "w(c) = ((1-c)c)^(-3/2)",
    "w1-over-c": "w(c) = 1/c",
    "w1-over-1mc": "w(c) = 1/(1-c)",
    "minimal": "w(c) = (1/2)(1/c ^ 1/(1-c))  (pointwise minimum)",
    "custom-tabulated": "linear interpolation of (c, w) pairs",
}


def catalog_weight(name: str, params: dict | None = None) -> WeightFunction:
    """The catalog weight named ``name``.

    The parameterless weights are built and checked once, at import, and
    every call returns that same shared instance.  ``cost`` requires
    ``params={"c0": ...}`` with c0 in (0,1), and ``custom-tabulated``
    requires ``params={"table": [[c, w], ...]}``; each call builds a new one.
    """
    if name in _CATALOG:
        return _CATALOG[name]
    params = dict(params or {})
    if name == "cost":
        try:
            c0 = float(params.get("c0"))
        except (TypeError, ValueError, OverflowError):
            c0 = math.nan
        if not 0.0 < c0 < 1.0:
            raise ValueError("cost weight requires parameter c0 in (0,1)")
        return WeightFunction(w=np.zeros_like, atoms=((c0, 1.0),), name=f"cost({c0})")
    if name == "custom-tabulated":
        if "table" not in params:
            raise ValueError("custom-tabulated weight requires parameter 'table'")
        return tabulated_weight(params["table"])
    raise ValueError(f"unknown weight name {name!r}")
