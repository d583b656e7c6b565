"""Deterministic scalar numerics used by every other module.

The contract every held callable of cploss keeps (:func:`array_fn`),
adaptive quadrature that meets its tolerance or raises, the anchored
antiderivative built on it, bracketed scalar minimisation, the principal
branch of the Lambert W function, and central finite differences.
Everything here is pure and reentrant: no global mutable state, safe to call
from multiple threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "NumericsError",
    "IntegrationError",
    "QuadratureSpec",
    "MinimizeResult",
    "array_fn",
    "integrate",
    "antiderivative",
    "minimize_scalar",
    "lambert_w0",
]


class NumericsError(Exception):
    """A numeric routine received bad input or an evaluation failed hard."""


class IntegrationError(NumericsError):
    """Adaptive quadrature could not meet its tolerance, or overflowed.

    Attributes
    ----------
    estimate : float
        The partial estimate accumulated before giving up.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Error targets of :func:`integrate`: it returns once its summed error
    estimate is at most ``max(abs_tol, rel_tol * |estimate|)``."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


DEFAULT_QUADRATURE = QuadratureSpec()


@dataclass(frozen=True)
class MinimizeResult:
    argmin: float
    min_value: float
    iterations: int
    converged: bool


def array_fn(fn: Callable | None) -> Callable | None:
    """``fn`` under the callable contract of cploss objects.

    The returned callable converts its argument with ``np.asarray(x,
    dtype=float)``, calls ``fn`` on it with every numpy floating-point
    warning silenced (``np.errstate(all="ignore")``), and returns
    ``np.asarray(result, dtype=float)``.  Dead branches of ``np.where`` and
    endpoint limits such as ``log(0)`` therefore stay quiet, and callers need
    not coerce what it returns.  Idempotent: a callable it returned, and
    None, come back unchanged.
    """
    if fn is None or getattr(fn, "_array_fn", False):
        return fn

    def wrapped(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return np.asarray(fn(x), dtype=float)

    wrapped._array_fn = True
    return wrapped


# Gauss-Kronrod 7/15 abscissae and weights on [-1, 1] (QUADPACK constants).
_XGK = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_W = np.zeros(15)
_GAUSS_W[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])   # Gauss nodes sit at odd slots


# The Kronrod and Gauss weights down the node axis, the middle node's halved: the tree adds it twice.
_RULES = np.stack([_KRONROD_W, _GAUSS_W], axis=1)[:, :, None]
_RULES[7] /= 2.0


def _gk15(f: Callable, panels: list) -> list:
    """Gauss-Kronrod 7/15 panels, each given as its ``(midpoint, half-width)``.

    ``f`` is called once, on all nodes.  Returns each panel's ``(estimate,
    error)``, or in its place a message naming the panel's first node where
    ``f`` is not finite.  The sums are a fixed tree of elementwise additions,
    so they do not depend on the other panels.  All Kronrod weights are
    positive, so a Kronrod sum is finite only if every value is: values are
    scanned only when a sum is not, to name bad nodes or find an overflow.
    """
    mid, half = np.array(panels).T
    xs = _NODES[:, None] * half + mid    # node j of panel i at [j, i]
    ys = np.asarray(f(xs.ravel()), dtype=float)
    if ys.shape != (xs.size,):
        raise NumericsError("integrand must map an ndarray of points to an ndarray")
    ys = ys.reshape(xs.shape)
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf or inf * 0 on a bad panel
        p = _RULES * ys[:, None]
        for n in (8, 4, 2, 1):    # the first n terms plus the last n, down to one
            p = p[:n] + p[-n:]
        p = p[0] * half     # the Kronrod and Gauss estimates
        np.abs(p[0] - p[1], out=p[1])
    estimate, error = p.tolist()
    panels = list(zip(estimate, error))
    if not math.isfinite(sum(estimate)):   # a NaN or inf, or else an overflow
        for i in np.flatnonzero(~np.isfinite(ys).all(axis=0)).tolist():
            bad = xs[:, i][~np.isfinite(ys[:, i])][0]
            panels[i] = f"integrand returned a non-finite value at x={bad!r}"
    return panels


# A panel narrower than this, relative to the size of its ends, is not split:
# the outer nodes of its halves could round onto or past their ends.
_NARROW = 1e3 * np.finfo(float).eps


# The number of halving-annulus sums an end tail is extrapolated from.
_ANNULI = 12

# The bisection depth at which :func:`integrate` gives up on a panel.
_MAX_DEPTH = 60


def _epsilon(xs: list[float]) -> float:
    """The limit of the sequence ``xs`` by Wynn's epsilon algorithm.

    Each even column of the epsilon table is a sharper estimate of the limit
    (the second is Aitken's delta-squared); the last entry of the last even
    column is returned.  The table stops at a column with two equal entries,
    where floats can resolve nothing further, or at a non-finite estimate.
    Plain Python: the table is small, and numpy's per-call cost dominates it.
    """
    best = xs[-1]
    prev, col = [0.0] * (len(xs) + 1), xs
    for j in range(1, len(xs)):
        try:
            prev, col = col, [p + 1.0 / (y - x) for p, x, y in zip(prev[1:], col, col[1:])]
        except ZeroDivisionError:
            break
        if j % 2 == 0:
            if not math.isfinite(col[-1]):
                break
            best = col[-1]
    return best


def _end_tail(sums: list[float]) -> float | None:
    """The integral between an end and the last of its halving-annulus sums.

    Bisecting the panel at an end cuts annuli ``[h/2, h]``, ``[h/4, h/2]``,
    ... (as distances from the end).  The tail is the :func:`_epsilon` limit
    of their partial sums less the last partial sum, the endpoint
    extrapolation of QUADPACK's QAGS.  Epsilon also gives divergent series a
    finite value, so the tail is refused (None) unless the sums shrink and
    their own limit is about zero, as it is for a convergent integral.
    """
    if not (abs(sums[-1]) < abs(sums[-2]) and abs(_epsilon(sums)) <= 0.1 * abs(sums[-1])):
        return None
    partial = list(itertools.accumulate(sums, initial=0.0))
    return _epsilon(partial) - partial[-1]


def _adapt(f: Callable, a: float, b: float, spec: QuadratureSpec):
    """The adaptive loop of :func:`integrate` on ``[a, b]``, as a coroutine that yields
    the ``(midpoint, half-width)`` of the panels it needs and is sent their :func:`_gk15`."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise NumericsError("integration bounds must be finite")
    if a > b:
        raise NumericsError("integrate requires a <= b; negate for reversed bounds")
    if a == b:
        return 0.0
    (total_est, total_err), = yield [(0.5 * (a + b), 0.5 * (b - a))]
    counter = itertools.count()
    heap = [(-total_err, next(counter), a, b, total_est, 0)]
    lo, hi = a, b
    singular = None          # whether f is not finite at a and at b, once probed
    sums = ([], [])          # the last halving-annulus sums next to a and to b
    while True:
        if not (math.isfinite(total_est) and math.isfinite(total_err)):
            raise IntegrationError(  # a Kronrod sum overflowed on finite values
                f"quadrature sum overflowed on [{lo!r}, {hi!r}]: estimate {total_est!r}, "
                f"error {total_err!r}", estimate=total_est)
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total_est)):
            return total_est
        neg_err, _, lo, hi, est, depth = heapq.heappop(heap)
        if depth >= _MAX_DEPTH or hi - lo <= _NARROW * max(abs(lo), abs(hi)):
            raise IntegrationError(f"quadrature did not converge on [{lo!r}, {hi!r}] "
                                   f"(depth {depth}, width {hi - lo:.3g})", estimate=total_est)
        mid = 0.5 * (lo + hi)
        halves = yield [(0.5 * (lo + mid), 0.5 * (mid - lo)), (0.5 * (mid + hi), 0.5 * (hi - mid))]
        for side, at_end in enumerate((lo == a, hi == b)):
            if not at_end:
                continue
            s = halves[1 - side][0]   # the annulus next to the new end panel
            sums[side].append(s)
            del sums[side][:-_ANNULI]
            if len(sums[side]) > 1:
                if singular is None:
                    with np.errstate(all="ignore"):
                        singular = ~np.isfinite(np.asarray(f(np.array([a, b])), dtype=float))
                tail = _end_tail(sums[side]) if singular[side] else None
                if tail is not None:
                    halves[side] = (tail, abs(s + tail - est))
        (left, lerr), (right, rerr) = halves
        total_est += left + right - est
        total_err += lerr + rerr + neg_err
        heapq.heappush(heap, (-lerr, next(counter), lo, mid, left, depth + 1))
        heapq.heappush(heap, (-rerr, next(counter), mid, hi, right, depth + 1))


def _integrals(f: Callable, a, b, spec: QuadratureSpec):
    """The integrals of ``f`` over each ``[a_i, b_i]`` (broadcast), NaN where one failed,
    and each failing interval's error by flat index.  In each lockstep pass every
    unfinished interval splits its worst panel and one call of ``f`` evaluates the
    new panels of all, so a value does not depend, bitwise, on the other intervals."""
    pairs = np.broadcast(a, b)
    asks = [(i, _adapt(f, float(lo), float(hi), spec), None) for i, (lo, hi) in enumerate(pairs)]
    values, errors = np.full(pairs.size, math.nan), {}
    while asks:
        live = []
        for i, loop, reply in asks:    # a reply of None starts a loop
            try:
                bad = [r for r in reply or () if isinstance(r, str)]   # a non-finite new panel
                if bad:
                    raise NumericsError(bad[0])
                live.append((i, loop, loop.send(reply)))
            except StopIteration as stop:
                values[i] = stop.value
            except NumericsError as exc:   # kept without this frame, which would hold it
                errors[i] = exc.with_traceback(exc.__traceback__.tb_next)
        sums = iter(_gk15(f, [p for *_, ask in live for p in ask]) if live else ())
        asks = [(i, loop, [next(sums) for _ in ask]) for i, loop, ask in live]
    return values.reshape(pairs.shape), errors


def integrate(f: Callable, a, b, spec: QuadratureSpec = DEFAULT_QUADRATURE):
    """Estimate the integral of ``f`` over ``[a, b]``, or raise.

    ``f`` must map an ndarray of points to an ndarray of values.  Globally
    adaptive bisection splits the Gauss-Kronrod 7/15 panel with the largest
    error estimate until the summed estimate is at most ``max(spec.abs_tol,
    spec.rel_tol * |estimate|)``, its one way to return.  Nodes are strictly
    interior, so ``f`` may be singular at ``a`` or ``b``.  Once an end panel
    has been split twice, ``f`` is evaluated at both ends, once; at an end
    where it is not finite, the end panel takes :func:`_end_tail` of its last
    ``_ANNULI`` annulus sums, with the change from the previous estimate of
    the same interval as its error.  An end where ``f`` is finite, or whose
    tail is refused, gets plain bisection, also when a singularity lies just
    beyond it.

    Float bounds give a float; arrays of bounds, broadcast together, an array.
    The intervals advance together in :func:`_integrals`, each run to its own
    end and bitwise as if alone.  Of failing intervals, the error of the
    lowest-index one is raised.
    A kink inside a panel can pass with a small error estimate, as the Gauss
    and Kronrod sums may err alike on it: ``(1-c) min(1/c, 1/(1-c)) / 2`` over
    ``[0.498, 1]`` is accepted 4e-6 off.  :func:`antiderivative` splits at knots.

    Raises
    ------
    NumericsError
        If the integrand returns NaN/inf at an interior node or the bounds
        are invalid.
    IntegrationError
        If the panel to split is 60 bisections deep or too narrow to split
        in floating point, or a panel's estimate or error overflows on
        finite values; the exception carries the partial estimate.
    """
    values, errors = _integrals(f, a, b, spec)
    if errors:   # the lowest, popped: an error held here would hold this frame through its traceback
        errors = [errors[min(errors)]]
        raise errors.pop()
    return float(values) if values.ndim == 0 else values


def _by_pieces(integrals: Callable, a, b, knots) -> np.ndarray:
    """The integral over each ``[a_i, b_i]`` (broadcast) cut at the sorted ``knots``,
    QUADPACK's QAGP breakpoints: ``integrals(p, q)`` of the pieces of all, in
    one call, summed.  A finite piece of zero width (as at a knot outside) is 0
    and not passed on; a NaN or infinite bound is, so its integral fails."""
    a, b = np.broadcast_arrays(a, b)
    lo, hi = a.reshape(-1, 1), b.reshape(-1, 1)
    edges = np.concatenate([lo, np.minimum(np.maximum(knots, lo), hi), hi], axis=1)
    p, q = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    keep = np.flatnonzero((p != q) | ~np.isfinite(p))
    total = integrals(p[keep], q[keep])
    return np.bincount(keep // (edges.shape[1] - 1), total, minlength=lo.shape[0]).reshape(a.shape)


def antiderivative(f: Callable, anchor: float, knots) -> Callable:
    """The map ``x -> integral of f from anchor to x``, elementwise over arrays.

    Below the anchor the value is ``-integral of f from x to anchor``, so the
    sign follows the orientation of the interval and the value at the anchor
    itself is +0.0.  ``f`` must accept ndarrays (see :func:`integrate`).  The
    panels between consecutive points of ``{anchor} ∪ knots`` (where ``f`` may
    jump or kink, or a mesh graded toward a singular end) are integrated once,
    here, in one lockstep :func:`_integrals`, and their sums from the anchor
    kept: a panel that fails spoils no other.  A point adds the piece from its
    nearest table point on the anchor's side, the pieces of all points of a
    call in one lockstep :func:`integrate`: a point's value does not depend on
    the others, and the first failing point's error is raised.  Without knots
    a value is bitwise the bare integral.  Past a panel that failed, a point
    integrates its whole span, split at the table points, and so raises.
    """
    anchor = float(anchor)
    points = np.union1d(np.asarray(knots, dtype=float), [anchor])
    home = int(np.searchsorted(points, anchor))
    panels, _ = _integrals(f, points[:-1], points[1:], DEFAULT_QUADRATURE)   # NaN where one fails
    # -0.0 at the anchor adds nothing, not even a sign
    sums = np.concatenate([-np.cumsum(panels[:home][::-1])[::-1], [-0.0], np.cumsum(panels[home:])])
    integrals = lambda p, q: integrate(f, p, q)

    def F(x):
        xs = np.asarray(x, dtype=float)
        up = xs >= anchor
        j = np.where(up, np.searchsorted(points, xs, "right") - 1,
                     np.minimum(np.searchsorted(points, xs), home))   # NaN sorts last
        if np.isnan(sums[j]).any():
            v = _by_pieces(integrals, np.minimum(xs, anchor), np.maximum(xs, anchor), points)
            return np.where(up, v, -v)
        base = points[j]
        v = integrate(f, np.minimum(xs, base), np.maximum(xs, base))
        return sums[j] + np.where(up, v, -v)

    return F


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# The most golden or parabolic steps :func:`minimize_scalar` takes.
_MAX_ITER = 500


def minimize_scalar(f: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-9) -> MinimizeResult:
    """Minimise ``f`` on ``[lo, hi]`` by golden-section search with parabolic steps.

    For a unimodal objective the returned argmin is within ``tol`` (absolute)
    of the minimiser; ``converged`` is False if 500 steps did not get there.
    The bracket endpoints are compared explicitly, so boundary minima are
    returned exactly (``argmin == lo`` or ``argmin == hi``); when the
    objective cannot distinguish the endpoint from the final interior
    iterate, the endpoint is preferred.

    Like every derivative-free minimiser, the achievable argument resolution
    is bounded below by sqrt(eps * |f| / f''); ``tol`` below that limit is
    not enforceable.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError("minimize_scalar requires lo < hi")

    # Brent-style bounded minimisation: golden-section fallback, parabolic
    # interpolation when the fitted step is sane.
    a, b = lo, hi
    x = w = v = a + _INVPHI * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    iterations = 1
    converged = False
    for _ in range(_MAX_ITER):
        m = 0.5 * (a + b)
        tol1 = 0.25 * tol + 1e-15 * abs(x)
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            converged = True
            break
        use_golden = True
        if abs(e) > tol1:
            # parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev = e
            e = d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if x < m else -tol1
                use_golden = False
        if use_golden:
            e = (b - x) if x < m else (a - x)
            d = (1.0 - _INVPHI) * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = f(u)
        iterations += 1
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu

    # Endpoint awareness: a minimiser sitting on the bracket boundary is
    # reported as that boundary when it is at least as good.  The second
    # branch snaps an interior iterate crowded against the boundary (equal
    # value up to evaluation noise) onto the boundary itself.  Endpoints
    # where the objective fails or blows up are skipped.
    margin = 1e-12 * (1.0 + abs(fx))
    snap = max(4.0 * tol, 1e-7 * (1.0 + abs(x)))
    for end in (lo, hi):
        try:
            fe = float(f(end))
        except Exception:
            continue
        iterations += 1
        if not math.isfinite(fe):
            continue
        if fe < fx - margin:
            x, fx = end, fe
        elif fe <= fx + margin and abs(end - x) <= snap:
            x, fx = end, fe
    return MinimizeResult(argmin=x, min_value=fx, iterations=iterations,
                          converged=converged)


_BRANCH_POINT = -1.0 / math.e


def lambert_w0(z: float) -> float:
    """Principal branch of the Lambert W function: w with w*exp(w) = z, w >= -1.

    Defined for ``z >= -1/e``; values within 1e-12 below the branch point are
    clamped to it so that exact-arithmetic corner cases survive rounding.
    """
    z = float(z)
    if math.isnan(z):
        raise NumericsError("lambert_w0: NaN argument")
    if z < _BRANCH_POINT:
        if z > _BRANCH_POINT - 1e-12:
            return -1.0
        raise NumericsError(f"lambert_w0 requires z >= -1/e, got {z!r}")
    if z == _BRANCH_POINT:
        return -1.0
    if z == 0.0:
        return 0.0

    # Initial guess: series near the branch point, log asymptotics elsewhere.
    if z < -0.25:
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif z < math.e:
        w = z / (1.0 + z) if z > 0 else z * (1.0 - z)
        w = max(w, -0.99)
    else:
        lz = math.log(z)
        w = lz - math.log(lz)

    # Halley iterations.
    for _ in range(60):
        ew = math.exp(w)
        resid = w * ew - z
        if resid == 0.0:
            break
        denom = ew * (w + 1.0) - (w + 2.0) * resid / (2.0 * w + 2.0)
        step = resid / denom
        w -= step
        if abs(step) <= 1e-14 * (1.0 + abs(w)):
            break
    return w


def finite_diff(f: Callable, x, *, h=None):
    """Central finite-difference estimate of f' at ``x``.

    A scalar ``x`` gives a float.  An ndarray ``x`` needs an ``f`` that maps
    arrays elementwise and gives an array of its shape, with the default
    step ``1e-5 * max(1, |x|)`` taken per point.
    """
    scalar = np.ndim(x) == 0
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-5 * np.maximum(1.0, np.abs(x))
    if np.any(np.asarray(h) <= 0):
        raise ValueError("h must be positive")
    d = (np.asarray(f(x + h), dtype=float) - np.asarray(f(x - h), dtype=float)) / (2.0 * h)
    return float(d) if scalar else d
