"""Run detection over probe grids against the per-flag scans it replaced."""

import types

import numpy as np

from cploss.proper import _dyadic_strictness
from cploss.robustness import _positivity_runs


def random_masks(n: int, seed: int) -> list:
    """Seeded boolean masks of length n: random ones at several densities,
    all-false and all-true, and runs of 1 to 4 flags touching either end of an
    alternating or empty background."""
    rng = np.random.default_rng(seed)
    masks = [rng.random(n) < p for p in (0.02, 0.2, 0.5, 0.7, 0.9, 0.98) for _ in range(30)]
    masks += [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
    alternating = np.arange(n) % 2 == 1
    for k in range(1, 5):
        for ends in (slice(0, k), slice(n - k, n)):
            for background in (alternating, ~alternating, np.zeros(n, dtype=bool)):
                m = background.copy()
                m[ends] = True
                masks.append(m)
    return masks


def loop_dyadic_strictness(wf) -> bool:
    grid = np.arange(1, 1024) / 1024.0
    zero = np.asarray(wf.w(grid), dtype=float) <= 1e-12
    if not zero.any():
        return True
    run = 0
    for z in zero:
        run = run + 1 if z else 0
        if run > 2:
            return False
    return True


def loop_positivity_runs(mask, xs) -> list:
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = xs[i]
        elif not flag and start is not None:
            runs.append((float(start), float(xs[i - 1])))
            start = None
    if start is not None:
        runs.append((float(start), float(xs[-1])))
    return runs


def test_dyadic_strictness_matches_the_per_flag_scan():
    verdicts = set()
    for zero in random_masks(1023, seed=20091217):
        wf = types.SimpleNamespace(w=lambda c, _z=zero: np.where(_z, 0.0, 1.0))
        want = loop_dyadic_strictness(wf)
        assert _dyadic_strictness(wf) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_positivity_runs_match_the_per_flag_scan():
    xs = np.arange(1, 1000) / 1000.0
    counts = set()
    for mask in random_masks(999, seed=3301):
        want = loop_positivity_runs(mask, xs)
        assert _positivity_runs(mask, xs) == want
        counts.add(min(len(want), 2))
    assert counts == {0, 1, 2}
