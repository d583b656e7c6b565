"""Acceptance suite: the package's exit criteria, one test per criterion.

Every criterion runs at its stated tolerance and prints one
``[acceptance] criterion N: PASS|FAIL`` line (run pytest with ``-s`` or
``-rA`` to see them).
"""

import math
import time

import numpy as np

from cploss.analysis import (
    calibration_cc,
    certification_grid,
    convexity_characterization,
    convexity_oracle,
)
from cploss.composite import (
    composite_from_margin,
    duality_residual,
    exponential_margin,
    make_composite,
    score_gradients,
)
from cploss.experiments import (
    minimal_loss,
    regret_bound_invert,
    regret_bound_rhs,
    run_surrogate_experiment,
)
from cploss.links import canonical_link, catalog_link
from cploss.numerics import finite_diff
from cploss.proper import catalog_loss, cost_loss, from_weight, reconstruct_symmetric
from cploss.robustness import corrupt, cost_robust_interval, minimizer_set, noisy_loss, proper_nonrobust_region
from cploss.weights import catalog_weight

STRICT_CATALOG = ["square", "log", "boosting", "minimal", "w1-over-c", "w1-over-1mc"]
LINK_NAMES = ["identity", "logit", "cll", "square-link", "cosine"]


def report(n: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {n} ({label}): {status}")
    assert not failures, f"criterion {n}: {failures}"


def test_criterion_1_surrogate_study_reproduction():
    failures = []
    t0 = time.perf_counter()
    rep = run_surrogate_experiment()
    elapsed = time.perf_counter() - t0
    for cell in rep["cells"]:
        if cell["alpha_star_abs_dev"] > 1e-4:
            failures.append(("alpha_star", cell["surrogate"], cell["experiment"],
                             cell["alpha_star_abs_dev"]))
        if cell["zero_one_risk_abs_dev"] > 1e-4:
            failures.append(("zero_one_risk", cell["surrogate"], cell["experiment"],
                             cell["zero_one_risk_abs_dev"]))
    risk = {(c["surrogate"], c["experiment"]): c["zero_one_risk"] for c in rep["cells"]}
    if not risk[(2, 1)] < risk[(1, 1)]:
        failures.append("first experiment must strictly prefer surrogate 2")
    if not risk[(1, 2)] < risk[(2, 2)]:
        failures.append("second experiment must strictly prefer surrogate 1")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    report(1, "surrogate study reproduction", failures)


def test_criterion_2_weight_to_partial_round_trip():
    closed = {
        "square": (lambda e: e ** 2 / 2, lambda e: (1 - e) ** 2 / 2),
        "log": (lambda e: -np.log(1 - e), lambda e: -np.log(e)),
        "boosting": (lambda e: 2 * np.sqrt(e / (1 - e)), lambda e: 2 * np.sqrt((1 - e) / e)),
    }
    grid = np.linspace(0.05, 0.95, 19)
    failures = []
    for name, (en, ep) in closed.items():
        loss = from_weight(catalog_weight(name))
        dn = float(np.max(np.abs(np.asarray(loss.ell_neg(grid)) - en(grid))))
        dp = float(np.max(np.abs(np.asarray(loss.ell_pos(grid)) - ep(grid))))
        if dn > 1e-6 or dp > 1e-6:
            failures.append((name, dn, dp))
    report(2, "closed-form partial losses from weights", failures)


def test_criterion_3_convexity_certification_matrix():
    failures = []
    grid = certification_grid(999)
    combos = 0
    for wname in STRICT_CATALOG:
        wf = catalog_weight(wname)
        loss = catalog_loss(wname)
        links = [(lname, catalog_link(lname)) for lname in LINK_NAMES]
        links.append(("canonical", canonical_link(wf)))
        for lname, link in links:
            combos += 1
            char = convexity_characterization(wf, link, grid)
            oracle = convexity_oracle(make_composite(loss, link),
                                      np.asarray(link.psi(grid), dtype=float))
            if char.convex != oracle.convex:
                failures.append(("verdict mismatch", wname, lname,
                                 char.convex, oracle.convex))
            if lname == "canonical" and not char.convex:
                failures.append(("canonical must be convex", wname))
    if combos < 30:
        failures.append(f"only {combos} combinations certified")
    # boosting + identity: violations exactly below 1/4 and above 3/4
    char = convexity_characterization(catalog_weight("boosting"),
                                      catalog_link("identity"), grid)
    step = 1.0 / 1000.0
    lower, upper = char.violation_xs("lower"), char.violation_xs("upper")
    if char.convex or not len(lower) or not len(upper):
        failures.append("boosting+identity must fail on both sides")
    else:
        if np.max(lower) > 0.25 + step or np.min(lower) > 0.25:
            failures.append(("lower violations not matching x<1/4", np.max(lower)))
        if np.min(upper) < 0.75 - step or np.max(upper) < 0.75:
            failures.append(("upper violations not matching x>3/4", np.min(upper)))
        covered = set(np.round(np.concatenate([lower, upper]), 12).tolist())
        expected = grid[(grid < 0.25 - step) | (grid > 0.75 + step)]
        missing = [x for x in np.round(expected, 12) if x not in covered]
        if missing:
            failures.append(("expected violations missing", missing[:3]))
    report(3, "convexity certification matrix", failures)


def test_criterion_4_symmetric_reconstruction_examples():
    failures = []
    cases = [
        ("first", lambda e: 1.0 / (1.0 - e), "lower",
         lambda e: 2.0 + np.log(e / (1 - e)), np.linspace(0.51, 0.99, 50)),
        ("second", lambda e: 1.0 / (1.0 - e), "upper",
         lambda e: 2.0 + np.log(e / (1 - e)), np.linspace(0.02, 0.49, 50)),
        ("fourth", lambda e: np.asarray(e, dtype=float), "lower",
         lambda e: 1.0 - math.log(2.0) - e - np.log(1 - e), np.linspace(0.51, 0.99, 50)),
    ]
    import warnings
    for label, half, side, closed, es in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loss = reconstruct_symmetric(lambda e, _h=half: _h(np.asarray(e, dtype=float)), side)
        dev = float(np.max(np.abs(np.asarray(loss.ell_neg(es), dtype=float) - closed(es))))
        if dev > 1e-6:
            failures.append((label, dev))
    # third example: the completion integral is the authority (the quoted
    # closed form is discontinuous at 1/2); verify against the derived form
    loss3 = reconstruct_symmetric(
        lambda e: 1.0 / (1.0 - np.asarray(e, dtype=float)) ** 2, "lower")
    es = np.linspace(0.51, 0.95, 50)
    derived = 8.0 - 2.0 / es + 2.0 * np.log(es / (1 - es))
    dev3 = float(np.max(np.abs(np.asarray(loss3.ell_neg(es), dtype=float) - derived)))
    if dev3 > 1e-6:
        failures.append(("third-vs-integral", dev3))
    report(4, "symmetric reconstruction worked examples", failures)


def test_criterion_5_robustness():
    failures = []
    # closed-form intervals against the brute-force minimiser-set oracle
    grid = np.linspace(0.0, 1.0, 1001)
    etas = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    step = 1e-3
    for c0 in np.round(np.arange(0.1, 0.95, 0.1), 10):
        loss = cost_loss(float(c0))
        for alpha in (0.05, 0.1, 0.2):
            ri = cost_robust_interval(float(c0), alpha)
            for eta in etas[::7]:
                clean = minimizer_set(loss, float(eta), grid)
                noisy = minimizer_set(loss, corrupt(float(eta), alpha), grid)
                brute = bool(np.intersect1d(clean, noisy).size > 0)
                closed = not ri.contains(float(eta))
                if closed != brute:
                    lo, hi = ri.interval
                    if min(abs(eta - lo), abs(eta - hi)) > step + 1e-12:
                        failures.append(("interval mismatch", float(c0), alpha, float(eta)))
    # mixture-vs-corruption identity on a 20 x 20 x 3 grid
    cl = make_composite(catalog_loss("log"), catalog_link("logit"))
    from cploss.composite import composite_conditional_risk
    worst = 0.0
    for alpha in (0.05, 0.1, 0.3):
        nl = noisy_loss(cl, alpha)
        for eta in np.linspace(0.0, 1.0, 20):
            for v in np.linspace(-4.0, 4.0, 20):
                lhs = composite_conditional_risk(cl, corrupt(float(eta), alpha), float(v))
                worst = max(worst, abs(lhs - nl.conditional_risk(float(eta), float(v))))
    if worst > 1e-12:
        failures.append(("noise identity residual", worst))
    # strictly proper catalog losses: non-robust across the whole grid
    eta_grid = np.arange(1, 1000) / 1000.0
    for name in STRICT_CATALOG:
        union = proper_nonrobust_region(catalog_weight(name), 0.1, eta_grid)
        covered = np.zeros_like(eta_grid, dtype=bool)
        for lo, hi in union:
            covered |= (eta_grid >= lo) & (eta_grid < hi)
        if not covered.all():
            failures.append(("robust somewhere", name,
                             eta_grid[~covered][:3].tolist()))
    report(5, "label-noise robustness", failures)


def test_criterion_6_bregman_duality():
    failures = []
    generators = {
        "identity": lambda t: np.asarray(t, dtype=float),
        "logit": lambda t: np.log(np.asarray(t, dtype=float)
                                  / (1 - np.asarray(t, dtype=float))),
    }
    pts = np.linspace(0.05, 0.95, 20)
    for name, W in generators.items():
        worst = 0.0
        for x in pts:
            for y in pts:
                worst = max(worst, duality_residual(W, float(x), float(y)))
        if worst > 1e-8:
            failures.append((name, worst))
    report(6, "order-reversing Bregman duality", failures)


def test_criterion_7_score_gradient_checks():
    failures = []
    builders = {
        "log+logit": lambda: make_composite(catalog_loss("log"), catalog_link("logit")),
        "square+identity": lambda: make_composite(catalog_loss("square"),
                                                  catalog_link("identity")),
        "exponential-margin": lambda: composite_from_margin(exponential_margin()),
    }
    for name, build in builders.items():
        cl = build()
        vs = np.asarray(cl.link.psi(np.linspace(0.01, 0.99, 99)), dtype=float)
        lo, hi = cl.link.range
        vs = vs[(vs > lo + 1e-5) & (vs < hi - 1e-5)]
        worst = 0.0
        for v in vs:
            d_pos, d_neg = score_gradients(cl, float(v))
            fd_pos = finite_diff(lambda t: float(cl.ell_pos(np.asarray(t))), float(v), 1)
            fd_neg = finite_diff(lambda t: float(cl.ell_neg(np.asarray(t))), float(v), 1)
            worst = max(worst,
                        abs(d_pos - fd_pos) / max(1e-12, abs(fd_pos)),
                        abs(d_neg - fd_neg) / max(1e-12, abs(fd_neg)))
        if worst > 1e-6:
            failures.append((name, worst))
    report(7, "score-gradient formulas", failures)


def test_criterion_8_regret_bound():
    failures = []
    if regret_bound_invert(0.0) != 0.0:
        failures.append("invert(0) must be exactly 0")
    xs = np.linspace(0.0, 1.0, 1001)
    vals = np.array([regret_bound_invert(float(x)) for x in xs])
    if not np.all(np.diff(vals) >= -1e-15):
        failures.append("bound curve must be nondecreasing on [0,1]")
    for a in np.arange(0.0, 0.5 + 1e-12, 0.01):
        if abs(regret_bound_invert(regret_bound_rhs(float(a))) - float(a)) > 1e-8:
            failures.append(("round trip", float(a)))
    direct = minimal_loss()
    synthesised = from_weight(catalog_weight("minimal"))
    es = np.linspace(0.001, 0.999, 999)
    dev = max(float(np.max(np.abs(np.asarray(direct.ell_neg(es))
                                  - np.asarray(synthesised.ell_neg(es))))),
              float(np.max(np.abs(np.asarray(direct.ell_pos(es))
                                  - np.asarray(synthesised.ell_pos(es))))))
    if dev > 1e-8:
        failures.append(("minimal partials", dev))
    report(8, "regret bound and minimal loss", failures)


def test_criterion_9_calibration():
    failures = []
    cs = np.round(np.arange(0.1, 0.95, 0.1), 10)
    for c0 in cs:
        loss = cost_loss(float(c0))
        for c in cs:
            got = calibration_cc(loss, float(c))
            want = bool(abs(c - c0) <= 1e-12)
            if got is not want:
                failures.append(("cost", float(c0), float(c), got))
    for name in STRICT_CATALOG:
        loss = catalog_loss(name)
        for c in cs:
            if calibration_cc(loss, float(c)) is not True:
                failures.append(("strict", name, float(c)))
    report(9, "classification calibration", failures)
