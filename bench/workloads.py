"""The two workloads: their inputs, their operations and the checks on them.

``library`` runs three studies in one process: the certification matrix of
the catalog, the synthesis of losses from user-defined weights, and the
surrogate study.  ``cli-cold`` starts one ``cploss`` process per operation.

``make_inputs(workload, seed)`` is the only source of randomness.  The
program receives only what it generates.  ``build_round`` turns the inputs into
one *round*: a fixed list of operations, each one closed-loop call from the
benchmark into a public top-level function of ``cploss``.  A run repeats whole
rounds, so every run attempts the same operations in the same proportions.

Each operation returns plain numbers.  Its ``check`` compares them with an
independent reference from :mod:`oracles` or with a property the method must
have, and returns a list of problems (empty when correct).  An operation
marked with ``fault`` exercises a known defect of the program on inputs that
do not depend on the seed: an exception or a failed check there counts as a
failed operation, not as a wrong answer.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cploss as C
from cploss.expressions import compile_expression

WORKLOADS = ("library", "cli-cold")

STRICT_WEIGHTS = ("square", "log", "boosting", "minimal", "w1-over-c", "w1-over-1mc")
CATALOG_LINKS = ("identity", "logit", "cll", "square-link", "cosine")
# Beta weights c^(a-1) (1-c)^(b-1): log (0,0), square (1,1), boosting
# (-1/2,-1/2) and two members outside the catalog.
BETA_AB = ((0.0, 0.0), (1.0, 1.0), (-0.5, -0.5), (0.5, 0.5), (0.3, 0.7))
MARGINS = ("logistic", "exponential", "zhang")
ZHANG_ALPHA = 2.0
NOISE_ALPHAS = (0.05, 0.1, 0.2)
TABLE5_KNOTS = (0.1, 0.3, 0.5, 0.7, 0.9)
# Seed-independent stream for the inputs of the known-fault operations.
FIXED_STREAM = 20091217


@dataclass
class Op:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    fault: str | None = None


@dataclass
class Round:
    """The operations of one round, and for cli-cold the runner of its children."""

    ops: list
    runner: "ChildRunner | None" = None


# -- helpers ------------------------------------------------------------------


def _close(got, want, rel, abs_floor=0.0) -> float:
    """Largest excess of |got - want| over rel*|want| + abs_floor (<= 0 means within)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return math.inf
    return float(np.max(np.abs(got - want) - (rel * np.abs(want) + abs_floor)))


def _expect(problems: list, label: str, got, want, rel, abs_floor=0.0) -> None:
    if _close(got, want, rel, abs_floor) > 0:
        dev = np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)))
        problems.append(f"{label}: deviation {dev:.3g} beyond rel {rel:g}")


def _beta_expr(a: float, b: float) -> str:
    return f"c^({a - 1:g})*(1-c)^({b - 1:g})"


def _fixed_table(n: int):
    """A seed-independent table: 5 knots at TABLE5_KNOTS, else n evenly spaced."""
    rng = np.random.default_rng([FIXED_STREAM, n])
    cs = np.asarray(TABLE5_KNOTS) if n == 5 else np.linspace(0.02, 0.98, n)
    return cs, np.round(rng.uniform(0.5, 2.0, n), 6)


def _traced_weight(tr, wf):
    fields = {"w": tr.wrap("weights.w", wf.w)}
    if wf.W is not None:
        fields["W"] = tr.wrap("weights.W", wf.W)
    return tr.with_fields(wf, **fields)


def _traced_link(tr, link):
    return tr.with_fields(link, psi=tr.wrap("links.psi", link.psi),
                          q=tr.wrap("links.q", link.q))


def _margin(tr, name):
    m = {"logistic": C.logistic_margin, "exponential": C.exponential_margin,
         "zhang": lambda: C.zhang_margin(ZHANG_ALPHA)}[name]()
    return tr.with_fields(m, phi_prime=tr.wrap("composite.dphi", m.phi_prime))


def _expression_weight(tr, expr: str):
    with tr.span("expressions.compile"):
        fn = compile_expression(expr)
    fn = tr.wrap("weights.w", fn, counter="expressions.eval")
    with tr.span("weights.build"):
        return C.WeightFunction(w=fn, name=f"expr({expr})")


def _table_weight(tr, cs, ws):
    with tr.span("weights.build"):
        wf = C.tabulated_weight(np.column_stack([cs, ws]))
    return _traced_weight(tr, wf)


def _partials(tr, loss, pts):
    with tr.span("proper.partials", 2 * len(pts)):
        return (np.asarray(loss.ell_pos(pts), dtype=float),
                np.asarray(loss.ell_neg(pts), dtype=float))


def _uniform(rng, lo, hi, n):
    """n seeded points in [lo, hi], one in each of n equal strata.

    Stratifying keeps each seed's points spread over the whole range, so the
    cost of an operation, which grows toward the endpoints, varies little
    from seed to seed.
    """
    return lo + (hi - lo) * (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n


# -- inputs -------------------------------------------------------------------


def _certify_inputs(rng) -> dict:
    return {
        "cal_c": _uniform(rng, 0.05, 0.95, 3),
        "grad_x": _uniform(rng, 0.02, 0.98, 3),
        "savage_pairs": rng.uniform(0.05, 0.95, (12, 2)),
        "nonrobust_alpha": float(rng.uniform(0.02, 0.3)),
        "noise_c0": _uniform(rng, 0.05, 0.95, 8),
    }


def _synthesize_inputs(rng) -> dict:
    fixed = np.random.default_rng(FIXED_STREAM)
    # The quadrature partials of the boosting member and of tabulated
    # weights miss their exact values by more than 1e-8 at some points and
    # not at others, so their inputs are fixed rather than seeded, as are
    # those of every other known-fault operation.
    return {
        "partial_pts": _uniform(rng, 0.02, 0.98, 10),
        "fault_pts": _uniform(fixed, 0.02, 0.98, 10),
        "psi_x": _uniform(rng, 0.03, 0.97, 5),
        "schervish_e": float(rng.uniform(0.05, 0.95)),
        "fault_schervish_e": float(fixed.uniform(0.05, 0.95)),
        "duality_xy": np.column_stack([_uniform(rng, 0.05, 0.95, 2),
                                       _uniform(rng, 0.05, 0.95, 2)[::-1]]),
        "table_pts": _uniform(fixed, 0.02, 0.98, 6),
        "margin_v": _uniform(rng, -6.0, 6.0, 5),
        "margin_x": _uniform(rng, 0.05, 0.95, 4),
        "reconstruct_e": _uniform(rng, 0.51, 0.99, 5),
        "fault_duality_xy": np.column_stack([_uniform(fixed, 0.05, 0.95, 2),
                                             _uniform(fixed, 0.05, 0.95, 2)[::-1]]),
    }


def _surrogate_inputs(rng) -> dict:
    return {
        "curve_x": _uniform(rng, 0.0, 1.0, 151),
        "roundtrip_a": _uniform(rng, 0.0, 0.5, 108),
    }


def make_inputs(workload: str, seed: int, workdir: Path | None = None) -> dict:
    """Generate a workload's inputs from its seed (and write the CLI's files)."""
    if workload == "library":
        # one stream per study, so that each study's inputs depend on the seed alone
        certify, synthesize, surrogate = (np.random.default_rng([seed, 0, k]) for k in range(3))
        return {**_certify_inputs(certify), **_synthesize_inputs(synthesize),
                **_surrogate_inputs(surrogate)}
    if workload == "cli-cold":
        rng = np.random.default_rng([seed, 1])
        inputs = {
            "etahat": np.round(rng.uniform(0.05, 0.95, 7), 6),
            "eta": np.round(rng.uniform(0.05, 0.95, 5), 6),
            "v": round(float(rng.uniform(-4.0, 4.0)), 6),
            "c0": round(float(rng.uniform(0.05, 0.95)), 6),
            "alpha": np.round(rng.uniform(0.02, 0.3, 2), 6),
            "zhang": round(float(rng.uniform(1.5, 2.5)), 6),
            "x": round(float(rng.uniform(0.0, 1.0)), 6),
            "link": CATALOG_LINKS[int(rng.integers(len(CATALOG_LINKS)))],
        }
        if workdir is not None:
            _write_cli_files(workdir, inputs)
        return inputs
    raise ValueError(f"unknown workload {workload!r}")


# -- library: the certification matrix ----------------------------------------


def _certify_ops(inp: dict, tr) -> list:
    grid = C.certification_grid(999)
    cal_c, grad_x = inp["cal_c"], inp["grad_x"]
    ops = []

    def cell(wname, lname):
        def run():
            with tr.span("weights.build"):
                wf = _traced_weight(tr, C.catalog_weight(wname))
            with tr.span("proper.from_weight"):
                loss = C.from_weight(wf)
            with tr.span("links.build"):
                link = C.canonical_link(wf) if lname == "canonical" else C.catalog_link(lname)
            link = _traced_link(tr, link)
            with tr.span("composite.make"):
                cl = C.make_composite(loss, link)
            with tr.span("analysis.characterization"):
                char = C.convexity_characterization(wf, link, grid)
            vs = np.asarray(link.psi(grid), dtype=float)
            with tr.span("analysis.oracle"):
                orc = C.convexity_oracle(cl, vs)
            with tr.span("analysis.calibration"):
                cal = [C.calibration_composite(cl, float(c)) for c in cal_c]
            v = np.asarray(link.psi(grad_x), dtype=float)
            back = np.asarray(link.q(v), dtype=float)
            with tr.span("composite.score_gradients"):
                grads = [C.score_gradients(cl, float(s)) for s in v]
            return {"char": char.convex, "oracle": orc.convex,
                    "lower": char.violation_xs("lower"), "upper": char.violation_xs("upper"),
                    "cal": cal, "v": v, "back": back, "grads": np.asarray(grads)}

        def check(out):
            from oracles import (away_from_kinks, certification_points, convexity_violations,
                                 link_fns, weight_fns)
            problems = []
            xs = certification_points()
            lo, hi = convexity_violations(wname, lname, xs)
            verdict = not (len(lo) or len(hi))
            if out["char"] != verdict or out["oracle"] != verdict:
                problems.append(f"verdicts char={out['char']} oracle={out['oracle']}, "
                                f"sympy={verdict}")
            got_lo = out["lower"][away_from_kinks(wname, out["lower"], 0.0)]
            got_hi = out["upper"][away_from_kinks(wname, out["upper"], 0.0)]
            if not (np.array_equal(got_lo, lo) and np.array_equal(got_hi, hi)):
                problems.append("characterisation violations differ from the sympy ones")
            if wname == "boosting" and lname == "identity":
                if not (np.all(lo < 0.25) and np.all(hi > 0.75)
                        and np.array_equal(lo, xs[xs < 0.25 - 1e-12])
                        and np.array_equal(hi, xs[xs > 0.75 + 1e-12])):
                    problems.append("boosting+identity must fail exactly below 1/4 and above 3/4")
            if lname == "canonical" and not out["char"]:
                problems.append("canonical composite reported non-convex")
            w, _ = weight_fns(wname)
            want_cal = [bool(w(np.asarray(c)) > 0) for c in cal_c]
            if out["cal"] != want_cal:
                problems.append(f"calibration {out['cal']} != {want_cal}")
            _expect(problems, "q(psi(x))", out["back"], grad_x, 0.0, 1e-9)
            wx = w(grad_x)
            if lname == "canonical":
                rho = np.ones_like(grad_x)
            else:
                psi, dpsi = link_fns(lname)
                _expect(problems, "psi", out["v"], psi(grad_x), 1e-12, 1e-14)
                rho = wx / dpsi(grad_x)
            want = np.column_stack([(grad_x - 1.0) * rho, grad_x * rho])
            _expect(problems, "score gradients", out["grads"], want, 1e-7, 1e-12)
            return problems

        return Op(f"cell[{wname},{lname}]", run, check)

    for wname in STRICT_WEIGHTS:
        for lname in CATALOG_LINKS + ("canonical",):
            ops.append(cell(wname, lname))

    pairs = [(float(a), float(b)) for a, b in inp["savage_pairs"]]
    cp_grid = np.linspace(0.05, 0.95, 99)
    eta_grid = np.arange(1, 1000) / 1000.0
    alpha = inp["nonrobust_alpha"]

    def weight_op(wname):
        def run():
            with tr.span("weights.build"):
                wf = _traced_weight(tr, C.catalog_weight(wname))
            with tr.span("proper.from_weight"):
                loss = C.from_weight(wf)
            with tr.span("proper.weight_from_loss"):
                est = C.weight_from_loss(loss)
            nodes = np.linspace(1.0 / 512.0, 511.0 / 512.0, 511)
            with tr.span("proper.savage_check"):
                savage = C.savage_check(loss, pairs)
            with tr.span("analysis.check_proper"):
                proper, cp_est, resid = C.check_proper(loss.ell_pos, loss.ell_neg, cp_grid)
            with tr.span("robustness.nonrobust_region"):
                union = C.proper_nonrobust_region(wf, alpha, eta_grid)
            return {"nodes": nodes, "est": np.asarray(est.w(nodes), dtype=float),
                    "savage": savage, "proper": proper, "resid": resid,
                    "cp_est": np.asarray(cp_est.w(cp_grid), dtype=float), "union": union}

        def check(out):
            from oracles import away_from_kinks, weight_fns
            problems = []
            w, w2 = weight_fns(wname)
            inner = ((out["nodes"] >= 0.1) & (out["nodes"] <= 0.9)
                     & away_from_kinks(wname, out["nodes"], 3e-4))
            xs = out["nodes"][inner]
            # central second differences with h = 1e-4: truncation h^2/12 |w''|
            # plus rounding of the Bayes risk over h^2
            tol = 2.0 * (1e-8 / 12.0) * np.abs(w2(xs)) + 1e-6 * np.maximum(1.0, w(xs))
            if np.any(np.abs(out["est"][inner] - w(xs)) > tol):
                problems.append("weight_from_loss strays from w beyond its truncation bound")
            if not out["savage"] <= 1e-6:
                problems.append(f"savage residual {out['savage']:.3g} > 1e-6")
            if not out["proper"]:
                problems.append(f"check_proper rejected a proper loss (residual {out['resid']:.3g})")
            smooth = away_from_kinks(wname, cp_grid, 3e-5)
            _expect(problems, "check_proper weight", out["cp_est"][smooth], w(cp_grid[smooth]),
                    1e-6, 1e-9)
            covered = np.zeros_like(eta_grid, dtype=bool)
            for lo, hi in out["union"]:
                covered |= (eta_grid >= lo) & (eta_grid < hi)
            if not covered.all():
                problems.append("strictly proper weight reported robust somewhere")
            return problems

        return Op(f"weight[{wname}]", run, check)

    for wname in STRICT_WEIGHTS:
        ops.append(weight_op(wname))

    def regions():
        curves = {}
        for lname in CATALOG_LINKS:
            with tr.span("links.build"):
                link = _traced_link(tr, C.catalog_link(lname))
            with tr.span("analysis.allowable_region"):
                curve = C.allowable_region(link)
            curves[lname] = (curve.xs, curve.lower, curve.upper)
        return {"curves": curves}

    def check_regions(out):
        from oracles import link_fns
        problems = []
        for lname, (xs, lower, upper) in out["curves"].items():
            _, dpsi = link_fns(lname)
            scale = dpsi(xs) / (2.0 * dpsi(np.asarray(0.5)))
            _expect(problems, f"{lname} lower envelope", lower, scale / xs, 1e-10)
            _expect(problems, f"{lname} upper envelope", upper, scale / (1.0 - xs), 1e-10)
        return problems

    ops.append(Op("regions", regions, check_regions))

    grid01 = np.linspace(0.0, 1.0, 1001)
    etas = np.arange(0.0, 1.0 + 1e-9, 1e-3)[::7]

    def sweep(c0):
        with tr.span("proper.from_weight"):
            loss = C.cost_loss(c0)
        rows = []
        for a in NOISE_ALPHAS:
            ri = C.cost_robust_interval(c0, a)
            sets = []
            for eta in etas:
                with tr.span("robustness.minimizer_set"):
                    clean = C.minimizer_set(loss, float(eta), grid01)
                noisy_eta = C.corrupt(float(eta), a)
                with tr.span("robustness.minimizer_set"):
                    noisy = C.minimizer_set(loss, noisy_eta, grid01)
                sets.append((noisy_eta, len(clean), clean[0], clean[-1],
                             len(noisy), noisy[0], noisy[-1],
                             bool(np.intersect1d(clean, noisy).size > 0)))
            rows.append((ri.interval, np.asarray(sets)))
        return rows

    def brute(c0, eta):
        # risk of the cost loss: (1-c0) eta below the threshold, c0 (1-eta) at or above
        risks = np.where(grid01 < c0, (1.0 - c0) * eta, c0 * (1.0 - eta))
        m = risks.min()
        s = grid01[risks <= m + 1e-12 * (1.0 + abs(m))]
        return len(s), s[0], s[-1]

    def check_sweep(c0, rows):
        problems = []
        for a, (interval, sets) in zip(NOISE_ALPHAS, rows):
            pulled = (c0 - a) / (1.0 - 2.0 * a)
            lo, hi = (pulled, c0) if c0 < 0.5 else (c0, pulled)
            want = (lo, hi) if lo < hi else None
            if (interval is None) != (want is None) or (
                    want is not None and _close(interval, want, 1e-15, 1e-15) > 0):
                problems.append(f"c0={c0:.4f}: interval {interval} != {want} at alpha={a}")
                continue
            for eta, row in zip(etas, sets):
                if (tuple(row[1:4]) != brute(c0, eta)
                        or tuple(row[4:7]) != brute(c0, row[0])):
                    problems.append(f"c0={c0:.4f}: minimizer set differs from brute force "
                                    f"at eta={eta:.3f}")
                    break
                robust = bool(row[7])
                closed = want is None or not (want[0] <= eta < want[1])
                if robust != closed and want is not None and min(
                        abs(eta - want[0]), abs(eta - want[1])) > 1e-3 + 1e-12:
                    problems.append(f"c0={c0:.4f}: interval and minimiser sets disagree "
                                    f"at eta={eta:.3f}")
                    break
        return problems

    def noise_op(c0s):
        def run():
            return {"rows": [sweep(c0) for c0 in c0s]}

        def check(out):
            return [p for c0, rows in zip(c0s, out["rows"]) for p in check_sweep(c0, rows)]

        return Op(f"noise[{','.join(f'{c:.3f}' for c in c0s)}]", run, check)

    c0s = [float(c) for c in inp["noise_c0"]]
    ops.append(noise_op(c0s[0::2]))
    ops.append(noise_op(c0s[1::2]))
    return ops


# -- library: losses synthesised from custom weights --------------------------


def _synthesize_ops(inp: dict, tr) -> list:
    ops = []
    pts, xq = inp["partial_pts"], inp["psi_x"]
    oracle_grid = C.certification_grid(49)

    def beta_ops(a, b, state):
        expr = _beta_expr(a, b)
        key = (a, b)
        fault = (a, b) == (-0.5, -0.5)
        my_pts = inp["fault_pts"] if fault else pts
        note = ("quadrature partials of an algebraic endpoint singularity stop "
                "near 1e-7 absolute") if fault else None

        def partials():
            wf = _expression_weight(tr, expr)
            with tr.span("proper.from_weight"):
                loss = C.from_weight(wf)
            state[("loss",) + key] = loss
            pos, neg = _partials(tr, loss, my_pts)
            return {"pos": pos, "neg": neg}

        def check_partials(out):
            from oracles import beta_partials
            want = np.array([beta_partials(a, b, float(e)) for e in my_pts])
            problems = []
            _expect(problems, f"ell_pos of {expr}", out["pos"], want[:, 0], 1e-8)
            _expect(problems, f"ell_neg of {expr}", out["neg"], want[:, 1], 1e-8)
            return problems

        def canonical():
            wf = _expression_weight(tr, expr)
            with tr.span("links.build"):
                link = _traced_link(tr, C.canonical_link(wf))
            state[("link",) + key] = link
            v = np.asarray(link.psi(xq), dtype=float)
            back = np.asarray(link.q(v), dtype=float)
            return {"psi": v, "back": back}

        def check_canonical(out):
            from oracles import beta_psi
            problems = []
            _expect(problems, "canonical psi", out["psi"],
                    [beta_psi(a, b, float(x)) for x in xq], 1e-8, 1e-10)
            _expect(problems, "q(psi(x))", out["back"], xq, 0.0, 1e-9)
            return problems

        def oracle():
            loss, link = state[("loss",) + key], state[("link",) + key]
            with tr.span("composite.make"):
                cl = C.make_composite(loss, link)
            vs = np.asarray(link.psi(oracle_grid), dtype=float)
            with tr.span("analysis.oracle"):
                rep = C.convexity_oracle(cl, vs)
            return {"convex": rep.convex, "violations": len(rep.violations)}

        def check_oracle(out):
            if out["convex"]:
                return []
            return [f"canonical composite of {expr} reported non-convex "
                    f"({out['violations']} violations)"]

        e_s = inp["fault_schervish_e"] if fault else inp["schervish_e"]

        def schervish():
            loss = state[("loss",) + key]
            with tr.span("proper.schervish_check"):
                return {"pos": C.schervish_check(loss, 1, e_s),
                        "neg": C.schervish_check(loss, -1, e_s)}

        def check_schervish(out):
            from oracles import beta_partials
            pos, neg = beta_partials(a, b, e_s)
            problems = []
            _expect(problems, "mixture ell_pos", out["pos"], pos, 1e-8)
            _expect(problems, "mixture ell_neg", out["neg"], neg, 1e-8)
            return problems

        # The generators of members with a or b <= 0 are unbounded at an end of
        # [0, 1], and duality_residual raises on them wherever it is asked.
        unbounded = a <= 0 or b <= 0
        (x1, y1), (x2, y2) = inp["fault_duality_xy" if unbounded else "duality_xy"]

        def duality():
            link = state[("link",) + key]
            with tr.span("composite.duality_residual"):
                return {"resid": [C.duality_residual(link.psi, float(x1), float(y1)),
                                  C.duality_residual(link.psi, float(x2), float(y2))]}

        def check_duality(out):
            worst = max(out["resid"])
            return [] if worst <= 1e-8 else [f"duality residual {worst:.3g} > 1e-8"]

        tag = f"{a:g},{b:g}"
        return [Op(f"beta-partials[{tag}]", partials, check_partials, note),
                Op(f"beta-canonical[{tag}]", canonical, check_canonical),
                Op(f"beta-oracle[{tag}]", oracle, check_oracle),
                Op(f"beta-schervish[{tag}]", schervish, check_schervish, note),
                Op(f"beta-duality[{tag}]", duality, check_duality,
                   "duality_residual raises IntegrationError on an unbounded generator"
                   if unbounded else None)]

    state: dict = {}
    for a, b in BETA_AB:
        ops.extend(beta_ops(a, b, state))

    tpts = inp["table_pts"]
    tables = {n: _fixed_table(n) for n in (5, 10, 50)}

    def table_partials(n):
        cs, ws = tables[n]

        def run():
            wf = _table_weight(tr, cs, ws)
            with tr.span("proper.from_weight"):
                loss = C.from_weight(wf)
            pos, neg = _partials(tr, loss, tpts)
            return {"pos": pos, "neg": neg}

        def check(out):
            from oracles import table_partials as exact
            want = np.array([exact(cs, ws, float(e)) for e in tpts])
            problems = []
            _expect(problems, f"{n}-knot ell_pos", out["pos"], want[:, 0], 1e-8)
            _expect(problems, f"{n}-knot ell_neg", out["neg"], want[:, 1], 1e-8)
            return problems

        # At these fixed points the quadrature partials of every table miss
        # the exact integrals by more than 1e-8 relative.
        return Op(f"table-partials[{n}]", run, check,
                  "quadrature partials of a tabulated weight miss the exact ones by >1e-8")

    def table_canonical(n):
        cs, ws = tables[n]

        def run():
            wf = _table_weight(tr, cs, ws)
            with tr.span("links.build"):
                link = _traced_link(tr, C.canonical_link(wf))
            v = np.asarray(link.psi(xq), dtype=float)
            return {"psi": v, "back": np.asarray(link.q(v), dtype=float)}

        def check(out):
            from oracles import table_psi
            problems = []
            _expect(problems, f"{n}-knot canonical psi", out["psi"],
                    [table_psi(cs, ws, float(x)) for x in xq], 1e-8, 1e-10)
            _expect(problems, "q(psi(x))", out["back"], xq, 0.0, 1e-9)
            return problems

        return Op(f"table-canonical[{n}]", run, check,
                  "canonical_link rejects its own quadrature antiderivative of a table")

    for n in (5, 10, 50):
        ops.append(table_partials(n))
        ops.append(table_canonical(n))

    mv, mx = inp["margin_v"], inp["margin_x"]

    def margin_op(name):
        def run():
            m = _margin(tr, name)
            with tr.span("composite.margin_to_link"):
                link = _traced_link(tr, C.margin_to_link(m))
            q = np.asarray(link.q(mv), dtype=float)
            psi = np.asarray(link.psi(mx), dtype=float)
            with tr.span("composite.from_margin"):
                cl = C.composite_from_margin(m)
            pos, neg = _partials(tr, cl.base, mx)
            return {"q": q, "psi": psi, "pos": pos, "neg": neg}

        def check(out):
            from oracles import margin_partials, margin_psi, margin_q
            problems = []
            _expect(problems, f"{name} inverse link", out["q"],
                    [margin_q(name, float(v), ZHANG_ALPHA) for v in mv], 0.0, 1e-9)
            _expect(problems, f"{name} link", out["psi"],
                    [margin_psi(name, float(x), ZHANG_ALPHA) for x in mx], 1e-9, 1e-9)
            want = np.array([margin_partials(name, float(e), ZHANG_ALPHA) for e in mx])
            _expect(problems, f"{name} base ell_pos", out["pos"], want[:, 0], 1e-8, 1e-12)
            _expect(problems, f"{name} base ell_neg", out["neg"], want[:, 1], 1e-8, 1e-12)
            return problems

        return Op(f"margin[{name}]", run, check)

    for name in MARGINS:
        ops.append(margin_op(name))

    rec_e = inp["reconstruct_e"]

    def reconstruct():
        with tr.span("proper.reconstruct_symmetric"):
            loss = C.reconstruct_symmetric(lambda e: 1.0 / (1.0 - np.asarray(e, dtype=float)),
                                           "lower")
        return {"neg": np.asarray(loss.ell_neg(rec_e), dtype=float)}

    def check_reconstruct(out):
        # the completion of ell_neg = 1/(1-e) on [0, 1/2] is 2 + log(e/(1-e))
        problems = []
        _expect(problems, "completed ell_neg", out["neg"], 2.0 + np.log(rec_e / (1.0 - rec_e)),
                0.0, 1e-6)
        return problems

    ops.append(Op("reconstruct-symmetric", reconstruct, check_reconstruct))
    return ops


# -- library: the surrogate study ---------------------------------------------

_STUDY_LOSSES = ("square", "log", "minimal")
REGRET_SEGMENTS = 18


def _experiment(tr, j):
    exp = C.quadratic_experiment() if j == 1 else C.affine_experiment()
    return tr.with_fields(exp, eta=tr.wrap("experiments.eta", exp.eta))


def _surrogate_ops(inp: dict, tr) -> list:
    ops = []

    def surrogate():
        with tr.span("experiments.surrogate"):
            rep = C.run_surrogate_experiment()
        cells = {(c["surrogate"], c["experiment"]): (c["alpha_star"], c["surrogate_risk"],
                                                     c["zero_one_risk"]) for c in rep["cells"]}
        return {"cells": cells}

    def check_surrogate(out):
        from oracles import (PAPER_ALPHA_STAR, PAPER_ZERO_ONE, constrained_alpha, full_risk,
                             zero_one_risk)
        problems = []
        cells = out["cells"]
        names = {1: "w1-over-c", 2: "w1-over-1mc"}
        for key, (alpha, risk, zo) in cells.items():
            if abs(alpha - PAPER_ALPHA_STAR[key]) > 1e-4 or abs(zo - PAPER_ZERO_ONE[key]) > 1e-4:
                problems.append(f"cell {key}: alpha*={alpha:.8f} 0-1={zo:.7f} off the paper")
            if abs(alpha - constrained_alpha(names[key[0]], key[1])) > 1e-5:
                problems.append(f"cell {key}: alpha* differs from scipy's minimiser")
            _expect(problems, f"cell {key} surrogate risk", risk,
                    full_risk(names[key[0]], key[1], alpha), 1e-9, 1e-12)
            _expect(problems, f"cell {key} 0-1 risk", zo, zero_one_risk(key[1], alpha),
                    1e-9, 1e-12)
        zo = {k: v[2] for k, v in cells.items()}
        if not (zo[(2, 1)] < zo[(1, 1)] and zo[(1, 2)] < zo[(2, 2)]):
            problems.append("the two strict preference reversals are missing")
        return problems

    ops.append(Op("surrogate-experiment", surrogate, check_surrogate))

    def sweep_op(name, j):
        def run():
            with tr.span("weights.build"):
                wf = _traced_weight(tr, C.catalog_weight(name))
            with tr.span("proper.from_weight"):
                loss = C.from_weight(wf)
            exp = _experiment(tr, j)
            with tr.span("experiments.constrained_bayes"):
                res = C.constrained_bayes(exp, loss, tol=1e-10)
            h = C.LinearHypothesisClass().hypothesis(res.argmin)
            with tr.span("experiments.full_risk"):
                risk = C.full_risk(exp, loss, h)
            return {"alpha": res.argmin, "min": res.min_value, "risk": risk}

        def check(out):
            from oracles import constrained_alpha, full_risk
            problems = []
            if name == "square":
                want = 0.75 if j == 1 else 5.0 / 6.0
                _expect(problems, "square-loss alpha*", out["alpha"], want, 0.0, 1e-7)
            else:
                _expect(problems, f"{name} alpha*", out["alpha"], constrained_alpha(name, j),
                        0.0, 1e-6)
            _expect(problems, f"{name} minimal risk", out["min"],
                    full_risk(name, j, out["alpha"]), 1e-9, 1e-12)
            _expect(problems, f"{name} risk at alpha*", out["risk"], out["min"], 0.0, 0.0)
            return problems

        return Op(f"constrained-bayes[{name},eta{j}]", run, check)

    for name in _STUDY_LOSSES:
        for j in (1, 2):
            ops.append(sweep_op(name, j))

    # The bound curve is split into equal segments so that the median
    # operation falls inside a cluster of operations of equal cost.
    xs = np.concatenate([np.linspace(0.0, 1.0, 1001), inp["curve_x"]])
    segments = np.array_split(xs, REGRET_SEGMENTS)
    trips = np.array_split(inp["roundtrip_a"], REGRET_SEGMENTS)

    def segment_op(i):
        seg, a_s = segments[i], trips[i]

        def run():
            with tr.span("experiments.regret_bound"):
                bound = np.array([C.regret_bound_invert(float(x)) for x in seg])
                back = np.array([C.regret_bound_invert(C.regret_bound_rhs(float(a)))
                                 for a in a_s])
            return {"bound": bound, "back": back}

        def check(out):
            from oracles import regret_bound
            problems = []
            _expect(problems, "regret bound", out["bound"],
                    [regret_bound(float(x)) for x in seg], 1e-12, 1e-15)
            _expect(problems, "invert(rhs(a))", out["back"], a_s, 0.0, 1e-8)
            if i == 0 and out["bound"][0] != 0.0:
                problems.append("the bound at x = 0 must be exactly 0")
            return problems

        return Op(f"regret-bound[{i}]", run, check)

    for i in range(REGRET_SEGMENTS):
        ops.append(segment_op(i))
    return ops


# -- cli-cold -----------------------------------------------------------------

def _write_cli_files(workdir: Path, inp: dict) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    # log loss partials in the variable c: ell_pos = -log(c), ell_neg = -log(1-c)
    (workdir / "partials.json").write_text(json.dumps(
        {"ell_pos": {"expr": "-log(c)"}, "ell_neg": {"expr": "-log(1-c)"}}))
    (workdir / "half.json").write_text(json.dumps({"expr": "1/(1-c)"}))


def _strict_json(text: str):
    """Parse one strict RFC 8259 JSON line (no NaN or Infinity)."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    doc = json.loads(lines[0], parse_constant=reject)
    if not isinstance(doc, dict) or doc.get("schema") != "cploss/1":
        raise ValueError("missing \"schema\": \"cploss/1\"")
    return doc


def _read_csv(path: Path) -> np.ndarray:
    rows = path.read_text().splitlines()
    return np.array([[float(v) for v in r.split(",")] for r in rows[1:]])


class ChildRunner:
    """Starts one ``cploss`` process at a time and records its exit and memory."""

    TIMEOUT_S = 60.0

    def __init__(self, root: Path, workdir: Path, tr):
        self.root = root
        self.workdir = workdir
        self.tr = tr
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.max_rss_kb = 0

    def run(self, args: list) -> dict:
        out_path = self.workdir / "child.out"
        err_path = self.workdir / "child.err"
        rec_path = self.workdir / "child.rec"
        if self.tr.enabled:
            argv = [sys.executable, str(Path(__file__).with_name("clichild.py")),
                    str(rec_path)] + args
        else:
            argv = [sys.executable, "-m", "cploss"] + args
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        timer = threading.Timer(self.TIMEOUT_S, _kill, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        code = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if self.tr.enabled:
            self._record(args[0], rec_path)
        return {"code": code, "stdout": out_path.read_text(), "stderr": err_path.read_text()}

    def _record(self, sub: str, rec_path: Path) -> None:
        try:
            rec = json.loads(rec_path.read_text())
        except (OSError, ValueError):
            return
        finally:
            rec_path.unlink(missing_ok=True)
        self.tr.record("cli.import", rec["import"][0], rec["import"][1])
        self.tr.record(f"cli.{sub}", rec["run"][0], rec["run"][1])


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _cli_ops(inp: dict, tr, runner: ChildRunner) -> list:
    wd = runner.workdir
    E, H = [float(x) for x in inp["etahat"]], [float(x) for x in inp["eta"]]
    cs5, ws5 = _fixed_table(5)
    t5 = [[float(c), float(w)] for c, w in zip(cs5, ws5)]
    # table evaluations go through the same quadrature as in the library's tables,
    # so their points are fixed too
    t5_e = _uniform(np.random.default_rng([FIXED_STREAM, 1]), 0.05, 0.95, 2)
    t5_eta = float(np.random.default_rng([FIXED_STREAM, 2]).uniform(0.05, 0.95))
    cs10, ws10 = _fixed_table(10)
    t10 = [[float(c), float(w)] for c, w in zip(cs10, ws10)]
    half_ab = (0.5, 0.5)
    expr_half = {"weight": {"expr": _beta_expr(*half_ab)}}
    expr_03 = {"weight": {"expr": _beta_expr(0.3, 0.7)}}
    J = json.dumps

    def risk_of(pos, neg, eta):
        return eta * pos + (1.0 - eta) * neg

    cases = []   # (args, check(doc) -> problems, fault)

    def add(args, check, fault=None):
        cases.append((args, check, fault))

    def value_check(want_fn, key="value", rel=1e-9, abs_floor=1e-12):
        def check(doc):
            problems = []
            _expect(problems, key, doc.get(key, math.nan), want_fn(), rel, abs_floor)
            return problems
        return check

    def beta_pos_neg(ab, e):
        from oracles import beta_partials
        return beta_partials(ab[0], ab[1], e)

    def table_pos_neg(e):
        from oracles import table_partials
        return table_partials(cs5, ws5, e)

    add(["catalog"], lambda d: [] if set(STRICT_WEIGHTS) <= set(d.get("weights", {}))
        and set(CATALOG_LINKS) <= set(d.get("links", {})) else ["catalog incomplete"])
    add(["eval", "--loss", J({"weight": {"name": "log"}}), "--y", "-1", "--etahat", str(E[0])],
        value_check(lambda: -math.log1p(-E[0])))
    add(["eval", "--loss", J({"weight": {"name": "log"}, "link": {"name": "logit"}}),
         "--y", "1", "--v", str(inp["v"])],
        value_check(lambda: math.log1p(math.exp(-inp["v"]))))
    add(["eval", "--loss", J(expr_half), "--y", "1", "--etahat", str(E[1])],
        value_check(lambda: beta_pos_neg(half_ab, E[1])[0], rel=1e-8))
    add(["eval", "--loss", J({"weight": {"table": t5}}), "--y", "-1", "--etahat", str(t5_e[0])],
        value_check(lambda: table_pos_neg(t5_e[0])[1], rel=1e-8))
    add(["risk", "--loss", J({"weight": {"name": "square"}}), "--eta", str(H[0]),
         "--etahat", str(E[3])],
        value_check(lambda: risk_of((1 - E[3]) ** 2 / 2, E[3] ** 2 / 2, H[0]), "risk"))
    add(["risk", "--loss", J({"weight": {"name": "square"}}), "--eta", str(H[1]),
         "--etahat", str(E[4]), "--regret"],
        value_check(lambda: (H[1] - E[4]) ** 2 / 2, "regret"))
    add(["risk", "--loss", J({"weight": {"name": "square"}}), "--eta", str(H[2]), "--bayes"],
        value_check(lambda: H[2] * (1 - H[2]) / 2, "bayes_risk"))
    add(["risk", "--loss", J(expr_03), "--eta", str(H[3]), "--etahat", str(E[5])],
        value_check(lambda: risk_of(*beta_pos_neg((0.3, 0.7), E[5]), H[3]), "risk", rel=1e-8))
    add(["risk", "--loss", J({"weight": {"table": t5}}), "--eta", str(t5_eta),
         "--etahat", str(t5_e[1])],
        value_check(lambda: risk_of(*table_pos_neg(t5_e[1]), t5_eta), "risk", rel=1e-8))

    def check_proper(doc):
        problems = [] if doc.get("proper") is True else ["log partials reported improper"]
        xs = np.array([p[0] for p in doc["weight_estimate"]])
        # the estimate interpolates slope ratios taken on the default 99-point grid
        nodes = np.linspace(0.05, 0.95, 99)
        want = np.interp(xs, nodes, 1.0 / (nodes * (1.0 - nodes)))
        _expect(problems, "weight estimate", [p[1] for p in doc["weight_estimate"]], want, 1e-6)
        return problems

    add(["check-proper", "--partials", str(wd / "partials.json")], check_proper)

    def convexity_check(wname, lname):
        def check(doc):
            from oracles import certification_points, convexity_violations
            xs = certification_points()
            lo, hi = convexity_violations(wname, lname, xs)
            verdict = not (len(lo) or len(hi))
            problems = [] if doc.get("convex") is verdict else [
                f"{wname}+{lname}: convex={doc.get('convex')}, sympy says {verdict}"]
            if doc.get("method") == "characterization":
                got_lo = sorted(v["x"] for v in doc["violations"] if v["side"] == "lower")
                got_hi = sorted(v["x"] for v in doc["violations"] if v["side"] == "upper")
                if got_lo != lo.tolist() or got_hi != hi.tolist():
                    problems.append("violation points differ from the sympy ones")
            return problems
        return check

    add(["check-convexity", "--loss",
         J({"weight": {"name": "boosting"}, "link": {"name": "identity"}})],
        convexity_check("boosting", "identity"))
    add(["check-convexity", "--loss",
         J({"weight": {"name": "log"}, "link": {"name": "canonical"}}), "--oracle"],
        convexity_check("log", "canonical"))
    add(["check-convexity", "--loss",
         J({"weight": {"name": "w1-over-c"}, "link": {"name": "cll"}})],
        convexity_check("w1-over-c", "cll"))

    def canonical_table(doc):
        return [] if doc.get("convex") is True else ["canonical composite reported non-convex"]

    add(["check-convexity", "--loss",
         J({"weight": {"table": t10}, "link": {"name": "canonical"}})], canonical_table,
        "a valid 10-knot table with its canonical link exits 2")

    link = inp["link"]

    def region(doc):
        from oracles import link_fns
        _, dpsi = link_fns(link)
        rows = _read_csv(wd / "region.csv")
        xs = rows[:, 0]
        scale = dpsi(xs) / (2.0 * dpsi(np.asarray(0.5)))
        problems = [] if doc.get("rows") == len(xs) else ["row count mismatch"]
        _expect(problems, "region lower", rows[:, 1], scale / xs, 1e-10)
        _expect(problems, "region upper", rows[:, 2], scale / (1.0 - xs), 1e-10)
        return problems

    add(["region", "--link", link, "--out", str(wd / "region.csv")], region)
    c0 = inp["c0"]
    add(["check-calibration", "--loss", J({"weight": {"name": "cost", "params": {"c0": c0}}}),
         "--c", str(c0)],
        lambda d: [] if d.get("calibrated") is True else ["cost loss not calibrated at c0"])

    def completed(doc):
        rows = _read_csv(wd / "completed.csv")
        xs, ys = rows[:, 0], rows[:, 1]
        want = np.where(xs <= 0.5, 1.0 / (1.0 - xs), 2.0 + np.log(xs / (1.0 - xs)))
        problems = []
        _expect(problems, "completed ell_neg", ys, want, 0.0, 1e-6)
        _expect(problems, "reported ell_neg", [p[1] for p in doc["ell_neg"]], ys, 0.0, 0.0)
        return problems

    add(["reconstruct-symmetric", "--half", str(wd / "half.json"), "--side", "lower",
         "--out", str(wd / "completed.csv")], completed)
    zalpha = inp["zhang"]

    def margin_link(name, alpha=ZHANG_ALPHA):
        def check(doc):
            from oracles import margin_q
            rows = _read_csv(wd / f"{name}.csv")
            problems = []
            _expect(problems, f"{name} inverse link", rows[:, 1],
                    [margin_q(name, float(v), alpha) for v in rows[:, 0]], 0.0, 1e-9)
            return problems
        return check

    add(["margin-link", "--phi", f"zhang:{zalpha}", "--out", str(wd / "zhang.csv")],
        margin_link("zhang", zalpha))
    add(["margin-link", "--phi", "logistic", "--out", str(wd / "logistic.csv")],
        margin_link("logistic"))
    a1, a2 = (float(a) for a in inp["alpha"])
    c1 = round(float(inp["etahat"][0]), 6)

    def cost_interval(doc):
        pulled = (c1 - a1) / (1.0 - 2.0 * a1)
        lo, hi = (pulled, c1) if c1 < 0.5 else (c1, pulled)
        got = doc.get("interval")
        if got is None or _close(got, [lo, hi], 1e-15, 1e-15) > 0:
            return [f"interval {got} != {[lo, hi]}"]
        return []

    add(["robustness", "--c0", str(c1), "--alpha", str(a1)], cost_interval)

    def union(doc):
        grid = np.arange(1, 1000) / 1000.0
        covered = np.zeros_like(grid, dtype=bool)
        for lo, hi in doc.get("nonrobust_union", []):
            covered |= (grid >= lo) & (grid < hi)
        return [] if covered.all() else ["square loss reported robust somewhere"]

    add(["robustness", "--weight", J({"name": "square"}), "--alpha", str(a2)], union)

    def surrogate(doc):
        from oracles import PAPER_ALPHA_STAR, PAPER_ZERO_ONE
        problems = []
        zo = {}
        for cell in doc["cells"]:
            key = (cell["surrogate"], cell["experiment"])
            zo[key] = cell["zero_one_risk"]
            if (abs(cell["alpha_star"] - PAPER_ALPHA_STAR[key]) > 1e-4
                    or abs(cell["zero_one_risk"] - PAPER_ZERO_ONE[key]) > 1e-4):
                problems.append(f"cell {key} off the paper")
        if not (zo[(2, 1)] < zo[(1, 1)] and zo[(1, 2)] < zo[(2, 2)]):
            problems.append("strict reversals missing")
        return problems

    add(["surrogate-experiment"], surrogate)
    x = inp["x"]

    def bound(doc):
        from oracles import regret_bound
        problems = []
        _expect(problems, "bound", doc.get("bound", math.nan), regret_bound(x), 1e-12, 1e-15)
        return problems

    add(["regret-bound", "--x", str(x)], bound)

    def curve(doc):
        from oracles import regret_bound
        rows = _read_csv(wd / "curve.csv")
        problems = []
        _expect(problems, "bound curve", rows[:, 1],
                [regret_bound(float(v)) for v in rows[:, 0]], 1e-12, 1e-15)
        return problems

    add(["regret-bound", "--curve", "--grid-size", "201", "--out", str(wd / "curve.csv")], curve)
    add(["regret-bound", "--x", "inf"], lambda d: [],
        "--x inf prints Infinity/NaN, which is not JSON")

    ops = []
    for args, check, fault in cases:
        ops.append(_cli_op(runner, args, check, fault))
    return ops


def _cli_op(runner: ChildRunner, args: list, check_doc, fault) -> Op:
    usage_ok = fault is not None and args[0] == "regret-bound"

    def run():
        res = runner.run(args)
        if usage_ok and res["code"] == 2:
            return {"doc": None}
        if res["code"] != 0:
            raise RuntimeError(f"exit {res['code']}: {res['stderr'].strip()[-200:]}")
        return {"doc": _strict_json(res["stdout"])}

    def check(out):
        if out["doc"] is None:
            return []
        return check_doc(out["doc"])

    return Op(f"cli[{' '.join(a if len(a) < 24 else a[:20] + '...' for a in args[:3])}]",
              run, check, fault)


# -- numerics probe (traced runs only) ----------------------------------------


def numerics_probe(workload: str, inp: dict, tr) -> None:
    """Direct calls into the numeric core on the workload's own integrands and objectives."""
    from cploss.numerics import integrate, lambert_w0, minimize_scalar

    def counted(f, span):
        def g(x):
            span.points_add(int(np.size(x)))
            return f(x)
        return g

    def quad(f, a, b):
        with tr.span("numerics.integrate") as sp:
            return integrate(counted(f, sp), a, b)

    if workload == "library":
        for a, b in BETA_AB:
            w = compile_expression(_beta_expr(a, b))
            pts = inp["fault_pts"] if (a, b) == (-0.5, -0.5) else inp["partial_pts"]
            for e in pts:
                quad(lambda c: (1.0 - c) * w(c), float(e), 1.0)
                quad(lambda c: c * w(c), 0.0, float(e))
            for x in inp["psi_x"]:
                lo, hi = sorted((0.5, float(x)))
                quad(w, lo, hi)
        for name in _STUDY_LOSSES:
            loss = C.from_weight(C.catalog_weight(name))
            for j in (1, 2):
                exp = C.quadratic_experiment() if j == 1 else C.affine_experiment()

                def objective(alpha, exp=exp, loss=loss):
                    return C.full_risk(exp, loss, C.LinearHypothesisClass().hypothesis(alpha))

                with tr.span("numerics.minimize_scalar") as sp:
                    res = minimize_scalar(objective, 0.0, 1.0, tol=1e-10)
                    sp.points_add(res.iterations)
                alpha = res.argmin

                def integrand(xs, exp=exp, loss=loss, alpha=alpha):
                    etas = np.asarray(exp.eta(xs), dtype=float)
                    preds = alpha * np.asarray(xs, dtype=float)
                    with np.errstate(all="ignore"):
                        lp = np.asarray(loss.ell_pos(preds), dtype=float)
                        ln_ = np.asarray(loss.ell_neg(preds), dtype=float)
                        return (np.where(etas > 0, etas * lp, 0.0)
                                + np.where(etas < 1, (1.0 - etas) * ln_, 0.0))

                quad(integrand, 0.0, 1.0)
        for x in inp["curve_x"]:
            with tr.span("numerics.lambert_w0"):
                lambert_w0((4.0 * float(x) - 1.0) / math.e)
    elif workload == "cli-cold":
        with tr.span("numerics.lambert_w0"):
            lambert_w0((4.0 * float(inp["x"]) - 1.0) / math.e)


# -- assembly -----------------------------------------------------------------


def build_round(workload: str, inp: dict, tr, root: Path, workdir: Path) -> Round:
    if workload == "library":
        return Round(_certify_ops(inp, tr) + _synthesize_ops(inp, tr) + _surrogate_ops(inp, tr))
    if workload == "cli-cold":
        runner = ChildRunner(root, workdir, tr)
        return Round(_cli_ops(inp, tr, runner), runner)
    raise ValueError(f"unknown workload {workload!r}")


def peak_rss_mb(workload: str, rnd: Round) -> float:
    """Peak resident memory: of this process, or for cli-cold of the largest child."""
    if workload == "cli-cold":
        return rnd.runner.max_rss_kb / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
