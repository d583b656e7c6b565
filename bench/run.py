"""Benchmark of cploss: end-to-end and per-layer metrics on two workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload library --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

The program is imported from ``src/`` of the same checkout; nothing is
installed.  Each workload runs in this one single-threaded process as a
closed loop with one caller (cli-cold starts one ``python -m cploss`` child at
a time).  With ``--trace 0`` the run measures whole rounds of the workload's
operations for about ``--seconds`` (the number of rounds whose expected end
lies nearest to it, at least two and at least 100 operations), and reports
the end-to-end metrics.  With ``--trace 1`` it spends half the time untraced
and half with spans and work counters installed, and reports the per-layer
metrics with the tracing overhead.  Every output is checked against an
independent reference after the timed loop.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "bench"
# Fresh interpreters timed for setup_s: half before the timed loop and half
# after it, so that their median spans the run as the other metrics do.
SETUP_REPEATS = 8
# Percentiles are taken from runs of at least this many operations.
MIN_OPS = 100

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CLI_SUBCOMMANDS = ("catalog", "eval", "risk", "check-proper", "check-convexity", "region",
                   "check-calibration", "reconstruct-symmetric", "margin-link", "robustness",
                   "surrogate-experiment", "regret-bound")

PER_LAYER = (
    ("numerics.integrate.calls", "count"), ("numerics.integrate.points", "count"),
    ("numerics.integrate.s", "s"), ("numerics.minimize_scalar.calls", "count"),
    ("numerics.minimize_scalar.iterations", "count"), ("numerics.minimize_scalar.s", "s"),
    ("numerics.lambert_w0.s", "s"),
    ("weights.build.calls", "count"), ("weights.build.s", "s"), ("weights.w.points", "count"),
    ("weights.w.s", "s"), ("weights.W.points", "count"),
    ("proper.from_weight.calls", "count"), ("proper.from_weight.s", "s"),
    ("proper.partials.points", "count"), ("proper.partials.s", "s"),
    ("proper.partials.w_per_point", "ratio"), ("proper.weight_from_loss.s", "s"),
    ("proper.savage_check.s", "s"), ("proper.schervish_check.s", "s"),
    ("proper.reconstruct_symmetric.s", "s"),
    ("links.build.calls", "count"), ("links.build.s", "s"), ("links.q.points", "count"),
    ("links.q.s", "s"), ("links.q.steps_per_point", "ratio"), ("links.psi.points", "count"),
    ("links.psi.s", "s"),
    ("composite.make.s", "s"), ("composite.margin_to_link.s", "s"),
    ("composite.from_margin.s", "s"), ("composite.dphi.points", "count"),
    ("composite.duality_residual.calls", "count"), ("composite.duality_residual.s", "s"),
    ("composite.score_gradients.s", "s"),
    ("analysis.characterization.calls", "count"), ("analysis.characterization.s", "s"),
    ("analysis.oracle.calls", "count"), ("analysis.oracle.s", "s"),
    ("analysis.allowable_region.s", "s"), ("analysis.check_proper.s", "s"),
    ("analysis.calibration.s", "s"),
    ("robustness.minimizer_set.calls", "count"), ("robustness.minimizer_set.s", "s"),
    ("robustness.nonrobust_region.s", "s"),
    ("experiments.surrogate.s", "s"), ("experiments.constrained_bayes.calls", "count"),
    ("experiments.constrained_bayes.s", "s"), ("experiments.full_risk.calls", "count"),
    ("experiments.full_risk.s", "s"), ("experiments.eta.points", "count"),
    ("experiments.regret_bound.s", "s"),
    ("expressions.compile.calls", "count"), ("expressions.compile.s", "s"),
    ("expressions.eval.points", "count"),
    ("cli.import_s", "s"),
) + tuple((f"cli.{sub}.s", "s") for sub in CLI_SUBCOMMANDS) + (
    ("cli.peak_rss_mb", "MB"),
    ("trace.overhead_pct", "%"),
)


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_import() -> None:
    if not (ROOT / "src" / "cploss" / "__init__.py").is_file():
        _fail(f"no cploss sources under {ROOT / 'src'}; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))


# -- setup --------------------------------------------------------------------


def measure_setup(workload: str, seed: int, repeats: int) -> list:
    """Wall times of fresh interpreters importing cploss and making the inputs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"setup probe failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return times


def setup_probe(workload: str, seed: int) -> None:
    import workloads  # imports cploss

    workloads.make_inputs(workload, seed, WORKDIR / "setup-probe")


# -- rounds -------------------------------------------------------------------


def run_rounds(rnd, seconds: float, min_rounds: int, min_ops: int = 0, tr=None):
    """Repeat whole rounds for about ``seconds``: stop once another round would
    end further past ``seconds`` than the time so far falls short of it, and
    at least ``min_rounds`` rounds and ``min_ops`` operations are done.

    Returns per-op latencies and outputs.  With a tracer, each operation is an
    ``op`` span, and the span count and the tracer's counters at every round
    boundary are returned too.
    """
    latencies, outputs, round_s, bounds, counts = [], [], [], [], []
    start = time.perf_counter()
    while True:
        if tr is not None:
            bounds.append(len(tr))
            counts.append(dict(tr.counters))
        round_start = time.perf_counter()
        results = []
        for op in rnd.ops:
            t0 = time.perf_counter()
            try:
                if tr is not None:
                    with tr.span("op"):
                        out = op.run()
                else:
                    out = op.run()
                err = None
            except Exception as exc:  # an operation's failure is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            results.append((out, err))
        round_s.append(time.perf_counter() - round_start)
        outputs.append(results)
        elapsed = time.perf_counter() - start
        if (len(outputs) >= min_rounds and len(latencies) >= min_ops
                and elapsed + statistics.mean(round_s) / 2.0 >= seconds):
            break
    if tr is not None:
        bounds.append(len(tr))
        counts.append(dict(tr.counters))
    return {"latencies": latencies, "outputs": outputs, "round_s": round_s, "bounds": bounds,
            "counts": counts}


def check_outputs(rnd, outputs) -> dict:
    """Count attempted and failed operations and check every successful output."""
    attempted = failed = 0
    problems = []
    for results in outputs:
        for op, (out, err) in zip(rnd.ops, results):
            attempted += 1
            if err is None:
                found = op.check(out)
                if not found:
                    continue
                err = "; ".join(found)
                if op.fault is None:
                    problems.append(f"{op.name}: wrong output: {err}")
                    continue
            failed += 1
            if op.fault is None:
                problems.append(f"{op.name}: unexpected failure: {err}")
    return {"attempted": attempted, "failed": failed, "correct": not problems,
            "problems": problems}


# -- metrics ------------------------------------------------------------------


def quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump when
    the quantile falls between two clusters of latencies."""
    import numpy as np
    from scipy.stats import beta

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = beta.cdf(np.arange(n + 1) / n, p * (n + 1), (1.0 - p) * (n + 1))
    return float(np.dot(np.diff(cdf), x))


def end_to_end(setup_s: float, latencies: list, rss_mb: float) -> dict:
    ms = [1e3 * t for t in latencies]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": quantile(ms, 0.5),
        "op_p90_ms": quantile(ms, 0.9),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tr, traced: dict, probe: tuple, overhead_pct: float, cli_rss_mb: float) -> dict:
    """Per-layer metrics of one round: counts from the first traced round, times averaged."""
    from tracing import aggregate

    b, c = traced["bounds"], traced["counts"]
    first = aggregate(tr.arrays(b[0], b[1]))
    counted = {k: v - c[0].get(k, 0) for k, v in c[1].items()}
    rounds = len(b) - 1
    every = aggregate(tr.arrays(b[0], b[-1]))
    numerics = aggregate(tr.arrays(*probe))
    out = {}
    for name, _unit in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name.startswith("numerics."):
            src, per = numerics, 1
        else:
            src, per = (every, rounds) if field == "s" else (first, 1)
        if name == "proper.partials.w_per_point":
            pts = first["points"].get("proper.partials", 0)
            w_pts = first["children"].get(("proper.partials", "weights.w"), {"points": 0})
            value = w_pts["points"] / pts if pts else 0.0
        elif name == "links.q.steps_per_point":
            pts = first["points"].get("links.q", 0)
            steps = sum(v["calls"] for (parent, _), v in first["children"].items()
                        if parent == "links.q")
            value = steps / pts if pts else 0.0
        elif name == "numerics.minimize_scalar.iterations":
            value = numerics["points"].get("numerics.minimize_scalar", 0)
        elif name == "cli.import_s":
            value = every["self_s"].get("cli.import", 0.0) / rounds
        elif name == "cli.peak_rss_mb":
            value = cli_rss_mb
        elif name == "trace.overhead_pct":
            value = overhead_pct
        elif field == "s":
            value = src["self_s"].get(span, 0.0) / per
        elif field == "calls":
            value = src["calls"].get(span, 0)
        else:
            # a counter holds the points of a layer that has no span of its own
            value = src["points"].get(span, 0) + counted.get(span, 0)
        out[name] = value
    return out


# -- one workload -------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import NullTracer, Tracer

    WORKDIR.mkdir(parents=True, exist_ok=True)
    inputs = workloads.make_inputs(workload, seed, WORKDIR)
    rnd = workloads.build_round(workload, inputs, NullTracer(), ROOT, WORKDIR)
    if not trace:
        setup = measure_setup(workload, seed, SETUP_REPEATS // 2)
        res = run_rounds(rnd, seconds, min_rounds=2, min_ops=MIN_OPS)
        rss = workloads.peak_rss_mb(workload, rnd)
        setup += measure_setup(workload, seed, SETUP_REPEATS // 2)
        verdict = check_outputs(rnd, res["outputs"])
        metrics = end_to_end(statistics.median(setup), res["latencies"], rss)
        units = dict(END_TO_END)
        rounds = len(res["outputs"])
    else:
        plain = run_rounds(rnd, seconds / 2.0, min_rounds=1)
        tr = Tracer()
        trnd = workloads.build_round(workload, inputs, tr, ROOT, WORKDIR)
        traced = run_rounds(trnd, seconds / 2.0, min_rounds=1, tr=tr)
        probe_start = len(tr)
        workloads.numerics_probe(workload, inputs, tr)
        probe = (probe_start, len(tr))
        overhead = 100.0 * (statistics.mean(traced["round_s"])
                            / statistics.mean(plain["round_s"]) - 1.0)
        cli_rss = workloads.peak_rss_mb(workload, trnd) if workload == "cli-cold" else 0.0
        metrics = per_layer(tr, traced, probe, overhead, cli_rss)
        spans = tr.save(WORKDIR / f"trace-{workload}-seed{seed}.npz")
        a = check_outputs(rnd, plain["outputs"])
        b = check_outputs(trnd, traced["outputs"])
        verdict = {"attempted": a["attempted"] + b["attempted"],
                   "failed": a["failed"] + b["failed"],
                   "correct": a["correct"] and b["correct"],
                   "problems": a["problems"] + b["problems"]}
        units = dict(PER_LAYER)
        rounds = len(plain["outputs"]) + len(traced["outputs"])
        print(f"trace: {spans} spans written to {WORKDIR / f'trace-{workload}-seed{seed}.npz'}")
    for problem in verdict["problems"][:20]:
        print(f"bench: {problem}", file=sys.stderr)
    print(f"{workload} seed={seed} trace={int(trace)}: {rounds} rounds, "
          f"{verdict['attempted']} operations attempted, {verdict['failed']} failed, "
          f"{'correct' if verdict['correct'] else 'INCORRECT'}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    return {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Run every workload in its own process and gather their results."""
    import workloads

    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail(f"workload {workload} exited {proc.returncode}")
        results[workload] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()), "workloads": results}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_import()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return
    os.chdir(ROOT)
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace))))
        return
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
