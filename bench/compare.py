"""Run two sets of benchmark runs and compare them against BENCHMARK.json's bounds.

    python3 bench/compare.py                    # 2 sets x 10 seeds, every workload
    python3 bench/compare.py --sets 1           # one set: spreads only

Each run lasts BENCHMARK.json's ``run_seconds``.  Set *i* uses seeds
``base + 10*i .. base + 10*i + 9``, so no seed repeats.  For every workload
and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the quartile
distance as a share of the median.  It fails when

* a spread exceeds the metric's bound; ``setup_s`` is exempt, since its
  spread follows interpreter start-up on the host and it is gated through
  its median instead,
* the two sets' medians differ by more than the bound, in either direction,
  for any metric, ``setup_s`` included,
* the share of failed operations differs between runs, or a run is not correct.

Spreads above a third of the bound are flagged as unsteady.  Every run's
result line is kept under ``.bench_build/compare/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "compare"
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300, check=False)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    (OUT / f"{workload}-seed{seed}.json").write_text(json.dumps(result))
    return result


def summarise(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--base-seed", type=int, default=101)
    args = parser.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)

    ok = True
    for workload in names:
        sets = []
        for i in range(args.sets):
            seeds = range(args.base_seed + i * RUNS, args.base_seed + (i + 1) * RUNS)
            sets.append([run_once(workload, s, bench["run_seconds"]) for s in seeds])
        runs = [r for s in sets for r in s]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{', '.join(str(s) for s in sorted(shares))}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        if len(shares) != 1:
            ok = False
            print("  FAIL: the share of failed operations differs between runs")
        if not all(r["correct"] for r in runs):
            ok = False
            print("  FAIL: a run reported incorrect outputs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarise([r["metrics"][name]["value"] for r in s]) for s in sets]
            cells = "  ".join(f"median {m:.5g} [{q1:.5g}, {q3:.5g}] spread {sp:.3f}"
                              for m, q1, q3, sp in stats)
            notes = []
            for m, _q1, _q3, sp in stats:
                if name != "setup_s" and sp > bound:
                    notes.append("FAIL spread > bound")
                elif sp > bound / 3.0:
                    notes.append("unsteady: spread > bound/3")
            if len(stats) == 2:
                first, second = stats[0][0], stats[1][0]
                change = (second - first) / first
                notes.append(f"2nd vs 1st {100 * change:+.1f}%")
                if abs(change) > bound:
                    notes.append("FAIL medians differ by more than the bound")
            ok = ok and not any(n.startswith("FAIL") for n in notes)
            print(f"  {name:12s} {metric['unit']:4s} bound {bound:<5g} {cells}  {'; '.join(notes)}")
    print("\nPASS" if ok else "\nFAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
