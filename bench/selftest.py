"""Self-tests of the benchmark's checkers and references.

Each checker must accept the program's real output and reject a deliberately
wrong one: a partial loss off by 1e-6, a flipped convexity verdict, a
non-strict JSON line and a surrogate alpha* off by 2e-4.  The hand-derived
references in :mod:`oracles` are checked against mpmath and scipy.

    python3 bench/selftest.py            # from the root of a checkout
    python3 -m pytest bench/selftest.py  # the same tests under pytest
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _p in (str(HERE), str(HERE.parent / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads as W  # noqa: E402
from tracing import NullTracer, Tracer, aggregate  # noqa: E402

WORKDIR = HERE.parent / ".bench_build" / "selftest"


def _ops(workload: str, seed: int = 7):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    inp = W.make_inputs(workload, seed, WORKDIR)
    rnd = W.build_round(workload, inp, NullTracer(), HERE.parent, WORKDIR)
    return {op.name: op for op in rnd.ops}


def _accepts_then_rejects(op, perturb):
    out = op.run()
    assert op.check(out) == [], f"{op.name} rejected the program's own output"
    bad = copy.deepcopy(out)
    perturb(bad)
    assert op.check(bad), f"{op.name} accepted a wrong output"


def test_partial_loss_off_by_1e6_is_rejected():
    ops = _ops("library")

    def bump(out):
        out["pos"] = out["pos"] * (1.0 + 1e-6)

    for name in ("beta-partials[0.5,0.5]", "beta-partials[0,0]"):
        _accepts_then_rejects(ops[name], bump)
    # the program's tabulated partials are a known fault, so the table
    # checker is shown the exact values instead
    op = ops["table-partials[5]"]
    cs, ws = W._fixed_table(5)
    pts = W.make_inputs("library", 7)["table_pts"]
    exact = np.array([oracles.table_partials(cs, ws, e) for e in pts])
    out = {"pos": exact[:, 0], "neg": exact[:, 1]}
    assert op.check(out) == []
    bump(out)
    assert op.check(out)


def test_flipped_convexity_verdict_is_rejected():
    ops = _ops("library")
    for name in ("cell[boosting,identity]", "cell[log,canonical]", "cell[square,logit]"):
        _accepts_then_rejects(ops[name], lambda out: out.update(char=not out["char"]))
        _accepts_then_rejects(ops[name], lambda out: out.update(oracle=not out["oracle"]))


def test_non_strict_json_is_rejected():
    for line in ('{"schema": "cploss/1", "x": Infinity, "bound": NaN}',
                 '{"x": 0.25, "bound": 0.5}',
                 '{"schema": "cploss/1"}\n{"schema": "cploss/1"}'):
        try:
            W._strict_json(line)
        except ValueError:
            continue
        raise AssertionError(f"accepted {line!r}")
    assert W._strict_json('{"schema": "cploss/1", "x": 0.25}')["x"] == 0.25


def test_surrogate_alpha_off_by_2e4_is_rejected():
    op = _ops("library")["surrogate-experiment"]

    def shift(out):
        a, risk, zo = out["cells"][(2, 1)]
        out["cells"][(2, 1)] = (a + 2e-4, risk, zo)

    _accepts_then_rejects(op, shift)


def test_square_loss_alpha_checked_exactly():
    op = _ops("library")["constrained-bayes[square,eta2]"]
    _accepts_then_rejects(op, lambda out: out.update(alpha=out["alpha"] + 1e-6))


def test_hand_derived_partials_match_mpmath():
    weights = {
        "square": lambda c: 1, "log": lambda c: 1 / (c * (1 - c)),
        "minimal": lambda c: 1 / (2 * (1 - c)) if c < 0.5 else 1 / (2 * c),
        "w1-over-c": lambda c: 1 / c, "w1-over-1mc": lambda c: 1 / (1 - c),
    }
    for name, w in weights.items():
        pos, neg = oracles.PARTIALS[name]
        for e in (0.1, 0.37, 0.5, 0.81):
            em = mp.mpf(e)
            want_pos = mp.quad(lambda c: (1 - c) * w(c), [em, 0.5, 1] if e < 0.5 else [em, 1])
            want_neg = mp.quad(lambda c: c * w(c), [0, 0.5, em] if e > 0.5 else [0, em])
            assert abs(pos(e) - float(want_pos)) <= 1e-12 * max(1.0, abs(pos(e))), (name, e)
            assert abs(neg(e) - float(want_neg)) <= 1e-12 * max(1.0, abs(neg(e))), (name, e)


def test_zero_one_risk_and_table_integrals_match_quadrature():
    from scipy.integrate import quad

    for j, eta in oracles.EXPERIMENT_ETA.items():
        for alpha in (0.3, 0.8, 1.0):
            t = alpha / 2.0
            want = quad(eta, 0, t)[0] + quad(lambda x: 1 - eta(x), t, 1)[0]
            assert abs(oracles.zero_one_risk(j, alpha) - want) < 1e-12
    cs, ws = W._fixed_table(10)
    w = lambda c: float(np.interp(c, cs, ws))  # noqa: E731
    pts = [0.0] + list(cs) + [1.0]
    for e in (0.05, 0.5, 0.93):
        pos, neg = oracles.table_partials(cs, ws, e)
        brk_pos = sorted({e, *[p for p in pts if p > e]})
        brk_neg = sorted({*[p for p in pts if p < e], e})
        want_pos = sum(quad(lambda c: (1 - c) * w(c), a, b)[0]
                       for a, b in zip(brk_pos, brk_pos[1:]))
        want_neg = sum(quad(lambda c: c * w(c), a, b)[0] for a, b in zip(brk_neg, brk_neg[1:]))
        assert abs(pos - want_pos) < 1e-12 and abs(neg - want_neg) < 1e-12


def test_regret_bound_reference_round_trips():
    for a in (0.0, 0.1, 0.27, 0.5):
        x = (a / 2 + 0.25) * math.log(2 * a + 1) - a / 2
        assert abs(oracles.regret_bound(x) - a) < 1e-13


def test_spans_give_self_times_and_counts():
    tr = Tracer()
    w = tr.wrap("weights.w", lambda x: np.ones_like(x))
    expr = tr.wrap("weights.w", lambda x: np.ones_like(x), counter="expressions.eval")
    with tr.span("proper.partials", 4):
        w(np.zeros(3))
        expr(np.zeros(5))
    agg = aggregate(tr.arrays())
    assert agg["calls"] == {"proper.partials": 1, "weights.w": 2}
    assert agg["points"]["weights.w"] == 8
    assert agg["children"] == {("proper.partials", "weights.w"): {"calls": 2, "points": 8}}
    assert tr.counters == {"expressions.eval": 5}
    spans = tr.arrays()
    total = spans["end"][0] - spans["start"][0]
    assert abs(sum(agg["self_s"].values()) - total) < 1e-9


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
