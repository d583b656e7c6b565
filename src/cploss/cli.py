"""Command-line front end.

Loss specifications are JSON documents, inline or in a file:

    {"weight": {"name": "log"} | {"table": [[c, w], ...]} | {"expr": "1/(c*(1-c))"},
     "link": {"name": "logit"}}

Weight names follow the catalog; ``{"name": "canonical"}`` as a link means
the canonical link of the chosen weight.  All JSON reports carry
``"schema": "cploss/1"`` and print floats in Python's shortest round-trip
form (documented in the README).

Exit codes: 0 success, 1 failed certification under ``--strict``, 2 usage
error (a non-finite option included), 3 numeric failure (a non-finite
result included).  :class:`_Command` maps library errors to them in one
place: a ``NumericsError`` exits 3 with ``numeric failure: <message>`` on
stderr, any other ``ValueError`` is a usage error.  ``reconstruct-symmetric``
and ``margin-link`` report a completion or link whose construction the library
rejects as exit 3.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

import click
import numpy as np

from . import analysis, composite, experiments, robustness
from .expressions import ExpressionError, compile_expression, expression_knots
from .links import LINK_CATALOG_INFO, Link, canonical_link, catalog_link
from .numerics import NumericsError
from .proper import bayes_risk, conditional_risk, from_weight, reconstruct_symmetric, regret
from .weights import WEIGHT_CATALOG_INFO, WeightFunction, catalog_weight, tabulated_weight
from .weights import _interpolant, _table

SCHEMA = "cploss/1"


class _FiniteFloat(click.ParamType):
    """A float option that rejects inf and nan as usage errors."""

    name = "float"

    def convert(self, value, param, ctx):
        x = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return x


FINITE = _FiniteFloat()
# A grid of at least 3 points, for the commands that build one.
_GRID_SIZE = click.IntRange(min=3)


def _plain(obj):
    """The ``json.dumps`` hook: numpy scalars and arrays as Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit_json(payload: dict) -> None:
    """Print one strict-JSON report; a non-finite value is a numeric failure (exit 3)."""
    doc = {"schema": SCHEMA, **payload}
    for key, value in doc.items():
        try:
            json.dumps(value, allow_nan=False, default=_plain)
        except ValueError:
            click.echo(f"numeric failure: non-finite value for {key!r}", err=True)
            sys.exit(3)
    click.echo(json.dumps(doc, allow_nan=False, default=_plain))


def _write_csv(path: str, header: list, *columns) -> None:
    """Write ``header``, then one row per index of ``columns``, to ``path``: every field
    at 17 significant digits, enough to read back the same double."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([f"{x:.17g}" for x in row])


def _load_document(spec: str) -> dict:
    text = spec
    if not spec.lstrip().startswith("{") and os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise click.UsageError(f"not valid JSON (or an existing file): {spec!r}: {err}")
    if not isinstance(doc, dict):
        raise click.UsageError("specification document must be a JSON object")
    return doc


def _build_callable(entry: dict, what: str):
    if not isinstance(entry, dict):
        raise click.UsageError(f"{what} entry must be a JSON object")
    if "expr" in entry:
        try:
            return compile_expression(entry["expr"])
        except ExpressionError as err:
            raise click.UsageError(f"bad {what} expression: {err}")
    if "table" in entry:
        try:
            return _interpolant(_table(entry["table"]))
        except ValueError as err:
            raise click.UsageError(f"bad {what} table: {err}")
    raise click.UsageError(f"{what} entry needs 'expr' or 'table'")


def _build_weight(doc: dict) -> WeightFunction:
    entry = doc.get("weight")
    if not isinstance(entry, dict):
        raise click.UsageError("loss spec needs a 'weight' object")
    if "name" in entry:
        name, params = entry["name"], entry.get("params")
        if not isinstance(name, str):
            raise click.UsageError("weight 'name' must be a string")
        if params is not None and not isinstance(params, dict):
            raise click.UsageError("weight 'params' must be a JSON object")
        return catalog_weight(name, params)
    if "table" in entry:
        return tabulated_weight(entry["table"])
    if "expr" in entry:
        return WeightFunction(w=_build_callable(entry, "weight"), name=f"expr({entry['expr']})",
                              knots=expression_knots(entry["expr"]))
    raise click.UsageError("weight entry needs 'name', 'table' or 'expr'")


def _build_link(doc: dict, weight: WeightFunction, override: str | None = None) -> Link | None:
    name = override
    if name is None:
        entry = doc.get("link")
        if entry is None:
            return None
        if not isinstance(entry, dict) or "name" not in entry:
            raise click.UsageError("link entry needs a 'name'")
        name = entry["name"]
        if not isinstance(name, str):
            raise click.UsageError("link 'name' must be a string")
    return canonical_link(weight) if name == "canonical" else catalog_link(name)


def _parse_loss(spec: str, link_override: str | None = None):
    doc = _load_document(spec)
    weight = _build_weight(doc)
    link = _build_link(doc, weight, link_override)
    try:
        loss = from_weight(weight)
    except ValueError as err:
        raise click.UsageError(f"cannot build loss: {err}")
    return loss, link


class _Command(click.Command):
    """A subcommand whose library errors end in the documented exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except NumericsError as err:
            click.echo(f"numeric failure: {err}", err=True)
            sys.exit(3)
        except ValueError as err:
            raise click.UsageError(str(err), ctx) from err


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main() -> None:
    """Construct, evaluate and certify composite binary losses."""


@main.command()
def catalog() -> None:
    """List the built-in weight functions and links with their formulas."""
    _emit_json({
        "weights": WEIGHT_CATALOG_INFO,
        "links": LINK_CATALOG_INFO,
    })


@main.command("eval")
@click.option("--loss", "spec", required=True, help="loss spec (inline JSON or file)")
@click.option("--y", "label", type=click.Choice(["+1", "-1", "1"]), required=True)
@click.option("--etahat", type=FINITE, default=None, help="probability-scale prediction")
@click.option("--link", "link_name", default=None, help="override the spec's link")
@click.option("--v", "score", type=FINITE, default=None, help="score-scale prediction")
def eval_cmd(spec: str, label: str, etahat: float | None,
             link_name: str | None, score: float | None) -> None:
    """Evaluate a partial loss at a probability or a score."""
    y = 1 if label in ("+1", "1") else -1
    loss, link = _parse_loss(spec, link_name)
    if score is not None:
        if link is None:
            raise click.UsageError("--v needs a link (in the spec or via --link)")
        cl = composite.make_composite(loss, link)
        if not link.contains(score):
            raise click.UsageError(f"--v {score} outside link range {link.range}")
        value = float(cl.ell(y, score))
        _emit_json({"y": y, "v": score, "value": value})
        return
    if etahat is None:
        raise click.UsageError("provide --etahat (or --v with a link)")
    if not 0.0 <= etahat <= 1.0:
        raise click.UsageError("--etahat must lie in [0,1]")
    _emit_json({"y": y, "etahat": etahat, "value": float(loss.ell(y, etahat))})


@main.command()
@click.option("--loss", "spec", required=True)
@click.option("--eta", type=FINITE, required=True)
@click.option("--etahat", type=FINITE, default=None)
@click.option("--bayes", "want_bayes", is_flag=True, help="conditional Bayes risk at eta")
@click.option("--regret", "want_regret", is_flag=True, help="regret instead of risk")
def risk(spec: str, eta: float, etahat: float | None,
         want_bayes: bool, want_regret: bool) -> None:
    """Conditional risk, Bayes risk, or regret of a loss."""
    loss, _ = _parse_loss(spec)
    if want_bayes:
        _emit_json({"eta": eta, "bayes_risk": bayes_risk(loss, eta)})
        return
    if etahat is None:
        raise click.UsageError("provide --etahat (or use --bayes)")
    if want_regret:
        _emit_json({"eta": eta, "etahat": etahat, "regret": regret(loss, eta, etahat)})
    else:
        _emit_json({"eta": eta, "etahat": etahat, "risk": conditional_risk(loss, eta, etahat)})


@main.command("check-proper")
@click.option("--partials", "partials_file", required=True,
              help="JSON with 'ell_pos' and 'ell_neg' entries (expr or table)")
@click.option("--grid-size", type=_GRID_SIZE, default=99, show_default=True)
@click.option("--strict", is_flag=True, help="exit 1 when the pair is not proper")
def check_proper_cmd(partials_file: str, grid_size: int, strict: bool) -> None:
    """Test a pair of partial losses for properness (slope-ratio condition)."""
    doc = _load_document(partials_file)
    if "ell_pos" not in doc or "ell_neg" not in doc:
        raise click.UsageError("partials document needs 'ell_pos' and 'ell_neg'")
    ell_pos = _build_callable(doc["ell_pos"], "ell_pos")
    ell_neg = _build_callable(doc["ell_neg"], "ell_neg")
    grid = np.linspace(0.05, 0.95, grid_size)
    proper, weight, resid = analysis.check_proper(ell_pos, ell_neg, grid)
    xs = np.linspace(0.1, 0.9, 9)
    _emit_json({
        "proper": proper,
        "max_residual": resid,
        "weight_estimate": [[float(x), float(weight.w(x))] for x in xs],
    })
    if strict and not proper:
        sys.exit(1)


@main.command("check-convexity")
@click.option("--loss", "spec", required=True)
@click.option("--oracle", "use_oracle", is_flag=True,
              help="brute-force second differences instead of the slope condition")
@click.option("--grid-size", type=_GRID_SIZE, default=999, show_default=True)
@click.option("--tol", type=FINITE, default=None, help="certification tolerance")
@click.option("--strict", is_flag=True, help="exit 1 when not convex")
def check_convexity(spec: str, use_oracle: bool, grid_size: int,
                    tol: float | None, strict: bool) -> None:
    """Certify convexity of a composite loss on a grid."""
    if tol is not None and tol <= 0:
        raise click.UsageError("tolerance must be positive")
    loss, link = _parse_loss(spec)
    link = link or catalog_link("identity")
    grid = analysis.certification_grid(grid_size)
    if use_oracle:
        cl = composite.make_composite(loss, link)
        report = analysis.convexity_oracle(cl, link.psi(grid), **({"tol": tol} if tol else {}))
    else:
        report = analysis.convexity_characterization(loss.weight, link, grid,
                                                     **({"tol": tol} if tol else {}))
    payload = report.to_json_dict()
    payload["weight"] = loss.weight.name
    payload["link"] = link.name
    _emit_json(payload)
    if strict and not report.convex:
        sys.exit(1)


@main.command()
@click.option("--link", "link_name", required=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--grid-size", type=_GRID_SIZE, default=999, show_default=True)
def region(link_name: str, out_path: str, grid_size: int) -> None:
    """Export the convexity-compatible weight envelopes as x,lower,upper CSV."""
    link = catalog_link(link_name)
    curve = analysis.allowable_region(link, analysis.certification_grid(grid_size))
    _write_csv(out_path, ["x", "lower", "upper"], curve.xs, curve.lower, curve.upper)
    _emit_json({"link": link_name, "rows": len(curve.xs), "out": out_path})


@main.command("check-calibration")
@click.option("--loss", "spec", required=True)
@click.option("--c", "threshold", type=FINITE, required=True)
@click.option("--strict", is_flag=True, help="exit 1 when not calibrated")
def check_calibration(spec: str, threshold: float, strict: bool) -> None:
    """Classification calibration of a loss at a cost threshold."""
    if not 0.0 < threshold < 1.0:
        raise click.UsageError("--c must lie in (0,1)")
    loss, _ = _parse_loss(spec)
    verdict = analysis.calibration_cc(loss, threshold)
    _emit_json({"c": threshold,
                "calibrated": "indeterminate" if verdict is None else verdict})
    if strict and verdict is not True:
        sys.exit(1)


@main.command("reconstruct-symmetric")
@click.option("--half", "half_file", required=True,
              help="JSON with an 'expr' or 'table' for the specified half")
@click.option("--side", type=click.Choice(["lower", "upper"]), required=True)
@click.option("--grid-size", type=_GRID_SIZE, default=99, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="write the completed partial as x,ell_neg CSV")
def reconstruct_symmetric_cmd(half_file: str, side: str, grid_size: int,
                              out_path: str | None) -> None:
    """Complete a symmetric loss from half of its negative partial."""
    doc = _load_document(half_file)
    half = _build_callable(doc, "half partial")
    try:
        loss = reconstruct_symmetric(half, side)
    except ValueError as err:
        click.echo(f"reconstruction failed: {err}", err=True)
        sys.exit(3)
    xs = np.linspace(0.01, 0.99, grid_size)
    ys = loss.ell_neg(xs)
    if out_path is not None:
        _write_csv(out_path, ["x", "ell_neg"], xs, ys)
    _emit_json({
        "side": side,
        "fair": loss.fair,
        "strictly_proper": loss.strictly_proper,
        "ell_neg": [[float(x), float(y)] for x, y in zip(xs, ys)],
        "out": out_path,
    })


def _parse_margin(name_spec: str) -> composite.MarginLoss:
    name, _, params = name_spec.partition(":")
    if name == "exponential":
        return composite.exponential_margin()
    if name == "logistic":
        return composite.logistic_margin()
    if name == "zhang":
        try:
            alpha = float(params) if params else 1.0
            return composite.zhang_margin(alpha)
        except ValueError as err:
            raise click.UsageError(f"bad zhang parameter {params!r}: {err}")
    raise click.UsageError(f"unknown margin loss {name!r} "
                           "(expected exponential, logistic, or zhang[:alpha])")


@main.command("margin-link")
@click.option("--phi", "phi_spec", required=True, help="exponential | logistic | zhang:ALPHA")
@click.option("--grid-size", type=_GRID_SIZE, default=99, show_default=True)
@click.option("--v-max", type=FINITE, default=8.0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def margin_link(phi_spec: str, grid_size: int, v_max: float, out_path: str | None) -> None:
    """The unique link turning a margin loss into a proper composite (v,q CSV)."""
    m = _parse_margin(phi_spec)
    try:
        link = composite.margin_to_link(m)
    except ValueError as err:
        click.echo(f"no admissible link: {err}", err=True)
        sys.exit(3)
    vs = np.linspace(-v_max, v_max, grid_size)
    qs = link.q(vs)
    if out_path is not None:
        _write_csv(out_path, ["v", "q"], vs, qs)
    _emit_json({"phi": phi_spec,
                "table": [[float(v), float(q)] for v, q in zip(vs, qs)],
                "out": out_path})


@main.command("robustness")
@click.option("--c0", type=FINITE, default=None, help="cost-loss threshold")
@click.option("--weight", "weight_spec", default=None, help="weight spec (JSON)")
@click.option("--alpha", type=FINITE, required=True, help="label-flip rate in [0, 1/2)")
def robustness_cmd(c0: float | None, weight_spec: str | None, alpha: float) -> None:
    """Label-noise non-robustness: a cost-loss interval or a weight's union."""
    if (c0 is None) == (weight_spec is None):
        raise click.UsageError("provide exactly one of --c0 or --weight")
    if c0 is not None:
        _emit_json(robustness.cost_robust_interval(c0, alpha).to_json_dict())
    else:
        doc = _load_document(weight_spec)
        wf = _build_weight(doc if "weight" in doc else {"weight": doc})
        _emit_json(robustness.nonrobust_region_report(wf, alpha))


@main.command("surrogate-experiment")
def surrogate_experiment_cmd() -> None:
    """Run the two-surrogate/two-experiment study and report deviations."""
    _emit_json(experiments.run_surrogate_experiment())


@main.command("regret-bound")
@click.option("--x", "x_value", type=FINITE, default=None, help="minimal-loss regret")
@click.option("--curve", is_flag=True, help="emit the whole bound curve as CSV")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--grid-size", type=_GRID_SIZE, default=999, show_default=True)
def regret_bound(x_value: float | None, curve: bool, out_path: str | None,
                 grid_size: int) -> None:
    """Threshold-1/2 regret bound implied by a minimal-loss regret."""
    if curve:
        if out_path is None:
            raise click.UsageError("--curve needs --out FILE.csv")
        xs = np.linspace(0.0, 1.0, grid_size)
        _write_csv(out_path, ["x", "bound"], xs,
                   [experiments.regret_bound_invert(float(x)) for x in xs])
        _emit_json({"rows": grid_size, "out": out_path})
        return
    if x_value is None:
        raise click.UsageError("provide --x or --curve")
    if x_value < 0:
        raise click.UsageError("--x must be nonnegative")
    _emit_json({"x": x_value, "bound": experiments.regret_bound_invert(x_value)})


if __name__ == "__main__":
    main()
