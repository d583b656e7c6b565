"""CLI surface: every subcommand, output schemas, determinism, exit codes."""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import cploss
from cploss.cli import main
from cploss.numerics import NumericsError


@pytest.fixture()
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["schema"] == "cploss/1"
    return doc


class TestCatalog:
    def test_lists_weights_and_links(self, runner):
        doc = run_json(runner, ["catalog"])
        assert "log" in doc["weights"]
        assert "logit" in doc["links"]

    def test_deterministic(self, runner):
        a = runner.invoke(main, ["catalog"]).output
        b = runner.invoke(main, ["catalog"]).output
        assert a == b


class TestEval:
    def test_probability_scale(self, runner):
        doc = run_json(runner, ["eval", "--loss", '{"weight":{"name":"log"}}',
                                "--y", "-1", "--etahat", "0.4"])
        assert doc["value"] == pytest.approx(-np.log(0.6))

    def test_score_scale(self, runner):
        doc = run_json(runner, ["eval", "--loss",
                                '{"weight":{"name":"log"},"link":{"name":"logit"}}',
                                "--y", "1", "--v", "0.0"])
        assert doc["value"] == pytest.approx(np.log(2))

    def test_expression_weight(self, runner):
        doc = run_json(runner, ["eval", "--loss",
                                '{"weight":{"expr":"1/((1-c)*c)"}}',
                                "--y", "-1", "--etahat", "0.4"])
        assert doc["value"] == pytest.approx(-np.log(0.6), abs=1e-8)

    def test_expression_weight_with_strong_end_singularities(self, runner):
        # ell_pos(0.3) is the integral of (1-c)^-0.7 c^-1.7 over [0.3, 1];
        # the reference value is mpmath's
        doc = run_json(runner, ["eval", "--loss",
                                '{"weight":{"expr":"c^-1.7*(1-c)^-1.7"}}',
                                "--y", "1", "--etahat", "0.3"])
        assert doc["value"] == pytest.approx(5.0125028539619117, rel=1e-9)

    def test_expression_weight_with_the_strongest_definite_ends(self, runner):
        # ell_pos(0.3) = 0.7^0.1/0.1 * 2F1(1.9, 0.1; 1.1; 0.7) for c^-1.9 (1-c)^-1.9
        doc = run_json(runner, ["eval", "--loss",
                                '{"weight":{"expr":"c^-1.9*(1-c)^-1.9"}}',
                                "--y", "1", "--etahat", "0.3"])
        want = 0.7 ** 0.1 / 0.1 * scipy.special.hyp2f1(1.9, 0.1, 1.1, 0.7)
        assert doc["value"] == pytest.approx(want, rel=1e-9)

    def test_non_definite_expression_weight_is_numeric_failure(self, runner):
        # the integral of c * c^-2 from 0 diverges
        result = runner.invoke(main, ["eval", "--loss", '{"weight":{"expr":"c^-2"}}',
                                      "--y", "1", "--etahat", "0.3"])
        assert result.exit_code == 3, result.output

    def test_spec_file(self, runner, tmp_path):
        path = tmp_path / "loss.json"
        path.write_text('{"weight":{"name":"square"}}')
        doc = run_json(runner, ["eval", "--loss", str(path), "--y", "1", "--etahat", "0.4"])
        assert doc["value"] == pytest.approx(0.18)

    def test_missing_prediction_is_usage_error(self, runner):
        result = runner.invoke(main, ["eval", "--loss", '{"weight":{"name":"square"}}',
                                      "--y", "1"])
        assert result.exit_code == 2

    def test_score_outside_link_range_is_usage_error(self, runner):
        result = runner.invoke(main, ["eval", "--loss",
                                      '{"weight":{"name":"square"},"link":{"name":"identity"}}',
                                      "--y", "1", "--v", "1.5"])
        assert result.exit_code == 2

    def test_bad_spec_is_usage_error(self, runner):
        result = runner.invoke(main, ["eval", "--loss", "{not json", "--y", "1",
                                      "--etahat", "0.5"])
        assert result.exit_code == 2


class TestRisk:
    def test_conditional(self, runner):
        doc = run_json(runner, ["risk", "--loss", '{"weight":{"name":"square"}}',
                                "--eta", "0.3", "--etahat", "0.3"])
        assert doc["risk"] == pytest.approx(0.105)

    def test_bayes(self, runner):
        doc = run_json(runner, ["risk", "--loss", '{"weight":{"name":"square"}}',
                                "--eta", "0.3", "--bayes"])
        assert doc["bayes_risk"] == pytest.approx(0.105)

    def test_regret(self, runner):
        doc = run_json(runner, ["risk", "--loss", '{"weight":{"name":"square"}}',
                                "--eta", "0.2", "--etahat", "0.7", "--regret"])
        assert doc["regret"] == pytest.approx(0.125)

    @pytest.mark.parametrize("args", [["--eta", "0", "--etahat", "0"],
                                      ["--eta", "1", "--etahat", "1"],
                                      ["--eta", "0", "--bayes"]],
                             ids=["0,0", "1,1", "bayes"])
    def test_a_perfect_prediction_costs_nothing_for_an_expression_weight(self, runner, args):
        # the quadrature partials diverge at the end whose term has no weight
        docs = [run_json(runner, ["risk", "--loss", json.dumps({"weight": weight})] + args)
                for weight in ({"expr": "1/(c*(1-c))"}, {"name": "log"})]
        assert docs[0] == docs[1]
        assert docs[0].get("risk", docs[0].get("bayes_risk")) == 0.0

    def test_out_of_range_is_usage_error(self, runner):
        result = runner.invoke(main, ["risk", "--loss", '{"weight":{"name":"square"}}',
                                      "--eta", "1.5", "--etahat", "0.3"])
        assert result.exit_code == 2


class TestCheckProper:
    def test_proper_pair(self, runner, tmp_path):
        path = tmp_path / "partials.json"
        path.write_text(json.dumps({
            "ell_pos": {"expr": "(1-c)^2/2"},
            "ell_neg": {"expr": "c^2/2"},
        }))
        doc = run_json(runner, ["check-proper", "--partials", str(path)])
        assert doc["proper"] is True
        assert doc["max_residual"] <= 1e-6

    def test_improper_pair_strict_exit(self, runner, tmp_path):
        path = tmp_path / "partials.json"
        path.write_text(json.dumps({
            "ell_pos": {"expr": "(1-c)^2"},
            "ell_neg": {"expr": "c"},
        }))
        result = runner.invoke(main, ["check-proper", "--partials", str(path), "--strict"])
        assert result.exit_code == 1
        assert json.loads(result.output)["proper"] is False

    @pytest.mark.parametrize("entry", [{"table": [1, 2]}, {"table": [[0.5, 1.0]]},
                                       {"table": [[0, 1, 2], [1, 2, 3]]}, {"table": [[0, 1], [1]]},
                                       {"table": "abc"}, {"table": None}, 3])
    def test_malformed_entry_is_a_usage_error(self, runner, entry):
        # a table must be at least two (c, value) rows; exit 1 is reserved for --strict
        spec = json.dumps({"ell_pos": entry, "ell_neg": {"expr": "c"}})
        result = runner.invoke(main, ["check-proper", "--partials", spec])
        assert result.exit_code == 2, result.output
        assert "ell_pos" in result.output

    def test_partials_not_finite_on_the_grid_are_a_usage_error(self, runner):
        # sqrt(0.6-c) is NaN past 0.6; exit 1 is reserved for --strict
        spec = json.dumps({"ell_pos": {"expr": "sqrt(0.6-c)"}, "ell_neg": {"expr": "-log(1-c)"}})
        result = runner.invoke(main, ["check-proper", "--partials", spec])
        assert result.exit_code == 2, result.output
        first_bad = float(np.linspace(0.05, 0.95, 99)[60])
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: ell_pos has no finite slope at grid point x={first_bad!r}"]

    @pytest.mark.parametrize("table", [[[math.nan, 1.0], [0.8, 1.0]], [[0.2, 1.0], [math.inf, 1.0]]])
    def test_non_finite_tables_are_a_usage_error(self, runner, table):
        partials = json.dumps({"ell_pos": {"table": table}, "ell_neg": {"expr": "c"}})
        loss = json.dumps({"weight": {"table": table}})
        for args in (["check-proper", "--partials", partials],
                     ["eval", "--loss", loss, "--y", "1", "--etahat", "0.3"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output
            assert "table entries must be finite" in result.output

    def test_two_row_tables_are_accepted(self, runner):
        # linear partials: both slope ratios are positive but never agree
        spec = json.dumps({"ell_pos": {"table": [[0, 0.5], [1, 0]]},
                           "ell_neg": {"table": [[0, 0], [1, 0.5]]}})
        doc = run_json(runner, ["check-proper", "--partials", spec])
        assert doc["proper"] is False


class TestCheckConvexity:
    def test_boosting_identity_nonconvex(self, runner):
        doc = run_json(runner, ["check-convexity", "--loss",
                                '{"weight":{"name":"boosting"},"link":{"name":"identity"}}'])
        assert doc["convex"] is False
        xs = [v["x"] for v in doc["violations"]]
        assert all(x < 0.25 + 2e-3 or x > 0.75 - 2e-3 for x in xs)

    def test_table_with_its_canonical_link_is_convex(self, runner):
        table = [[c, 1.0 + (7 * k % 5) / 4] for k, c in enumerate(np.linspace(0.02, 0.98, 10))]
        doc = run_json(runner, ["check-convexity", "--loss",
                                json.dumps({"weight": {"table": table}, "link": {"name": "canonical"}})])
        assert doc["convex"] is True

    def test_strict_exit_code(self, runner):
        result = runner.invoke(main, ["check-convexity", "--loss",
                                      '{"weight":{"name":"boosting"},"link":{"name":"identity"}}',
                                      "--strict"])
        assert result.exit_code == 1

    def test_oracle_agrees(self, runner):
        spec = '{"weight":{"name":"boosting"},"link":{"name":"identity"}}'
        char = run_json(runner, ["check-convexity", "--loss", spec, "--grid-size", "199"])
        oracle = run_json(runner, ["check-convexity", "--loss", spec, "--oracle",
                                   "--grid-size", "199"])
        assert char["convex"] == oracle["convex"] is False

    def test_canonical_link_spec(self, runner):
        doc = run_json(runner, ["check-convexity", "--loss",
                                '{"weight":{"name":"boosting"},"link":{"name":"canonical"}}',
                                "--grid-size", "99"])
        assert doc["convex"] is True

    def test_unbounded_expression_with_its_canonical_link_is_convex(self, runner):
        # rho = w / psi' is one, so rho'/rho is 0 even at the 1e-4 probes
        doc = run_json(runner, ["check-convexity", "--loss",
                                '{"weight":{"expr":"c^-1.9*(1-c)^-1.9"},"link":{"name":"canonical"}}'])
        assert doc["convex"] is True
        assert doc["violations"] == []

    def test_atom_weight_is_usage_error(self, runner):
        result = runner.invoke(main, ["check-convexity", "--loss",
                                      '{"weight":{"name":"zero-one"}}'])
        assert result.exit_code == 2

    @pytest.mark.parametrize("method", [[], ["--oracle"]], ids=["characterization", "oracle"])
    @pytest.mark.parametrize("expr", ["1/c", "1/(1-c)", "0.5*min(1/c,1/(1-c))", "1"])
    def test_expression_weight_on_a_bound_is_convex(self, runner, expr, method):
        # with the identity link x rho or (1-x) rho of these weights is constant
        spec = json.dumps({"weight": {"expr": expr}, "link": {"name": "identity"}})
        result = runner.invoke(main, ["check-convexity", "--loss", spec, "--strict", *method])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["convex"] is True and doc["violations"] == []


class TestRegion:
    def test_csv_round_trip(self, runner, tmp_path):
        out = tmp_path / "region.csv"
        doc = run_json(runner, ["region", "--link", "logit", "--out", str(out),
                                "--grid-size", "99"])
        assert doc["rows"] >= 99
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "lower", "upper"]
        body = np.array([[float(v) for v in row] for row in rows[1:]])
        assert len(body) == doc["rows"]
        x = body[:, 0]
        assert np.allclose(body[:, 1], 1 / (8 * x ** 2 * (1 - x)), rtol=1e-12)

    def test_unknown_link_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["region", "--link", "probit", "--out",
                                      str(tmp_path / "r.csv")])
        assert result.exit_code == 2


class TestCheckCalibration:
    def test_cost_loss(self, runner):
        doc = run_json(runner, ["check-calibration", "--loss",
                                '{"weight":{"name":"cost","params":{"c0":0.3}}}',
                                "--c", "0.3"])
        assert doc["calibrated"] is True
        doc = run_json(runner, ["check-calibration", "--loss",
                                '{"weight":{"name":"cost","params":{"c0":0.3}}}',
                                "--c", "0.5"])
        assert doc["calibrated"] is False

    def test_strict_exit(self, runner):
        result = runner.invoke(main, ["check-calibration", "--loss",
                                      '{"weight":{"name":"cost","params":{"c0":0.3}}}',
                                      "--c", "0.5", "--strict"])
        assert result.exit_code == 1


class TestReconstructSymmetric:
    def test_first_example_csv(self, runner, tmp_path):
        half = tmp_path / "half.json"
        half.write_text('{"expr": "1/(1-c)"}')
        out = tmp_path / "rec.csv"
        doc = run_json(runner, ["reconstruct-symmetric", "--half", str(half),
                                "--side", "lower", "--grid-size", "49",
                                "--out", str(out)])
        table = {x: y for x, y in doc["ell_neg"]}
        for x, y in table.items():
            if x > 0.52:
                assert y == pytest.approx(2 + np.log(x / (1 - x)), abs=1e-5)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "ell_neg"]
        assert len(rows) == 50

    def test_improper_half_is_numeric_failure(self, runner, tmp_path):
        half = tmp_path / "half.json"
        half.write_text('{"expr": "0-c"}')
        result = runner.invoke(main, ["reconstruct-symmetric", "--half", str(half),
                                      "--side", "lower"])
        assert result.exit_code == 3

    def test_overflowing_completion_is_numeric_failure(self, runner):
        # the completion integrand is finite but its panel sums overflow
        result = runner.invoke(main, ["reconstruct-symmetric", "--half", '{"expr": "1e307*c"}',
                                      "--side", "lower"])
        assert result.exit_code == 3
        assert "overflowed" in result.output


class TestMarginLink:
    def test_exponential(self, runner):
        doc = run_json(runner, ["margin-link", "--phi", "exponential", "--grid-size", "21"])
        for v, q in doc["table"]:
            assert q == pytest.approx(1 / (1 + np.exp(-2 * v)), abs=1e-9)

    def test_zhang_with_parameter_csv(self, runner, tmp_path):
        out = tmp_path / "link.csv"
        run_json(runner, ["margin-link", "--phi", "zhang:2.0", "--grid-size", "11",
                          "--out", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["v", "q"]
        assert len(rows) == 12

    def test_unknown_margin_is_usage_error(self, runner):
        assert runner.invoke(main, ["margin-link", "--phi", "hinge"]).exit_code == 2


class TestRobustnessCommand:
    def test_cost_interval(self, runner):
        doc = run_json(runner, ["robustness", "--c0", "0.25", "--alpha", "0.1"])
        assert doc["interval"][0] == pytest.approx(0.1875)
        assert doc["interval"][1] == pytest.approx(0.25)

    def test_weight_union(self, runner):
        doc = run_json(runner, ["robustness", "--weight", '{"name":"square"}',
                                "--alpha", "0.1"])
        assert doc["nonrobust_union"] == [[0.0, 1.0]]

    def test_exactly_one_mode(self, runner):
        assert runner.invoke(main, ["robustness", "--alpha", "0.1"]).exit_code == 2
        assert runner.invoke(main, ["robustness", "--c0", "0.2", "--weight",
                                    '{"name":"square"}', "--alpha", "0.1"]).exit_code == 2

    def test_alpha_validation(self, runner):
        assert runner.invoke(main, ["robustness", "--c0", "0.2", "--alpha", "0.7"]).exit_code == 2


class TestRegretBound:
    def test_point_value(self, runner):
        doc = run_json(runner, ["regret-bound", "--x", "0"])
        assert doc["bound"] == 0.0

    def test_curve_csv(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        run_json(runner, ["regret-bound", "--curve", "--out", str(out),
                          "--grid-size", "101"])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "bound"]
        body = np.array([[float(v) for v in row] for row in rows[1:]])
        assert len(body) == 101
        assert body[0, 1] == 0.0
        assert np.all(np.diff(body[:, 1]) >= -1e-15)

    def test_negative_x_is_usage_error(self, runner):
        assert runner.invoke(main, ["regret-bound", "--x", "-1"]).exit_code == 2


class TestSurrogateExperimentCommand:
    def test_report(self, runner):
        doc = run_json(runner, ["surrogate-experiment"])
        assert doc["incommensurable"]["strict_reversal"] is True
        assert {(c["surrogate"], c["experiment"]) for c in doc["cells"]} == {
            (1, 1), (1, 2), (2, 1), (2, 2)}

    def test_deterministic_cells(self, runner):
        a = json.loads(runner.invoke(main, ["surrogate-experiment"]).output)
        b = json.loads(runner.invoke(main, ["surrogate-experiment"]).output)
        a.pop("runtime_seconds")
        b.pop("runtime_seconds")
        assert a == b


LOG = '{"weight":{"name":"log"}}'
LOG_LOGIT = '{"weight":{"name":"log"},"link":{"name":"logit"}}'
SQUARE = '{"weight":{"name":"square"}}'
FLOAT_OPTIONS = {
    "--etahat": ["eval", "--loss", LOG, "--y", "1", "--etahat"],
    "--v": ["eval", "--loss", LOG_LOGIT, "--y", "1", "--v"],
    "--eta": ["risk", "--loss", SQUARE, "--bayes", "--eta"],
    "--etahat (risk)": ["risk", "--loss", SQUARE, "--eta", "0.3", "--etahat"],
    "--tol": ["check-convexity", "--loss", LOG_LOGIT, "--tol"],
    "--c": ["check-calibration", "--loss", LOG, "--c"],
    "--v-max": ["margin-link", "--phi", "logistic", "--v-max"],
    "--c0": ["robustness", "--alpha", "0.1", "--c0"],
    "--alpha": ["robustness", "--c0", "0.3", "--alpha"],
    "--x": ["regret-bound", "--x"],
}


@pytest.mark.parametrize("expr", ["True+c", "c*False"])
def test_bool_literal_in_an_expression_is_a_usage_error(runner, expr):
    result = runner.invoke(main, ["eval", "--loss", json.dumps({"weight": {"expr": expr}}),
                                  "--y", "1", "--etahat", "0.3"])
    assert result.exit_code == 2, result.output
    assert "is not numeric" in result.output


def test_non_string_expression_is_a_usage_error(runner):
    result = runner.invoke(main, ["eval", "--loss", '{"weight":{"expr":3}}',
                                  "--y", "1", "--etahat", "0.3"])
    assert result.exit_code == 2, result.output
    assert "must be a string" in result.output


@pytest.mark.parametrize("spec, field", [
    ('{"weight":{"name":["log"]}}', "weight 'name'"),
    ('{"weight":{"name":"cost","params":5}}', "weight 'params'"),
    ('{"weight":{"name":"cost","params":{"c0":[1]}}}', "c0"),
    ('{"weight":{"name":"log"},"link":{"name":["logit"]}}', "link 'name'"),
])
def test_malformed_spec_fields_are_usage_errors(runner, spec, field):
    result = runner.invoke(main, ["eval", "--loss", spec, "--y", "1", "--etahat", "0.3"])
    assert result.exit_code == 2, result.output
    assert field in result.output


# JSON values that reach every branch of a weight or link entry: the keys and
# names it reads, among arbitrary ones
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
                | st.sampled_from(["log", "cost", "custom-tabulated", "logit", "canonical"]))
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["name", "params", "c0", "table", "expr"]) | st.text(max_size=6),
        inner, max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(weight=_JSON_VALUES, link=_JSON_VALUES)
def test_arbitrary_weight_and_link_entries_end_in_a_documented_exit(weight, link):
    spec = json.dumps({"weight": weight, "link": link})
    result = CliRunner().invoke(main, ["eval", "--loss", spec, "--y", "1", "--etahat", "0.3"])
    assert result.exit_code in (0, 2, 3), (spec, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), spec


def test_weight_near_the_float_maximum_is_rejected_without_a_warning():
    # its interior mass overflows to inf; the probe that finds this must not
    # print numpy's overflow RuntimeWarning above the usage error
    src = str(Path(cploss.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "cploss", "eval", "--loss", '{"weight":{"expr":"1e308"}}',
                           "--y", "1", "--etahat", "0.3"],
                          capture_output=True, text=True, env=env, timeout=120, check=False)
    assert proc.returncode == 2, proc.stderr
    assert "has non-integrable interior mass" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("option", sorted(FLOAT_OPTIONS))
    def test_non_finite_option_is_usage_error(self, runner, option, value):
        result = runner.invoke(main, FLOAT_OPTIONS[option] + [value])
        assert result.exit_code == 2, result.output
        assert "not a finite number" in result.output

    def test_non_finite_result_is_numeric_failure(self, runner):
        # the log loss of predicting 0 for a positive label is infinite
        result = runner.invoke(main, ["eval", "--loss", LOG, "--y", "1", "--etahat", "0"])
        assert result.exit_code == 3
        assert "non-finite value for 'value'" in result.output
        assert "schema" not in result.output

    def test_finite_results_are_strict_json(self, runner):
        doc = run_json(runner, ["regret-bound", "--x", "1e300"])
        assert doc["x"] == 1e300
        text = runner.invoke(main, ["eval", "--loss", LOG, "--y", "-1", "--etahat", "0"]).output
        json.loads(text, parse_constant=lambda name: pytest.fail(f"non-JSON {name}"))


# valid arguments for every command that builds a grid of --grid-size points
_GRID_COMMANDS = {
    "check-proper": ["--partials", '{"ell_pos": {"expr": "(1-c)^2/2"}, "ell_neg": {"expr": "c^2/2"}}'],
    "check-convexity": ["--loss", '{"weight": {"name": "square"}, "link": {"name": "identity"}}'],
    "region": ["--link", "logit", "--out", "region.csv"],
    "reconstruct-symmetric": ["--half", '{"expr": "1/(1-c)"}', "--side", "lower"],
    "margin-link": ["--phi", "logistic"],
    "regret-bound": ["--curve", "--out", "bound.csv"],
}


@pytest.mark.parametrize("command", sorted(_GRID_COMMANDS))
def test_grid_size_below_three_is_a_usage_error(runner, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    args = [command, *_GRID_COMMANDS[command], "--grid-size"]
    assert runner.invoke(main, args + ["3"]).exit_code == 0
    result = runner.invoke(main, args + ["2"])
    assert result.exit_code == 2
    assert "--grid-size" in result.output


def test_unknown_command_is_usage_error(runner):
    assert runner.invoke(main, ["frobnicate"]).exit_code == 2


# one library call that each subcommand makes, and arguments that reach it
_LIBRARY_CALLS = {
    "catalog": ("cploss.cli._emit_json", []),
    "eval": ("cploss.composite.make_composite", ["--loss", LOG_LOGIT, "--y", "1", "--v", "0.5"]),
    "risk": ("cploss.cli.conditional_risk", ["--loss", SQUARE, "--eta", "0.3", "--etahat", "0.4"]),
    "check-proper": ("cploss.analysis.check_proper", _GRID_COMMANDS["check-proper"]),
    "check-convexity": ("cploss.analysis.convexity_characterization",
                        _GRID_COMMANDS["check-convexity"]),
    "region": ("cploss.analysis.allowable_region", _GRID_COMMANDS["region"]),
    "check-calibration": ("cploss.analysis.calibration_cc", ["--loss", LOG, "--c", "0.3"]),
    "reconstruct-symmetric": ("cploss.cli.reconstruct_symmetric",
                              _GRID_COMMANDS["reconstruct-symmetric"]),
    "margin-link": ("cploss.composite.margin_to_link", _GRID_COMMANDS["margin-link"]),
    "robustness": ("cploss.robustness.cost_robust_interval", ["--c0", "0.3", "--alpha", "0.1"]),
    "surrogate-experiment": ("cploss.experiments.run_surrogate_experiment", []),
    "regret-bound": ("cploss.experiments.regret_bound_invert", ["--x", "0.5"]),
}
# these report a completion or margin loss that the library rejects as a numeric failure
_REJECTION_IS_NUMERIC = {"reconstruct-symmetric": "reconstruction failed: boom\n",
                         "margin-link": "no admissible link: boom\n"}


@pytest.mark.parametrize("error", [ValueError, NumericsError])
@pytest.mark.parametrize("command", sorted(main.commands))
def test_library_errors_end_in_their_exit_code(runner, tmp_path, monkeypatch, command, error):
    target, args = _LIBRARY_CALLS[command]

    def boom(*_args, **_kwargs):
        raise error("boom")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(target, boom)
    result = runner.invoke(main, [command, *args])
    if error is NumericsError:
        assert (result.exit_code, result.output) == (3, "numeric failure: boom\n")
    elif command in _REJECTION_IS_NUMERIC:
        assert (result.exit_code, result.output) == (3, _REJECTION_IS_NUMERIC[command])
    else:
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"Usage: main {command} [OPTIONS]")
        assert result.output.endswith("\nError: boom\n")


@pytest.mark.parametrize("error", [ValueError, NumericsError])
@pytest.mark.parametrize("command,field", [("reconstruct-symmetric", "ell_neg"),
                                           ("margin-link", "q")])
def test_errors_evaluating_a_completion_or_link_are_not_rejections(
        runner, tmp_path, monkeypatch, command, field, error):
    # only a rejected construction exits 3 with its own prefix; evaluating what
    # was built maps through the subcommand class like any other library call
    target, args = _LIBRARY_CALLS[command]
    module, name = target.rsplit(".", 1)
    build = getattr(importlib.import_module(module), name)

    def boom(*_args, **_kwargs):
        raise error("boom")

    def build_then_break(*args, **kwargs):
        built = build(*args, **kwargs)
        object.__setattr__(built, field, boom)   # after the library's own checks
        return built

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(target, build_then_break)
    result = runner.invoke(main, [command, *args])
    if error is NumericsError:
        assert (result.exit_code, result.output) == (3, "numeric failure: boom\n")
    else:
        assert result.exit_code == 2, result.output
        assert result.output.endswith("\nError: boom\n")
