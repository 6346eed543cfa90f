"""Command-line interface: flags, config round-trip, output formats."""
import contextlib
import csv
import io
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import THREAD_VARIABLES
from lpgrad import bench, cli, sampler
from lpgrad.cli import CSV_HEADER, RunConfig, main
from lpgrad.errors import DomainError, log
from lpgrad.estimator import recommended_sigma
from lpgrad.metric import exp_corr_metric
from lpgrad.sampler import DirectionLaw, RadialLaw, draw_batch


GOLDEN = Path(__file__).parent / "golden"


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def strip_wall_ms(rows):
    idx = rows[0].index("wall_ms")
    return [row[:idx] + row[idx + 1:] for row in rows]


class TestEstimate:
    def test_basic_run(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main([
            "estimate", "--function", "rosenbrock", "--d", "10", "--p", "3",
            "--L", "1", "--N", "20", "--h", "1e-4", "--sigma", "auto-d2",
            "--decorrelate", "sample",
            "--reps", "3", "--seed", "7", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == CSV_HEADER
        assert len(rows) == 4
        errs = [float(r[rows[0].index("err")]) for r in rows[1:]]
        assert all(0.01 < e < 0.2 for e in errs)

    def test_missing_d_is_usage_error(self, capsys):
        assert main(["estimate", "--function", "rosenbrock"]) == 2

    def test_one_point_single_sample_is_usage_error(self, capsys):
        # one value is its own batch mean, so every rep's estimate would be exactly zero (err = 1)
        code = main(["estimate", "--function", "rosenbrock", "--d", "3", "--N", "1", "--L", "1",
                     "--sigma", "0.1", "--reps", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: the one-point stencil centers by the batch mean, so it needs n >= 2\n"

    def test_decorrelate_needs_n_ge_d(self, capsys):
        code = main([
            "estimate", "--function", "rosenbrock", "--d", "50",
            "--N", "10", "--decorrelate",
        ])
        assert code == 2

    def test_bandwidth_warning_once(self, capsys, caplog):
        # the config is built once per run, not once per rep
        assert main(["estimate", "--function", "rosenbrock", "--d", "4", "--N", "8",
                     "--h", "10", "--sigma", "1", "--reps", "3"]) == 0
        assert sum("exceeds 1/2" in r.getMessage() for r in caplog.records) == 1

    def test_sweep_bandwidth_warning_once(self, capsys, caplog):
        # the bandwidth does not depend on N, so one warning per sweep, at
        # the line that builds the run's config, as for estimate
        assert main(["mse-sweep", "--function", "expr:sum(sin(x))", "--d", "3", "--L", "2",
                     "--sigma", "1", "--h", "10", "--n-values", "8,16,32"]) == 0
        hits = [r for r in caplog.records if "exceeds 1/2" in r.getMessage()]
        assert [r.pathname for r in hits] == [bench.__file__]
        assert not log.disabled

    def test_warning_is_one_bare_line_even_under_warnings_as_errors(self, tmp_path, capsys, monkeypatch):
        # the advisory is a log record: with no handler configured, logging's
        # last resort prints the message alone, and -W error cannot end the run
        out = tmp_path / "rows.csv"
        with monkeypatch.context() as patch, warnings.catch_warnings():
            patch.setattr(logging.root, "handlers", [])  # pytest's capture handlers, until the run ends
            warnings.simplefilter("error")
            assert main(["estimate", "--d", "4", "--h", "10", "--sigma", "1", "--reps", "2",
                         "--out", str(out)]) == 0
        assert len(read_csv(out)) == 3
        first, *rest = capsys.readouterr().err.splitlines()
        assert first == "beta_max * h * sigma = 10 exceeds 1/2; consider a smaller h or sigma"
        assert not any("exceeds 1/2" in line for line in rest)

    @pytest.mark.parametrize("extreme", [["--m2", "1.79e308", "--reps", "6"],
                                         ["--m2", "1e308", "--reps", "2"]])
    def test_overflow_is_a_note_or_a_finite_err(self, tmp_path, capsys, extreme):
        out = tmp_path / "rows.json"
        assert main(["estimate", "--function", "synthetic", "--d", "2", *extreme,
                     "--format", "json", "--out", str(out)]) == 0
        for row in json.loads(out.read_text()):
            assert math.isfinite(float(row["err"])) or row["note"]

    def test_overflow_prints_no_numpy_warning(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(["estimate", "--function", "synthetic", "--d", "2", "--m2", "1.79e308",
                         "--reps", "6", "--format", "json", "--out", str(out)]) == 0
        assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err
        rows = json.loads(out.read_text())
        failed = [row for row in rows if not math.isfinite(float(row["err"]))]
        assert failed and all(row["note"] for row in failed)

    @pytest.mark.parametrize("sigma,code", [("1e150", 2), ("1e50", 0)])
    def test_moments_overflow_prints_no_numpy_warning(self, capsys, sigma, code):
        # at 1e150 E[R0^3] overflows (an error); at 1e50 the variance of R0^4 does
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert main(["moments-check", "--d", "1", "--p", "1", "--draws", "10",
                         "--sigma", sigma]) == code
        assert not [w for w in record if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in capsys.readouterr().err

    def test_tiny_gradient_is_not_zero(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        assert main(["estimate", "--function", "synthetic", "--d", "2", "--m1", "1e-200",
                     "--m2", "1e-200", "--format", "json", "--out", str(out)]) == 0
        assert math.isfinite(json.loads(out.read_text())[0]["err"])

    def test_unknown_subcommand(self, capsys):
        assert main(["bogus"]) == 2

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        code = main([
            "estimate", "--function", "synthetic", "--d", "8", "--m1", "2",
            "--m2", "1", "--N", "6", "--reps", "2", "--out", str(out),
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        assert payload[0]["function"] == "synthetic"
        assert "note" in payload[0]

    def test_json_and_csv_both_give_h_and_sigma_as_floats(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 3, "h": 1, "sigma": 1, "reps": 1}))
        out = tmp_path / "rows.json"
        assert main(["estimate", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
        text = out.read_text()
        assert '"h": 1.0,' in text and '"sigma": 1.0,' in text
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 0
        rows = read_csv(tmp_path / "rows.csv")
        assert [rows[1][rows[0].index(name)] for name in ("h", "sigma")] == ["1.00000000000000000e+00"] * 2

    def test_custom_expression(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main([
            "estimate", "--function", "expr:sum(sin(x))", "--d", "4",
            "--N", "8", "--reps", "2", "--sigma", "0.01", "--h", "1e-3",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[1][0] == "custom-expr"

    def test_long_flat_expression_runs(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        assert main(["estimate", "--function", "expr:" + "+".join(["x1"] * 600), "--d", "2",
                     "--reps", "1", "--format", "json", "--out", str(out)]) == 0
        assert math.isfinite(json.loads(out.read_text())[0]["err"])

    @pytest.mark.parametrize("expression", ["(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1"],
                             ids=["parentheses", "unary-minus"])
    def test_deep_expression_is_rejected_before_any_estimate(self, capsys, monkeypatch, expression):
        def no_estimate(*args, **kwargs):
            raise AssertionError("a deep expression must be rejected before any estimate")

        monkeypatch.setattr(bench, "estimate_gradient", no_estimate)
        assert main(["estimate", "--function", "expr:" + expression, "--d", "2", "--reps", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_sigma_auto_c3_is_the_recommended_sigma(self, tmp_path, capsys):
        out = tmp_path / "rows.json"
        assert main(["estimate", "--d", "5", "--p", "4", "--metric", "exp-corr:0.5", "--sigma", "auto-c3",
                     "--format", "json", "--out", str(out)]) == 0
        [row] = json.loads(out.read_text())
        assert row["sigma"] == recommended_sigma(exp_corr_metric(5, 0.5), 4.0)

    @pytest.mark.parametrize("metric", ["identity", "exp-corr:0.5", "file:"])
    def test_metric_column_is_the_metric_spec(self, tmp_path, capsys, metric):
        if metric == "file:":
            g = tmp_path / "g.json"
            g.write_text(json.dumps(np.diag([2.0, 1.0]).tolist()))
            metric += str(g)
        out = tmp_path / "rows.csv"
        assert main(["estimate", "--function", "rosenbrock", "--d", "2", "--reps", "2",
                     "--metric", metric, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [row[rows[0].index("metric")] for row in rows[1:]] == [metric, metric]

    def test_threads_zero_is_auto(self, tmp_path, capsys):
        out = tmp_path / "auto.csv"
        args = [
            "estimate", "--function", "rosenbrock", "--d", "6", "--N", "8",
            "--sigma", "0.01", "--reps", "3", "--threads", "0",
            "--out", str(out),
        ]
        assert main(args) == 0
        assert len(read_csv(out)) == 4

    def test_metric_file(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps(np.diag([2.0, 1.0, 1.0]).tolist()))
        out = tmp_path / "rows.csv"
        code = main([
            "estimate", "--function", "expr:x1+x2+x3", "--d", "3",
            "--N", "6", "--reps", "1", "--sigma", "0.05", "--h", "1e-3",
            "--metric", f"file:{g}", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[1][rows[0].index("metric")] == f"file:{g}"


SWEEP_ARGS = ["mse-sweep", "--function", "expr:sum(sin(x))", "--d", "3", "--L", "2",
              "--sigma", "0.01", "--n-values", "8,16", "--reps", "2"]
ESTIMATE_ARGS = ["estimate", "--function", "rosenbrock", "--d", "4", "--N", "6"]
TABLE_ARGS = ["table", "--name", "t2", "--reps", "1"]


class TestFailureNotes:
    """A failed rep's note reaches stderr, counted, and the JSON stays standard."""

    OVERFLOW = ["--function", "expr:exp(2000*x1)", "--d", "3", "--sigma", "1", "--h", "1", "--reps", "4"]
    INF = "objective 'custom-expr' returned non-finite value inf"

    def test_estimate_counts_each_note(self, tmp_path, capsys):
        assert main(["estimate", *self.OVERFLOW, "--N", "8", "--out", str(tmp_path / "rows.csv")]) == 0
        assert capsys.readouterr().err.splitlines()[-2:] == [
            "mean err = nan (sd nan, mean evals nan, failed 4)", f"4 of 4 reps failed: {self.INF}"]

    def test_sweep_fit_error_names_its_notes(self, capsys):
        assert main(["mse-sweep", *self.OVERFLOW, "--n-values", "8,16"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: mse_sweep has fewer than two valid points to fit; 8 of 8 trials failed: {self.INF}")

    def test_sweep_counts_each_note(self, capsys):
        assert main(["mse-sweep", "--function", "expr:pow(x1+0.3, 0.5)", "--d", "3", "--sigma", "0.15",
                     "--h", "1", "--reps", "4", "--n-values", "8,16"]) == 0
        assert capsys.readouterr().err.splitlines()[-2:] == [
            "failed 3 of 8 trials", "3 of 8 trials failed: objective 'custom-expr' returned non-finite value nan"]

    def test_table_counts_notes_per_cell(self, tmp_path, capsys, monkeypatch):
        def zero_rows(rng, n, d, p):
            return np.zeros((n, d))

        monkeypatch.setattr(sampler, "_pgauss_matrix", zero_rows)
        assert main(["table", "--name", "t2", "--reps", "2", "--out", str(tmp_path / "rows.csv")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[:2] == ["t2[LN=11,L=1]: mean err = nan over 2 reps", "2 of 2 reps failed: drew a zero direction"]
        assert lines.count("2 of 2 reps failed: drew a zero direction") == 4

    def test_no_line_when_no_rep_fails(self, tmp_path, capsys):
        assert main(["estimate", "--d", "3", "--reps", "2", "--out", str(tmp_path / "rows.csv")]) == 0
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_json_is_strict(self, tmp_path, capsys):
        def reject(token):
            raise ValueError(f"{token} is not standard JSON")

        out = tmp_path / "rows.json"
        assert main(["estimate", *self.OVERFLOW, "--N", "8", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text(), parse_constant=reject)
        assert [(row["err"], row["note"]) for row in rows] == [("nan", self.INF)] * 4


class TestInvalidInput:
    """Bad input exits 2 with an error line, never with a traceback."""

    @pytest.mark.parametrize("base", [ESTIMATE_ARGS, SWEEP_ARGS, TABLE_ARGS],
                             ids=["estimate", "mse-sweep", "table"])
    @pytest.mark.parametrize("bad", [["--threads", "-1"], ["--seed", "-3"], ["--reps", "0"]],
                             ids=["threads", "seed", "reps"])
    def test_run_options(self, capsys, base, bad):
        assert main(base + bad) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["estimate", "--function", "expr:x7", "--d", "3"],
        ["mse-sweep", "--function", "expr:x1 + x4", "--d", "3", "--n-values", "8,16"],
        ["estimate", "--function", "rosenbrock", "--d", "3", "--metric", "exp-corr:abc"],
        ["estimate", "--function", "rosenbrock", "--d", "3", "--metric", "bogus"],
        SWEEP_ARGS + ["--n-values", "8,abc"],
        ["moments-check", "--d", "3", "--p", "2", "--draws", "100", "--seed", "-1"],
        ["estimate", "--d", "4", "--sigma", "1e308"],
        ["estimate", "--d", "3", "--sigma", "abc"],
        ["estimate", "--d", "4", "--sigma", "1e200", "--h", "1e-300"],
        ["moments-check", "--d", "2", "--p", "2", "--draws", "10", "--sigma", "1e308"],
        ["moments-check", "--d", "1", "--p", "1", "--draws", "10", "--sigma", "1e150"],
        ["moments-check", "--d", "2", "--p", "2", "--draws", "10", "--sigma", "1e-100"],
        ["estimate", "--d", "4", "--function", "expr:1/0"],
        ["estimate", "--d", "4", "--function", "expr:sum(x)+pow(0,-1)"],
        ["estimate", "--d", "4", "--function", "expr:sum(x)*10^400"],
        ["estimate", "--d", "4", "--function", "expr:sum(x)+(-1)^0.5"],
        ["estimate", "--d", "4", "--function", "synthetic", "--m1", "nan"],
        ["estimate", "--d", "4", "--function", "synthetic", "--m2", "inf"],
        ["estimate", "--d", "4", "--function", "expr:x" + "1" * 5000],
        SWEEP_ARGS + ["--config", "decorrelate-sample.json"],
        ["estimate", "--d", "4", "--L", "0"],
        SWEEP_ARGS + ["--config", "format-json.json"],
        # a config saved while the non-spherical iid-uniform law existed
        ["estimate", "--d", "4", "--config", "law-iid-uniform.json", "--radial", "dirac"],
    ], ids=["estimate-expr-index", "sweep-expr-index", "exp-corr-rho", "metric-unknown", "sweep-n-values",
            "moments-seed", "sigma-square-overflow", "sigma-word", "sigma-h-overflow", "moments-sigma-overflow",
            "moments-r0-overflow", "moments-r0-underflow", "expr-div-zero", "expr-pow-zero", "expr-overflow",
            "expr-complex", "synthetic-m1-nan", "synthetic-m2-inf", "expr-huge-index",
            "sweep-decorrelate", "L-zero", "sweep-format-json", "iid-uniform-dirac"])
    def test_bad_specs(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        # mse-sweep writes CSV only and measures raw batches, so it reads neither key
        Path("format-json.json").write_text(json.dumps({"format": "json"}))
        Path("decorrelate-sample.json").write_text(json.dumps({"decorrelate": "sample"}))
        Path("law-iid-uniform.json").write_text(json.dumps({"law": "iid-uniform"}))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("expression,problem", [
        ("sin(" + "+".join(["x1"] * 2000) + ", x2)", "wrong arguments"),
        ("(" * 3000 + "x1", "unbalanced parentheses"),
        ("x" + "1" * 3000, "out of range"),
        ("x1 + " * 1000 + "foo(x1)", "not in the expression grammar"),
        ("x1 + " * 1000 + "x1 $", "outside the expression grammar"),
    ], ids=["arguments", "parentheses", "index", "name", "character"])
    def test_expression_error_is_one_short_line(self, capsys, expression, problem):
        assert main(["estimate", "--function", "expr:" + expression, "--d", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err
        assert err.count("\n") == 1 and len(err) < 200

    @pytest.mark.parametrize("name,matrix", [
        ("g.json", "[[1.0, 0.0], [0.0, -1.0]]"),
        ("g.json", "[[1.0, NaN], [NaN, 1.0]]"),
        ("g.json", "[[1.0, 0.0], [0.0"),
        ("g.csv", "1.0,0.0\n0.0,abc\n"),
        ("g.json", "[[1e308, 1e308], [1e308, 1e308]]"),
        ("g.json", "[[1.0, 1e308], [-1e308, 1.0]]"),
        ("g.json", "[[1e-310, 0.0], [0.0, 1e-310]]"),
    ], ids=["indefinite", "nan", "truncated-json", "csv-cell", "sum-overflow", "difference-overflow",
            "inverse-overflow"])
    def test_bad_metric_file(self, tmp_path, capsys, name, matrix):
        g = tmp_path / name
        g.write_text(matrix)
        code = main(["estimate", "--function", "expr:x1+x2", "--d", "2",
                     "--metric", f"file:{g}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "reference gradient" not in err

    @pytest.mark.parametrize("l,message", [
        ("150", "offset powers up to 149 overflow (max |offset| 150)"),
        ("143", "stencil constraint system is numerically singular (cond ~ inf)"),
    ], ids=["powers-overflow", "cond-inf"])
    def test_overflowing_stencil_is_one_error_line(self, capfd, caplog, l, message):
        # 1..150 to the power 149 overflows, and 1..143 has an infinite
        # condition number, whatever the BLAS thread count: no LAPACK text
        # on stdout, no warning, no CSV of meaningless weights, but one error line
        assert main(["estimate", "--d", "4", "--L", l]) == 2
        assert capfd.readouterr() == ("", f"error: {message}\n")
        assert caplog.records == []

    @pytest.mark.parametrize("argv,message", [
        (["estimate", "--function", "expr:1.7e308*x1*1e6", "--d", "2", "--reps", "2"],
         "the central-difference estimate is not finite"),
        (["mse-sweep", "--function", "expr:1.7e308*x1*1e6", "--d", "2", "--n-values", "8,16"],
         "the central-difference estimate is not finite"),
        (["estimate", "--function", "synthetic", "--d", "2", "--m1=-1e308", "--m2", "1e308", "--reps", "2"],
         "m1 - m2 must be finite, got -1e+308 - 1e+308"),
    ], ids=["estimate-fdm-reference", "sweep-fdm-reference", "synthetic-coupling"])
    @pytest.mark.parametrize("action", ["always", "error"])
    def test_overflowing_reference_is_one_error_line(self, capsys, argv, message, action):
        # the reference's central difference overflows, or the coupling m1 - m2
        # does: rejected before any estimate, with no numpy warning
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter(action)
            assert main(argv) == 2
        assert record == []
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_module_entry_point(self):
        # python -m lpgrad.cli reaches main() through the module's __main__ guard
        src = str(Path(cli.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "lpgrad.cli", "estimate", "--d", "0"],
                                capture_output=True, text=True, timeout=120, env=env)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: d must be an integer >= 2, got 0\n"

    def test_unwritable_out_is_exit_1(self, tmp_path, capsys):
        assert main(["estimate", "--d", "2", "--out", str(tmp_path / "missing" / "rows.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "a,b\n", "\n# no rows\n"], ids=["empty", "header", "comment"])
    def test_metric_file_without_numbers(self, tmp_path, capsys, text):
        # one error line and no numpy warning, also when warnings are errors
        g = tmp_path / "g.csv"
        g.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--d", "2", "--metric", f"file:{g}"])
        assert code == 2
        assert capsys.readouterr().err == f"error: matrix file {g} holds no numbers\n"

    def test_config_file_checked(self, tmp_path, capsys, monkeypatch):
        def no_estimate(*args, **kwargs):
            raise AssertionError("a bad config must be rejected before any estimate")

        monkeypatch.setattr(bench, "estimate_gradient", no_estimate)
        cfg = tmp_path / "cfg.json"
        for bad in [
            {"d": 4, "threads": -1},
            {"d": "4"},
            {"d": 4, "n": 8, "decorrelate": "no"},
            {"d": 4, "reps": True},
            {"d": 4, "h": True},
            {"d": 4, "sigma": [0.01]},
            {"d": 4, "decorrelate": True},
            {"d": 4, "format": "xml", "reps": 3},
            {"d": 4, "l": 0},
            {"d": 4, "radial": "bogus"},
            {},
            5,
            [1],
            '{"d": 4,',
        ]:
            cfg.write_text(bad if isinstance(bad, str) else json.dumps(bad))
            assert main(["estimate", "--config", str(cfg)]) == 2, bad
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (bad, err)

    def test_stencil_size_message(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 4, "l": 0}))
        for argv in (["estimate", "--d", "4", "--L", "0"], ["estimate", "--config", str(cfg)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == "error: L must be an integer >= 1, got 0\n"


# a valid value other than the default for each RunConfig field but out,
# which each test points into its own directory
NON_DEFAULT = {
    "function": "synthetic", "d": 5, "p": 2.5, "l": 3, "n": 9, "h": 1e-3, "sigma": "0.02",
    "law": "ball", "radial": "dirac", "decorrelate": "sample", "metric": "exp-corr:0.5",
    "seed": 4, "reps": 2, "m1": 3.0, "m2": 0.5, "threads": 2, "format": "json",
}


class TestRunConfig:
    def test_round_trip_same_rows(self, tmp_path, capsys):
        cfg = RunConfig(
            function="rosenbrock", d=10, p=3.0, l=1, n=20, h=1e-4,
            sigma="auto-d2", decorrelate="sample",
            seed=13, reps=3, out=None, format="csv",
        )
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        reparsed = RunConfig.from_json(cfg_path)
        assert reparsed == cfg

        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = [
            "estimate", "--function", "rosenbrock", "--d", "10", "--p", "3",
            "--L", "1", "--N", "20", "--h", "1e-4", "--sigma", "auto-d2",
            "--decorrelate", "sample", "--seed", "13",
            "--reps", "3",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(["estimate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert strip_wall_ms(read_csv(out_a)) == strip_wall_ms(read_csv(out_b))

    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError):
            RunConfig.from_dict({"function": "rosenbrock", "bogus": 1})

    def test_save_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "saved.json"
        out = tmp_path / "rows.csv"
        code = main([
            "estimate", "--function", "rosenbrock", "--d", "5", "--N", "4",
            "--sigma", "0.01", "--reps", "1", "--out", str(out),
            "--save-config", str(cfg_path),
        ])
        assert code == 0
        saved = RunConfig.from_json(cfg_path)
        assert saved.d == 5 and saved.n == 4

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "sigma": 0.01, "reps": 5}))
        out = tmp_path / "rows.csv"
        assert main(["estimate", "--config", str(cfg), "--d", "4", "--reps", "2", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [row[rows[0].index("d")] for row in rows[1:]] == ["4", "4"]

    @pytest.mark.parametrize("via_config", [False, True], ids=["flags", "config"])
    @pytest.mark.parametrize("command,name", [
        (command, f.name) for command in ("estimate", "mse-sweep") for f in fields(RunConfig)
    ])
    def test_every_flag_is_saved(self, tmp_path, capsys, command, name, via_config):
        # every RunConfig field a command reads reaches the run and its saved
        # file; one it does not read is refused as a flag and as a config key
        value = {**NON_DEFAULT, "out": str(tmp_path / "rows")}[name]
        assert value != getattr(RunConfig, name)
        unread = cli._SWEEP_UNREAD if command == "mse-sweep" else ()
        # the save follows the run, so the run must pass: d = 4 lets "synthetic" run
        base = {"function": "expr:sum(sin(x))", "d": 4, "l": 2, "n": 4, "sigma": "0.01"}
        base = {k: v for k, v in base.items() if k not in unread}
        argv = [command, "--n-values", "4,8"] if command == "mse-sweep" else [command]
        flag = "--" + cli._UPPER.get(name, name).replace("_", "-")
        if via_config:
            (tmp_path / "base.json").write_text(json.dumps({**base, name: value} if name in unread else base))
            argv += ["--config", str(tmp_path / "base.json")]
        else:
            argv += [f"--{cli._UPPER.get(k, k)}={v}" for k, v in base.items()]
        if not (via_config and name in unread):
            argv += [flag, str(value)]
        saved = tmp_path / "saved.json"
        code = main(argv + ["--save-config", str(saved)])
        if name in unread:
            err = capsys.readouterr().err
            assert code == 2 and not saved.exists()
            assert f"unknown config keys: ['{name}']" in err if via_config else f"unrecognized arguments: {flag}" in err
        else:
            assert getattr(RunConfig.from_json(saved), name) == value
            assert not set(json.loads(saved.read_text())) & set(unread)

    @pytest.mark.parametrize("argv", [
        ["estimate", "--function", "bogus", "--d", "3"],
        ["mse-sweep", "--function", "expr:sum(x)", "--d", "3", "--config", "decorrelate-sample.json",
         "--n-values", "8,16"],
        # a number the run never reads is still checked, so the saved file would not be JSON
        ["estimate", "--function", "rosenbrock", "--d", "4", "--m1", "nan", "--reps", "1"],
        ["estimate", "--function", "rosenbrock", "--d", "4", "--p", "nan", "--reps", "1"],
    ], ids=["estimate-function", "mse-sweep-decorrelate", "unread-m1-nan", "p-nan"])
    def test_rejected_run_saves_nothing(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("decorrelate-sample.json").write_text(json.dumps({"decorrelate": "sample"}))
        saved = tmp_path / "saved.json"
        assert main(argv + ["--save-config", str(saved)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not saved.exists()


class TestTable:
    def test_t2_quick(self, tmp_path, capsys):
        out = tmp_path / "t2.csv"
        assert main(["table", "--name", "t2", "--reps", "2", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == CSV_HEADER
        # 4 cells x 2 reps + the finite-difference baseline
        assert len(rows) == 1 + 4 * 2 + 1
        assert rows[-1][rows[0].index("law")] == "central-fdm"

    def test_unknown_name(self, capsys):
        assert main(["table", "--name", "t99"]) == 2


class TestMomentsCheck:
    def test_small_case_passes(self, capsys):
        code = main([
            "moments-check", "--d", "3", "--p", "2", "--draws", "50000",
            "--seed", "4",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "E[V1^2]" in captured.out

    def test_chunks_merge_to_the_whole_sample(self, monkeypatch):
        # pairwise-merged chunk moments equal those of all draws at once
        d, p, draws, seed, rows = 3, 2.0, 1000, 4, 64  # 15 full chunks and one of 40
        monkeypatch.setattr(bench, "_MOMENTS_CHUNK_ELEMENTS", rows * d)
        checks = bench.moments_report(d, p, draws, seed)
        v = np.vstack([
            draw_batch(DirectionLaw("sphere", p), RadialLaw("uniform", 1.0), min(rows, draws - start), d,
                       bench.derive_seed(seed, k)).values
            for k, start in enumerate(range(0, draws, rows))
        ])
        samples = bench._moment_samples(v, p)
        assert len(samples) == len(checks)
        for (_, analytic, emp, z), x in zip(checks, samples):
            assert emp == pytest.approx(x.mean(), rel=1e-13)
            assert z == pytest.approx((x.mean() - analytic) / (x.std() / math.sqrt(draws)), rel=1e-9)

    def test_overflowing_variance_is_scored(self):
        # at sigma = 1e50 the raw sample variance of R0^4 overflows; the
        # samples scaled by the analytic moment do not
        z = {name: z for name, _, _, z in bench.moments_report(1, 1.0, 10, 0, 1e50)}
        assert math.isfinite(z["E[R0^4]"]) and z["E[R0^4]"] != 0.0

    def test_non_finite_z_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(bench, "moments_report", lambda *args: [("E[R0^4]", 1.0, 1.0, math.nan)])
        assert main(["moments-check", "--d", "1", "--p", "1", "--draws", "10"]) == 1

    def test_d1_trivial(self, capsys):
        code = main([
            "moments-check", "--d", "1", "--p", "3", "--draws", "2000",
            "--seed", "0",
        ])
        assert code == 0


class TestMseSweep:
    def test_sweep_csv_and_slope(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main([
            "mse-sweep", "--function", "expr:sum(sin(x))", "--d", "5",
            "--p", "3", "--L", "2", "--sigma", "0.01", "--h", "1e-3",
            "--reps", "20", "--seed", "3",
            "--n-values", "16,32,64", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["n", "mse"]
        assert len(rows) == 4
        captured = capsys.readouterr()
        assert "slope" in captured.err
        assert "failed 0 of 60 trials" in captured.err

    def test_saved_config_replays(self, tmp_path, capsys):
        saved = tmp_path / "sweep.json"
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(SWEEP_ARGS + ["--seed", "5", "--save-config", str(saved), "--out", str(out_a)]) == 0
        assert main(["mse-sweep", "--config", str(saved), "--n-values", "8,16", "--out", str(out_b)]) == 0
        assert out_b.read_bytes() == out_a.read_bytes()

    def test_n_values_required(self, tmp_path, capsys):
        # the saved run holds no sample sizes, so a replay must give them
        saved, out = tmp_path / "sweep.json", tmp_path / "out.csv"
        assert main(SWEEP_ARGS + ["--save-config", str(saved)]) == 0
        assert main(["mse-sweep", "--config", str(saved), "--out", str(out)]) == 2
        assert "--n-values" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("flag", ["--N", "--format", "--decorrelate"])
    def test_no_flags_the_sweep_ignores(self, capsys, flag):
        assert main(SWEEP_ARGS + [flag, "csv" if flag == "--format" else "3"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestGoldenOutput:
    """Byte-for-byte CSV output, timing column aside, and moments-check
    stdout, pinned by fixture files."""

    @pytest.mark.parametrize("argv,fixture,timed", [
        (["table", "--name", "t2", "--reps", "2", "--seed", "0"],
         "table_t2_reps2_seed0.csv", True),
        (["mse-sweep", "--function", "expr:sum(sin(x))", "--d", "5", "--p", "3",
          "--L", "2", "--sigma", "0.01", "--h", "1e-3", "--reps", "20", "--seed", "3",
          "--n-values", "16,32,64"],
         "mse_sweep_sin_seed3.csv", False),
        (["table", "--name", "t5", "--reps", "2", "--seed", "0"],
         "table_t5_reps2_seed0.csv", True),
        (["estimate", "--function", "rosenbrock", "--d", "6", "--N", "12", "--law", "ball",
          "--radial", "dirac", "--L", "3", "--reps", "3", "--seed", "4"],
         "estimate_ball_dirac_seed4.csv", True),
        (["mse-sweep", "--function", "expr:sum(sin(x)) + 0.5*pow(sum(x), 2)", "--d", "50", "--p", "4",
          "--L", "2", "--sigma", "auto-d2", "--h", "1e-4", "--metric", "exp-corr:0.5",
          "--n-values", "32,64,128,256,512,1024,2048", "--threads", "2", "--reps", "20", "--seed", "1000004"],
         "mse_sweep_expr_mt_seed1000004.csv", False),
        # the d = 1000 sample-decorrelated cells and fdm row; the decorrelated
        # err moves with the BLAS thread count, so the fixture holds for one thread
        pytest.param(["table", "--name", "t4", "--reps", "2", "--seed", "5"], "table_t4_reps2_seed5.csv", True,
                     marks=pytest.mark.skipif(any(os.environ.get(name) != "1" for name in THREAD_VARIABLES),
                                              reason="BLAS runs on more than one thread")),
    ])
    def test_matches_fixture(self, tmp_path, capsys, argv, fixture, timed):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        rows = read_csv(out)
        if timed:
            rows = strip_wall_ms(rows)
        text = "".join(",".join(row) + "\n" for row in rows)
        assert text == (GOLDEN / fixture).read_text()

    @pytest.mark.parametrize("argv,fixture", [
        (["--d", "10", "--p", "3", "--draws", "100000"], "moments_check_d10_p3_draws100000.txt"),
        (["--d", "5", "--p", "5000", "--draws", "100000", "--sigma", "0.3"],
         "moments_check_d5_p5000_draws100000_sigma0.3.txt"),
    ])
    def test_moments_check_matches_fixture(self, capsys, argv, fixture):
        assert main(["moments-check", *argv]) == 0
        assert capsys.readouterr().out == (GOLDEN / fixture).read_text()


# bounded values per flag, valid and invalid alike; None is a bare flag
FUZZ_FLAGS = {
    "--function": ["rosenbrock", "synthetic", "expr:sum(sin(x))", "expr:x1*x2 - 3", "expr:1/0",
                   "expr:x1^-1", "expr:sum(x)*10^400", "expr:(", "expr:x9", "bogus"],
    "--d": ["1", "2", "3", "4", "0", "-2"],
    "--p": ["1", "2", "3.5", "2500", "0.5", "nan", "inf", "1e308"],
    "--L": ["1", "2", "3", "0", "-1"],
    "--N": ["1", "2", "3", "5", "0", "-1"],
    "--h": ["1e-4", "0.1", "10", "0", "-1", "nan", "inf", "1e-300", "1e308"],
    "--sigma": ["0.01", "1", "auto-c3", "auto-d2", "0", "-1", "nan", "inf", "1e308", "1e-200",
                "1e150", "abc"],
    "--law": ["sphere", "ball", "iid-uniform"],
    "--radial": ["uniform", "dirac"],
    "--decorrelate": [None, "moment", "sample"],
    "--metric": ["identity", "exp-corr:0.5", "exp-corr:0.999999", "exp-corr:-0.5",
                 "exp-corr:nan", "exp-corr:2", "file:missing.json"],
    "--m1": ["2", "0", "-1", "1e308", "nan"],
    "--m2": ["1", "0", "1e308", "inf"],
    "--seed": ["0", "7", "-1", str(2**70)],
    "--reps": ["1", "2", "0"],
    "--threads": ["1", "2", "0", "-1"],
    "--format": ["csv", "json"],
}
# command -> (flags always given, optional flags)
FUZZ_COMMANDS = {
    "estimate": (["--d"], [*FUZZ_FLAGS]),
    "mse-sweep": (["--d", "--n-values"],
                  [flag for flag in FUZZ_FLAGS if flag not in ("--N", "--format", "--decorrelate")]),
    "table": (["--name"], ["--reps", "--seed", "--threads"]),
    "moments-check": (["--d", "--p"], ["--draws", "--seed", "--sigma"]),
}
FUZZ_EXTRA = {
    "--n-values": ["2,4", "3,5,8", "4", "0,2", "-1,3", "8,abc", ""],
    "--name": ["t2", "t2dep", "t99"],
    "--draws": ["1", "2", "50", "0", "-5"],
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    required, optional = FUZZ_COMMANDS[command]
    flags = draw(st.lists(st.sampled_from(optional), unique=True, max_size=8))
    argv = [command]
    for flag in dict.fromkeys(required + flags):
        value = draw(st.sampled_from({**FUZZ_FLAGS, **FUZZ_EXTRA}[flag]))
        argv += [flag] if value is None else [flag, value]
    return argv


class TestFuzz:
    @given(argv=fuzz_argv())
    # points and squared errors beyond the float range
    @example(argv=["estimate", "--function", "rosenbrock", "--d", "3", "--h", "1e308", "--sigma", "1",
                   "--L", "2", "--reps", "2"])
    @example(argv=["mse-sweep", "--function", "expr:1e200*x1", "--d", "2", "--L", "1", "--reps", "3",
                   "--n-values", "8,16"])
    @settings(max_examples=150, deadline=None)
    def test_exit_code_never_traceback(self, tmp_path_factory, argv):
        # any bounded command line ends in 0, 1 (moments-check z > 5 or
        # an OS error) or 2 (bad input), never in an escaped exception
        out = tmp_path_factory.mktemp("fuzz") / "out"
        if argv[0] != "moments-check":
            argv = argv + ["--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
