"""Command-line interface: flags, config round-trip, output formats."""
import csv
import json
from pathlib import Path

import numpy as np
import pytest

from lpgrad.cli import CSV_HEADER, RunConfig, main
from lpgrad.errors import DomainError


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
            "--decorrelate", "--decorrelate-mode", "sample",
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

    def test_decorrelate_needs_n_ge_d(self, capsys):
        code = main([
            "estimate", "--function", "rosenbrock", "--d", "50",
            "--N", "10", "--decorrelate",
        ])
        assert code == 2

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

    def test_threads_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LPGRAD_THREADS", "2")
        out_env = tmp_path / "env.csv"
        out_one = tmp_path / "one.csv"
        args = [
            "estimate", "--function", "rosenbrock", "--d", "6", "--N", "8",
            "--sigma", "0.01", "--reps", "4", "--seed", "2",
        ]
        assert main(args + ["--out", str(out_env)]) == 0
        assert main(args + ["--threads", "1", "--out", str(out_one)]) == 0
        assert strip_wall_ms(read_csv(out_env)) == strip_wall_ms(read_csv(out_one))

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
        ["mse-sweep", "--function", "expr:x1 + x4", "--d", "3"],
        ["estimate", "--function", "rosenbrock", "--d", "3", "--metric", "exp-corr:abc"],
        SWEEP_ARGS + ["--n-values", "8,abc"],
        ["moments-check", "--d", "3", "--p", "2", "--draws", "100", "--seed", "-1"],
    ], ids=["estimate-expr-index", "sweep-expr-index", "exp-corr-rho", "sweep-n-values",
            "moments-seed"])
    def test_bad_specs(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name,matrix", [
        ("g.json", "[[1.0, 0.0], [0.0, -1.0]]"),
        ("g.json", "[[1.0, NaN], [NaN, 1.0]]"),
        ("g.json", "[[1.0, 0.0], [0.0"),
        ("g.csv", "1.0,0.0\n0.0,abc\n"),
    ], ids=["indefinite", "nan", "truncated-json", "csv-cell"])
    def test_bad_metric_file(self, tmp_path, capsys, name, matrix):
        g = tmp_path / name
        g.write_text(matrix)
        code = main(["estimate", "--function", "expr:x1+x2", "--d", "2",
                     "--metric", f"file:{g}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "reference gradient" not in err

    def test_config_file_checked(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        for bad in [
            {"d": 4, "threads": -1},
            {"d": "4"},
            {"d": 4, "n": 8, "decorrelate": "no"},
            {"d": 4, "reps": True},
            {"d": 4, "h": True},
            {"d": 4, "sigma": [0.01]},
        ]:
            cfg.write_text(json.dumps(bad))
            assert main(["estimate", "--config", str(cfg)]) == 2, bad
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (bad, err)

    def test_threads_env_checked(self, capsys, monkeypatch):
        monkeypatch.setenv("LPGRAD_THREADS", "many")
        assert main(TABLE_ARGS) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRunConfig:
    def test_round_trip_same_rows(self, tmp_path, capsys):
        cfg = RunConfig(
            function="rosenbrock", d=10, p=3.0, l=1, n=20, h=1e-4,
            sigma="auto-d2", decorrelate=True, decorrelate_mode="sample",
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
            "--decorrelate", "--decorrelate-mode", "sample", "--seed", "13",
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


class TestGoldenOutput:
    """Byte-for-byte CSV output, timing column aside, pinned by fixture files."""

    @pytest.mark.parametrize("argv,fixture,timed", [
        (["table", "--name", "t2", "--reps", "2", "--seed", "0"],
         "table_t2_reps2_seed0.csv", True),
        (["mse-sweep", "--function", "expr:sum(sin(x))", "--d", "5", "--p", "3",
          "--L", "2", "--sigma", "0.01", "--h", "1e-3", "--reps", "20", "--seed", "3",
          "--n-values", "16,32,64"],
         "mse_sweep_sin_seed3.csv", False),
    ])
    def test_matches_fixture(self, tmp_path, capsys, argv, fixture, timed):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        rows = read_csv(out)
        if timed:
            rows = strip_wall_ms(rows)
        text = "".join(",".join(row) + "\n" for row in rows)
        assert text == (GOLDEN / fixture).read_text()
