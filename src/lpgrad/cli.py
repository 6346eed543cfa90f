"""Command-line front end: estimate, table, moments-check, mse-sweep.

Run configurations are plain JSON documents (unknown keys and mistyped
values rejected) so runs are reproducible and diffable; results go to
CSV with a fixed schema or to JSON. This module only parses and prints:
the work, ``moments-check``'s ``bench.moments_report`` included, is in ``bench``.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import asdict, fields

from . import bench
from .bench import FORMAT_CSV, FORMAT_JSON, OUTPUT_FORMATS, RunConfig, _build_spec
from .errors import DomainError, LpgradError
from .sampler import DECORRELATE_MODES, DECORRELATE_MOMENT, DIRECTION_KINDS, RADIAL_KINDS

__all__ = ["RunConfig", "main", "CSV_HEADER"]

# ResultRow / RunConfig field -> CSV column and command-line flag name
_UPPER = {"l": "L", "n": "N"}
CSV_HEADER = [_UPPER.get(f.name, f.name) for f in fields(bench.ResultRow) if f.name != "note"]


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17e")
    return str(value)


def _row_record(row: bench.ResultRow) -> dict:
    # a non-finite float becomes the string its CSV cell holds, so the JSON stays standard
    return {_UPPER.get(name, name): _csv_cell(value) if isinstance(value, float) and not math.isfinite(value)
            else value for name, value in asdict(row).items()}


@contextlib.contextmanager
def _open_out(out: str | None):
    """The named output file, or stdout for None / '-'."""
    if out and out != "-":
        with open(out, "w", newline="") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_csv(out: str | None, header, lines) -> None:
    with _open_out(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_csv_cell(value) for value in line] for line in lines)


def write_rows(rows, out: str | None, fmt: str = FORMAT_CSV) -> None:
    """Write result rows as CSV (fixed schema) or JSON; '-'/None = stdout."""
    records = [_row_record(row) for row in rows]
    if fmt == FORMAT_JSON:
        with _open_out(out) as fh:
            fh.write(json.dumps(records, indent=2, allow_nan=False) + "\n")
    else:
        _write_csv(out, CSV_HEADER, [[rec[name] for name in CSV_HEADER] for rec in records])


_CHOICES = {
    "law": DIRECTION_KINDS,
    "radial": RADIAL_KINDS,
    "decorrelate": DECORRELATE_MODES,
    "format": OUTPUT_FORMATS,
}
_HELP = {
    "function": "rosenbrock | synthetic | expr:<expression>",
    "d": "dimension (required, here or in --config)",
    "sigma": "number | auto-c3 | auto-d2",
    "decorrelate": "orthogonalize each batch; the bare flag means moment",
    "metric": "identity | exp-corr:<rho> | file:<path>",
}


def _add_estimate_args(sub: argparse.ArgumentParser, unread=()) -> None:
    """One flag per RunConfig field the command reads, none for the ``unread``
    ones; defaults stay in the dataclass."""
    sub.add_argument("--config", help="JSON run configuration; flags given override its keys")
    for f in fields(RunConfig):
        if f.name in unread:
            continue
        flag = "--" + _UPPER.get(f.name, f.name).replace("_", "-")
        kw = {"dest": f.name, "default": None, "help": _HELP.get(f.name),
              "type": {"int": int, "float": float}.get(f.type, str), "choices": _CHOICES.get(f.name)}
        if f.name == "decorrelate":
            kw.update(nargs="?", const=DECORRELATE_MOMENT)
        sub.add_argument(flag, **kw)
    sub.add_argument("--save-config", default=None,
                     help="write the run configuration to this JSON path once the run is done")


# the RunConfig fields mse-sweep does not read: it runs at each of --n-values,
# writes CSV and measures raw batches; it takes no flag or config key for them
_SWEEP_UNREAD = ("n", "format", "decorrelate")


def _run_config(args, unread=()) -> RunConfig:
    """The run that the given flags describe over the --config object, if
    any: a flag given wins, and a key in ``unread`` is rejected."""
    given = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    given = {name: value for name, value in given.items() if value is not None}
    return RunConfig.from_json(args.config, unread, **given) if args.config else RunConfig.from_dict(given)


def _print_failures(notes: dict, total: int, unit: str = "reps") -> None:
    """One stderr line per distinct failure note, with its count; none when nothing failed."""
    for line in bench._failure_lines(notes, total, unit):
        print(line, file=sys.stderr)


def cmd_estimate(args) -> int:
    cfg = _run_config(args)
    spec = _build_spec(cfg)
    rows, summary = bench.run_experiment(spec, threads=cfg.threads)
    if args.save_config:  # only a run that passed every check
        cfg.to_json(args.save_config)
    write_rows(rows, cfg.out, cfg.format)
    print(
        f"mean err = {summary['mean_err']:.6g} (sd {summary['sd_err']:.3g}, "
        f"mean evals {summary['mean_n_evals']:.1f}, failed {sum(summary['notes'].values())})",
        file=sys.stderr,
    )
    _print_failures(summary["notes"], cfg.reps)
    return 0


def cmd_table(args) -> int:
    specs = bench.table_specs(args.name, reps=args.reps, seed=args.seed)
    rows = []
    for spec in specs:
        cell_rows, summary = bench.run_experiment(spec, threads=args.threads)
        rows.extend(cell_rows)
        print(
            f"{spec.name}: mean err = {summary['mean_err']:.4g} over {spec.reps} reps",
            file=sys.stderr,
        )
        _print_failures(summary["notes"], spec.reps)
    preset = bench.TABLE_PRESETS[args.name]
    if preset["fdm"]:
        spec0 = specs[0]
        row = bench.fdm_row(spec0.function, spec0.metric, h=spec0.cfg.h)
        rows.append(row)
        print(f"{args.name}[fdm]: err = {row.err:.4g}", file=sys.stderr)
    write_rows(rows, args.out, FORMAT_CSV)
    return 0


def cmd_moments_check(args) -> int:
    checks = bench.moments_report(args.d, args.p, args.draws, args.seed, args.sigma)
    worst = 0.0
    print(f"{'moment':>12s} {'analytic':>14s} {'empirical':>14s} {'z':>8s}")
    for name, analytic, empirical, z in checks:
        print(f"{name:>12s} {analytic:14.6e} {empirical:14.6e} {z:8.2f}")
        worst = max(worst, math.inf if math.isnan(z) else abs(z))  # a nan z fails
    print(f"max |z| = {worst:.2f} over {len(checks)} checks at d={args.d}, p={args.p}")
    return 0 if worst <= 5.0 else 1


def cmd_mse_sweep(args) -> int:
    try:
        n_values = [int(tok) for tok in args.n_values.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"--n-values must be comma-separated integers, got {args.n_values!r}") from None
    cfg = _run_config(args, _SWEEP_UNREAD)
    spec = _build_spec(cfg)
    points, slope, notes = bench.mse_sweep(spec, n_values, threads=cfg.threads)
    if args.save_config:  # only a run that passed every check
        cfg.to_json(args.save_config, _SWEEP_UNREAD)
    _write_csv(cfg.out, ["n", "mse"], points)
    print(f"log-log slope = {slope:.4f}", file=sys.stderr)
    print(f"failed {sum(notes.values())} of {len(points) * spec.reps} trials", file=sys.stderr)
    _print_failures(notes, len(points) * spec.reps, "trials")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lpgrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run a gradient-estimation experiment")
    _add_estimate_args(est)
    est.set_defaults(handler=cmd_estimate)

    tab = sub.add_parser("table", help="reproduce a benchmark table preset")
    tab.add_argument("--name", required=True, choices=sorted(bench.TABLE_PRESETS))
    tab.add_argument("--reps", type=int, default=50)
    tab.add_argument("--seed", type=int, default=0)
    tab.add_argument("--threads", type=int, default=RunConfig.threads)
    tab.add_argument("--out", default=None)
    tab.set_defaults(handler=cmd_table)

    mom = sub.add_parser("moments-check", help="analytic vs empirical moment z-scores")
    mom.add_argument("--d", type=int, required=True)
    mom.add_argument("--p", type=float, required=True)
    mom.add_argument("--draws", type=int, default=1_000_000)
    mom.add_argument("--seed", type=int, default=0)
    mom.add_argument("--sigma", type=float, default=1.0)
    mom.set_defaults(handler=cmd_moments_check)

    swp = sub.add_parser("mse-sweep", help="empirical MSE against sample size")
    _add_estimate_args(swp, _SWEEP_UNREAD)
    swp.add_argument("--n-values", required=True,
                     help="comma-separated sample sizes (not saved by --save-config)")
    swp.set_defaults(handler=cmd_mse_sweep)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except LpgradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
