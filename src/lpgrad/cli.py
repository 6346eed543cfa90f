"""Command-line front end: estimate, table, moments-check, mse-sweep.

Run configurations are plain JSON documents (unknown keys and mistyped
values rejected) so runs are reproducible and diffable; results go to
CSV with a fixed schema or to JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import bench
from .bench import RunConfig, _build_spec, _check_run_options
from .errors import DomainError, LpgradError
from .sampler import (
    DECORRELATE_MOMENT,
    DECORRELATE_SAMPLE,
    DirectionLaw,
    RadialLaw,
    draw_batch,
    lp_norm,
    moment_R0,
    sphere_abs_moment,
    sphere_mixed_moment,
)

__all__ = ["RunConfig", "main", "CSV_HEADER"]

# ResultRow / RunConfig field -> CSV column and command-line flag name
_UPPER = {"l": "L", "n": "N"}
CSV_HEADER = [_UPPER.get(f.name, f.name) for f in fields(bench.ResultRow) if f.name != "note"]
_CELL_TYPES = {_UPPER.get(f.name, f.name): f.type for f in fields(bench.ResultRow)}


def _csv_cell(name: str, value) -> str:
    if _CELL_TYPES[name] == "float":
        return format(float(value), ".17e")
    if _CELL_TYPES[name] == "int":
        return str(int(value))
    if _CELL_TYPES[name] == "bool":
        return "true" if value else "false"
    return str(value)


def _row_record(row: bench.ResultRow) -> dict:
    return {_UPPER.get(name, name): value for name, value in asdict(row).items()}


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
        writer.writerows(lines)


def write_rows(rows, out: str | None, fmt: str = "csv") -> None:
    """Write result rows as CSV (fixed schema) or JSON; '-'/None = stdout."""
    records = [_row_record(row) for row in rows]
    if fmt == "json":
        with _open_out(out) as fh:
            fh.write(json.dumps(records, indent=2) + "\n")
    else:
        lines = [[_csv_cell(name, rec[name]) for name in CSV_HEADER] for rec in records]
        _write_csv(out, CSV_HEADER, lines)


def _threads_default() -> int:
    value = os.environ.get("LPGRAD_THREADS", "1")
    try:
        return int(value)
    except ValueError:
        raise DomainError(f"LPGRAD_THREADS must be an integer, got {value!r}") from None


_CHOICES = {
    "law": ["sphere", "ball", "iid-uniform"],
    "radial": ["uniform", "dirac"],
    "decorrelate": [DECORRELATE_MOMENT, DECORRELATE_SAMPLE],
    "format": ["csv", "json"],
}
_HELP = {
    "function": "rosenbrock | synthetic | expr:<expression>",
    "d": "dimension (required unless --config)",
    "sigma": "number | auto-c3 | auto-d2",
    "decorrelate": "orthogonalize each batch; the bare flag means moment",
    "metric": "identity | exp-corr:<rho> | file:<path>",
}


def _add_estimate_args(sub: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field; defaults stay in the dataclass."""
    sub.add_argument("--config", help="JSON run configuration (other flags ignored)")
    for f in fields(RunConfig):
        flag = "--" + _UPPER.get(f.name, f.name).replace("_", "-")
        kw = {"dest": f.name, "default": None, "help": _HELP.get(f.name),
              "type": {"int": int, "float": float}.get(f.type, str), "choices": _CHOICES.get(f.name)}
        if f.name == "decorrelate":
            kw.update(nargs="?", const=DECORRELATE_MOMENT)
        sub.add_argument(flag, **kw)
    sub.add_argument("--save-config", default=None,
                     help="write the effective run configuration to this JSON path")


def _estimate_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_json(args.config)
        if args.out is not None:
            cfg.out = args.out
        return cfg
    if args.d is None:
        raise DomainError("--d is required")
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig)}
    given = {name: value for name, value in given.items() if value is not None}
    given.setdefault("threads", _threads_default())
    return RunConfig(**given)


def cmd_estimate(args) -> int:
    cfg = _estimate_config(args)
    if cfg.decorrelate and cfg.n < cfg.d:
        raise DomainError(f"--decorrelate needs N >= d (N={cfg.n}, d={cfg.d})")
    if getattr(args, "save_config", None):
        cfg.to_json(args.save_config)
    spec = _build_spec(cfg)
    rows, summary = bench.run_experiment(spec, threads=cfg.threads)
    write_rows(rows, cfg.out, cfg.format)
    print(
        f"mean err = {summary['mean_err']:.6g} (sd {summary['sd_err']:.3g}, "
        f"mean evals {summary['mean_n_evals']:.1f}, failed {summary['n_failed']})",
        file=sys.stderr,
    )
    return 0


def cmd_table(args) -> int:
    threads = args.threads if args.threads is not None else _threads_default()
    _check_run_options(seed=args.seed, reps=args.reps, threads=threads)
    specs = bench.table_specs(args.name, reps=args.reps, seed=args.seed)
    rows = []
    for spec in specs:
        cell_rows, summary = bench.run_experiment(spec, threads=threads)
        rows.extend(cell_rows)
        print(
            f"{spec.name}: mean err = {summary['mean_err']:.4g} over {spec.reps} reps",
            file=sys.stderr,
        )
    preset = bench.TABLE_PRESETS[args.name]
    if preset["fdm"]:
        spec0 = specs[0]
        row = bench.fdm_row(spec0.function, spec0.metric, h=spec0.cfg.h)
        rows.append(row)
        print(f"{args.name}[fdm]: err = {row.err:.4g}", file=sys.stderr)
    write_rows(rows, args.out, "csv")
    return 0


# moments-check draws in chunks of about this many batch elements, so
# its memory does not grow with the number of draws
_MOMENTS_CHUNK_ELEMENTS = 1 << 20


def _moment_samples(v: np.ndarray, p: float) -> list[np.ndarray]:
    """Per-draw samples of each empirical moment, in moments_report's order."""
    r = lp_norm(v, p)  # ||V||_p = R because ||U||_p = 1
    u1 = v[:, 0] / r
    samples = [np.abs(u1) ** q for q in (1, 2, 3, 4)]
    if v.shape[1] >= 2:
        samples.append(u1**2 * np.abs(v[:, 1] / r))
    samples.append(v[:, 0] ** 2)
    samples += [r**q for q in (1, 2, 3, 4)]
    return samples


def moments_report(d: int, p: float, draws: int, seed: int, sigma: float = 1.0):
    """Analytic vs empirical moment checks for the sphere/radius laws.

    Returns a list of (name, analytic, empirical, z) covering
    E[|U_1|^q] for q <= 4, E[U_1^2 |U_2|], the E[V_1^2] = sigma^2
    calibration and E[R_0^q] for q <= 4. The draws come in chunks with
    seeds derived from ``seed``; each moment's mean and variance are
    merged chunk by chunk (Chan, Golub and LeVeque's pairwise update).
    Samples are divided by their positive analytic value first, so the
    merge works on numbers near 1; a moment it cannot score gets a nan z.
    """
    law = DirectionLaw.sphere(p)
    radial = RadialLaw.uniform(sigma)
    analytic = [(f"E|U1|^{q}", sphere_abs_moment(q, d, p)) for q in (1, 2, 3, 4)]
    if d >= 2:
        analytic.append(("E[U1^2|U2|]", sphere_mixed_moment(d, p)))
    analytic.append(("E[V1^2]", sigma**2))
    analytic += [(f"E[R0^{q}]", moment_R0(q, d, p, sigma)) for q in (1, 2, 3, 4)]
    if draws < 1:
        raise DomainError(f"draws must be a positive integer, got {draws}")
    rows = max(1, _MOMENTS_CHUNK_ELEMENTS // d)
    scale = np.array([ana for _, ana in analytic])[:, None]
    count = 0
    with np.errstate(all="ignore"):  # an overflowed moment gives a nan z
        for k, start in enumerate(range(0, draws, rows)):
            v = draw_batch(law, radial, min(rows, draws - start), d, bench.derive_seed(seed, k)).values
            chunk = np.array(_moment_samples(v, p)) / scale
            n = chunk.shape[1]
            chunk_mean = chunk.mean(axis=1)
            chunk -= chunk_mean[:, None]
            chunk **= 2
            chunk_m2 = chunk.sum(axis=1)
            if count == 0:
                mean, m2 = chunk_mean, chunk_m2
            else:
                delta = chunk_mean - mean
                mean = mean + delta * (n / (count + n))
                m2 = m2 + chunk_m2 + delta**2 * (count * n / (count + n))
            count += n
    checks = []
    for (name, ana), emp, sd in zip(analytic, mean.tolist(), np.sqrt(m2 / count).tolist()):
        if sd == 0.0:
            z = 0.0 if emp == 1.0 else math.inf
        else:
            z = (emp - 1.0) / (sd / math.sqrt(count))
        checks.append((name, ana, emp * ana, z))
    return checks


def cmd_moments_check(args) -> int:
    _check_run_options(seed=args.seed)
    checks = moments_report(args.d, args.p, args.draws, args.seed, args.sigma)
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
    cfg = _estimate_config(args)
    spec = _build_spec(cfg)
    points, slope, n_failed = bench.mse_sweep(spec, n_values, threads=cfg.threads)
    _write_csv(cfg.out, ["n", "mse"], [[str(n), format(mse, ".17e")] for n, mse in points])
    print(f"log-log slope = {slope:.4f}", file=sys.stderr)
    print(f"failed {n_failed} of {len(points) * spec.reps} trials", file=sys.stderr)
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
    tab.add_argument("--threads", type=int, default=None)
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
    _add_estimate_args(swp)
    swp.add_argument("--n-values", default="32,64,128,256,512,1024",
                     help="comma-separated sample sizes")
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
