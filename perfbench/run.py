"""Closed-loop benchmark of the lpgrad command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload t4-decorr --seed 1 --seconds 45 --trace 0

Each workload calls ``lpgrad.cli.main`` in-process with the arguments a
user would type, again and again until ``--seconds`` have passed (and at
least 100 estimates are done, so the 90th percentile has ten samples
beyond it). Invocation k gets ``--seed`` derived from the workload seed
and k. One estimate is one ``estimate_gradient`` call, timed at the
``lpgrad.bench.estimate_gradient`` boundary. Every invocation's output
file is checked; a failed estimate or a failed check counts as failed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
plain and traced invocations with the same seeds, prints the per-layer
metrics of the traced ones and the tracing overhead, and exits non-zero
when a wrapped layer was bypassed (a coverage guard, so a refactor that
routes around a wrapper fails instead of reporting 0 ms).

``setup_s`` is timed in fresh processes of ``probe.py``, which import
only lpgrad and stop at its first estimate.

BLAS and OpenMP are pinned to one thread before numpy is imported; the
only parallelism is lpgrad's own ``--threads`` repetition workers, at
most the number of usable cores. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment.
"""
from __future__ import annotations

import os

BLAS_PIN = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

from spans import Span, Target, Tracer, TracingCost, measure_tracing_cost  # noqa: E402

WORK_DIR = os.path.join("perfbench", ".work")
MIN_ESTIMATES = 100      # p90 then has at least ten samples beyond it
MAX_EXTENSION_S = 60.0   # stop extending a slow run for MIN_ESTIMATES after this
SETUP_PROBES = 21
NPROC = len(os.sched_getaffinity(0))
SWEEP_WORKERS = min(2, NPROC)

# Published single-run mean errors per t4 cell, in cell order. Same
# values as the acceptance suite's table reference; kept here so the
# benchmark does not depend on the test files.
T4_REFERENCES = [0.0015, 0.0005, 0.0015]
# An odd number of equally sized N groups puts the pooled median inside
# the middle group rather than in the gap between two groups.
SWEEP_N_VALUES = "32,64,128,256,512,1024,2048"
SWEEP_SLOPE_BAND = (-1.25, -0.75)


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_table(path: str, reps: int, refs: list[float]) -> list[bool]:
    """Row count, every err finite, each cell's mean err within 2x of its reference."""
    try:
        rows = _read_csv(path)
        errs = [float(r["err"]) for r in rows]
    except (OSError, KeyError, ValueError):
        return [False] * (2 + len(refs))
    cells: dict[tuple, list[float]] = {}
    for row, e in zip(rows, errs):
        if row["law"] != "central-fdm":
            cells.setdefault((row["L"], row["N"]), []).append(e)
    means = [statistics.fmean(c) for c in cells.values()]
    checks = [
        len(rows) == len(refs) * reps + 1 and len(cells) == len(refs),
        all(math.isfinite(e) for e in errs),
    ]
    for i, ref in enumerate(refs):
        checks.append(i < len(means) and ref / 2.0 <= means[i] <= ref * 2.0)
    return checks


def sweep_slope(ns: list[float], mses: list[float]) -> float:
    """Least-squares slope of log(mse) against log(n)."""
    lx = [math.log(n) for n in ns]
    ly = [math.log(m) for m in mses]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum((x - mx) ** 2 for x in lx)


def check_sweep(path: str, reps: int) -> list[bool]:
    """Row count, every MSE finite and positive, log-log slope within the band."""
    n_expected = len(SWEEP_N_VALUES.split(","))
    try:
        rows = _read_csv(path)
        ns = [float(r["n"]) for r in rows]
        mses = [float(r["mse"]) for r in rows]
    except (OSError, KeyError, ValueError):
        return [False] * 3
    finite = len(rows) > 1 and all(math.isfinite(m) and m > 0.0 for m in mses)
    slope = sweep_slope(ns, mses) if finite else math.nan
    lo, hi = SWEEP_SLOPE_BAND
    return [len(rows) == n_expected, finite, lo <= slope <= hi]


@dataclass(frozen=True)
class Workload:
    argv: tuple          # CLI arguments, without --reps, --seed and --out
    reps: int            # --reps per invocation
    smoke_reps: int      # --reps for the scaled-down smoke instance
    workers: int         # lpgrad --threads
    decorrelates: bool   # whether every estimate runs decorrelate
    per_invocation: tuple  # spans the coverage guard wants in every invocation
    check: Callable      # (csv path, reps) -> list of check outcomes


# Why these two: t4-decorr is dominated by the sampler and the QR on
# batches larger than L2, with square (ill-conditioned) and tall cells;
# sweep-expr-mt skips the QR, evaluates an interpreted expression,
# applies a dense metric with an L=2 stencil and runs repetitions on two
# threads. The sampler and QR dominate the first, the objective and the
# per-row loop the second.
WORKLOADS = {
    "t4-decorr": Workload(
        argv=("table", "--name", "t4", "--threads", "1"),
        reps=2, smoke_reps=1, workers=1, decorrelates=True,
        per_invocation=("runner", "fdm_row", "write_rows"),
        check=lambda path, reps: check_table(path, reps, T4_REFERENCES),
    ),
    "sweep-expr-mt": Workload(
        argv=(
            "mse-sweep", "--function", "expr:sum(sin(x)) + 0.5*pow(sum(x), 2)",
            "--d", "50", "--p", "4", "--L", "2", "--sigma", "auto-d2", "--h", "1e-4",
            "--metric", "exp-corr:0.5", "--n-values", SWEEP_N_VALUES,
            "--threads", str(SWEEP_WORKERS),
        ),
        reps=20, smoke_reps=10, workers=SWEEP_WORKERS, decorrelates=False,
        per_invocation=("runner", "from_matrix", "reference"),
        check=check_sweep,
    ),
}


def import_lpgrad():
    """Import lpgrad from ./src of the checkout, never from site-packages."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lpgrad", "cli.py")):
        sys.exit("perfbench: src/lpgrad not found; run from the repository root")
    sys.path.insert(0, src)
    import lpgrad.bench
    import lpgrad.cli
    import lpgrad.estimator
    import lpgrad.metric

    if not os.path.abspath(lpgrad.cli.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: lpgrad imported from {lpgrad.cli.__file__}, not from {src}")
    return lpgrad


def invocation_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + k


def invocation_argv(wl: Workload, seed: int, k: int, reps: int, out: str) -> list[str]:
    return [*wl.argv, "--reps", str(reps), "--seed", str(invocation_seed(seed, k)), "--out", out]


# ---------------------------------------------------------------- tracing


def _n_evals(args, result) -> float:
    return result.n_evals


def _batch_elems(args, result) -> float:
    return result.values.size


def _householder_flops(args, result) -> float:
    n, d = args[0].values.shape
    return 2.0 * n * d * d - 2.0 * d**3 / 3.0


def _points(args, result) -> float:
    x = args[1]  # args[0] is the ObjectiveFunction
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def estimate_target(lp) -> Target:
    return Target(lp.bench, "estimate_gradient", "estimate", _n_evals)


def layer_targets(lp) -> list[Target]:
    return [
        estimate_target(lp),
        Target(lp.bench, "run_experiment", "runner"),
        Target(lp.bench, "mse_sweep", "runner"),
        Target(lp.estimator, "draw_batch", "draw_batch", _batch_elems),
        Target(lp.estimator, "decorrelate", "decorrelate", _householder_flops),
        Target(lp.estimator, "apply_inverse", "apply_inverse"),
        Target(lp.estimator.ObjectiveFunction, "__call__", "objective", _points),
        Target(lp.bench, "central_fdm", "central_fdm"),
        Target(lp.bench, "fdm_row", "fdm_row"),
        Target(lp.cli, "write_rows", "write_rows"),
        Target(lp.metric, "from_matrix", "from_matrix"),
    ]


# ------------------------------------------------------------- the loop


@dataclass
class Invocation:
    wall_s: float        # main() call to return
    span_s: float        # first estimate to return of main()
    estimates: list      # estimate spans of this invocation
    checks: list         # output check outcomes, the exit code last


def invoke(lp, wl: Workload, seed: int, k: int, reps: int, estimates: list) -> Invocation:
    """Run CLI invocation k and check its output file."""
    out = os.path.join(WORK_DIR, "out.csv")
    if os.path.exists(out):
        os.remove(out)
    argv = invocation_argv(wl, seed, k, reps, out)
    n0 = len(estimates)
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(io.StringIO()):
        code = lp.cli.main(argv)
    t1 = time.perf_counter()
    mine = estimates[n0:]
    first = min((s.start for s in mine), default=t1)
    return Invocation(t1 - t0, t1 - first, mine, wl.check(out, reps) + [code == 0])


def run_loop(lp, wl, seed, seconds, reps, min_estimates, traced: Tracer | None):
    """Closed loop of invocations; with ``traced`` each seed runs plain, then traced.

    Returns (plain invocations, traced invocations).
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    plain_tracer = Tracer([estimate_target(lp)])
    with plain_tracer:  # warm-up: lazy imports, allocator and BLAS set-up
        invoke(lp, wl, seed, 0, reps, plain_tracer.spans["estimate"])
    plain, traced_runs = [], []
    start = time.perf_counter()
    k = 1
    while True:
        elapsed = time.perf_counter() - start
        n_done = sum(len(i.estimates) for i in plain)
        if plain and elapsed >= seconds and (
            n_done >= min_estimates or elapsed >= seconds + MAX_EXTENSION_S
        ):
            break
        with plain_tracer:
            plain.append(invoke(lp, wl, seed, k, reps, plain_tracer.spans["estimate"]))
        if traced is not None:
            with traced:
                traced_runs.append(invoke(lp, wl, seed, k, reps, traced.spans["estimate"]))
        k += 1
    return plain, traced_runs


def outcome(invocations) -> tuple[int, int]:
    """(attempted, failed): estimates plus output checks."""
    attempted = failed = 0
    for inv in invocations:
        attempted += len(inv.estimates) + len(inv.checks)
        failed += sum(not s.ok for s in inv.estimates) + sum(not c for c in inv.checks)
    return attempted, failed


# ---------------------------------------------------------------- metrics


def measure_setup(wl: Workload, seed: int, reps: int, probes: int) -> float:
    """Median seconds from spawning a fresh probe.py to its first estimate."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    out = os.path.join(WORK_DIR, "probe.csv")
    os.makedirs(WORK_DIR, exist_ok=True)
    times = []
    for i in range(probes):
        cmd = [sys.executable, probe, *invocation_argv(wl, seed, i, reps, out)]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def end_to_end_metrics(plain: list[Invocation], setup_s: float, ok_frac: float) -> dict:
    walls_ms = [s.dur_s * 1e3 for inv in plain for s in inv.estimates]
    return {
        "estimates_per_s": (len(walls_ms) / sum(inv.span_s for inv in plain), "1/s"),
        "estimate_ms_p50": (statistics.median(walls_ms), "ms"),
        "estimate_ms_p90": (statistics.quantiles(walls_ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ok_frac, "frac"),
    }


class TraceCoverageError(RuntimeError):
    """A wrapped layer saw fewer or more calls than the estimates imply."""


def layer_metrics(wl: Workload, tracer: Tracer, cost: TracingCost, plain, traced) -> dict:
    """Per-layer metrics of the traced invocations.

    Shares and rates are taken over busy (thread CPU) time, so time spent
    waiting for the interpreter lock shows in the wait shares instead of
    in the layer that happened to wait; latencies are wall time. The
    measured tracing cost per wrapped call is taken out of the layers'
    busy time and out of the estimate's self time.
    """
    sp = tracer.spans
    est = sp["estimate"]
    n = len(est)

    def inside(name) -> list[Span]:
        return [s for s in sp[name] if s.parent == "estimate"]

    def wall(spans) -> float:
        return sum(s.dur_s for s in spans)

    def cpu(spans) -> float:
        spans = list(spans)
        return sum(s.cpu_s for s in spans) - len(spans) * cost.child_cpu_s

    def median_ms(spans) -> float:
        return statistics.median(s.dur_s for s in spans) * 1e3 if spans else 0.0

    draw, dec = inside("draw_batch"), inside("decorrelate")
    obj, ainv = inside("objective"), inside("apply_inverse")
    points = sum(s.work for s in obj)
    n_evals = sum(s.work for s in est)
    reference = [s for s in sp["central_fdm"] if s.parent != "fdm_row"]
    seen = {"runner": sp["runner"], "fdm_row": sp["fdm_row"], "write_rows": sp["write_rows"],
            "from_matrix": sp["from_matrix"], "reference": reference}

    problems = []
    if len(draw) != n:
        problems.append(f"draw_batch ran {len(draw)} times for {n} estimates")
    if len(dec) != (n if wl.decorrelates else 0):
        problems.append(f"decorrelate ran {len(dec)} times for {n} estimates")
    if points != n_evals:
        problems.append(f"objective saw {points} points for {n_evals} evaluations")
    if len(ainv) != n:
        problems.append(f"apply_inverse ran {len(ainv)} times for {n} estimates")
    for name in wl.per_invocation:
        if len(seen[name]) < len(traced):
            problems.append(f"{name} ran {len(seen[name])} times in {len(traced)} invocations")
    if any(s.self_s < 0.0 for s in est):
        problems.append("an estimate's self time is negative")
    if n == 0 or problems:
        raise TraceCoverageError("; ".join(problems) or "no estimates were traced")

    # runner wall outside its reference gradient, times its workers, minus
    # the wall inside estimates: per-rep bookkeeping and idle workers
    runner_s = wall(sp["runner"]) - wall(s for s in sp["central_fdm"] if s.parent == "runner")
    children = draw + dec + obj + ainv
    self_cpu = sum(s.self_cpu_s for s in est) - len(children) * cost.parent_cpu_s
    busy = self_cpu + cpu(children)
    return {
        "sampler.draw_batch.calls": (len(draw), "count"),
        "sampler.draw_batch.ms_p50": (median_ms(draw), "ms"),
        "sampler.draw_batch.share": (cpu(draw) / busy, "frac"),
        "sampler.draw_batch.melem_per_s": (sum(s.work for s in draw) / cpu(draw) / 1e6, "Melem/s"),
        "sampler.draw_batch.wait_share": (1.0 - cpu(draw) / wall(draw), "frac"),
        "sampler.decorrelate.calls": (len(dec), "count"),
        "sampler.decorrelate.ms_p50": (median_ms(dec), "ms"),
        "sampler.decorrelate.share": (cpu(dec) / busy, "frac"),
        "sampler.decorrelate.gflop_per_s": (
            sum(s.work for s in dec) / cpu(dec) / 1e9 if dec else 0.0, "GFLOP/s"),
        "estimator.estimate_gradient.calls": (n, "count"),
        "estimator.objective.points": (points, "count"),
        "estimator.objective.calls": (len(obj), "count"),
        "estimator.objective.us_per_point": (cpu(obj) / points * 1e6, "us"),
        "estimator.objective.share": (cpu(obj) / busy, "frac"),
        "estimator.self.ms_per_estimate": (self_cpu / n * 1e3, "ms"),
        "estimator.self.share": (self_cpu / busy, "frac"),
        "metric.apply_inverse.us_p50": (median_ms(ainv) * 1e3, "us"),
        "metric.apply_inverse.share": (cpu(ainv) / busy, "frac"),
        "metric.from_matrix.ms": (median_ms(sp["from_matrix"]), "ms"),
        "bench.overhead.ms_per_estimate": ((runner_s * wl.workers - wall(est)) / n * 1e3, "ms"),
        "bench.workers.wait_share": (1.0 - sum(s.cpu_s for s in est) / wall(est), "frac"),
        "bench.reference.ms": (median_ms(reference), "ms"),
        "bench.fdm_row.ms": (median_ms(sp["fdm_row"]), "ms"),
        "bench.failed_rows": (sum(not s.ok for s in est), "count"),
        "cli.write_rows.ms": (median_ms(sp["write_rows"]), "ms"),
        "trace.overhead_frac": (
            sum(i.wall_s for i in traced) / sum(i.wall_s for i in plain) - 1.0, "frac"),
    }


def environment(workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": NPROC,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_thread_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "workers": workers,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    wl = WORKLOADS[workload]
    lp = import_lpgrad()
    reps = wl.smoke_reps if smoke else wl.reps
    if trace:
        cost = measure_tracing_cost()
        tracer = Tracer(layer_targets(lp))
        plain, traced = run_loop(lp, wl, seed, seconds, reps, 0, tracer)
        attempted, failed = outcome(plain + traced)
        metrics = layer_metrics(wl, tracer, cost, plain, traced)
    else:
        setup_s = measure_setup(wl, seed, reps, 1 if smoke else SETUP_PROBES)
        plain, _ = run_loop(lp, wl, seed, seconds, reps, 0 if smoke else MIN_ESTIMATES, None)
        attempted, failed = outcome(plain)
        metrics = end_to_end_metrics(plain, setup_s, 1.0 - failed / attempted)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down instance: fewer reps, no minimum estimate count")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except TraceCoverageError as exc:
        print(f"perfbench: trace coverage guard: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"env": environment(WORKLOADS[args.workload].workers)}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
