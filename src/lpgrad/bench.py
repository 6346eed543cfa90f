"""Benchmark functions, baselines and experiment runners.

Provides the standard test objectives with analytic gradients, the
central finite-difference baseline, the relative error measure in the
metric-transformed space, repeated-trial experiment running with
derived per-rep seeds, and mean-squared-error sweeps over sample size.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, EvaluationError, LpgradError
from .estimator import (
    DECORRELATE_SAMPLE,
    EstimatorConfig,
    ObjectiveFunction,
    estimate_gradient,
)
from .expr import compile_expression
from .metric import (
    TensorMetric,
    apply_inverse,
    exp_corr_metric,
    from_matrix,
    identity_metric,
    load_matrix,
)
from .sampler import DirectionLaw, RadialLaw
from .scheme import one_point, two_point_central

__all__ = [
    "rosenbrock",
    "rosenbrock_grad",
    "synthetic_ms",
    "synthetic_ms_grad",
    "trig_sum",
    "trig_sum_grad",
    "central_fdm",
    "err",
    "ExperimentSpec",
    "ResultRow",
    "run_experiment",
    "fdm_row",
    "mse_sweep",
    "derive_seed",
    "TABLE_PRESETS",
    "table_specs",
]


def rosenbrock_grad(x) -> np.ndarray:
    """Analytic gradient of the Rosenbrock function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    g[:-1] = -2.0 * (1.0 - x[:-1]) - 400.0 * x[:-1] * (x[1:] - x[:-1] ** 2)
    g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
    return g


def rosenbrock(d: int) -> ObjectiveFunction:
    """The d-dimensional Rosenbrock function, d >= 2.

    r(x) = sum_{k<d} (1 - x_k)^2 + 100 (x_{k+1} - x_k^2)^2, with
    r(1) = 0 and gradient [-2, ..., -2, 0] at the origin.
    """
    if d < 2:
        raise DomainError("rosenbrock requires d >= 2")

    def fun(x):
        return np.sum((1.0 - x[:-1]) ** 2 + 100.0 * (x[1:] - x[:-1] ** 2) ** 2)

    return ObjectiveFunction(fun=fun, dim=d, name="rosenbrock", m1=None, m2=None, grad=rosenbrock_grad)


def synthetic_ms_grad(x, m1: float, m2: float) -> np.ndarray:
    """Analytic gradient of the synthetic trigonometric-quadratic objective."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    g = np.full(d, (m1 - m2) / d * x.sum())
    g[0::2] += m2 * np.cos(x[0::2])
    g[1::2] -= np.sin(x[1::2])
    return g


def synthetic_ms(d: int, m1: float, m2: float) -> ObjectiveFunction:
    """m2*sin on the odd-numbered coordinates, cos on the even-numbered
    ones, plus the rank-one quadratic coupling ((m1-m2)/(2d)) (sum x)^2;
    d must be even.

    The gradient at the origin is m2 * [1, 0, 1, 0, ...].
    """
    if d < 2 or d % 2 != 0:
        raise DomainError("the synthetic objective requires an even d >= 2")

    def fun(x):
        s = x.sum()
        return (
            np.sum(m2 * np.sin(x[0::2]) + np.cos(x[1::2]))
            + (m1 - m2) / (2.0 * d) * s * s
        )

    def grad(x):
        return synthetic_ms_grad(x, m1, m2)

    return ObjectiveFunction(fun=fun, dim=d, name="synthetic", m1=m1, m2=m2, grad=grad)


def trig_sum_grad(x) -> np.ndarray:
    return np.cos(np.asarray(x, dtype=float))


def trig_sum(d: int) -> ObjectiveFunction:
    """f(x) = sum_k sin(x_k); gradient cos(x), all-ones at the origin."""
    if d < 1:
        raise DomainError("dimension must be positive")
    return ObjectiveFunction(
        fun=lambda x: float(np.sin(x).sum()),
        dim=d,
        name="trig-sum",
        m2=1.0,
        grad=trig_sum_grad,
    )


def central_fdm(f: ObjectiveFunction, x, h: float) -> np.ndarray:
    """Coordinate-wise central differences; exactly 2d evaluations."""
    if h <= 0.0:
        raise DomainError("h must be positive")
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    grad = np.empty(d)
    for k in range(d):
        step = np.zeros(d)
        step[k] = h
        fp = f(x + step)
        fm = f(x - step)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise EvaluationError("non-finite value in finite-difference stencil", point=x + step)
        grad[k] = (fp - fm) / (2.0 * h)
    return grad


def err(metric: TensorMetric, grad_true, grad_est) -> float:
    """Relative error of the metric-transformed gradient estimate.

    ||G^{-1}(grad_true - grad_est)||_2 / ||G^{-1} grad_true||_2 for
    traditional-gradient arguments.
    """
    grad_true = np.asarray(grad_true, dtype=float)
    grad_est = np.asarray(grad_est, dtype=float)
    if grad_true.shape != grad_est.shape:
        raise DomainError("gradient vectors must have equal length")
    denom = float(np.linalg.norm(apply_inverse(metric, grad_true)))
    if denom == 0.0:
        raise DomainError("reference gradient is zero in the transformed space")
    num = float(np.linalg.norm(apply_inverse(metric, grad_true - grad_est)))
    return num / denom


@dataclass
class ExperimentSpec:
    """A repeated-trial gradient-estimation experiment."""

    function: ObjectiveFunction
    metric: TensorMetric
    cfg: EstimatorConfig
    x0: np.ndarray | None = None
    reps: int = 50
    seed: int = 0
    name: str = ""
    metric_label: str = ""

    def __post_init__(self):
        if self.reps < 1:
            raise DomainError("reps must be >= 1")
        if self.x0 is None:
            self.x0 = np.zeros(self.function.dim)
        self.x0 = np.asarray(self.x0, dtype=float)


@dataclass(frozen=True)
class ResultRow:
    """One trial's outcome, echoing the configuration that produced it."""

    function: str
    d: int
    p: float
    l: int
    n: int
    h: float
    sigma: float
    law: str
    radial: str
    decorrelated: bool
    metric: str
    rep: int
    seed: int
    err: float
    n_evals: int
    wall_ms: float
    note: str = ""


def derive_seed(seed: int, *indices: int) -> int:
    """Deterministic per-trial seed derived from a base seed and indices."""
    state = np.random.SeedSequence([int(seed), *[int(i) for i in indices]])
    return int(state.generate_state(1, np.uint64)[0])


def _reference_gradient(function: ObjectiveFunction, x0: np.ndarray) -> np.ndarray:
    if function.grad is not None:
        return np.asarray(function.grad(x0), dtype=float)
    # no analytic gradient: use a tight central-difference reference
    return central_fdm(function.fresh(), x0, 1e-6)


def _map(fn, items, threads: int) -> list:
    """[fn(item) for item in items], on ``threads`` workers (0 = one per core).

    Results keep the order of ``items`` whatever the worker count.
    """
    if threads == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads or None) as pool:
        return list(pool.map(fn, items))


def _row_static(spec: ExperimentSpec) -> dict:
    cfg = spec.cfg
    law = cfg.law
    return {
        "function": spec.function.name,
        "d": spec.function.dim,
        "p": float(law.p) if law.kind != "iid-uniform" else float("nan"),
        "l": cfg.scheme.l,
        "n": cfg.n,
        "h": cfg.h,
        "sigma": cfg.sigma,
        "law": law.kind,
        "radial": cfg.radial.kind if cfg.radial is not None else "none",
        "decorrelated": cfg.decorrelate,
        "metric": spec.metric_label or spec.metric.tag,
    }


def _run_rep(spec: ExperimentSpec, grad_dep: np.ndarray, static: dict, rep: int) -> ResultRow:
    rep_seed = derive_seed(spec.seed, rep)
    cfg = replace(spec.cfg, seed=rep_seed)
    f = spec.function.fresh()
    t0 = time.perf_counter()
    try:
        est = estimate_gradient(f, spec.x0, cfg, spec.metric)
        wall = (time.perf_counter() - t0) * 1e3
        err_val = float(
            np.linalg.norm(grad_dep - est.grad) / np.linalg.norm(grad_dep)
        )
        return ResultRow(**static, rep=rep, seed=rep_seed, err=err_val, n_evals=est.n_evals, wall_ms=wall)
    except LpgradError as exc:
        wall = (time.perf_counter() - t0) * 1e3
        return ResultRow(
            **static, rep=rep, seed=rep_seed, err=float("nan"), n_evals=f.eval_count,
            wall_ms=wall, note=str(exc),
        )


def run_experiment(spec: ExperimentSpec, threads: int = 1):
    """Run spec.reps independent trials and summarize the errors.

    Per-rep seeds derive deterministically from (spec.seed, rep); rows
    come back ordered by rep regardless of the worker count, so output
    does not depend on ``threads``. Trial failures annotate their row
    (err = nan, note set) instead of aborting the experiment.

    Returns (rows, summary) where summary holds mean/sd of err and the
    mean evaluation count over successful reps.
    """
    grad_dep = apply_inverse(spec.metric, _reference_gradient(spec.function, spec.x0))
    if np.linalg.norm(grad_dep) == 0.0:
        raise DomainError("reference gradient is zero in the transformed space")
    static = _row_static(spec)
    rows = _map(lambda rep: _run_rep(spec, grad_dep, static, rep), range(spec.reps), threads)
    errs = np.array([row.err for row in rows])
    good = errs[np.isfinite(errs)]
    evals = np.array([row.n_evals for row in rows if math.isfinite(row.err)], dtype=float)
    summary = {
        "mean_err": float(good.mean()) if good.size else float("nan"),
        "sd_err": float(good.std(ddof=1)) if good.size > 1 else 0.0,
        "mean_n_evals": float(evals.mean()) if evals.size else float("nan"),
        "n_failed": int(np.sum(~np.isfinite(errs))),
    }
    return rows, summary


def fdm_row(function: ObjectiveFunction, metric: TensorMetric, h: float, x0=None, metric_label: str = "") -> ResultRow:
    """One deterministic central-difference baseline trial."""
    f = function.fresh()
    if x0 is None:
        x0 = np.zeros(f.dim)
    x0 = np.asarray(x0, dtype=float)
    grad_true = _reference_gradient(f, x0)
    t0 = time.perf_counter()
    grad_est = central_fdm(f, x0, h)
    wall = (time.perf_counter() - t0) * 1e3
    return ResultRow(
        function=f.name,
        d=f.dim,
        p=float("nan"),
        l=0,
        n=f.dim,
        h=h,
        sigma=float("nan"),
        law="central-fdm",
        radial="none",
        decorrelated=False,
        metric=metric_label or metric.tag,
        rep=0,
        seed=0,
        err=err(metric, grad_true, grad_est),
        n_evals=f.eval_count,
        wall_ms=wall,
    )


def mse_sweep(spec: ExperimentSpec, n_values, reps: int, threads: int = 1):
    """Empirical MSE against sample size, plus the fitted log-log slope.

    For each N the config is rerun with undecorrelated batches and the
    spec's fixed h; the MSE is the mean over reps of the squared
    euclidean distance between the estimate and the metric-transformed
    analytic gradient. Per-(N, rep) seeds derive from
    (spec.seed, N, rep) so sweeps with different laws pair up by seed.

    Returns (points, slope) with points a list of (n, mse).
    """
    n_values = sorted({int(n) for n in n_values})
    if len(n_values) < 2:
        raise DomainError("mse_sweep needs at least two distinct sample sizes")
    grad_dep = apply_inverse(spec.metric, _reference_gradient(spec.function, spec.x0))

    def one(n: int, rep: int) -> float:
        cfg = replace(spec.cfg, n=n, seed=derive_seed(spec.seed, n, rep), decorrelate=False)
        try:
            est = estimate_gradient(spec.function.fresh(), spec.x0, cfg, spec.metric)
        except LpgradError:
            return float("nan")
        diff = est.grad - grad_dep
        return float(diff @ diff)

    pairs = [(n, rep) for n in n_values for rep in range(reps)]
    sq = np.array(_map(lambda nr: one(*nr), pairs, threads)).reshape(len(n_values), reps)
    with np.errstate(invalid="ignore"):
        means = np.array([np.nanmean(col) if np.isfinite(col).any() else float("nan") for col in sq])
    points = [(n, float(m)) for n, m in zip(n_values, means)]
    valid = [(n, m) for n, m in points if math.isfinite(m)]
    if len(valid) < 2:
        raise DomainError("mse_sweep has fewer than two valid points to fit")
    positive = [(n, m) for n, m in valid if m > 0.0]
    if len(positive) < 2:
        slope = float("nan")  # e.g. a constant objective: every MSE is zero
    else:
        log_n = np.log([n for n, _ in positive])
        log_m = np.log([m for _, m in positive])
        slope = float(np.polyfit(log_n, log_m, 1)[0])
    return points, slope


TABLE_PRESETS = {
    "t2": {
        "function": ("rosenbrock", {"d": 10}),
        "metric": "identity",
        "p": 3.0,
        "cells": [(11, 1), (15, 1), (20, 1), (20, 2)],
        "fdm": True,
    },
    "t2dep": {
        "function": ("rosenbrock", {"d": 10}),
        "metric": "exp-corr:0.5",
        "p": 3.0,
        "cells": [(11, 1), (15, 1), (20, 1), (20, 2)],
        "fdm": False,
    },
    "t3": {
        "function": ("rosenbrock", {"d": 100}),
        "metric": "identity",
        "p": 5.0,
        "cells": [(101, 1), (150, 1), (200, 1), (200, 2)],
        "fdm": True,
    },
    "t4": {
        "function": ("rosenbrock", {"d": 1000}),
        "metric": "identity",
        "p": 7.0,
        "cells": [(1001, 1), (2000, 1), (2000, 2)],
        "fdm": True,
    },
    "t5": {
        "function": ("synthetic", {"d": 200, "m1": 2.0, "m2": 1.0}),
        "metric": "identity",
        "p": 6.0,
        "cells": [(201, 1), (400, 1), (400, 2)],
        "fdm": True,
    },
    "t6": {
        "function": ("synthetic", {"d": 200, "m1": 200.0, "m2": 1e-3}),
        "metric": "identity",
        "p": 6.0,
        "cells": [(201, 1), (400, 1), (400, 2)],
        "fdm": True,
    },
}


def _build_function(name: str, d: int, m1=None, m2=None) -> ObjectiveFunction:
    """The objective named by a CLI or preset function spec."""
    if name == "rosenbrock":
        return rosenbrock(d)
    if name == "synthetic":
        return synthetic_ms(d, m1, m2)
    if name.startswith("expr:"):
        fun = compile_expression(name[len("expr:"):], d)
        return ObjectiveFunction(fun=fun, dim=d, name="custom-expr")
    raise DomainError(
        f"unknown function {name!r}; use rosenbrock, synthetic or expr:<expression>"
    )


def _build_metric(spec: str, d: int) -> TensorMetric:
    """The metric named by a spec string; the spec doubles as the row label."""
    if spec == "identity":
        return identity_metric(d)
    if spec.startswith("exp-corr:"):
        try:
            rho = float(spec[len("exp-corr:"):])
        except ValueError:
            raise DomainError(f"exp-corr needs a numeric rho, got {spec!r}") from None
        return exp_corr_metric(d, rho)
    if spec.startswith("file:"):
        return from_matrix(load_matrix(spec[len("file:"):]))
    raise DomainError(f"unknown metric {spec!r}; use identity, exp-corr:<rho> or file:<path>")


def table_specs(name: str, reps: int = 50, seed: int = 0) -> list[ExperimentSpec]:
    """Experiment specs for every randomized cell of a table preset.

    Cells follow the standard benchmark protocol: h = 1e-4,
    sigma = 1/d^2, cone-measure directions with the U(0, xi) radius and
    sample-convention decorrelation; L=1 cells use the one-point
    centered stencil, L=2 the antithetic (1, -1) stencil.
    """
    if name not in TABLE_PRESETS:
        raise DomainError(f"unknown table preset {name!r}; choose from {sorted(TABLE_PRESETS)}")
    preset = TABLE_PRESETS[name]
    fname, fparams = preset["function"]
    specs = []
    for cell_index, (ln, l) in enumerate(preset["cells"]):
        function = _build_function(fname, **fparams)
        d = function.dim
        metric = _build_metric(preset["metric"], d)
        # cells give the evaluation budget LN; N = LN / L
        n = ln if l == 1 else ln // l
        cfg = EstimatorConfig(
            scheme=one_point() if l == 1 else two_point_central(),
            law=DirectionLaw.sphere(preset["p"]),
            radial=RadialLaw.uniform(d**-2.0),
            n=n,
            sigma=d**-2.0,
            h=1e-4,
            decorrelate=True,
            decorrelate_mode=DECORRELATE_SAMPLE,
        )
        specs.append(
            ExperimentSpec(
                function=function,
                metric=metric,
                cfg=cfg,
                reps=reps,
                seed=derive_seed(seed, cell_index),
                name=f"{name}[LN={ln},L={l}]",
                metric_label=preset["metric"],
            )
        )
    return specs
