"""Benchmark functions, baselines and experiment runners.

Provides the standard test objectives with analytic gradients, the
central finite-difference baseline, the relative error measure in the
metric-transformed space, repeated-trial experiment running with
derived per-rep seeds, mean-squared-error sweeps over sample size, and
``moments_report``, which scores chunked draws with derived seeds against
the closed-form moments. Experiments run at the origin. Every trial of
``run_experiment`` and ``mse_sweep`` goes through ``_trial``, which turns
a library failure into a note instead of aborting the run, and each row
and sweep is measured against one checked reference, ``_reference``.
``RunConfig`` describes a run; ``_build_spec`` turns it into the
experiment for both the CLI and the table presets.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import DomainError, EvaluationError, LpgradError, _check_int, _check_real
from .estimator import (
    EstimatorConfig,
    ObjectiveFunction,
    _check_dims,
    _check_point,
    _evaluate_rows,
    _with_n,
    estimate_gradient,
    recommended_sigma,
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
from .sampler import (DECORRELATE_SAMPLE, RADIAL_UNIFORM, SPHERE, DirectionLaw, RadialLaw, draw_batch,
                      log_direction_moment, log_radius_moment, lp_norm)
from .scheme import build_scheme, one_point, two_point_central

__all__ = [
    "rosenbrock",
    "synthetic_ms",
    "trig_sum",
    "central_fdm",
    "err",
    "ExperimentSpec",
    "run_experiment",
    "fdm_row",
    "mse_sweep",
    "moments_report",
    "table_specs",
]


def rosenbrock(d: int) -> ObjectiveFunction:
    """The d-dimensional Rosenbrock function, d >= 2.

    r(x) = sum_{k<d} (1 - x_k)^2 + 100 (x_{k+1} - x_k^2)^2, with
    r(1) = 0 and gradient [-2, ..., -2, 0] at the origin.
    """
    d = _check_int("d", d, 2)

    def fun(x):
        # (1 - head)^2 + 100 (tail - head^2)^2 in two blocks, same ufuncs in the same order
        head = x[..., :-1]
        a = np.subtract(1.0, head)
        np.square(a, out=a)
        b = np.square(head)
        np.subtract(x[..., 1:], b, out=b)
        np.square(b, out=b)
        np.multiply(100.0, b, out=b)
        return np.sum(np.add(a, b, out=a), axis=-1)

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros_like(x)
        g[:-1] = -2.0 * (1.0 - x[:-1]) - 400.0 * x[:-1] * (x[1:] - x[:-1] ** 2)
        g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
        return g

    return ObjectiveFunction(fun=fun, dim=d, name="rosenbrock", grad=grad, vectorized=True)


def synthetic_ms(d: int, m1: float, m2: float) -> ObjectiveFunction:
    """m2*sin on the odd-numbered coordinates, cos on the even-numbered
    ones, plus the rank-one quadratic coupling ((m1-m2)/(2d)) (sum x)^2;
    d must be even.

    The gradient at the origin is m2 * [1, 0, 1, 0, ...]. This m2 is no
    smoothness constant (the coupling's Hessian has eigenvalue m1 - m2), so f.m2 is None.
    """
    d = _check_int("d", d, 2)
    if d % 2 != 0:
        raise DomainError(f"the synthetic objective requires an even d, got {d}")
    _check_real("m1", m1)
    _check_real("m2", m2)
    if not math.isfinite(float(m1) - float(m2)):
        raise DomainError(f"m1 - m2 must be finite, got {m1!r} - {m2!r}")

    def fun(x):
        s = x.sum(axis=-1)
        return (
            np.sum(m2 * np.sin(x[..., 0::2]) + np.cos(x[..., 1::2]), axis=-1)
            + (m1 - m2) / (2.0 * d) * s * s
        )

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.full(d, (m1 - m2) / d * x.sum())
        g[0::2] += m2 * np.cos(x[0::2])
        g[1::2] -= np.sin(x[1::2])
        return g

    return ObjectiveFunction(fun=fun, dim=d, name="synthetic", grad=grad, vectorized=True)


def trig_sum(d: int) -> ObjectiveFunction:
    """f(x) = sum_k sin(x_k); gradient cos(x), all-ones at the origin."""
    return ObjectiveFunction(
        fun=lambda x: np.sin(x).sum(axis=-1),
        dim=_check_int("d", d, 1),
        name="trig-sum",
        m2=1.0,
        grad=lambda x: np.cos(np.asarray(x, dtype=float)),
        vectorized=True,
    )


def central_fdm(f: ObjectiveFunction, x, h: float) -> np.ndarray:
    """Coordinate-wise central differences: 2d evaluations, rows 2k and
    2k + 1 at x + h e_k and x - h e_k, built and evaluated one row block
    at a time."""
    _check_real("h", h, 0.0)
    x = _check_point(f, x)

    def points(i, j):
        rows = np.arange(i, j)
        block = np.tile(x, (j - i, 1))
        block[rows - i, rows // 2] += np.where(rows % 2 == 0, h, -h)
        return block

    values = _evaluate_rows(f, 2 * x.shape[0], points)
    with np.errstate(all="ignore"):  # a non-finite difference raises below
        grad = (values[0::2] - values[1::2]) / (2.0 * h)
    if not np.isfinite(grad).all():
        raise EvaluationError("the central-difference estimate is not finite", point=x.copy())
    return grad


def _nonzero(ref: np.ndarray) -> np.ndarray:
    """``ref``, which a relative error divides by, if it is not zero."""
    if not ref.any():
        raise DomainError("reference gradient is zero in the transformed space")
    return ref


def _relative_error(ref: np.ndarray, est: np.ndarray) -> float:
    """||ref - est||_2 / ||ref||_2 for a reference that ``_nonzero`` passed, both
    in the metric-transformed space: the err of every row and of ``err``. Both
    vectors are first scaled by one power of two, so their difference does not
    overflow, and each vector of a norm by a power of two taken from its largest
    entry, so no norm overflows or underflows. A ratio beyond the float range
    is inf."""
    top = math.frexp(float(max(np.abs(ref).max(), np.abs(est).max())))[1]
    ref, est = np.ldexp(ref, -top), np.ldexp(est, -top)
    vectors = (ref - est, ref)
    exps = [math.frexp(float(np.abs(v).max()))[1] for v in vectors]
    na, nb = (np.linalg.norm(np.ldexp(v, -e)) for v, e in zip(vectors, exps))
    with np.errstate(over="ignore"):
        return float(np.ldexp(na / nb, exps[0] - exps[1]))


def err(metric: TensorMetric, grad_true, grad_est) -> float:
    """Relative error of the metric-transformed gradient estimate.

    ||G^{-1} grad_true - G^{-1} grad_est||_2 / ||G^{-1} grad_true||_2 for
    traditional-gradient arguments, as every row of the harness measures it.
    """
    grad_true = np.asarray(grad_true, dtype=float)
    grad_est = np.asarray(grad_est, dtype=float)
    if grad_true.shape != grad_est.shape:
        raise DomainError("gradient vectors must have equal length")
    if not (np.isfinite(grad_true).all() and np.isfinite(grad_est).all()):
        raise DomainError("gradient vectors must be finite, got a nan or inf entry")
    return _relative_error(_nonzero(apply_inverse(metric, grad_true)), apply_inverse(metric, grad_est))


@dataclass(frozen=True)
class ExperimentSpec:
    """A repeated-trial gradient-estimation experiment at the origin; the
    metric must have the objective's dimension."""

    function: ObjectiveFunction
    metric: TensorMetric
    cfg: EstimatorConfig
    reps: int
    seed: int
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "reps", _check_int("reps", self.reps, 1))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))
        for name, cls in (("function", ObjectiveFunction), ("metric", TensorMetric), ("cfg", EstimatorConfig)):
            if not isinstance(getattr(self, name), cls):
                raise DomainError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        _check_dims(self.function, self.metric)


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
    state = np.random.SeedSequence([_check_int("seed", seed, 0), *[int(i) for i in indices]])
    return int(state.generate_state(1, np.uint64)[0])


def _reference(function: ObjectiveFunction, metric: TensorMetric) -> np.ndarray:
    """G^{-1} grad f(0) from the analytic ``grad``, else from a tight central
    difference through this module's ``central_fdm``; a DomainError unless it
    is a finite vector of the objective's length."""
    x0 = np.zeros(function.dim)
    with np.errstate(all="ignore"):  # a non-finite reference raises below
        grad = central_fdm(function.fresh(), x0, 1e-6) if function.grad is None else function.grad(x0)
        grad = np.asarray(grad, dtype=float)
        ref = apply_inverse(metric, grad) if grad.shape == x0.shape else grad
    if ref.shape != x0.shape or not np.isfinite(ref).all():
        raise DomainError(f"the reference gradient at the origin must be a finite vector of length {function.dim}")
    return ref


def _map(fn, items, threads: int) -> list:
    """[fn(item) for item in items], on at most ``threads`` workers (0 = one
    per core), and never more workers than cores or items; one worker runs
    them in turn on the calling thread.

    Results keep the order of ``items`` whatever the worker count.
    """
    threads = _check_int("threads", threads, 0)
    cores = os.cpu_count() or 1
    workers = min(threads or cores, cores, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# moments_report draws in chunks of about this many batch elements, so
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
    law = DirectionLaw(SPHERE, p)
    radial = RadialLaw(RADIAL_UNIFORM, sigma)
    analytic = [(f"E|U1|^{q}", math.exp(log_direction_moment(q, 0, d, p))) for q in (1, 2, 3, 4)]
    if d >= 2:
        analytic.append(("E[U1^2|U2|]", math.exp(log_direction_moment(2, 1, d, p))))
    analytic.append(("E[V1^2]", sigma**2))
    for q in (1, 2, 3, 4):
        try:
            value = sigma**q * math.exp(log_radius_moment(q, d, p))
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise DomainError(f"E[R0^{q}] {'overflows' if value else 'underflows'} at sigma = {sigma}")
        analytic.append((f"E[R0^{q}]", value))
    draws = _check_int("draws", draws, 1)
    rows = max(1, _MOMENTS_CHUNK_ELEMENTS // d)
    scale = np.array([ana for _, ana in analytic])[:, None]
    count = 0
    with np.errstate(all="ignore"):  # an overflowed moment gives a nan z
        for k, start in enumerate(range(0, draws, rows)):
            v = draw_batch(law, radial, min(rows, draws - start), d, derive_seed(seed, k)).values
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


def _row_static(spec: ExperimentSpec) -> dict:
    cfg = spec.cfg
    law = cfg.law
    return {
        "function": spec.function.name,
        "d": spec.function.dim,
        "p": float(law.p),
        "l": cfg.scheme.l,
        "n": cfg.n,
        "h": float(cfg.h),
        "sigma": float(cfg.radial.sigma),
        "law": law.kind,
        "radial": cfg.radial.kind,
        "decorrelated": cfg.decorrelate is not None,
        "metric": spec.metric.label,
    }


def _trial(spec: ExperimentSpec, cfg: EstimatorConfig, seed: int):
    """One estimate at the origin on a fresh objective: (grad, n_evals,
    wall_ms, note), where a failed trial has grad None and a note."""
    f = spec.function.fresh()
    t0 = time.perf_counter()
    try:
        grad = estimate_gradient(f, np.zeros(f.dim), cfg, spec.metric, seed=seed).grad
        note = ""
    except LpgradError as exc:
        grad, note = None, str(exc)
    return grad, f.eval_count, (time.perf_counter() - t0) * 1e3, note


def run_experiment(spec: ExperimentSpec, threads: int = 1):
    """Run spec.reps independent trials and summarize the errors.

    Per-rep seeds derive deterministically from (spec.seed, rep); rows
    come back ordered by rep regardless of the worker count, so output
    does not depend on ``threads``. Each row's err is
    ||G^{-1} grad - estimate|| / ||G^{-1} grad||. A trial fails when its
    estimate raises; that annotates its row (err = nan, note set) instead
    of aborting the experiment.

    Returns (rows, summary) where summary holds mean/sd of err and the
    mean evaluation count over successful reps (nan with too few of them
    to tell; an err may be inf), and the number of failed reps.
    """
    ref = _nonzero(_reference(spec.function, spec.metric))
    static = _row_static(spec)
    seeds = [derive_seed(spec.seed, rep) for rep in range(spec.reps)]
    trials = _map(lambda seed: _trial(spec, spec.cfg, seed), seeds, threads)
    rows = []
    for rep, (seed, (grad, n_evals, wall, note)) in enumerate(zip(seeds, trials)):
        e = float("nan") if grad is None else _relative_error(ref, grad)
        rows.append(ResultRow(**static, rep=rep, seed=seed, err=e, n_evals=n_evals, wall_ms=wall, note=note))
    ok = [row for row, (grad, *_) in zip(rows, trials) if grad is not None]
    errs = np.array([row.err for row in ok])
    with np.errstate(all="ignore"):  # the mean or sd of errs beyond the float range is inf or nan
        summary = {
            "mean_err": float(errs.mean()) if ok else float("nan"),
            "sd_err": float(errs.std(ddof=1)) if len(ok) > 1 else float("nan"),
            "mean_n_evals": float(np.mean([row.n_evals for row in ok])) if ok else float("nan"),
            "n_failed": spec.reps - len(ok),
        }
    return rows, summary


def fdm_row(function: ObjectiveFunction, metric: TensorMetric, h: float) -> ResultRow:
    """One deterministic central-difference baseline trial at the origin, its inputs checked first."""
    _check_dims(function, metric)
    f = function.fresh()
    ref = _nonzero(_reference(f, metric))
    t0 = time.perf_counter()
    grad_est = central_fdm(f, np.zeros(f.dim), h)
    wall = (time.perf_counter() - t0) * 1e3
    return ResultRow(
        function=f.name,
        d=f.dim,
        p=float("nan"),
        l=0,
        n=f.dim,
        h=float(h),
        sigma=float("nan"),
        law="central-fdm",
        radial="none",
        decorrelated=False,
        metric=metric.label,
        rep=0,
        seed=0,
        err=_relative_error(ref, apply_inverse(metric, grad_est)),
        n_evals=f.eval_count,
        wall_ms=wall,
    )


def mse_sweep(spec: ExperimentSpec, n_values, threads: int = 1):
    """Empirical MSE against sample size, plus the fitted log-log slope.

    For each N the spec's undecorrelated config runs spec.reps times
    with the spec's fixed h; the MSE is the mean over reps of the
    squared euclidean distance between the estimate and the
    metric-transformed reference gradient. Per-(N, rep) seeds derive from
    (spec.seed, N, rep) so sweeps with different laws pair up by seed.
    A failed trial is left out of its N's mean.

    Returns (points, slope, notes) with points a list of (n, mse) and
    notes the count of failed (N, rep) trials per distinct note, empty
    when none failed; a fit it cannot make names them in its error.
    """
    n_values = sorted({_check_int("n", n, 1) for n in n_values})
    if len(n_values) < 2:
        raise DomainError("mse_sweep needs at least two distinct sample sizes")
    if spec.cfg.decorrelate is not None:
        raise DomainError(f"mse_sweep measures raw batches, got decorrelate={spec.cfg.decorrelate!r}")
    ref = _reference(spec.function, spec.metric)
    cfgs = [_with_n(spec.cfg, n) for n in n_values]
    jobs = [(cfg, derive_seed(spec.seed, cfg.n, rep)) for cfg in cfgs for rep in range(spec.reps)]
    trials = _map(lambda job: _trial(spec, *job), jobs, threads)
    grads = [grad for grad, *_ in trials]
    notes = Counter(note for grad, _, _, note in trials if grad is None)
    with np.errstate(all="ignore"):  # a square beyond the float range gives an inf MSE, left unfitted
        sq = np.array([np.nan if g is None else (g - ref) @ (g - ref) for g in grads])
        sq = sq.reshape(len(n_values), spec.reps)
        means = np.array([np.nanmean(col) if np.isfinite(col).any() else float("nan") for col in sq])
    points = [(n, float(m)) for n, m in zip(n_values, means)]
    valid = [(n, m) for n, m in points if math.isfinite(m)]
    if len(valid) < 2:
        raise DomainError("; ".join(["mse_sweep has fewer than two valid points to fit",
                                     *_failure_lines(notes, len(jobs), "trials")]))
    positive = [(n, m) for n, m in valid if m > 0.0]
    if len(positive) < 2:
        slope = float("nan")  # e.g. a constant objective: every MSE is zero
    else:
        log_n = np.log([n for n, _ in positive])
        log_m = np.log([m for _, m in positive])
        slope = float(np.polyfit(log_n, log_m, 1)[0])
    return points, slope, notes


def _failure_lines(notes: dict, total: int, unit: str) -> list[str]:
    """'k of total unit failed: note' for each note with its count k."""
    return [f"{count} of {total} {unit} failed: {note}" for note, count in notes.items()]


# the output formats, spelled once, and a name for each
OUTPUT_FORMATS = FORMAT_CSV, FORMAT_JSON = ("csv", "json")

# RunConfig field type -> the JSON values it accepts (bool is an int
# subclass, so from_dict rejects it explicitly)
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "None": type(None)}


@dataclass
class RunConfig:
    """A complete, JSON-serializable description of an estimate run."""

    function: str = "rosenbrock"
    d: int = 10
    p: float = 3.0
    l: int = 1
    n: int = 20
    h: float = 1e-4
    sigma: str | float = "auto-d2"
    law: str = SPHERE
    radial: str = RADIAL_UNIFORM
    decorrelate: str | None = None
    metric: str = "identity"
    seed: int = 0
    reps: int = 1
    m1: float = 2.0
    m2: float = 1.0
    threads: int = 1
    out: str | None = None
    format: str = FORMAT_CSV

    def __post_init__(self):
        self.seed = _check_int("seed", self.seed, 0)
        self.reps = _check_int("reps", self.reps, 1)
        self.threads = _check_int("threads", self.threads, 0)
        self.l = _check_int("L", self.l, 1)
        for name in ("p", "h", "m1", "m2"):  # their ranges are checked where they are used
            _check_real(name, getattr(self, name))
        if self.format not in OUTPUT_FORMATS:
            raise DomainError(f"unknown output format {self.format!r}")

    @classmethod
    def from_dict(cls, data: dict, unread=()) -> "RunConfig":
        """The run ``data`` describes; its values are JSON types, ``d`` is required,
        and a field in ``unread`` (one the command does not read) is an unknown key."""
        types = {f.name: f.type for f in fields(cls) if f.name not in unread}
        unknown = set(data) - set(types)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        if "d" not in data:
            raise DomainError("d is required: give --d or the config key 'd'")
        for name, value in data.items():
            allowed = tuple(_JSON_TYPES[t.strip()] for t in types[name].split("|"))
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise DomainError(f"config key {name!r} must be {types[name]}, got {value!r}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str, unread=(), **overrides) -> "RunConfig":
        """The run the JSON object in ``path`` describes, ``overrides`` replacing its keys."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # malformed JSON, or bytes that are not text
                raise DomainError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise DomainError(f"config {path} must hold a JSON object, got {type(data).__name__}")
        return cls.from_dict({**data, **overrides}, unread)

    def to_json(self, path: str, unread=()) -> None:
        saved = {name: value for name, value in asdict(self).items() if name not in unread}
        with open(path, "w") as fh:
            json.dump(saved, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _resolve_sigma(sigma, metric: TensorMetric, p: float) -> float:
    if sigma == "auto-c3":
        return recommended_sigma(metric, p)
    if sigma == "auto-d2":
        return float(metric.dim) ** -2.0
    try:
        return float(sigma)
    except (TypeError, ValueError):
        raise DomainError(f"sigma must be a number, 'auto-c3' or 'auto-d2', got {sigma!r}")


def _build_function(name: str, d: int, m1=None, m2=None) -> ObjectiveFunction:
    """The objective named by a CLI or preset function spec."""
    if name == "rosenbrock":
        return rosenbrock(d)
    if name == "synthetic":
        return synthetic_ms(d, m1, m2)
    if name.startswith("expr:"):
        fun = compile_expression(name[len("expr:"):], d)
        return ObjectiveFunction(fun=fun, dim=d, name="custom-expr", vectorized=True)
    raise DomainError(
        f"unknown function {name!r}; use rosenbrock, synthetic or expr:<expression>"
    )


def _build_metric(spec: str, d: int) -> TensorMetric:
    """The metric named by a spec string, labelled with that string."""
    if spec == "identity":
        metric = identity_metric(d)
    elif spec.startswith("exp-corr:"):
        try:
            rho = float(spec[len("exp-corr:"):])
        except ValueError:
            raise DomainError(f"exp-corr needs a numeric rho, got {spec!r}") from None
        metric = exp_corr_metric(d, rho)
    elif spec.startswith("file:"):
        metric = from_matrix(load_matrix(spec[len("file:"):]))
    else:
        raise DomainError(f"unknown metric {spec!r}; use identity, exp-corr:<rho> or file:<path>")
    return replace(metric, label=spec)


def _build_spec(cfg: RunConfig, name: str = "") -> ExperimentSpec:
    """The experiment a run configuration describes; L=1 uses the one-point
    centered stencil, L=2 the antithetic (1, -1) one, L >= 3 offsets 1..L."""
    function = _build_function(cfg.function, cfg.d, cfg.m1, cfg.m2)
    metric = _build_metric(cfg.metric, cfg.d)
    sigma = _resolve_sigma(cfg.sigma, metric, cfg.p)
    if cfg.l == 1:
        scheme = one_point()
    elif cfg.l == 2:
        scheme = two_point_central()
    else:
        scheme = build_scheme(range(1, cfg.l + 1))
    est_cfg = EstimatorConfig(
        scheme=scheme,
        law=DirectionLaw(cfg.law, p=cfg.p),
        radial=RadialLaw(cfg.radial, sigma),
        n=cfg.n,
        h=cfg.h,
        decorrelate=cfg.decorrelate,
    )
    return ExperimentSpec(
        function=function,
        metric=metric,
        cfg=est_cfg,
        reps=cfg.reps,
        seed=cfg.seed,
        name=name,
    )


# the standard benchmark protocol shared by every table cell: h = 1e-4,
# sigma = 1/d^2, cone-measure directions with the U(0, xi) radius and
# sample-convention decorrelation
_PROTOCOL = RunConfig(
    h=1e-4, sigma="auto-d2", law=SPHERE, radial=RADIAL_UNIFORM, decorrelate=DECORRELATE_SAMPLE,
)

# cells are (evaluation budget LN, stencil size L); N = LN // L
TABLE_PRESETS = {
    "t2": {
        "run": replace(_PROTOCOL, function="rosenbrock", d=10, p=3.0),
        "cells": [(11, 1), (15, 1), (20, 1), (20, 2)],
        "fdm": True,
    },
    "t2dep": {
        "run": replace(_PROTOCOL, function="rosenbrock", d=10, p=3.0, metric="exp-corr:0.5"),
        "cells": [(11, 1), (15, 1), (20, 1), (20, 2)],
        "fdm": False,
    },
    "t3": {
        "run": replace(_PROTOCOL, function="rosenbrock", d=100, p=5.0),
        "cells": [(101, 1), (150, 1), (200, 1), (200, 2)],
        "fdm": True,
    },
    "t4": {
        "run": replace(_PROTOCOL, function="rosenbrock", d=1000, p=7.0),
        "cells": [(1001, 1), (2000, 1), (2000, 2)],
        "fdm": True,
    },
    "t5": {
        "run": replace(_PROTOCOL, function="synthetic", d=200, p=6.0, m1=2.0, m2=1.0),
        "cells": [(201, 1), (400, 1), (400, 2)],
        "fdm": True,
    },
    "t6": {
        "run": replace(_PROTOCOL, function="synthetic", d=200, p=6.0, m1=200.0, m2=1e-3),
        "cells": [(201, 1), (400, 1), (400, 2)],
        "fdm": True,
    },
}


def table_specs(name: str, reps: int, seed: int) -> list[ExperimentSpec]:
    """Experiment specs for every randomized cell of a table preset."""
    if name not in TABLE_PRESETS:
        raise DomainError(f"unknown table preset {name!r}; choose from {sorted(TABLE_PRESETS)}")
    preset = TABLE_PRESETS[name]
    return [
        _build_spec(
            replace(preset["run"], l=l, n=ln // l, reps=reps, seed=derive_seed(seed, cell_index)),
            name=f"{name}[LN={ln},L={l}]",
        )
        for cell_index, (ln, l) in enumerate(preset["cells"])
    ]
