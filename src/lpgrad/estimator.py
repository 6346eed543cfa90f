"""The randomized gradient estimator and its closed-form bound constants.

Given N perturbation rows V_i and an L-point stencil (beta_l, C_l) the
estimator of the metric-transformed gradient at x is

    G^{-1} (1 / (N h sigma^2)) sum_i sum_l C_l f(x + beta_l h V_i) V_i

for L >= 2; for L = 1 the single evaluation per sample is centered by
the batch mean of f(x + h V_i) (reusing the same N evaluations).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError
from .metric import TensorMetric, apply_inverse
from .sampler import (
    DECORRELATE_MOMENT,
    DECORRELATE_SAMPLE,
    DirectionLaw,
    RadialLaw,
    _log_er2_over_sigma2,
    decorrelate,
    draw_batch,
    log_gamma,
)
from .scheme import PointScheme, validate_bandwidth

__all__ = [
    "ObjectiveFunction",
    "EstimatorConfig",
    "GradientEstimate",
    "estimate_gradient",
    "k1",
    "k2",
    "surrogate_bias_bound",
    "recommended_sigma",
    "recommend_p",
]


@dataclass
class ObjectiveFunction:
    """A deterministic scalar objective with an evaluation counter.

    ``m1`` / ``m2`` are optional first/second-order smoothness constants
    used by the bound calculators; ``grad`` an optional analytic
    gradient callable used by the benchmark harness.
    """

    fun: Callable
    dim: int
    name: str = "custom"
    m1: float | None = None
    m2: float | None = None
    grad: Callable | None = None
    eval_count: int = field(default=0, compare=False)

    def __call__(self, x) -> float:
        value = float(self.fun(np.asarray(x, dtype=float)))
        self.eval_count += 1
        return value

    def fresh(self) -> "ObjectiveFunction":
        """A copy with its own zeroed evaluation counter."""
        return replace(self, eval_count=0)


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything the estimator needs besides the objective and point.

    ``radial.sigma`` is the one sigma of a run: it calibrates every
    direction law and divides the final sum. ``decorrelate`` is None
    for the raw batch, or the ``sampler.decorrelate`` mode: "moment"
    pins (1/N) V^T V = sigma^2 I exactly, "sample" uses the
    sample-covariance convention which reproduces the published
    benchmarks.
    """

    scheme: PointScheme
    law: DirectionLaw
    radial: RadialLaw
    n: int
    h: float
    decorrelate: str | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("sample size n must be >= 1")
        if not isinstance(self.radial, RadialLaw):
            raise DomainError(f"a radial law is required, got {self.radial!r}")
        if self.h is None or not (math.isfinite(self.h) and self.h > 0.0):
            raise DomainError(f"h must be finite and positive, got {self.h}")
        if self.decorrelate not in (None, DECORRELATE_MOMENT, DECORRELATE_SAMPLE):
            raise DomainError(f"decorrelate must be None, 'moment' or 'sample', got {self.decorrelate!r}")
        if not validate_bandwidth(self.scheme, self.h, self.sigma):
            warnings.warn(
                f"beta_max * h * sigma = {self.scheme.beta_max * self.h * self.sigma:.3g} "
                "exceeds 1/2; consider a smaller h or sigma",
                RuntimeWarning,
                stacklevel=3,  # the caller of the generated __init__
            )

    @property
    def sigma(self) -> float:
        return self.radial.sigma


@dataclass(frozen=True)
class GradientEstimate:
    """Estimated gradient vector plus evaluation accounting."""

    grad: np.ndarray
    n_evals: int


def _evaluate_rows(f: ObjectiveFunction, points: np.ndarray) -> np.ndarray:
    out = np.empty(points.shape[0])
    for i in range(points.shape[0]):
        value = f(points[i])
        if not math.isfinite(value):
            raise EvaluationError(
                f"objective {f.name!r} returned non-finite value {value}",
                point=points[i].copy(),
            )
        out[i] = value
    return out


def estimate_gradient(
    f: ObjectiveFunction,
    x,
    cfg: EstimatorConfig,
    metric: TensorMetric,
    seed: int = 0,
) -> GradientEstimate:
    """Estimate the metric-transformed gradient of f at x.

    Deterministic in seed; evaluations run sequentially in a fixed
    order so results do not depend on any caller-side parallelism.
    Costs L*N evaluations for L >= 2 and N for L = 1 (the centering
    mean reuses the same evaluations).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    if x.ndim != 1:
        raise DomainError("x must be a vector")
    if f.dim != d:
        raise DomainError(f"objective dimension {f.dim} != len(x) = {d}")
    if metric.dim != d:
        raise DomainError(f"metric dimension {metric.dim} != len(x) = {d}")
    scheme = cfg.scheme
    batch = draw_batch(cfg.law, cfg.radial, cfg.n, d, seed)
    if cfg.decorrelate is not None:
        batch = decorrelate(batch, cfg.sigma, cfg.decorrelate)
    v = batch.values
    h = cfg.h
    if scheme.l == 1:
        q = _evaluate_rows(f, x[None, :] + scheme.betas[0] * h * v)
        weights = scheme.coeffs[0] * (q - q.mean())
        n_evals = cfg.n
    else:
        weights = np.zeros(cfg.n)
        for beta, c in zip(scheme.betas, scheme.coeffs):
            weights += c * _evaluate_rows(f, x[None, :] + beta * h * v)
        n_evals = scheme.l * cfg.n
    raw = v.T @ weights / (cfg.n * h * cfg.sigma**2)
    grad = apply_inverse(metric, raw)
    return GradientEstimate(grad=grad, n_evals=n_evals)


def _log_bracket(d: int, p: float) -> float:
    # ln[ Gamma(4/p) Gamma(1/p) + (d-1) Gamma(3/p) Gamma(2/p) ]
    first = log_gamma(4 / p) + log_gamma(1 / p)
    if d == 1:
        return first
    second = math.log(d - 1) + log_gamma(3 / p) + log_gamma(2 / p)
    return float(np.logaddexp(first, second))


def _log_k1(d: int, p: float) -> float:
    return (
        log_gamma(d / p)
        + _log_bracket(d, p)
        - 2 * log_gamma(1 / p)
        - log_gamma((d + 3) / p)
    )


def _log_r3_ratio(d: int, p: float) -> float:
    # ln(E[R0^3] / sigma^3) for the U(0, xi) radius; sigma-free
    return 1.5 * math.log(3.0) - math.log(4.0) + 1.5 * _log_er2_over_sigma2(d, p)


def k1(d: int, p: float) -> float:
    """The direction-moment constant E[|U_1|^3 + (d-1) U_1^2 |U_2|].

    Equals Gamma(d/p) [Gamma(4/p)Gamma(1/p) + (d-1)Gamma(3/p)Gamma(2/p)]
    / (Gamma^2(1/p) Gamma((d+3)/p)), evaluated in log space.
    """
    return math.exp(_log_k1(d, p))


def k2(d: int, p: float, regime: str | None = None) -> float:
    """The sigma-free bias constant, k1 * E[R0^3] / sigma^3.

    ``regime`` exposes the asymptotic approximations as diagnostics:
    "small_p" for p << d, "large_p" for d << p.
    """
    if regime is None:
        return math.exp(_log_k1(d, p) + _log_r3_ratio(d, p))
    if regime == "small_p":
        return math.exp(
            1.5 * math.log(3.0)
            - math.log(4.0)
            + _log_bracket(d, p)
            - 0.5 * log_gamma(1 / p)
            - 1.5 * log_gamma(3 / p)
        )
    if regime == "large_p":
        return 9.0 * (d + 3) * (2 * d + 1) * math.sqrt(d) / (16.0 * (d + 2) ** 1.5)
    raise DomainError(f"unknown regime {regime!r}")


def surrogate_bias_bound(
    metric: TensorMetric,
    d: int,
    p: float,
    m2: float,
    h: float,
    sigma: float,
    norm: str = "l2",
    radial: str | RadialLaw = "uniform",
) -> float:
    """Upper bound on the surrogate error: m2 h E[R^3]/sigma^2 * ||.|| * k1.

    ``norm`` picks which norm of |G^{-1}| 1 enters ("l1" or "l2").
    For the U(0, xi) radius E[R^3] is the exact third moment; for the
    constant radius it is sigma^3. With sigma from
    recommended_sigma(..., "self-normalizing") the l2 bound collapses to m2*h.
    """
    if isinstance(radial, RadialLaw):
        radial = radial.kind
    if norm == "l2":
        norm_val = metric.abs_ginv_ones_l2
    elif norm == "l1":
        norm_val = metric.abs_ginv_ones_l1
    else:
        raise DomainError(f"unknown norm {norm!r}")
    if radial == "uniform":
        factor = math.exp(_log_r3_ratio(d, p) + _log_k1(d, p))
    elif radial == "dirac":
        factor = k1(d, p)
    else:
        raise DomainError(f"unknown radial law {radial!r}")
    return m2 * h * factor * sigma * norm_val


def recommended_sigma(metric: TensorMetric, d: int, p: float, rule: str) -> float:
    """Sigma choices that keep the bias bound dimension-free.

    "self-normalizing" returns 1 / (|| |G^{-1}| 1 ||_2 * k2); "d_pow_3_2" and
    "d_pow_neg2" are the simple d^(3/2) and d^(-2) prescriptions.
    """
    if rule == "self-normalizing":
        return 1.0 / (metric.abs_ginv_ones_l2 * k2(d, p))
    if rule == "d_pow_3_2":
        return float(d) ** 1.5
    if rule == "d_pow_neg2":
        return float(d) ** -2.0
    raise DomainError(f"unknown sigma rule {rule!r}")


def recommend_p(d: int) -> int:
    """Practical norm exponent: floor(max(2, ln d)) + 1, at least 2."""
    if d < 1:
        raise DomainError("dimension must be positive")
    return max(2, int(math.floor(max(2.0, math.log(d)))) + 1)
