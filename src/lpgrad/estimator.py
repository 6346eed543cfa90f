"""The randomized gradient estimator and its closed-form bound constants.

Given N perturbation rows V_i and an L-point stencil (beta_l, C_l) the
estimator of the metric-transformed gradient at x is

    G^{-1} (1 / (N h sigma^2)) sum_i sum_l C_l f(x + beta_l h V_i) V_i

for L >= 2; for L = 1 the single evaluation per sample is centered by
the batch mean of f(x + h V_i) (reusing the same N evaluations).
"""
from __future__ import annotations

import copy
import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError, EvaluationError, _check_int, _check_real, log
from .metric import TensorMetric, apply_inverse
from .sampler import (
    DECORRELATE_MODES,
    SPHERE,
    DirectionLaw,
    RadialLaw,
    _check_laws,
    decorrelate,
    draw_batch,
    log_direction_moment,
    log_radius_moment,
)
from .scheme import PointScheme

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

    ``m2`` is an optional second-order smoothness constant ``>= 0``, a bound
    on f's second derivatives to pass to ``surrogate_bias_bound``; ``grad`` an
    optional analytic gradient callable used by the benchmark harness.

    ``estimate_gradient`` makes one rows call per stencil offset and row
    block of at most ``_EVAL_BLOCK_BYTES``, and ``central_fdm`` one per row
    block. A ``vectorized`` ``fun`` maps all rows ``(N, d)`` to ``(N,)`` in
    that call, so it must compute each row on its own, whatever other rows
    share its call; the built-in objectives and ``expr:`` ones do. Any other
    ``fun`` maps one point ``(d,)`` to a number and is called once per row.
    Either way the whole block is evaluated, then counted in ``eval_count``,
    and then its first non-finite value raises an ``EvaluationError`` naming
    its point; so after a failure ``eval_count`` includes the failing block.
    """

    fun: Callable
    dim: int
    name: str = "custom"
    m2: float | None = None
    grad: Callable | None = None
    vectorized: bool = False
    eval_count: int = field(default=0, init=False, compare=False)

    def __post_init__(self):
        self.dim = _check_int("dim", self.dim, 1)
        if self.m2 is not None:
            _check_real("m2", self.m2, 0.0, closed=True)

    def __call__(self, x):
        """f at a point ``(d,)`` as a float, or at each row of ``(N, d)`` as an
        ``(N,)`` array."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dim:
            raise DomainError(f"objective {self.name!r} takes a point ({self.dim},) or rows "
                              f"(N, {self.dim}), got shape {x.shape}")
        # row-major, so a sum over each row adds in the order it would for one point
        rows = np.ascontiguousarray(np.atleast_2d(x))
        n = rows.shape[0]
        with np.errstate(all="ignore"):  # non-finite values raise below
            values = self.fun(rows) if self.vectorized else [self.fun(row) for row in rows]
            try:  # bool, int or float, or objects that are all numbers, such as Fraction or 2**70
                out = np.asarray(values)
                real = out.dtype.kind in "biuf" or (
                    out.dtype.kind == "O" and all(isinstance(item, numbers.Number) for item in out.flat))
                out = out.astype(float, copy=False) if real else None
            except (TypeError, ValueError, OverflowError):
                out = None
        if out is None or out.shape != (n,):
            got = "a value that is not a real float" if out is None else f"shape {out.shape}"
            raise DomainError(f"objective {self.name!r} returned {got} for {n} rows, expected {n} real numbers")
        self.eval_count += n
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            i = bad[0]
            raise EvaluationError(f"objective {self.name!r} returned non-finite value {out[i]}",
                                  point=rows[i].copy())
        return out if x.ndim == 2 else float(out[0])

    def fresh(self) -> "ObjectiveFunction":
        """A copy with its own zeroed evaluation counter."""
        return replace(self)


def _check_point(f: ObjectiveFunction, x) -> np.ndarray:
    """x as a finite float vector of f's dimension."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DomainError("x must be a vector")
    if not np.isfinite(x).all():
        raise DomainError("x must be finite, got a nan or inf entry")
    if f.dim != x.shape[0]:
        raise DomainError(f"objective dimension {f.dim} != len(x) = {x.shape[0]}")
    return x


def _check_dims(f: ObjectiveFunction, metric: TensorMetric) -> None:
    """The one dimension rule: a metric must have its objective's dimension."""
    if metric.dim != f.dim:
        raise DomainError(f"metric dimension {metric.dim} != objective dimension {f.dim}")


# an objective sees at most this many bytes of points per call, so each
# block stays in cache while the objective streams over it
_EVAL_BLOCK_BYTES = 1 << 18


def _evaluate_rows(f: ObjectiveFunction, n: int, rows: Callable) -> np.ndarray:
    """f at n points, where ``rows(i, j)`` builds points i..j-1 as a
    ``(j - i, f.dim)`` array: one rows call of f per block of at most
    ``_EVAL_BLOCK_BYTES``, in order, so a failure stops at its block.
    A point beyond the float range reaches f as inf, without a warning."""
    step = max(1, _EVAL_BLOCK_BYTES // (8 * f.dim))
    out = np.empty(n)
    with np.errstate(all="ignore"):  # f raises at a non-finite value
        for i in range(0, n, step):
            j = min(i + step, n)
            out[i:j] = f(rows(i, j))
    return out


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything the estimator needs besides the objective and point.

    ``radial.sigma`` is the one sigma of a run: it calibrates every
    direction law and divides the final sum. ``decorrelate`` is None
    for the raw batch, or the ``sampler.decorrelate`` mode to apply.
    """

    scheme: PointScheme
    law: DirectionLaw
    radial: RadialLaw
    n: int
    h: float
    decorrelate: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _check_int("n", self.n, 1))
        _check_laws(self.law, self.radial)
        _check_real("h", self.h, 0.0)
        if self.decorrelate not in (None, *DECORRELATE_MODES):
            raise DomainError(f"decorrelate must be None or one of {DECORRELATE_MODES}, got {self.decorrelate!r}")
        width = self.scheme.beta_max * self.h * self.sigma
        if width > 0.5:
            log.warning(f"beta_max * h * sigma = {width:.3g} exceeds 1/2; consider a smaller h or sigma",
                        stacklevel=3)  # the caller of the generated __init__

    @property
    def sigma(self) -> float:
        return self.radial.sigma


def _with_n(cfg: EstimatorConfig, n: int) -> EstimatorConfig:
    """``cfg`` with a sample size ``n`` the caller has checked. Neither cfg's
    other checks nor its bandwidth warning depend on n, so none runs again."""
    cfg = copy.copy(cfg)
    object.__setattr__(cfg, "n", n)
    return cfg


@dataclass(frozen=True)
class GradientEstimate:
    """Estimated gradient vector plus evaluation accounting."""

    grad: np.ndarray
    n_evals: int


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
    Costs L*N evaluations, in blocks as ``ObjectiveFunction`` states (the
    L = 1 centering mean reuses the same evaluations). Raises
    ``EvaluationError`` at the first non-finite objective value, and when
    the estimate itself is not finite (e.g. it overflows); an overflow in a
    point, value or sum prints no numpy warning. A non-finite ``x`` raises
    ``DomainError`` before any evaluation.
    """
    x = _check_point(f, x)
    _check_dims(f, metric)
    d = x.shape[0]
    scheme = cfg.scheme
    if cfg.decorrelate is None:
        v = draw_batch(cfg.law, cfg.radial, cfg.n, d, seed).values
    else:  # passed on unnamed, so no name here keeps the raw batch through the QR
        v = decorrelate(draw_batch(cfg.law, cfg.radial, cfg.n, d, seed), cfg.sigma, cfg.decorrelate).values
    with np.errstate(all="ignore"):  # a non-finite estimate raises below
        weights = np.zeros(cfg.n)
        for beta, c in zip(scheme.betas, scheme.coeffs):  # points x + beta h V_k, one temporary each
            weights += c * _evaluate_rows(f, cfg.n, lambda i, j: operator.iadd(beta * cfg.h * v[i:j], x))
        if scheme.l == 1:
            weights -= weights.mean()
        raw = v.T @ weights / (cfg.n * cfg.h * cfg.sigma**2)
        grad = apply_inverse(metric, raw)
    if not np.isfinite(grad).all():
        raise EvaluationError("the gradient estimate is not finite", point=x.copy())
    return GradientEstimate(grad=grad, n_evals=scheme.l * cfg.n)


def _log_k1(d: int, p: float, law: str = SPHERE) -> float:
    log_k1 = log_direction_moment(3, 0, d, p, law)
    if d > 1:
        log_k1 = float(np.logaddexp(log_k1, math.log(d - 1) + log_direction_moment(2, 1, d, p, law)))
    return log_k1


def k1(d: int, p: float) -> float:
    """The direction-moment constant E[|U_1|^3 + (d-1) U_1^2 |U_2|] of the
    cone measure, from ``log_direction_moment``."""
    return math.exp(_log_k1(d, p))


def k2(d: int, p: float) -> float:
    """The sigma-free bias constant, k1 * E[R0^3] / sigma^3."""
    return math.exp(_log_k1(d, p) + log_radius_moment(3, d, p))


def surrogate_bias_bound(metric: TensorMetric, m2: float, cfg: EstimatorConfig) -> float:
    """Upper bound on the surrogate error, m2 h k1 E[R^3]/sigma^2 || |G^{-1}| 1 ||_2.

    d is ``metric.dim``; p, h, sigma and the laws are those of ``cfg``.
    E[R^3] is that of the radius ``draw_batch`` draws, from
    ``log_radius_moment``, and k1 that of its directions, from
    ``log_direction_moment``.
    Sphere directions, the uniform radius and the "self-normalizing" sigma
    give m2*h.
    """
    _check_real("m2", m2, 0.0, closed=True)
    d, p = metric.dim, cfg.law.p
    log_factor = log_radius_moment(3, d, p, cfg.radial.kind, cfg.law.kind) + _log_k1(d, p, cfg.law.kind)
    return m2 * cfg.h * math.exp(log_factor) * cfg.sigma * metric.abs_ginv_ones_l2


def recommended_sigma(metric: TensorMetric, p: float) -> float:
    """The self-normalizing sigma 1 / (|| |G^{-1}| 1 ||_2 * k2), for d =
    ``metric.dim``: with sphere directions and the uniform radius it makes
    the bias bound m2*h in every dimension."""
    return 1.0 / (metric.abs_ginv_ones_l2 * k2(metric.dim, p))


def recommend_p(d: int) -> int:
    """Practical norm exponent: floor(max(2, ln d)) + 1, at least 2."""
    d = _check_int("d", d, 1)
    return max(2, int(math.floor(max(2.0, math.log(d)))) + 1)
