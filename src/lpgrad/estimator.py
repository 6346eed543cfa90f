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

from .errors import DomainError, EvaluationError, _check_int, _check_real
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
    block, and ``central_fdm`` one per row block, so a ``vectorized``
    ``fun`` must compute each row on its own, whatever other rows share
    its call; the built-in objectives and ``expr:`` ones do.
    ``eval_count`` counts every point evaluated, so after a vectorized
    ``fun`` fails it includes the whole failing block.
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
        ``(N,)`` array. A ``vectorized`` ``fun`` maps all rows ``(N, d)`` to
        ``(N,)`` in one call; any other ``fun`` sees one point at a time and
        stops at the first non-finite value. Every evaluation is counted, and
        the first non-finite value raises an ``EvaluationError`` naming its
        point."""
        x = np.asarray(x, dtype=float)
        # row-major, so a sum over each row adds in the order it would for one point
        rows = np.ascontiguousarray(np.atleast_2d(x))
        n = rows.shape[0]
        if self.vectorized:
            with np.errstate(all="ignore"):  # non-finite values raise below
                out = np.asarray(self.fun(rows), dtype=float)
            if out.shape != (n,):
                raise DomainError(f"objective {self.name!r} returned shape {out.shape} "
                                  f"for {n} rows, expected ({n},)")
            self.eval_count += n
        else:
            out = np.empty(n)
            for i, row in enumerate(rows):
                out[i] = self.fun(row)
                self.eval_count += 1
                if not math.isfinite(out[i]):
                    out = out[:i + 1]
                    break
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


# an objective sees at most this many bytes of points per call, so each
# block stays in cache while the objective streams over it
_EVAL_BLOCK_BYTES = 1 << 18


def _evaluate_rows(f: ObjectiveFunction, n: int, rows: Callable) -> np.ndarray:
    """f at n points, where ``rows(i, j)`` builds points i..j-1 as a
    ``(j - i, f.dim)`` array: one rows call of f per block of at most
    ``_EVAL_BLOCK_BYTES``, in order, so a failure stops at its block."""
    step = max(1, _EVAL_BLOCK_BYTES // (8 * f.dim))
    out = np.empty(n)
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
            warnings.warn(
                f"beta_max * h * sigma = {width:.3g} exceeds 1/2; consider a smaller h or sigma",
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
    Costs L*N evaluations, one rows call of ``f`` per stencil offset and
    row block of at most ``_EVAL_BLOCK_BYTES``, so a vectorized ``f.fun``
    must compute each row on its own (the L = 1 centering mean reuses the
    same evaluations). Raises ``EvaluationError`` at the first non-finite
    objective value, after which ``f.eval_count`` counts a vectorized
    ``fun``'s rows through the failing block; and when the estimate
    itself is not finite (e.g. it overflows). A non-finite ``x`` raises
    ``DomainError`` before any evaluation.
    """
    x = _check_point(f, x)
    d = x.shape[0]
    if metric.dim != d:
        raise DomainError(f"metric dimension {metric.dim} != len(x) = {d}")
    scheme = cfg.scheme
    if cfg.decorrelate is None:
        v = draw_batch(cfg.law, cfg.radial, cfg.n, d, seed).values
    else:  # passed on unnamed, so no name here keeps the raw batch through the QR
        v = decorrelate(draw_batch(cfg.law, cfg.radial, cfg.n, d, seed), cfg.sigma, cfg.decorrelate).values
    values = []
    for beta in scheme.betas:
        scale = beta * cfg.h

        def points(i, j):  # x + beta h V_k for rows k in i..j-1
            block = scale * v[i:j]
            block += x
            return block

        values.append(_evaluate_rows(f, cfg.n, points))
    with np.errstate(all="ignore"):  # a non-finite estimate raises below
        weights = np.zeros(cfg.n)
        for c, fv in zip(scheme.coeffs, values):
            weights += c * fv
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
