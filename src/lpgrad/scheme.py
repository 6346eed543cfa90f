"""L-point evaluation stencils (beta_l offsets with C_l weights).

For L >= 2 the weights solve the Vandermonde moment constraints
sum_l C_l beta_l^r = delta_{1,r} for r = 0..L-1, so the weighted
evaluations reproduce a first derivative, cancel the unwanted Taylor
orders and sum to zero. The L=1 stencil is the fixed beta = C = 1; the
estimator mean-centers its evaluations instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularSchemeError, log

__all__ = [
    "PointScheme",
    "build_scheme",
    "one_point",
    "two_point_central",
]

CONDITION_WARN_THRESHOLD = 1e12


@dataclass(frozen=True)
class PointScheme:
    """Offsets and weights of an evaluation stencil.

    ``condition`` is the condition estimate of the constraint system;
    values above 1e12 also log a warning at build time.
    """

    betas: np.ndarray
    coeffs: np.ndarray
    condition: float = 1.0

    @property
    def l(self) -> int:
        return len(self.betas)

    @property
    def beta_max(self) -> float:
        return float(np.abs(self.betas).max())

    def constraint_residual(self) -> float:
        """Max absolute residual of the L >= 2 constraint system."""
        a, rhs = _constraint_system(self.betas)
        return float(np.abs(a @ self.coeffs - rhs).max())


def _constraint_system(betas: np.ndarray):
    powers = np.arange(len(betas))
    a = betas[None, :] ** powers[:, None]
    rhs = (powers == 1).astype(float)
    return a, rhs


def build_scheme(betas) -> PointScheme:
    """Solve the stencil weights for L >= 2 pairwise distinct offsets.

    The constraints r = 0..L-1 include sum C_l = 0, which the estimator
    relies on to cancel f(x); the L=1 stencil is ``one_point()``.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    l = len(betas)
    if l < 2:
        raise DomainError(f"a stencil needs at least 2 offsets, got {l}; use one_point() for L=1")
    if not np.isfinite(betas).all():
        raise DomainError(f"offsets must be finite, got {betas}")
    if len(np.unique(betas)) != l:
        raise SingularSchemeError(f"offsets must be pairwise distinct, got {betas}")
    with np.errstate(over="ignore"):  # an overflowed power is rejected below
        a, rhs = _constraint_system(betas)
    if not np.isfinite(a).all():
        raise DomainError(f"offset powers up to {l - 1} overflow (max |offset| {np.abs(betas).max():g})")
    condition = float(np.linalg.cond(a))
    if not np.isfinite(condition):  # the solve would return garbage or raise, by BLAS thread count
        raise SingularSchemeError(f"stencil constraint system is numerically singular (cond ~ {condition:.2e})")
    if condition > CONDITION_WARN_THRESHOLD:
        log.warning(f"stencil constraint system is ill-conditioned (cond ~ {condition:.2e})", stacklevel=2)
    try:
        coeffs = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:  # exactly singular in floating point
        coeffs = np.full(l, np.nan)
    if not np.isfinite(coeffs).all():
        raise SingularSchemeError(f"stencil constraint system is numerically singular (cond ~ {condition:.2e})")
    return PointScheme(betas=betas, coeffs=coeffs, condition=condition)


def one_point() -> PointScheme:
    """The L=1 stencil (beta = C = 1); paired with mean-centering."""
    return PointScheme(betas=np.array([1.0]), coeffs=np.array([1.0]))


def two_point_central() -> PointScheme:
    """The antithetic two-point stencil beta = (1, -1), C = (1/2, -1/2)."""
    return build_scheme([1.0, -1.0])
