"""L-point evaluation stencils (beta_l offsets with C_l weights).

The weights solve the Vandermonde moment constraints
sum_l C_l beta_l^r = delta_{1,r} over the exponent range selected by
the mode, so the weighted evaluations reproduce a first derivative and
cancel the unwanted Taylor orders.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularSchemeError

__all__ = [
    "LOW_ORDER",
    "SINGLETON",
    "PointScheme",
    "build_scheme",
    "validate_bandwidth",
    "one_point",
    "two_point_central",
]

LOW_ORDER = "low-order"
SINGLETON = "singleton"

CONDITION_WARN_THRESHOLD = 1e12


@dataclass(frozen=True)
class PointScheme:
    """Offsets, weights and constraint mode of an evaluation stencil.

    ``condition`` is the condition estimate of the constraint system;
    values above 1e12 also emit a warning at build time.
    """

    betas: np.ndarray
    coeffs: np.ndarray
    mode: str
    condition: float = 1.0

    @property
    def l(self) -> int:
        return len(self.betas)

    @property
    def beta_max(self) -> float:
        return float(np.abs(self.betas).max())

    def constraint_residual(self) -> float:
        """Max absolute residual of the mode's constraint system."""
        a, rhs = _constraint_system(self.betas, self.mode)
        return float(np.abs(a @ self.coeffs - rhs).max())


def _constraint_system(betas: np.ndarray, mode: str):
    if mode != LOW_ORDER:
        raise DomainError(f"unknown scheme mode {mode!r}")
    powers = np.arange(len(betas))
    a = betas[None, :] ** powers[:, None]
    rhs = (powers == 1).astype(float)
    return a, rhs


def build_scheme(betas, mode: str) -> PointScheme:
    """Solve the stencil weights for the given offsets and mode.

    Modes: "low-order" enforces r = 0..L-1 (for L >= 2 this includes
    sum C_l = 0, which the estimator relies on) and "singleton" is the
    fixed one-point stencil beta = C = 1.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    l = len(betas)
    if l < 1:
        raise DomainError("at least one offset is required")
    if len(np.unique(betas)) != l:
        raise SingularSchemeError(f"offsets must be pairwise distinct, got {betas}")
    if mode == SINGLETON:
        if l != 1 or betas[0] != 1.0:
            raise DomainError("the singleton scheme is L=1 with beta = 1")
        return PointScheme(betas=betas, coeffs=np.array([1.0]), mode=mode)
    a, rhs = _constraint_system(betas, mode)
    condition = float(np.linalg.cond(a))
    if condition > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"stencil constraint system is ill-conditioned (cond ~ {condition:.2e})",
            RuntimeWarning,
            stacklevel=2,
        )
    coeffs = np.linalg.solve(a, rhs)
    return PointScheme(betas=betas, coeffs=coeffs, mode=mode, condition=condition)


def one_point() -> PointScheme:
    """The L=1 stencil (beta = C = 1); paired with mean-centering."""
    return build_scheme([1.0], SINGLETON)


def two_point_central() -> PointScheme:
    """The antithetic two-point stencil beta = (1, -1), C = (1/2, -1/2)."""
    return build_scheme([1.0, -1.0], LOW_ORDER)


def validate_bandwidth(scheme: PointScheme, h: float, sigma: float) -> bool:
    """True iff max_l |beta_l| * h * sigma <= 1/2."""
    return scheme.beta_max * h * sigma <= 0.5
