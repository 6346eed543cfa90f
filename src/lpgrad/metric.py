"""Tensor metric of non-independent variables and its generalized inverse.

For dependent inputs the gradient of interest is G^{-1} grad_f where G
is the (symmetric PSD) tensor metric; for independent inputs G is the
identity and everything reduces to the plain gradient. The norm of
|G^{-1}| 1 stored here feeds the bias-bound calculators.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, _check_int, _check_real

__all__ = [
    "TensorMetric",
    "identity_metric",
    "from_matrix",
    "exp_corr_metric",
    "apply_inverse",
    "load_matrix",
]


@dataclass(frozen=True)
class TensorMetric:
    """A metric G with its generalized inverse and the bound norm
    || |G^{-1}| 1 ||_2.

    ``ginv`` is None for the identity marker, which skips all matrix work
    in apply_inverse. ``label`` names the metric in result rows.
    """

    dim: int
    ginv: np.ndarray | None
    abs_ginv_ones_l2: float
    label: str = "matrix"

    @property
    def is_identity(self) -> bool:
        return self.ginv is None


def identity_metric(d: int) -> TensorMetric:
    """The identity marker metric for independent variables."""
    d = _check_int("d", d, 1)
    return TensorMetric(
        dim=d,
        ginv=None,
        abs_ginv_ones_l2=math.sqrt(d),
        label="identity",
    )


def from_matrix(g) -> TensorMetric:
    """Build a metric from a symmetric PSD matrix.

    The generalized inverse comes from the symmetric eigendecomposition
    with eigenvalues above tau = d * eps * lambda_max inverted and the
    rest zeroed (Moore-Penrose on the retained spectrum). An empty matrix,
    a non-finite symmetric part or inverse and eigenvalues below -tau are rejected.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.size == 0:
        raise DomainError(f"metric must be a non-empty square matrix, got shape {g.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is rejected below
        sym = 0.5 * (g + g.T)
        asym = np.abs(g - g.T).max()  # inf for a pair whose difference overflows: asymmetric
    if not np.isfinite(sym).all():  # a non-finite entry, or a pair whose sum overflows
        raise DomainError("metric matrix has non-finite entries, or its symmetric part overflows")
    d = g.shape[0]
    scale = max(1.0, float(np.abs(g).max()))
    if asym > 1e-8 * scale:
        raise DomainError("metric matrix must be symmetric (tolerance 1e-8)")
    g = sym
    w, v = np.linalg.eigh(g)
    tau = d * np.finfo(float).eps * max(np.abs(w).max(), np.finfo(float).tiny)
    if w.min() < -tau:
        raise DomainError(f"metric matrix is not positive semidefinite (min eigenvalue {w.min():.3g})")
    keep = w > tau
    inv_w = np.zeros_like(w)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite inverse is rejected below
        inv_w[keep] = 1.0 / w[keep]
        ginv = (v * inv_w) @ v.T
        ginv = 0.5 * (ginv + ginv.T)
    if not np.isfinite(ginv).all():
        raise DomainError("metric matrix has no finite generalized inverse")
    row = np.abs(ginv).sum(axis=1)
    return TensorMetric(
        dim=d,
        ginv=ginv,
        abs_ginv_ones_l2=float(np.linalg.norm(row)),
    )


def exp_corr_metric(d: int, rho: float) -> TensorMetric:
    """Metric G = C C for the correlation matrix C_ij = rho^|i-j|."""
    _check_real("rho", rho, -1.0, 1.0)
    idx = np.arange(_check_int("d", d, 1))
    corr = rho ** np.abs(idx[:, None] - idx[None, :])
    return from_matrix(corr @ corr)


def apply_inverse(metric: TensorMetric, v) -> np.ndarray:
    """G^{-1} v; the identity marker short-circuits to a copy of v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (metric.dim,):
        raise DomainError(f"expected a vector of length {metric.dim}, got shape {v.shape}")
    if metric.is_identity:
        return v.copy()
    return metric.ginv @ v


def load_matrix(path) -> np.ndarray:
    """Read a dense d x d matrix from a CSV (header optional) or JSON file;
    a file that holds no numbers raises ``DomainError``."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            with open(path) as fh:
                m = np.asarray(json.load(fh), dtype=float)
        else:
            with open(path) as fh:  # the lines loadtxt reads, which warns when there are none
                lines = [line for line in (raw.partition("#")[0] for raw in fh) if line.strip()]
            if lines:
                try:
                    [float(tok) for tok in lines[0].replace(",", " ").split()]
                except ValueError:
                    del lines[0]  # a header
            m = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else np.empty((0, 0))
    except (TypeError, ValueError) as exc:  # malformed JSON or a non-numeric cell
        raise DomainError(f"matrix file {path} is malformed: {exc}") from None
    if m.size == 0:
        raise DomainError(f"matrix file {path} holds no numbers")
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"matrix file {path} is not square: shape {m.shape}")
    return m
