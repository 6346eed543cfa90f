"""Random directions and radii for lp-spherical perturbation vectors.

Perturbations are built as V = R * U where U is a random unit-norm
direction (cone measure on the lp-sphere, or uniform on the lp-ball)
and R an independent positive radius.
Radii are calibrated so that E[V_k^2] = sigma^2 for every coordinate.
Every p >= 1 draws the exact p-generalized Gaussian, whose closed-form
moments are evaluated through log-gamma so that large dimensions and
large p stay finite. This module alone defines the laws, and it spells
each vocabulary once; every pair of a DirectionLaw and a RadialLaw combines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, _check_int, _check_real, _check_type

__all__ = [
    "DirectionLaw",
    "RadialLaw",
    "SampleBatch",
    "lp_norm",
    "log_direction_moment",
    "log_radius_moment",
    "draw_batch",
    "decorrelate",
]

# each vocabulary, spelled once, and a name for each of its words
DIRECTION_KINDS = SPHERE, BALL = ("sphere", "ball")
RADIAL_KINDS = RADIAL_UNIFORM, RADIAL_DIRAC = ("uniform", "dirac")
DECORRELATE_MODES = DECORRELATE_MOMENT, DECORRELATE_SAMPLE = ("moment", "sample")


@dataclass(frozen=True)
class DirectionLaw:
    """Which unit-norm direction distribution generates the angular part.

    kind is "sphere" (cone measure on the lp-sphere) or "ball" (uniform
    over the lp-ball); p >= 1 is required, as both laws read it.
    """

    kind: str
    p: float

    def __post_init__(self):
        if self.kind not in DIRECTION_KINDS:
            raise DomainError(f"unknown direction law kind {self.kind!r}")
        _check_real("p", self.p, 1.0, closed=True)


@dataclass(frozen=True)
class RadialLaw:
    """Distribution of the radius R, calibrated to a target sigma.

    kind "uniform" draws R ~ U(0, xi) with xi = sqrt(3 E[R^2]); kind
    "dirac" uses the constant radius with the same calibration. Either
    way the resulting V = R * U satisfies E[V_k^2] = sigma^2.
    """

    kind: str
    sigma: float

    def __post_init__(self):
        if self.kind not in RADIAL_KINDS:
            raise DomainError(f"unknown radial law kind {self.kind!r}")
        # sigma^2 divides the final sum, so it must be finite and nonzero too
        if not (self.sigma > 0.0 and 0.0 < self.sigma * self.sigma < math.inf):
            raise DomainError(f"sigma must be positive with a finite nonzero square, got {self.sigma}")


@dataclass(frozen=True)
class SampleBatch:
    """An N x d matrix of perturbation vectors."""

    values: np.ndarray


def lp_norm(x, p: float) -> np.ndarray | float:
    """lp norm of a vector, or row-wise for a matrix.

    Sums |x|^p directly; rows whose sum under- or overflows (large p)
    are recomputed in the max-factored form, which stays finite. p must
    be finite and at least 1, and x non-empty with every entry finite.
    """
    _check_real("p", p, 1.0, closed=True)
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] == 0:
        raise DomainError(f"x must be a vector or a matrix with at least one column, got shape {x.shape}")
    if x.ndim == 1:
        return float(lp_norm(x[None, :], p)[0])
    with np.errstate(over="ignore", under="ignore"):
        s = np.abs(x)
        s **= p
        s = s.sum(axis=1)
        norms = s ** (1.0 / p)
    redo = ~((s >= np.finfo(float).tiny) & (s < math.inf))
    if redo.any():  # a row with a nan or inf entry lands here too
        if not np.isfinite(x[redo]).all():
            raise DomainError("x must be finite, got a nan or inf entry")
        norms[redo] = _lp_norm_factored(x[redo], p)
    return norms


def _lp_norm_factored(x: np.ndarray, p: float) -> np.ndarray:
    # dividing each row by its largest |x_i| keeps |x|^p in [0, 1]
    a = np.abs(x)
    m = a.max(axis=1)
    a /= np.where(m > 0.0, m, 1.0)[:, None]
    a **= p
    return m * np.sum(a, axis=1) ** (1.0 / p)


def _pgauss_matrix(rng: np.random.Generator, n: int, d: int, p: float) -> np.ndarray:
    # X = S (p G)^(1/p) with G ~ Gamma(1 + 1/p) and S ~ U(-1, 1) has
    # density proportional to exp(-|x|^p / p); drawing S p^(1/p) as one
    # U(-c, c) draw carries both the sign and the p^(1/p) scale. The
    # shape parameter stays >= 1 so no gamma underflow occurs even for
    # very large p. The product goes into the gamma buffer: keeping the
    # uniform one instead raised the peak RSS of the t4-decorr benchmark
    # workload by one n x d block, through allocator layout.
    g = rng.standard_gamma(1.0 + 1.0 / p, size=(n, d))
    g **= 1.0 / p
    c = p ** (1.0 / p)
    g *= rng.uniform(-c, c, size=(n, d))
    return g


def log_direction_moment(a: float, b: float, d: int, p: float, law: str = SPHERE) -> float:
    """ln E[|U_1|^a |U_2|^b] for ``law`` directions: the cone measure on the
    unit lp-sphere ("sphere"), or W^(1/d) times it with W ~ U(0, 1) ("ball"),
    whose factor E[W^((a+b)/d)] is d/(d+a+b). The sphere moment is
    Gamma((a+1)/p) Gamma((b+1)/p) Gamma(d/p) / (Gamma(1/p)^2 Gamma((d+a+b)/p))."""
    d, p = _check_int("d", d, 1), _check_real("p", p, 1.0, closed=True)
    a, b = _check_real("a", a, -1.0), _check_real("b", b, -1.0)  # so each Gamma argument is positive
    if b and d < 2:
        raise DomainError("a moment of U_2 requires d >= 2")
    if law not in DIRECTION_KINDS:
        raise DomainError(f"no direction moments for the {law!r} law")
    # summed as the negative log, so log_radius_moment's E[R^2] = sigma^2 / E[U_1^2] keeps its bits
    try:
        neg = math.lgamma(1 / p) + math.lgamma((d + a + b) / p) - math.lgamma((a + 1) / p) - math.lgamma(d / p)
        if b:
            neg += math.lgamma(1 / p) - math.lgamma((b + 1) / p)
    except OverflowError:
        raise DomainError(f"ln E[|U_1|^{a} |U_2|^{b}] overflows for d={d}, p={p}") from None
    if law == BALL:
        neg += math.log((d + a + b) / d)
    return -neg


def log_radius_moment(q: float, d: int, p: float, kind: str = RADIAL_UNIFORM, law: str = SPHERE) -> float:
    """ln(E[R^q] / sigma^q) for the radius draw_batch draws with ``law``
    directions. Both radii have E[R^2] = sigma^2 / E[U_1^2]: "uniform" is
    R ~ U(0, xi) with xi^2 = 3 E[R^2], so E[R^q] = xi^q / (q+1), and
    "dirac" the constant R = sqrt(E[R^2])."""
    _check_real("q", q, -1.0)  # the uniform radius has no finite E[R^q] at q <= -1
    log_r2 = -log_direction_moment(2, 0, d, p, law)
    half = q / 2
    if kind == RADIAL_UNIFORM:
        return half * math.log(3.0) - math.log(q + 1) + half * log_r2
    if kind == RADIAL_DIRAC:
        return half * log_r2
    raise DomainError(f"unknown radial law kind {kind!r}")


def draw_batch(
    law: DirectionLaw,
    radial: RadialLaw,
    n: int,
    d: int,
    seed: int,
) -> SampleBatch:
    """Draw n iid perturbation rows V = R * U, deterministic in seed.

    Uses the SFC64 bit generator, so identical (law, radial, n, d,
    seed) always produce bit-identical batches. A drawn row of zeros has
    no direction: the draw raises DegenerateSampleError.
    """
    n, d, seed = _check_int("n", n, 1), _check_int("d", d, 1), _check_int("seed", seed, 0)
    law, radial = _check_type("law", law, DirectionLaw), _check_type("radial", radial, RadialLaw)
    rng = np.random.Generator(np.random.SFC64(seed))
    values = _pgauss_matrix(rng, n, d, law.p)
    norms = lp_norm(values, law.p)
    if not norms.all():  # an all-zero row has no direction
        raise DegenerateSampleError("drew a zero direction")
    values /= norms[:, None]
    if law.kind == BALL:
        # the radial cdf of the uniform ball law is r^d: scale by W^(1/d)
        values *= rng.uniform(0.0, 1.0, size=n)[:, None] ** (1.0 / d)
    if radial.kind == RADIAL_UNIFORM:
        xi = radial.sigma * math.sqrt(3.0 * math.exp(log_radius_moment(2, d, law.p, law=law.kind)))
        values *= rng.uniform(0.0, xi, size=n)[:, None]
    else:
        values *= radial.sigma * math.exp(log_radius_moment(1, d, law.p, RADIAL_DIRAC, law.kind))
    values.flags.writeable = False
    return SampleBatch(values)


def decorrelate(batch: SampleBatch, sigma: float, mode: str = DECORRELATE_MOMENT) -> SampleBatch:
    """Orthogonalize the batch columns and pin their empirical scale.

    Mode "moment" makes (1/N) V^T V = sigma^2 I exactly (second-moment
    convention). Mode "sample" uses the sample-covariance convention:
    columns are centered first when n > d (at n = d centering would cost
    a rank) and rescaled to the unbiased n - 1 standard deviation; this
    is the normalization that reproduces the published benchmark errors.
    The centered copy is written column-major, the layout LAPACK reads,
    so numpy's QR copies it column by column; Q and R are the same either way.

    Orthogonalization is a Householder QR with column signs fixed so an
    already-orthogonal input passes through unchanged; it yields the
    same column-span and ordering as modified Gram-Schmidt with better
    numerical behaviour. A batch that is not a non-empty 2-D array of
    finite floats raises DomainError.
    """
    w = _check_type("batch", batch, SampleBatch).values
    if not (isinstance(w, np.ndarray) and w.ndim == 2 and w.size and w.dtype.kind == "f"
            and np.isfinite(w).all()):
        raise DomainError("a batch to decorrelate must hold a non-empty 2-D array of finite floats")
    n, d = w.shape
    if mode not in DECORRELATE_MODES:
        raise DomainError(f"unknown decorrelate mode {mode!r}")
    _check_real("sigma", sigma, 0.0)
    if n < d:
        raise DomainError(
            f"decorrelation needs at least as many samples as dimensions (n={n} < d={d})"
        )
    sample = mode == DECORRELATE_SAMPLE
    ddof = 1 if sample else 0
    if n <= ddof:
        raise DomainError("sample-convention decorrelation needs n >= 2")
    if sample and n > d:  # column-major, so numpy's QR copies whole columns instead of transposing
        w = np.subtract(w, w.mean(axis=0), order="F")
    del batch  # so a draw_batch(...) passed straight in is freed before the QR copies w
    q, r = np.linalg.qr(w)
    diag = np.diag(r)
    tol = n * np.finfo(float).eps * np.abs(diag).max()
    if np.abs(diag).min() <= tol:
        raise DegenerateSampleError("sample columns are numerically rank-deficient")
    # flipping a column's sign is exact, so one multiply by +-scale
    # equals flipping and then scaling
    q *= np.where(diag < 0.0, -1.0, 1.0) * (math.sqrt(n - ddof) * sigma)
    q.flags.writeable = False
    return SampleBatch(q)
