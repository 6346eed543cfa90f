"""Random directions and radii for lp-spherical perturbation vectors.

Perturbations are built as V = R * U where U is a random unit-norm
direction (cone measure on the lp-sphere, uniform on the lp-ball, or a
plain iid-uniform comparison law) and R an independent positive radius.
Radii are calibrated so that E[V_k^2] = sigma^2 for every coordinate.
All closed-form moments are evaluated through log-gamma so that large
dimensions and large p stay finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, NotApplicableError

__all__ = [
    "LARGE_P_FALLBACK",
    "DirectionLaw",
    "RadialLaw",
    "SampleBatch",
    "log_gamma",
    "lp_norm",
    "pgauss_abs_moment",
    "sphere_abs_moment",
    "sphere_mixed_moment",
    "radial_xi",
    "log_radius_moment",
    "moment_R0",
    "draw_batch",
    "decorrelate",
    "DECORRELATE_MOMENT",
    "DECORRELATE_SAMPLE",
]

# Above this exponent the generalized Gaussian coordinate law is
# numerically indistinguishable from U(-1, 1); we sample the limit law.
LARGE_P_FALLBACK = 2000.0

SPHERE = "sphere"
BALL = "ball"
IID_UNIFORM = "iid-uniform"

RADIAL_UNIFORM = "uniform"
RADIAL_DIRAC = "dirac"

DECORRELATE_MOMENT = "moment"
DECORRELATE_SAMPLE = "sample"


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Relative error is at the level of the platform libm (well below
    1e-12 on [1e-3, 1e6]).
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires a finite x > 0, got {x}")
    return math.lgamma(x)


def pgauss_abs_moment(q: float, p: float) -> float:
    """E[|X|^q] for a coordinate X of the generalized Gaussian with
    density proportional to exp(-|x|^p / p)."""
    if p < 1.0:
        raise DomainError(f"p >= 1 required, got {p}")
    return math.exp(
        (q / p) * math.log(p) + log_gamma((q + 1) / p) - log_gamma(1 / p)
    )


def sphere_abs_moment(q: float, d: int, p: float) -> float:
    """E[|U_1|^q] for U distributed by the cone measure on the unit
    lp-sphere in dimension d."""
    _check_dp(d, p)
    return math.exp(
        log_gamma((q + 1) / p)
        + log_gamma(d / p)
        - log_gamma(1 / p)
        - log_gamma((d + q) / p)
    )


def sphere_mixed_moment(d: int, p: float) -> float:
    """E[U_1^2 |U_2|] for the cone measure on the unit lp-sphere."""
    _check_dp(d, p)
    if d < 2:
        raise DomainError("mixed moment requires d >= 2")
    return math.exp(
        log_gamma(3 / p)
        + log_gamma(2 / p)
        + log_gamma(d / p)
        - 2 * log_gamma(1 / p)
        - log_gamma((d + 3) / p)
    )


def _check_dp(d: int, p: float) -> None:
    if d < 1 or int(d) != d:
        raise DomainError(f"dimension must be a positive integer, got {d}")
    if p < 1.0:
        raise DomainError(f"p >= 1 required, got {p}")


@dataclass(frozen=True)
class DirectionLaw:
    """Which unit-norm direction distribution generates the angular part.

    kind is one of "sphere" (cone measure on the lp-sphere), "ball"
    (uniform over the lp-ball) or "iid-uniform" (independent uniform
    coordinates scaled by the radial law's sigma; p is unused).
    """

    kind: str
    p: float = 2.0

    def __post_init__(self):
        if self.kind not in (SPHERE, BALL, IID_UNIFORM):
            raise DomainError(f"unknown direction law kind {self.kind!r}")
        if self.kind != IID_UNIFORM and not (math.isfinite(self.p) and self.p >= 1.0):
            raise DomainError(f"a finite p >= 1 is required, got {self.p}")

    @classmethod
    def sphere(cls, p: float) -> "DirectionLaw":
        return cls(SPHERE, p=p)

    @classmethod
    def ball(cls, p: float) -> "DirectionLaw":
        return cls(BALL, p=p)

    @classmethod
    def iid_uniform(cls) -> "DirectionLaw":
        return cls(IID_UNIFORM)


@dataclass(frozen=True)
class RadialLaw:
    """Distribution of the radius R, calibrated to a target sigma.

    kind "uniform" draws R ~ U(0, xi) with xi = sqrt(3 E[R^2]); kind
    "dirac" uses the constant radius with the same calibration. Either
    way the resulting V = R * U satisfies E[V_k^2] = sigma^2; iid-uniform
    directions take only sigma, as their coordinate scale.
    """

    kind: str
    sigma: float

    def __post_init__(self):
        if self.kind not in (RADIAL_UNIFORM, RADIAL_DIRAC):
            raise DomainError(f"unknown radial law kind {self.kind!r}")
        # sigma^2 divides the final sum, so it must be finite and nonzero too
        if not (self.sigma > 0.0 and 0.0 < self.sigma * self.sigma < math.inf):
            raise DomainError(f"sigma must be positive with a finite nonzero square, got {self.sigma}")

    @classmethod
    def uniform(cls, sigma: float) -> "RadialLaw":
        return cls(RADIAL_UNIFORM, sigma)

    @classmethod
    def dirac(cls, sigma: float) -> "RadialLaw":
        return cls(RADIAL_DIRAC, sigma)


@dataclass(frozen=True)
class SampleBatch:
    """An N x d matrix of perturbation vectors."""

    values: np.ndarray


def lp_norm(x, p: float) -> np.ndarray | float:
    """lp norm of a vector, or row-wise for a matrix.

    Sums |x|^p directly; rows whose sum under- or overflows (large p)
    are recomputed in the max-factored form, which stays finite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return float(lp_norm(x[None, :], p)[0])
    with np.errstate(over="ignore", under="ignore"):
        s = np.abs(x)
        s **= p
        s = s.sum(axis=1)
        norms = s ** (1.0 / p)
    redo = ~((s >= np.finfo(float).tiny) & (s < math.inf))
    if redo.any():
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


def _direction_matrix(rng: np.random.Generator, n: int, d: int, p: float) -> np.ndarray:
    """n iid cone-measure directions on the unit lp-sphere, as rows."""

    def draw(k: int) -> np.ndarray:
        if p > LARGE_P_FALLBACK:
            return rng.uniform(-1.0, 1.0, size=(k, d))
        return _pgauss_matrix(rng, k, d, p)

    g = draw(n)
    norms = lp_norm(g, p)
    for _ in range(100):
        bad = norms == 0.0
        if not bad.any():
            break
        g[bad] = draw(int(bad.sum()))
        norms = lp_norm(g, p)
    else:  # pragma: no cover - probability zero
        raise DegenerateSampleError("could not draw a nonzero direction")
    g /= norms[:, None]
    return g


def log_radius_moment(q: int, d: int, p: float, kind: str = RADIAL_UNIFORM) -> float:
    """ln(E[R^q] / sigma^q) for the radius draw_batch draws with sphere
    directions. Both radii have E[R^2] = sigma^2 / E[U_1^2]: "uniform" is
    R ~ U(0, xi) with xi^2 = 3 E[R^2], so E[R^q] = xi^q / (q+1), and
    "dirac" the constant R = sqrt(E[R^2])."""
    _check_dp(d, p)
    # ln(E[R^2] / sigma^2) = ln(Gamma(1/p) Gamma((d+2)/p) / (Gamma(3/p) Gamma(d/p)))
    log_r2 = log_gamma(1 / p) + log_gamma((d + 2) / p) - log_gamma(3 / p) - log_gamma(d / p)
    half = q / 2
    if kind == RADIAL_UNIFORM:
        return half * math.log(3.0) - math.log(q + 1) + half * log_r2
    if kind == RADIAL_DIRAC:
        return half * log_r2
    raise DomainError(f"unknown radial law kind {kind!r}")


def radial_xi(d: int, p: float, sigma: float, variant: str = SPHERE) -> float:
    """Upper endpoint xi of the U(0, xi) radial law, xi = sqrt(3 E[R^2]).

    The sphere variant calibrates E[V_k^2] = sigma^2 for cone-measure
    directions; the ball variant carries the extra sqrt((d+2)/d) needed
    because ball directions satisfy E[U_1^2]_ball = E[U_1^2] d/(d+2).
    """
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    xi = sigma * math.sqrt(3.0 * math.exp(log_radius_moment(2, d, p)))
    if variant == BALL:
        xi *= math.sqrt((d + 2) / d)
    elif variant != SPHERE:
        raise DomainError(f"unknown radial variant {variant!r}")
    return xi


def moment_R0(q: int, d: int, p: float, sigma: float, regime: str | None = None) -> float:
    """q-th moment of the U(0, xi) radius (sphere calibration).

    The exact value is xi^q / (q+1); one that under- or overflows a float
    raises ``DomainError``. ``regime`` exposes the two asymptotic
    approximations as diagnostics: "small_p" for p << d and "large_p" for
    d << p; estimators always use the exact value.
    """
    if q < 0 or int(q) != q:
        raise DomainError(f"moment order must be a nonnegative integer, got {q}")
    _check_dp(d, p)
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if regime is None:
        try:
            value = sigma**q * math.exp(log_radius_moment(q, d, p))
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise DomainError(f"E[R0^{q}] {'overflows' if value else 'underflows'} at sigma = {sigma}")
        return value
    if regime == "small_p":
        lg = log_gamma(1 / p) - log_gamma(3 / p)
        return (
            3.0 ** (q / 2)
            * sigma**q
            * d ** (q / p)
            / ((q + 1) * p ** (q / p))
            * math.exp(0.5 * q * lg)
        )
    if regime == "large_p":
        return 3.0**q * sigma**q / (q + 1) * (d / (d + 2)) ** (q / 2)
    raise DomainError(f"unknown regime {regime!r}")


def draw_batch(
    law: DirectionLaw,
    radial: RadialLaw,
    n: int,
    d: int,
    seed: int,
) -> SampleBatch:
    """Draw n iid perturbation rows V = R * U, deterministic in seed.

    Uses the SFC64 bit generator, so identical (law, radial, n, d,
    seed) always produce bit-identical batches.
    For the iid-uniform law only the radial sigma is used: coordinates
    are U(-a, a) with a = sqrt(3) sigma, so E[V_k^2] = a^2/3 = sigma^2.
    """
    if n < 1 or d < 1:
        raise DomainError("n and d must be positive")
    if radial is None:
        raise DomainError("a radial law is required")
    rng = np.random.Generator(np.random.SFC64(seed))
    if law.kind == IID_UNIFORM:
        a = math.sqrt(3.0) * radial.sigma
        values = rng.uniform(-a, a, size=(n, d))
    else:
        u = _direction_matrix(rng, n, d, law.p)
        if law.kind == BALL:
            # the radial cdf of the uniform ball law is r^d: scale by W^(1/d)
            u = u * rng.uniform(0.0, 1.0, size=n)[:, None] ** (1.0 / d)
        if radial.kind == RADIAL_UNIFORM:
            xi = radial_xi(d, law.p, radial.sigma, law.kind)
            r = rng.uniform(0.0, xi, size=n)
        else:
            eu2 = sphere_abs_moment(2, d, law.p)
            if law.kind == BALL:
                eu2 *= d / (d + 2)  # E[U_1^2] of the uniform ball law
            r = np.full(n, radial.sigma / math.sqrt(eu2))
        values = u * r[:, None]
    values.flags.writeable = False
    return SampleBatch(values)


def decorrelate(batch: SampleBatch, sigma: float, mode: str = DECORRELATE_MOMENT) -> SampleBatch:
    """Orthogonalize the batch columns and pin their empirical scale.

    Mode "moment" makes (1/N) V^T V = sigma^2 I exactly (second-moment
    convention). Mode "sample" uses the sample-covariance convention:
    columns are centered first when n > d (at n = d centering would cost
    a rank) and rescaled to the unbiased n - 1 standard deviation; this
    is the normalization that reproduces the published benchmark errors.

    Orthogonalization is a Householder QR with column signs fixed so an
    already-orthogonal input passes through unchanged; it yields the
    same column-span and ordering as modified Gram-Schmidt with better
    numerical behaviour.
    """
    n, d = batch.values.shape
    if mode not in (DECORRELATE_MOMENT, DECORRELATE_SAMPLE):
        raise DomainError(f"unknown decorrelate mode {mode!r}")
    if sigma <= 0.0:
        raise DomainError("sigma must be positive")
    if n < d:
        raise NotApplicableError(
            f"decorrelation needs at least as many samples as dimensions (n={n} < d={d})"
        )
    sample = mode == DECORRELATE_SAMPLE
    ddof = 1 if sample else 0
    if n <= ddof:
        raise NotApplicableError("sample-convention decorrelation needs n >= 2")
    w = batch.values - batch.values.mean(axis=0) if sample and n > d else batch.values
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
