"""Sampling laws: closed-form moments vs Monte Carlo, calibration, decorrelation."""
import math
import warnings

import numpy as np
import pytest

from lpgrad import sampler
from lpgrad.errors import (
    DegenerateSampleError,
    DomainError,
    NotApplicableError,
)
from lpgrad.sampler import (
    DirectionLaw,
    RadialLaw,
    SampleBatch,
    _direction_matrix,
    _pgauss_matrix,
    decorrelate,
    draw_batch,
    log_gamma,
    lp_norm,
    moment_R0,
    pgauss_abs_moment,
    radial_xi,
    sphere_abs_moment,
    sphere_mixed_moment,
)


def zscore(samples, analytic):
    samples = np.asarray(samples, dtype=float)
    sd = samples.std()
    if sd == 0.0:
        return 0.0 if samples.mean() == analytic else math.inf
    return (samples.mean() - analytic) / (sd / math.sqrt(samples.size))


class TestLogGamma:
    def test_exact_values(self):
        assert log_gamma(1.0) == 0.0
        np.testing.assert_allclose(log_gamma(5.0), math.log(24.0), rtol=1e-15)
        np.testing.assert_allclose(log_gamma(0.5), 0.5 * math.log(math.pi), rtol=1e-15)

    def test_against_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x in [1e-3, 0.02, 0.7, 1.5, 12.0, 345.6, 1e4, 1e6]:
            expected = float(mpmath.loggamma(x))
            got = log_gamma(x)
            if expected == 0.0:
                assert abs(got) < 1e-14
            else:
                assert abs(got - expected) / abs(expected) < 1e-12

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            log_gamma(bad)


class TestPgauss:
    def test_standard_normal_at_p2(self):
        x = _pgauss_matrix(np.random.default_rng(11), 1000, 1000, 2.0).ravel()
        assert abs(zscore(x**2, 1.0)) < 3.0

    def test_appendix_moment_p3(self):
        # E[|X|^2] = 3^(2/3) Gamma(1) / Gamma(1/3)
        expected = 3.0 ** (2.0 / 3.0) / math.gamma(1.0 / 3.0)
        np.testing.assert_allclose(pgauss_abs_moment(2, 3.0), expected, rtol=1e-14)
        x = _pgauss_matrix(np.random.default_rng(12), 1000, 1000, 3.0).ravel()
        assert abs(zscore(np.abs(x) ** 2, expected)) < 3.0

    def test_laplace_at_p1(self):
        assert pgauss_abs_moment(1, 1.0) == pytest.approx(1.0, rel=1e-14)
        x = _pgauss_matrix(np.random.default_rng(13), 1000, 1000, 1.0).ravel()
        assert abs(zscore(np.abs(x), 1.0)) < 3.0

    def test_p_below_one_rejected(self):
        with pytest.raises(DomainError):
            DirectionLaw.sphere(0.5)
        with pytest.raises(DomainError):
            pgauss_abs_moment(2, 0.5)


def _lp_norm_reference(x, p):
    # max-factored form: each row divided by its largest |x_i| first
    a = np.abs(x)
    m = a.max(axis=1)
    return m * np.sum((a / m[:, None]) ** p, axis=1) ** (1.0 / p)


class TestLpNorm:
    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 7.0, 50.0, 1500.0, 3000.0])
    def test_matches_max_factored_form(self, p):
        rng = np.random.default_rng(50)
        x = rng.uniform(-2.0, 2.0, size=(200, 30))
        x[0] = rng.uniform(0.45, 0.55, size=30)  # |x|^1500 underflows
        x[1] = rng.uniform(-1.5e3, -0.5e3, size=30)  # |x|^3000 overflows
        x[2] = 0.0
        x[2, 3] = 1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lp_norm(x, p)
        want = _lp_norm_reference(x, p)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_vector_and_zero_row(self):
        assert lp_norm(np.array([3.0, -4.0]), 2.0) == 5.0
        assert np.array_equal(lp_norm(np.zeros((2, 3)), 7.0), [0.0, 0.0])


def _sphere_sample(d, p, n, seed):
    batch = draw_batch(DirectionLaw.sphere(p), RadialLaw.dirac(1.0), n, d, seed)
    return batch.values / lp_norm(batch.values, p)[:, None]


class TestUnitSphere:
    def test_unit_norm(self):
        rng = np.random.default_rng(20)
        for d, p in [(3, 1.0), (10, 3.0), (50, 7.5)]:
            u = _direction_matrix(rng, 100, d, p)
            assert np.abs(lp_norm(u, p) - 1.0).max() < 1e-12

    def test_d1_is_sign(self):
        draws = _direction_matrix(np.random.default_rng(21), 2000, 1, 3.0)[:, 0]
        assert set(np.round(draws, 12)) <= {-1.0, 1.0}
        assert abs(zscore(draws, 0.0)) < 4.0

    @pytest.mark.parametrize("d,p,n", [(2, 1.0, 1_000_000), (10, 3.0, 1_000_000), (100, 5.0, 200_000)])
    def test_abs_moments(self, d, p, n):
        u = _sphere_sample(d, p, n, seed=22)
        for q in (1, 2, 3, 4):
            z = zscore(np.abs(u[:, 0]) ** q, sphere_abs_moment(q, d, p))
            assert abs(z) < 4.0, f"q={q}: z={z}"

    def test_mixed_moment(self):
        d, p = 10, 3.0
        u = _sphere_sample(d, p, 1_000_000, seed=23)
        z = zscore(u[:, 0] ** 2 * np.abs(u[:, 1]), sphere_mixed_moment(d, p))
        assert abs(z) < 4.0

    def test_euclidean_sphere_second_moment(self):
        # uniform on the 2-sphere in R^3: E[U_1^2] = 1/3 exactly
        assert sphere_abs_moment(2, 3, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_large_p_fallback_matches_formulas(self):
        # above the fallback threshold directions come from U(-1,1)
        # coordinates; the closed forms still hold to MC accuracy
        d, p = 5, 5000.0
        u = _sphere_sample(d, p, 500_000, seed=24)
        for q in (1, 2, 3):
            assert abs(zscore(np.abs(u[:, 0]) ** q, sphere_abs_moment(q, d, p))) < 4.0


def _ball_sample(d, p, n, seed):
    # with sigma^2 = E[U_1^2] of the ball law (the sphere value times
    # d/(d+2)) the calibrated constant radius is 1: rows are ball draws
    sigma = math.sqrt(sphere_abs_moment(2, d, p) * d / (d + 2))
    return draw_batch(DirectionLaw.ball(p), RadialLaw.dirac(sigma), n, d, seed).values


class TestUnitBall:
    def test_inside_ball(self):
        for d, p in [(2, 1.0), (5, 2.0), (20, 4.0)]:
            assert lp_norm(_ball_sample(d, p, 50, seed=30), p).max() <= 1.0 + 1e-12

    def test_norm_moment_d5_p2(self):
        # E[||U||_2^2] = d/(d+p) = 5/7; cross-checked against brute-force
        # rejection sampling in the euclidean ball
        d, p, n = 5, 2.0, 400_000
        u = _ball_sample(d, p, n // 100, seed=31)
        z = zscore(np.sum(u**2, axis=1), d / (d + p))
        assert abs(z) < 4.0

        rej_rng = np.random.default_rng(32)
        pts = rej_rng.uniform(-1.0, 1.0, size=(n, d))
        inside = pts[np.sum(pts**2, axis=1) <= 1.0]
        z_rej = zscore(np.sum(inside**2, axis=1), d / (d + p))
        assert abs(z_rej) < 4.0

    def test_d1_is_uniform_interval(self):
        draws = _ball_sample(1, 1.0, 20000, seed=33)[:, 0]
        assert abs(zscore(draws**2, 1.0 / 3.0)) < 4.0


class TestRadialXi:
    def test_d1_p2_collapses(self):
        np.testing.assert_allclose(radial_xi(1, 2.0, 1.0), math.sqrt(3.0), rtol=1e-14)

    def test_calibration_identity(self):
        # (xi^2 / 3) * E[U_1^2] = sigma^2
        for d, p, sigma in [(100, 5.0, 1.0), (10, 3.0, 0.01), (1000, 7.0, 1e-6)]:
            xi = radial_xi(d, p, sigma)
            lhs = xi**2 / 3.0 * sphere_abs_moment(2, d, p)
            np.testing.assert_allclose(lhs, sigma**2, rtol=1e-10)

    def test_ball_variant_ratio(self):
        d, p = 5, 2.0
        np.testing.assert_allclose(
            radial_xi(d, p, 1.0, variant="ball"),
            radial_xi(d, p, 1.0) * math.sqrt(7.0 / 5.0),
            rtol=1e-14,
        )


class TestMomentR0:
    def test_zeroth(self):
        assert moment_R0(0, 10, 3.0, 0.5) == 1.0

    def test_second_moment_formula(self):
        for d, p, sigma in [(10, 3.0, 1.0), (100, 5.0, 0.01)]:
            expected = sigma**2 * math.exp(
                log_gamma(1 / p) + log_gamma((d + 2) / p)
                - log_gamma(3 / p) - log_gamma(d / p)
            )
            np.testing.assert_allclose(moment_R0(2, d, p, sigma), expected, rtol=1e-12)

    def test_large_p_regime_within_5pct(self):
        d, p, sigma = 5, 5000.0, 1.0
        exact = moment_R0(3, d, p, sigma)
        approx = 27.0 / 4.0 * sigma**3 * (d / (d + 2)) ** 1.5
        assert abs(exact - approx) / approx < 0.05
        np.testing.assert_allclose(moment_R0(3, d, p, sigma, regime="large_p"), approx, rtol=1e-12)

    def test_small_p_regime_close_for_large_d(self):
        d, p, sigma = 5000, 3.0, 1.0
        exact = moment_R0(2, d, p, sigma)
        approx = moment_R0(2, d, p, sigma, regime="small_p")
        assert abs(exact - approx) / exact < 0.01

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            moment_R0(-1, 10, 3.0, 1.0)

    @pytest.mark.parametrize("q,sigma", [(4, 1e-100), (3, 1e150), (2, 0.0), (2, math.nan)])
    def test_unrepresentable_or_bad_sigma_rejected(self, q, sigma):
        with pytest.raises(DomainError):
            moment_R0(q, 2, 2.0, sigma)


class TestDrawBatch:
    def test_determinism(self):
        law = DirectionLaw.sphere(3.0)
        radial = RadialLaw.uniform(0.5)
        a = draw_batch(law, radial, 100, 7, seed=99)
        b = draw_batch(law, radial, 100, 7, seed=99)
        assert np.array_equal(a.values, b.values)
        c = draw_batch(law, radial, 100, 7, seed=100)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("law", [
        DirectionLaw.sphere(5000.0), DirectionLaw.ball(2.0), DirectionLaw.iid_uniform(),
    ], ids=["sphere-large-p", "ball", "iid-uniform"])
    def test_determinism_other_laws(self, law):
        a, b, c = (draw_batch(law, RadialLaw.dirac(0.5), 100, 7, seed) for seed in (99, 99, 100))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_iid_uniform_variance(self):
        # coordinates are U(-a, a) with a = sqrt(3) sigma
        batch = draw_batch(DirectionLaw.iid_uniform(), RadialLaw.uniform(0.5), 500_000, 2, seed=40)
        assert np.abs(batch.values).max() <= math.sqrt(3.0) * 0.5
        assert abs(zscore(batch.values[:, 0] ** 2, 0.25)) < 4.0

    @pytest.mark.parametrize("kind", ["sphere", "ball"])
    @pytest.mark.parametrize("radial_kind", ["uniform", "dirac"])
    def test_sigma_calibration_all_laws(self, kind, radial_kind):
        d, p, sigma = 8, 2.5, 0.7
        law = DirectionLaw(kind, p=p)
        radial = RadialLaw(radial_kind, sigma)
        batch = draw_batch(law, radial, 400_000, d, seed=41)
        z = zscore(batch.values[:, 0] ** 2, sigma**2)
        assert abs(z) < 4.0, f"{kind}/{radial_kind}: z={z}"

    def test_odd_moments_vanish(self):
        batch = draw_batch(DirectionLaw.sphere(3.0), RadialLaw.uniform(1.0), 500_000, 5, seed=42)
        v = batch.values
        assert abs(zscore(v[:, 0], 0.0)) < 4.0
        assert abs(zscore(v[:, 0] * v[:, 1], 0.0)) < 4.0
        assert abs(zscore(v[:, 0] ** 3, 0.0)) < 4.0

    def test_zero_norm_row_is_redrawn(self, monkeypatch):
        sizes = []

        def pgauss_with_zero_row(rng, n, d, p):
            g = _pgauss_matrix(rng, n, d, p)
            if not sizes:
                g[3] = 0.0
            sizes.append(n)
            return g

        monkeypatch.setattr(sampler, "_pgauss_matrix", pgauss_with_zero_row)
        batch = draw_batch(DirectionLaw.sphere(3.0), RadialLaw.dirac(1.0), 10, 4, seed=5)
        assert sizes == [10, 1]
        norms = lp_norm(batch.values, 3.0)
        np.testing.assert_allclose(norms, norms[0], rtol=1e-14)

    def test_values_immutable(self):
        batch = draw_batch(DirectionLaw.sphere(2.0), RadialLaw.uniform(1.0), 10, 3, seed=0)
        with pytest.raises(ValueError):
            batch.values[0, 0] = 1.0


class TestDecorrelate:
    def make(self, n=40, d=6, sigma=0.3, seed=7):
        return draw_batch(DirectionLaw.sphere(3.0), RadialLaw.uniform(sigma), n, d, seed)

    def test_exact_second_moments(self):
        sigma = 0.3
        batch = decorrelate(self.make(sigma=sigma), sigma)
        v = batch.values
        n, d = v.shape
        np.testing.assert_allclose(v.T @ v / n, sigma**2 * np.eye(d), atol=1e-10)

    def test_orthogonal_input_passes_through(self):
        n, d, sigma = 30, 5, 0.4
        q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(n, d)))
        values = q * math.sqrt(n) * sigma
        out = decorrelate(SampleBatch(values), sigma)
        np.testing.assert_allclose(out.values, values, atol=1e-12)

    def test_span_preserved(self):
        sigma = 0.3
        batch = self.make(n=20, d=6, sigma=sigma)
        out = decorrelate(batch, sigma)
        stacked = np.hstack([batch.values, out.values])
        rank = np.linalg.matrix_rank(stacked, tol=1e-8)
        assert rank == batch.values.shape[1]

    def test_too_few_samples(self):
        with pytest.raises(NotApplicableError):
            decorrelate(self.make(n=5, d=6), 0.3)

    def test_rank_deficient(self):
        base = self.make(n=20, d=3).values.copy()
        base[:, 2] = base[:, 0] + base[:, 1]
        with pytest.raises(DegenerateSampleError):
            decorrelate(SampleBatch(base), 0.3)

    def test_sample_convention(self):
        # centered columns, unbiased scaling: zero means and
        # column norms (n-1) sigma^2
        sigma, n, d = 0.2, 25, 6
        out = decorrelate(self.make(n=n, d=d, sigma=sigma), sigma, "sample")
        v = out.values
        np.testing.assert_allclose(v.mean(axis=0), 0.0, atol=1e-14)
        np.testing.assert_allclose(v.T @ v, (n - 1) * sigma**2 * np.eye(d), atol=1e-12)
        # at n = d centering would cost a rank, so only the scaling applies
        square = decorrelate(self.make(n=d, d=d, sigma=sigma), sigma, "sample").values
        np.testing.assert_allclose(square.T @ square, (d - 1) * sigma**2 * np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("mode,n,ddof", [("moment", 40, 0), ("sample", 6, 1)])
    def test_one_multiply_equals_sign_then_scale(self, mode, n, ddof):
        # flipping signs is exact, so folding it into the scale changes no bit
        sigma = 0.3
        batch = self.make(n=n, sigma=sigma)
        q, r = np.linalg.qr(batch.values)
        two_step = q * np.where(np.diag(r) < 0.0, -1.0, 1.0) * (math.sqrt(n - ddof) * sigma)
        assert np.array_equal(decorrelate(batch, sigma, mode).values, two_step)

    def test_bad_mode_rejected(self):
        with pytest.raises(DomainError):
            decorrelate(self.make(), 0.3, "center")
        with pytest.raises(NotApplicableError):
            decorrelate(self.make(n=1, d=1), 0.3, "sample")
