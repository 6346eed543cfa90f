"""Sampling laws: closed-form moments vs Monte Carlo, calibration, decorrelation."""
import math
import re
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lpgrad import sampler
from lpgrad.bench import moments_report
from lpgrad.errors import (
    DegenerateSampleError,
    DomainError,
    LpgradError,
)
from lpgrad.sampler import (
    DirectionLaw,
    RadialLaw,
    SampleBatch,
    _pgauss_matrix,
    _qr,
    decorrelate,
    draw_batch,
    log_direction_moment,
    log_radius_moment,
    lp_norm,
)


def zscore(samples, analytic):
    samples = np.asarray(samples, dtype=float)
    sd = samples.std()
    if sd == 0.0:
        return 0.0 if samples.mean() == analytic else math.inf
    return (samples.mean() - analytic) / (sd / math.sqrt(samples.size))


def uniform_xi(d, p, sigma, law="sphere"):
    """The endpoint xi = sqrt(3 E[R^2]) of the U(0, xi) radius, as draw_batch computes it."""
    return sigma * math.sqrt(3.0 * math.exp(log_radius_moment(2, d, p, law=law)))


class TestPgauss:
    def test_standard_normal_at_p2(self):
        x = _pgauss_matrix(np.random.default_rng(11), 1000, 1000, 2.0).ravel()
        assert abs(zscore(x**2, 1.0)) < 3.0

    def test_appendix_moment_p3(self):
        # E[|X|^2] = 3^(2/3) Gamma(1) / Gamma(1/3)
        expected = 3.0 ** (2.0 / 3.0) / math.gamma(1.0 / 3.0)
        x = _pgauss_matrix(np.random.default_rng(12), 1000, 1000, 3.0).ravel()
        assert abs(zscore(np.abs(x) ** 2, expected)) < 3.0

    def test_laplace_at_p1(self):
        x = _pgauss_matrix(np.random.default_rng(13), 1000, 1000, 1.0).ravel()
        assert abs(zscore(np.abs(x), 1.0)) < 3.0

    def test_p_below_one_rejected(self):
        with pytest.raises(DomainError):
            DirectionLaw("sphere", 0.5)


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
    batch = draw_batch(DirectionLaw("sphere", p), RadialLaw("dirac", 1.0), n, d, seed)
    return batch.values / lp_norm(batch.values, p)[:, None]


class TestUnitSphere:
    def test_unit_norm(self):
        for d, p in [(3, 1.0), (10, 3.0), (50, 7.5)]:
            u = _sphere_sample(d, p, 100, seed=20)
            assert np.abs(lp_norm(u, p) - 1.0).max() < 1e-12

    def test_d1_is_sign(self):
        draws = _sphere_sample(1, 3.0, 2000, seed=21)[:, 0]
        assert set(np.round(draws, 12)) <= {-1.0, 1.0}
        assert abs(zscore(draws, 0.0)) < 4.0

    @pytest.mark.parametrize("d,p,n", [(2, 1.0, 1_000_000), (10, 3.0, 1_000_000), (100, 5.0, 200_000)])
    def test_abs_moments(self, d, p, n):
        u = _sphere_sample(d, p, n, seed=22)
        for q in (1, 2, 3, 4):
            z = zscore(np.abs(u[:, 0]) ** q, math.exp(log_direction_moment(q, 0, d, p)))
            assert abs(z) < 4.0, f"q={q}: z={z}"

    def test_mixed_moment(self):
        d, p = 10, 3.0
        u = _sphere_sample(d, p, 1_000_000, seed=23)
        z = zscore(u[:, 0] ** 2 * np.abs(u[:, 1]), math.exp(log_direction_moment(2, 1, d, p)))
        assert abs(z) < 4.0

    def test_euclidean_sphere_second_moment(self):
        # uniform on the 2-sphere in R^3: E[U_1^2] = 1/3 exactly
        assert math.exp(log_direction_moment(2, 0, 3, 2.0)) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_large_p_matches_formulas(self):
        # at large p the directions come from the same exact draw, so the
        # closed forms hold to MC accuracy
        d, p = 5, 5000.0
        u = _sphere_sample(d, p, 500_000, seed=24)
        for q in (1, 2, 3):
            assert abs(zscore(np.abs(u[:, 0]) ** q, math.exp(log_direction_moment(q, 0, d, p)))) < 4.0


def _ball_sample(d, p, n, seed):
    # with sigma^2 = E[U_1^2] of the ball law (the sphere value times
    # d/(d+2)) the calibrated constant radius is 1: rows are ball draws
    sigma = math.sqrt(math.exp(log_direction_moment(2, 0, d, p, "ball")))
    return draw_batch(DirectionLaw("ball", p), RadialLaw("dirac", sigma), n, d, seed).values


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


class TestDirectionMoments:
    @pytest.mark.parametrize("law", ["sphere", "ball"])
    @pytest.mark.parametrize("d,p", [(2, 1.0), (10, 3.0), (100, 5.0), (1000, 7.0), (50, 50.0), (5, 5000.0)])
    def test_against_high_precision(self, d, p, law):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        G, p_mp = mpmath.gamma, mpmath.mpf(p)
        for a, b in [(1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (2, 2)]:
            ref = (G((a + 1) / p_mp) * G((b + 1) / p_mp) * G(d / p_mp)
                   / (G(1 / p_mp) ** 2 * G((d + a + b) / p_mp)))
            if law == "ball":
                ref *= mpmath.mpf(d) / (d + a + b)
            got = math.exp(log_direction_moment(a, b, d, p, law))
            np.testing.assert_allclose(got, float(ref), rtol=1e-12, err_msg=f"(a, b) = ({a}, {b})")

    @pytest.mark.parametrize("args", [
        (2, 1, 1, 3.0), (2, 0, 4, 3.0, "iid-uniform"), (2, 0, 4, 0.5),
        (-1, 0, 4, 3.0), (2, -1, 4, 3.0), (math.nan, 0, 4, 3.0),
    ], ids=["U2-at-d1", "iid-uniform", "p-below-one", "a-minus-one", "b-minus-one", "a-nan"])
    def test_rejected(self, args):
        # an order at or below -1 has no finite moment; test_api.py checks a non-finite d or p
        with pytest.raises(DomainError):
            log_direction_moment(*args)

    def test_ball_fourth_moments(self):
        d, p = 5, 3.0
        u = _ball_sample(d, p, 400_000, seed=34)
        z4 = zscore(u[:, 0] ** 4, math.exp(log_direction_moment(4, 0, d, p, "ball")))
        z22 = zscore(u[:, 0] ** 2 * u[:, 1] ** 2, math.exp(log_direction_moment(2, 2, d, p, "ball")))
        assert abs(z4) < 4.0 and abs(z22) < 4.0, (z4, z22)

    def test_radius_bits_kept(self):
        # log_radius_moment reads the (2, 0) moment with the sum order it
        # always had, so every draw_batch stream keeps its bits
        assert uniform_xi(1000, 7.0, 1.0).hex() == "0x1.90a56af0e97bcp+2"
        assert uniform_xi(50, 4.0, 1.0).hex() == "0x1.64bc2fe71e3e7p+2"
        d, p, n, seed = 50, 4.0, 16, 7  # draw_batch scales its directions by U(0, xi) draws with this xi
        rng = np.random.Generator(np.random.SFC64(seed))
        g = _pgauss_matrix(rng, n, d, p)
        g /= lp_norm(g, p)[:, None]
        expected = g * rng.uniform(0.0, uniform_xi(d, p, 1.0), size=n)[:, None]
        assert np.array_equal(draw_batch(DirectionLaw("sphere", p), RadialLaw("uniform", 1.0), n, d, seed).values, expected)
        lg = math.lgamma
        for d in (1, 2, 5, 50, 1000, 10**6):
            for p in (1.0, 1.5, 3.0, 7.0, 50.0, 5000.0):
                log_r2 = lg(1 / p) + lg((d + 2) / p) - lg(3 / p) - lg(d / p)
                assert log_radius_moment(2, d, p, "dirac") == log_r2
                assert log_radius_moment(2, d, p, "dirac", "ball") == log_r2 + math.log((d + 2) / d)


class TestRadialXi:
    """The U(0, xi) radius endpoint that draw_batch reads from log_radius_moment."""

    def test_d1_p2_collapses(self):
        np.testing.assert_allclose(uniform_xi(1, 2.0, 1.0), math.sqrt(3.0), rtol=1e-14)

    def test_calibration_identity(self):
        # (xi^2 / 3) * E[U_1^2] = sigma^2
        for d, p, sigma in [(100, 5.0, 1.0), (10, 3.0, 0.01), (1000, 7.0, 1e-6)]:
            xi = uniform_xi(d, p, sigma)
            lhs = xi**2 / 3.0 * math.exp(log_direction_moment(2, 0, d, p))
            np.testing.assert_allclose(lhs, sigma**2, rtol=1e-10)

    def test_ball_variant_ratio(self):
        d, p = 5, 2.0
        np.testing.assert_allclose(
            uniform_xi(d, p, 1.0, "ball"),
            uniform_xi(d, p, 1.0) * math.sqrt(7.0 / 5.0),
            rtol=1e-14,
        )


class TestMomentR0:
    """E[R0^q] of the uniform radius, from log_radius_moment."""

    def test_zeroth(self):
        assert log_radius_moment(0, 10, 3.0) == 0.0

    def test_second_moment_formula(self):
        for d, p, sigma in [(10, 3.0, 1.0), (100, 5.0, 0.01)]:
            expected = sigma**2 * math.exp(
                math.lgamma(1 / p) + math.lgamma((d + 2) / p)
                - math.lgamma(3 / p) - math.lgamma(d / p)
            )
            np.testing.assert_allclose(sigma**2 * math.exp(log_radius_moment(2, d, p)), expected, rtol=1e-12)

    def test_large_p_regime_within_5pct(self):
        d, p, sigma = 5, 5000.0, 1.0
        exact = sigma**3 * math.exp(log_radius_moment(3, d, p))
        approx = 27.0 / 4.0 * sigma**3 * (d / (d + 2)) ** 1.5
        assert abs(exact - approx) / approx < 0.05

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            log_radius_moment(-1, 10, 3.0)

    @pytest.mark.parametrize("q,sigma", [(4, 1e-100), (3, 1e150), (2, 0.0), (2, math.nan)])
    def test_unrepresentable_or_bad_sigma_rejected(self, q, sigma):
        # moments-check scores E[R0^q] for q <= 4; q is the first order that under- or overflows
        match = re.escape(f"E[R0^{q}]") if 0.0 < sigma < math.inf else "sigma must be positive"
        with pytest.raises(DomainError, match=match):
            moments_report(2, 2.0, 10, 0, sigma)


class TestDrawBatch:
    def test_determinism(self):
        law = DirectionLaw("sphere", 3.0)
        radial = RadialLaw("uniform", 0.5)
        a = draw_batch(law, radial, 100, 7, seed=99)
        b = draw_batch(law, radial, 100, 7, seed=99)
        assert np.array_equal(a.values, b.values)
        c = draw_batch(law, radial, 100, 7, seed=100)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("law,radial", [
        (DirectionLaw("sphere", 5000.0), RadialLaw("dirac", 0.5)), (DirectionLaw("ball", 2.0), RadialLaw("dirac", 0.5)),
    ], ids=["sphere-large-p", "ball"])
    def test_determinism_other_laws(self, law, radial):
        a, b, c = (draw_batch(law, radial, 100, 7, seed) for seed in (99, 99, 100))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("kind", ["sphere", "ball"])
    @pytest.mark.parametrize("radial_kind", ["uniform", "dirac"])
    def test_sigma_calibration_all_laws(self, kind, radial_kind):
        d, p, sigma = 8, 2.5, 0.7
        law = DirectionLaw(kind, p=p)
        radial = RadialLaw(radial_kind, sigma)
        batch = draw_batch(law, radial, 400_000, d, seed=41)
        z = zscore(batch.values[:, 0] ** 2, sigma**2)
        assert abs(z) < 4.0, f"{kind}/{radial_kind}: z={z}"

    @pytest.mark.parametrize("d,p", [(3, 1.0), (50, 6.0), (5, 3000.0)])
    @pytest.mark.parametrize("kind", ["sphere", "ball"])
    @pytest.mark.parametrize("radial_kind", ["uniform", "dirac"])
    def test_every_coordinate_second_moment_is_sigma2(self, d, p, kind, radial_kind):
        # exchangeable coordinates, so the row mean of V_k^2 has mean sigma^2 iff every E[V_k^2] does
        sigma = 0.3
        v = draw_batch(DirectionLaw(kind, p=p), RadialLaw(radial_kind, sigma), 40_000, d, seed=43).values
        z = zscore((v**2).mean(axis=1), sigma**2)
        assert abs(z) < 4.0, f"{kind}/{radial_kind} at d={d}, p={p}: z={z}"

    @pytest.mark.parametrize("d,p", [(1, 1.0), (4, 2.0), (100, 5.0), (1000, 7.0), (7, 3000.0)])
    def test_dirac_radius_is_the_calibration(self, d, p):
        # sphere rows lie on the lp-sphere of that radius; ball rows W^(1/d) U inside it
        sigma = 0.1
        for kind in ("sphere", "ball"):
            r = sigma * math.exp(log_radius_moment(1, d, p, "dirac", kind))
            norms = lp_norm(draw_batch(DirectionLaw(kind, p=p), RadialLaw("dirac", sigma), 50, d, seed=44).values, p)
            if kind == "sphere":
                np.testing.assert_allclose(norms, r, rtol=1e-15)
            else:
                assert (norms <= r * (1.0 + 1e-15)).all()

    @pytest.mark.parametrize("law,radial", [
        (DirectionLaw("sphere", 2.0), "uniform"), ("sphere", RadialLaw("uniform", 1.0)), (None, None),
    ], ids=["radial-str", "law-str", "none"])
    def test_malformed_law_rejected(self, law, radial):
        with pytest.raises(DomainError):
            draw_batch(law, radial, 3, 2, 0)

    def test_odd_moments_vanish(self):
        batch = draw_batch(DirectionLaw("sphere", 3.0), RadialLaw("uniform", 1.0), 500_000, 5, seed=42)
        v = batch.values
        assert abs(zscore(v[:, 0], 0.0)) < 4.0
        assert abs(zscore(v[:, 0] * v[:, 1], 0.0)) < 4.0
        assert abs(zscore(v[:, 0] ** 3, 0.0)) < 4.0

    def test_zero_direction_fails_the_draw(self, monkeypatch):
        def pgauss_with_zero_row(rng, n, d, p):
            g = _pgauss_matrix(rng, n, d, p)
            g[3] = 0.0
            return g

        monkeypatch.setattr(sampler, "_pgauss_matrix", pgauss_with_zero_row)
        with pytest.raises(DegenerateSampleError, match="drew a zero direction"):
            draw_batch(DirectionLaw("sphere", 3.0), RadialLaw("dirac", 1.0), 10, 4, seed=5)

    @pytest.mark.parametrize("p", [2001.0, 5000.0, 1e300])
    def test_every_p_draws_the_generalized_gaussian(self, monkeypatch, p):
        calls = []

        def spy(rng, n, d, p):
            calls.append(p)
            return _pgauss_matrix(rng, n, d, p)

        monkeypatch.setattr(sampler, "_pgauss_matrix", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = draw_batch(DirectionLaw("sphere", p), RadialLaw("dirac", 1.0), 50, 6, seed=45).values
        assert calls == [p]
        assert np.isfinite(v).all()
        np.testing.assert_allclose(lp_norm(v, p), lp_norm(v[0], p), rtol=1e-15)

    def test_values_immutable(self):
        batch = draw_batch(DirectionLaw("sphere", 2.0), RadialLaw("uniform", 1.0), 10, 3, seed=0)
        with pytest.raises(ValueError):
            batch.values[0, 0] = 1.0


class TestDecorrelate:
    def make(self, n=40, d=6, sigma=0.3, seed=7):
        return draw_batch(DirectionLaw("sphere", 3.0), RadialLaw("uniform", sigma), n, d, seed)

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
        with pytest.raises(DomainError):
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

    @pytest.mark.parametrize("mode,n", [("sample", 40), ("sample", 6), ("moment", 40)])
    def test_same_bits_whether_or_not_the_batch_is_kept(self, mode, n):
        # decorrelate drops its reference to the raw batch; the caller's copy is untouched
        kept = self.make(n=n)
        before = kept.values.copy()
        out = decorrelate(kept, 0.3, mode).values
        assert out.tobytes() == decorrelate(self.make(n=n), 0.3, mode).values.tobytes()
        assert kept.values.tobytes() == before.tobytes()

    @pytest.mark.parametrize("values", [
        np.full((4, 2), np.nan),
        np.array([[1.0, 0.0], [0.0, np.inf], [1.0, 1.0]]),
        np.ones(4),
        np.ones((4, 2, 1)),
        np.empty((3, 0)),
        [[1.0, 0.0], [0.0, 1.0]],
    ], ids=["nan", "inf", "1d", "3d", "empty", "list"])
    def test_batch_that_is_not_a_finite_matrix_rejected(self, values):
        with pytest.raises(DomainError, match="2-D array of finite floats"):
            decorrelate(SampleBatch(values), 1.0)

    def test_nan_sigma_rejected(self):
        with pytest.raises(DomainError):
            decorrelate(self.make(), math.nan)

    @pytest.mark.parametrize("shape", [(2000, 1000), (1001, 1000), (1000, 1000), (400, 200), (50, 10), (7, 7)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_qr_keeps_the_bits_of_numpy_qr(self, shape):
        # the in-place LAPACK calls are numpy's own QR without its copies, so
        # Q, diag(R) and every decorrelated batch keep their bits
        a = np.random.default_rng(sum(shape)).normal(size=shape)
        q, r = np.linalg.qr(a)
        w = np.array(a, order="F")
        q_in_place, diag = _qr(w)
        assert diag.tobytes() == np.diag(r).tobytes()
        assert q_in_place.tobytes("A") == q.tobytes("A") and q_in_place.flags.c_contiguous
        n, d = shape
        for mode in ("moment", "sample"):
            for order in "CF":
                values = np.array(a, order=order)
                centered = values - values.mean(axis=0) if mode == "sample" and n > d else values
                q, r = np.linalg.qr(centered)
                ddof = mode == "sample"
                expected = q * np.where(np.diag(r) < 0.0, -1.0, 1.0) * (math.sqrt(n - ddof) * 0.3)
                out = decorrelate(SampleBatch(values), 0.3, mode).values
                assert out.tobytes() == expected.tobytes(), (mode, order)
                assert out.flags.c_contiguous and not out.flags.writeable
                assert values.tobytes("A") == np.array(a, order=order).tobytes("A")  # the caller's batch

    def test_two_threads_match_serial(self):
        batches = [self.make(n=600, d=300, seed=seed) for seed in (1, 2)]
        serial = [decorrelate(batch, 0.3, "sample").values for batch in batches]
        with ThreadPoolExecutor(2) as pool:
            threaded = list(pool.map(lambda batch: decorrelate(batch, 0.3, "sample").values, batches))
        assert [v.tobytes() for v in threaded] == [v.tobytes() for v in serial]

    @pytest.mark.parametrize("lib", [types.SimpleNamespace(), OSError("no such library")], ids=["no-symbols", "no-library"])
    def test_numpy_without_the_lapack_symbols(self, monkeypatch, lib):
        def cdll(path):
            if isinstance(lib, Exception):
                raise lib
            return lib
        monkeypatch.setattr(sampler.ctypes, "CDLL", cdll)
        assert sampler._lapack.__wrapped__() is None

    @pytest.mark.parametrize("shape", [(400, 200), (50, 10), (7, 7)], ids=lambda shape: "x".join(map(str, shape)))
    def test_numpy_qr_path_keeps_the_bits(self, monkeypatch, shape):
        # a numpy build without the symbols factors with np.linalg.qr, to the same batch
        a = np.random.default_rng(sum(shape)).normal(size=shape)
        batches = [SampleBatch(np.array(a, order=order)) for order in "CF"]
        batches.append(SampleBatch(a.astype(np.float32)))
        cases = [(batch, mode) for batch in batches for mode in ("moment", "sample")]
        in_place = [decorrelate(batch, 0.3, mode).values for batch, mode in cases]
        monkeypatch.setattr(sampler, "_lapack", lambda: None)
        for (batch, mode), expected in zip(cases, in_place):
            out = decorrelate(batch, 0.3, mode).values
            assert out.tobytes() == expected.tobytes() and out.dtype == np.float64, mode
            assert out.flags.c_contiguous and not out.flags.writeable

    def test_lapack_error_raised(self):
        geqrf, _ = sampler._lapack()
        with pytest.raises(LpgradError, match="failed with info -4"):  # lda 1 < n 3
            sampler._call(geqrf, 3, 2, np.zeros((3, 2), order="F"), 1, np.empty(2), np.empty(64), 64)

    def test_bad_mode_rejected(self):
        with pytest.raises(DomainError):
            decorrelate(self.make(), 0.3, "center")
        with pytest.raises(DomainError):
            decorrelate(self.make(n=1, d=1), 0.3, "sample")
