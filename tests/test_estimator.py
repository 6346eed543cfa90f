"""Gradient estimator: exactness, accounting, bound constants, parameter rules."""
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgrad.bench import RunConfig, _build_spec
from lpgrad.errors import DomainError, EvaluationError
from lpgrad.estimator import (
    EstimatorConfig,
    ObjectiveFunction,
    estimate_gradient,
    k1,
    k2,
    recommend_p,
    recommended_sigma,
    surrogate_bias_bound,
)
from lpgrad.metric import apply_inverse, exp_corr_metric, from_matrix, identity_metric
from lpgrad.sampler import (
    DIRECTION_KINDS,
    DirectionLaw,
    RadialLaw,
    draw_batch,
    log_radius_moment,
    lp_norm,
)
from lpgrad.scheme import build_scheme, one_point, two_point_central


def linear_objective(d, rng):
    a = rng.normal(size=d)
    return ObjectiveFunction(fun=lambda x: float(a @ x), dim=d, name="linear"), a


def quadratic_objective(d, rng):
    m = rng.normal(size=(d, d)) / d
    a = 0.5 * (m + m.T)
    b = rng.normal(size=d)

    def fun(x):
        return float(x @ a @ x + b @ x)

    def grad(x):
        return 2.0 * a @ x + b

    return ObjectiveFunction(fun=fun, dim=d, name="quadratic", grad=grad), grad


def base_config(d, n, scheme=None, **kw):
    defaults = dict(
        scheme=scheme or two_point_central(),
        law=DirectionLaw("sphere", 3.0),
        radial=RadialLaw("uniform", 0.01),
        n=n,
        h=0.01,
        decorrelate="moment",
    )
    defaults.update(kw)
    return EstimatorConfig(**defaults)


def bound_config(p, h, radial, law=None):
    # a run's settings as surrogate_bias_bound reads them: p, h, the laws, sigma
    return EstimatorConfig(one_point(), law or DirectionLaw("sphere", p), radial, n=1, h=h)


class TestExactness:
    @pytest.mark.parametrize("d", [5, 50])
    @pytest.mark.parametrize("dep", [False, True])
    def test_linear(self, d, dep):
        rng = np.random.default_rng(d)
        f, a = linear_objective(d, rng)
        metric = exp_corr_metric(d, 0.5) if dep else identity_metric(d)
        cfg = base_config(d, n=d + 3)
        x = rng.normal(size=d)
        est = estimate_gradient(f, x, cfg, metric, seed=123)
        expected = apply_inverse(metric, a)
        np.testing.assert_allclose(est.grad, expected, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("d", [5, 50])
    @pytest.mark.parametrize("dep", [False, True])
    def test_quadratic(self, d, dep):
        rng = np.random.default_rng(100 + d)
        f, grad = quadratic_objective(d, rng)
        metric = exp_corr_metric(d, 0.5) if dep else identity_metric(d)
        cfg = base_config(d, n=d + 3)
        x = rng.normal(size=d)
        est = estimate_gradient(f, x, cfg, metric, seed=123)
        expected = apply_inverse(metric, grad(x))
        rel = np.linalg.norm(est.grad - expected) / np.linalg.norm(expected)
        assert rel < 1e-6

    @given(
        kind=st.sampled_from(DIRECTION_KINDS),
        radial_kind=st.sampled_from(["uniform", "dirac"]),
        stencil=st.sampled_from(["central", 2, 3, 4]),
        p=st.floats(1.0, 10.0),
        d=st.integers(1, 8),
        extra=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_moment_decorrelation_exact(self, kind, radial_kind, stencil, p, d, extra, seed):
        # with (1/N) V^T V = sigma^2 I pinned, sum C_l = 0 and
        # sum C_l beta_l = 1 make linear objectives exact; quadratics are
        # exact when sum C_l beta_l^2 = 0 too (central stencil, L >= 3).
        # L=1 and sample mode are left out: their mean-centering and
        # (N-1)/N terms are not exact by design.
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0, d) * rng.choice([-1.0, 1.0], d)
        m = rng.normal(size=(d, d)) / d
        sym = 0.05 * (m + m.T)
        x = rng.uniform(-1.0, 1.0, d)
        linear = ObjectiveFunction(fun=lambda z: float(a @ z), dim=d)
        quadratic = ObjectiveFunction(fun=lambda z: float(z @ sym @ z + a @ z), dim=d)
        scheme = (two_point_central() if stencil == "central"
                  else build_scheme(list(range(1, stencil + 1))))
        cfg = base_config(d, n=d + extra, scheme=scheme, h=0.01,
                          law=DirectionLaw(kind, p=p), radial=RadialLaw(radial_kind, 0.1))
        cases = [(linear, a)]
        if stencil != 2:
            cases.append((quadratic, 2.0 * sym @ x + a))
        for f, grad in cases:
            est = estimate_gradient(f, x, cfg, identity_metric(d), seed=seed)
            assert np.linalg.norm(est.grad - grad) <= 1e-9 * np.linalg.norm(grad)

    @pytest.mark.parametrize("radial,kind", [
        (radial, kind) for radial in (RadialLaw("uniform", 0.02), RadialLaw("dirac", 0.02))
        for kind in DIRECTION_KINDS
    ], ids=lambda value: getattr(value, "kind", value))
    def test_sigma_only_from_radial_law(self, radial, kind):
        # without decorrelation nothing pins the batch scale: the estimate
        # is right only if each law is calibrated by the sigma that
        # divides the final sum
        d = 5
        f, a = linear_objective(d, np.random.default_rng(3))
        cfg = base_config(d, n=20_000, law=DirectionLaw(kind, p=3.0), radial=radial,
                          decorrelate=None)
        est = estimate_gradient(f, np.zeros(d), cfg, identity_metric(d), seed=123)
        assert np.linalg.norm(est.grad - a) <= 0.1 * np.linalg.norm(a)


class TestSurrogateUnbiasedness:
    def test_mean_over_seeds_matches_high_n_reference(self):
        # the estimator is unbiased for the stencil surrogate: the mean
        # over independent seeds converges to a high-N reference
        d = 2
        f = ObjectiveFunction(
            fun=lambda x: float(np.exp(0.3 * x[0]) + np.sin(x[1]) + x[0] * x[1]),
            dim=d,
            name="smooth",
        )
        x = np.array([0.4, -0.2])
        common = dict(
            scheme=two_point_central(),
            law=DirectionLaw("sphere", 3.0),
            radial=RadialLaw("uniform", 0.3),
            h=0.05,
        )
        estimates = np.array([
            estimate_gradient(f, x, EstimatorConfig(n=50, **common), identity_metric(d), seed=s).grad
            for s in range(200)
        ])
        mean = estimates.mean(axis=0)
        se_mean = estimates.std(axis=0, ddof=1) / math.sqrt(len(estimates))

        chunks = np.array([
            estimate_gradient(f, x, EstimatorConfig(n=50_000, **common), identity_metric(d), seed=10_000 + s).grad
            for s in range(8)
        ])
        ref = chunks.mean(axis=0)
        se_ref = chunks.std(axis=0, ddof=1) / math.sqrt(len(chunks))
        tol = 4.0 * np.sqrt(se_mean**2 + se_ref**2)
        assert np.all(np.abs(mean - ref) <= tol)


class TestBenchmarkExample:
    def test_rosenbrock_d10_reference_error(self):
        # the standard benchmark cell: d=10, p=3, L=1, N=20, h=1e-4,
        # sigma=1/d^2, sample-convention decorrelation -> mean err ~ 0.05
        from lpgrad.bench import rosenbrock

        d = 10
        f = rosenbrock(d)
        grad_true = f.grad(np.zeros(d))
        cfg_kw = dict(
            scheme=one_point(),
            law=DirectionLaw("sphere", 3.0),
            radial=RadialLaw("uniform", d**-2.0),
            n=20,
            h=1e-4,
            decorrelate="sample",
        )
        cfg = EstimatorConfig(**cfg_kw)
        errs = []
        for seed in range(20):
            est = estimate_gradient(f.fresh(), np.zeros(d), cfg, identity_metric(d), seed=seed)
            errs.append(np.linalg.norm(grad_true - est.grad) / np.linalg.norm(grad_true))
        assert 0.025 <= np.mean(errs) <= 0.10


class TestBiasBoundSanity:
    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_sine_sum_surrogate_within_bound(self, h):
        # f = sum sin(x_k) has second-order smoothness constant 1; with
        # the self-normalizing sigma the surrogate error obeys m2*h
        d, p = 5, 3.0
        metric = identity_metric(d)
        sigma = recommended_sigma(metric, p)
        f = ObjectiveFunction(fun=lambda x: float(np.sin(x).sum()), dim=d, name="sin-sum")
        grad_true = np.ones(d)
        common = dict(
            scheme=two_point_central(),
            law=DirectionLaw("sphere", p),
            radial=RadialLaw("uniform", sigma),
            h=h,
        )
        chunks = np.array([
            estimate_gradient(f, np.zeros(d), EstimatorConfig(n=12_500, **common), metric, seed=s).grad
            for s in range(8)
        ])
        mean = chunks.mean(axis=0)
        se = chunks.std(axis=0, ddof=1) / math.sqrt(len(chunks))
        bound = surrogate_bias_bound(metric, 1.0, EstimatorConfig(n=1, **common))
        assert np.linalg.norm(mean - grad_true) <= bound + 4.0 * np.linalg.norm(se)


class TestAccountingAndErrors:
    def test_one_point_needs_two_samples(self):
        # the bound-only config stays buildable, but a run of it would
        # center its one value away and return exact zeros
        f = ObjectiveFunction(fun=lambda x: float(x.sum()), dim=3)
        cfg = bound_config(3.0, 0.01, RadialLaw("uniform", 0.1))
        with pytest.raises(DomainError, match="one-point stencil centers by the batch mean, so it needs n >= 2"):
            estimate_gradient(f, np.zeros(3), cfg, identity_metric(3))
        assert f.eval_count == 0

    def test_eval_counts(self):
        d = 4
        f = ObjectiveFunction(fun=lambda x: float(x @ x), dim=d)
        cfg = base_config(d, n=10, decorrelate=None)
        est = estimate_gradient(f, np.zeros(d), cfg, identity_metric(d))
        assert est.n_evals == 2 * 10 == f.eval_count

        f2 = ObjectiveFunction(fun=lambda x: float(x @ x), dim=d)
        cfg1 = base_config(d, n=10, scheme=one_point(), decorrelate=None)
        est1 = estimate_gradient(f2, np.zeros(d), cfg1, identity_metric(d))
        assert est1.n_evals == 10 == f2.eval_count

    def test_non_finite_value_aborts(self):
        d = 3
        f = ObjectiveFunction(
            fun=lambda x: float("nan") if x[0] > 0.0 else float(x @ x), dim=d
        )
        cfg = base_config(d, n=6, decorrelate=None)
        with pytest.raises(EvaluationError) as exc:
            estimate_gradient(f, np.zeros(d), cfg, identity_metric(d))
        assert exc.value.point is not None

    def test_rows_call_matches_point_calls(self):
        d, n = 5, 7
        f = ObjectiveFunction(fun=lambda x: float(np.sin(x).sum() + x @ x), dim=d)
        rows = np.random.default_rng(2).normal(size=(n, d))
        values = f(rows)
        assert values.shape == (n,) and f.eval_count == n
        singles = [f.fresh()(row) for row in rows]
        assert values.tobytes() == np.array(singles).tobytes()

    def test_rows_call_stops_at_first_non_finite(self):
        # a scalar fun, like a vectorized one, evaluates and counts the whole
        # block, and the error names the first non-finite row
        d, i = 3, 4
        f = ObjectiveFunction(fun=lambda x: float("inf") if x[0] >= i else float(x[0]), dim=d)
        rows = np.repeat(np.arange(8.0)[:, None], d, axis=1)
        with pytest.raises(EvaluationError) as exc:
            f(rows)
        assert f.eval_count == len(rows)
        np.testing.assert_array_equal(exc.value.point, rows[i])

    def test_scalar_overflow_is_an_evaluation_error_without_a_warning(self):
        d, n = 3, 8
        f = ObjectiveFunction(fun=lambda x: float(np.sum(np.exp(2000 * x))), dim=d)
        cfg = base_config(d, n=n, h=1.0, radial=RadialLaw("uniform", 0.4), decorrelate=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="non-finite value inf"):
                estimate_gradient(f, np.zeros(d), cfg, identity_metric(d))
        assert f.eval_count == n  # the first block, all of it

    @pytest.mark.parametrize("vectorized,fun,match", [
        (False, lambda x: x, r"shape \(4, 3\)"),
        (False, lambda x: [1.0, 2.0], r"shape \(4, 2\)"),
        (False, lambda x: 1j, "real float"),
        (False, lambda x: 10**400, "real float"),
        (False, lambda x: None, "real float"),
        (False, lambda x: "3", "real float"),
        (True, lambda x: np.full(len(x), 1j), "real float"),
    ], ids=["scalar-vector", "scalar-list", "scalar-complex", "scalar-huge-int", "scalar-none", "scalar-str",
            "vectorized-complex"])
    def test_result_that_is_not_one_real_number_per_row(self, vectorized, fun, match):
        f = ObjectiveFunction(fun=fun, dim=3, vectorized=vectorized)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                f(np.ones((4, 3)))
        assert f.eval_count == 0

    @pytest.mark.parametrize("vectorized", [False, True], ids=["scalar", "vectorized"])
    @pytest.mark.parametrize("shape", [(), (5,), (4, 5), (2, 2, 3)], ids=str)
    def test_argument_must_be_a_point_or_rows(self, vectorized, shape):
        f = ObjectiveFunction(fun=lambda x: x.sum(axis=-1), dim=3, vectorized=vectorized)
        with pytest.raises(DomainError, match=re.escape(f"takes a point (3,) or rows (N, 3), got shape {shape}")):
            f(np.zeros(shape))
        assert f.eval_count == 0

    def test_vectorized_call_counts_the_batch_and_names_the_first_bad_row(self):
        d, n, i = 3, 8, 4
        f = ObjectiveFunction(fun=lambda x: np.where(x[:, 0] >= i, np.inf, x[:, 0]), dim=d,
                              vectorized=True)
        rows = np.repeat(np.arange(n, dtype=float)[:, None], d, axis=1)
        with pytest.raises(EvaluationError) as exc:
            f(rows)
        assert f.eval_count == n
        np.testing.assert_array_equal(exc.value.point, rows[i])

    @pytest.mark.parametrize("fun", [lambda x: x.sum(), lambda x: x, lambda x: x.sum(axis=0)])
    def test_vectorized_call_checks_the_shape(self, fun):
        f = ObjectiveFunction(fun=fun, dim=3, vectorized=True)
        with pytest.raises(DomainError, match="shape"):
            f(np.ones((4, 3)))

    def test_vectorized_point_call_returns_a_float(self):
        f = ObjectiveFunction(fun=lambda x: (x * x).sum(axis=-1), dim=3, vectorized=True)
        assert f(np.array([1.0, 2.0, 3.0])) == 14.0 and f.eval_count == 1

    def test_decorrelate_needs_enough_samples(self):
        d = 8
        f = ObjectiveFunction(fun=lambda x: float(x.sum()), dim=d)
        cfg = base_config(d, n=d - 1)
        with pytest.raises(DomainError):
            estimate_gradient(f, np.zeros(d), cfg, identity_metric(d))

    def test_determinism(self):
        d = 6
        f = ObjectiveFunction(fun=lambda x: float(np.cos(x).sum()), dim=d)
        cfg = base_config(d, n=12)
        a = estimate_gradient(f.fresh(), np.zeros(d), cfg, identity_metric(d))
        b = estimate_gradient(f.fresh(), np.zeros(d), cfg, identity_metric(d))
        np.testing.assert_array_equal(a.grad, b.grad)

    def test_scalar_x_is_not_a_vector(self):
        f = ObjectiveFunction(fun=lambda x: float(x.sum()), dim=1)
        with pytest.raises(DomainError, match="x must be a vector"):
            estimate_gradient(f, 0.0, base_config(1, n=6, decorrelate=None), identity_metric(1))

    def test_dimension_mismatch(self):
        f = ObjectiveFunction(fun=lambda x: float(x.sum()), dim=3)
        with pytest.raises(DomainError):
            estimate_gradient(f, np.zeros(4), base_config(4, n=6), identity_metric(4))


class TestConfig:
    def test_frozen_keeps_h(self):
        cfg = base_config(5, n=64, h=0.02)
        assert cfg.h == 0.02
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.h = 0.5

    MAKERS = {
        "sphere-p": lambda v: DirectionLaw("sphere", v),
        "ball-p": lambda v: DirectionLaw("ball", v),
        "uniform-sigma": lambda v: RadialLaw("uniform", v),
        "dirac-sigma": lambda v: RadialLaw("dirac", v),
        "config-h": lambda v: base_config(5, n=8, h=v),
    }
    # sigma^2 divides the final sum, so it may neither overflow nor underflow
    INVALID = [(name, bad) for name in MAKERS for bad in (float("nan"), float("inf"), 0.0, -1.0)] + [
        (name, bad) for name in ("uniform-sigma", "dirac-sigma") for bad in (1e200, 1e-200)
    ]

    @pytest.mark.parametrize("name,bad", INVALID, ids=[f"{name}-{bad}" for name, bad in INVALID])
    def test_invalid_value_rejected(self, name, bad):
        with pytest.raises(DomainError):
            self.MAKERS[name](bad)

    @pytest.mark.parametrize("bad", [True, False, "center", 1])
    def test_decorrelate_is_a_mode(self, bad):
        with pytest.raises(DomainError):
            base_config(5, n=8, decorrelate=bad)

    def test_radial_law_required(self):
        for kind in DIRECTION_KINDS:
            with pytest.raises(DomainError):
                base_config(5, n=8, law=DirectionLaw(kind, p=2.0), radial=None)

    def test_direction_law_required(self):
        with pytest.raises(DomainError):
            base_config(5, n=8, law=None)

    def test_bandwidth_warning(self, caplog):
        base_config(5, n=8, h=10.0, radial=RadialLaw("uniform", 1.0))
        [record] = caplog.records
        assert (record.name, record.levelname) == ("lpgrad", "WARNING")
        assert record.getMessage().startswith("beta_max * h * sigma = 10 exceeds 1/2")
        # attributed to the line that built the config, not to dataclass code
        assert record.pathname == __file__

    def test_missing_h(self):
        with pytest.raises(DomainError):
            base_config(5, n=8, h=None)


class TestConstantShift:
    @given(
        shift=st.floats(-1e3, 1e3, allow_nan=False),
        l=st.integers(1, 4),
        d=st.integers(1, 6),
        n=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_adding_constant_leaves_estimate(self, shift, l, d, n, seed):
        # every stencil cancels f(x) V: L=1 by mean-centering, L >= 2
        # through sum C_l = 0, so f and f + shift give the same estimate
        def fun(x):
            return float(np.sin(x).sum() + 0.5 * x @ x)

        schemes = [build_scheme(list(range(1, l + 1)))] if l >= 2 else []
        schemes += [one_point(), two_point_central()]
        x = np.linspace(-0.5, 0.5, d)
        for scheme in schemes:
            cfg = base_config(d, n=n, scheme=scheme, h=0.1,
                              radial=RadialLaw("uniform", 0.1), decorrelate=None)
            if scheme.l == 1 and n < 2:  # one value is its own batch mean, so the run is rejected
                with pytest.raises(DomainError, match="n >= 2"):
                    estimate_gradient(ObjectiveFunction(fun=fun, dim=d), x, cfg, identity_metric(d), seed=seed)
                continue
            base = estimate_gradient(ObjectiveFunction(fun=fun, dim=d), x, cfg, identity_metric(d), seed=seed)
            moved = estimate_gradient(
                ObjectiveFunction(fun=lambda z: fun(z) + shift, dim=d), x, cfg, identity_metric(d), seed=seed
            )
            # rounding of f + shift scales with |shift| and 1 / (h sigma)
            tol = 1e-13 * (1.0 + abs(shift)) * l / (cfg.h * cfg.radial.sigma)
            np.testing.assert_allclose(moved.grad, base.grad, rtol=0, atol=tol)


class TestMetricAndLinearity:
    """Invariants of the estimator in the metric and in f, at a fixed seed, for
    every stencil length and batch kind: the identity metric is the plain
    gradient's, a power-of-two scale of G scales G^{-1} exactly, and the
    estimate is a linear map of the objective's values."""

    CASE = dict(
        l=st.integers(1, 3),
        decorrelate=st.sampled_from([None, "moment", "sample"]),
        d=st.integers(1, 6),
        extra=st.integers(1, 8),  # n - d, so a decorrelated batch has enough rows
        seed=st.integers(0, 2**32 - 1),
    )

    @staticmethod
    def estimate(fun, l, decorrelate, d, extra, seed, metric=None):
        scheme = build_scheme(list(range(1, l + 1))) if l >= 2 else one_point()
        cfg = base_config(d, n=d + extra, scheme=scheme, h=0.1, radial=RadialLaw("uniform", 0.1),
                          decorrelate=decorrelate)
        return estimate_gradient(ObjectiveFunction(fun=fun, dim=d), np.linspace(-0.5, 0.5, d), cfg,
                                 metric or identity_metric(d), seed=seed).grad

    @staticmethod
    def fun(x):
        return float(np.sin(x).sum() + 0.5 * x @ x)

    @given(**CASE)
    @settings(max_examples=40, deadline=None)
    def test_identity_marker_equals_the_identity_matrix(self, l, decorrelate, d, extra, seed):
        case = (l, decorrelate, d, extra, seed)
        np.testing.assert_array_equal(self.estimate(self.fun, *case, metric=from_matrix(np.eye(d))),
                                      self.estimate(self.fun, *case))

    @given(rho=st.floats(-0.9, 0.9), k=st.integers(-20, 20), **CASE)
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_metric_scale_is_exact(self, rho, k, l, decorrelate, d, extra, seed):
        idx = np.arange(d)
        corr = rho ** np.abs(idx[:, None] - idx[None, :])
        case = (l, decorrelate, d, extra, seed)
        base = self.estimate(self.fun, *case, metric=from_matrix(corr @ corr))
        scaled = self.estimate(self.fun, *case, metric=from_matrix(np.ldexp(corr @ corr, k)))
        np.testing.assert_array_equal(np.ldexp(scaled, k), base)

    @given(a=st.floats(-100, 100), b=st.floats(-100, 100), **CASE)
    @settings(max_examples=40, deadline=None)
    def test_estimate_is_linear_in_f(self, a, b, l, decorrelate, d, extra, seed):
        def f1(x):
            return float(np.sin(x).sum())

        def f2(x):
            return float(0.5 * x @ x + x[0])

        case = (l, decorrelate, d, extra, seed)
        both = self.estimate(lambda x: a * f1(x) + b * f2(x), *case)
        apart = a * self.estimate(f1, *case) + b * self.estimate(f2, *case)
        # |f1|, |f2| <= d on the points, and the rounding of their values
        # grows by l stencil weights and 1 / (h sigma); the floor covers a
        # tiny a or b, whose products with f are subnormal and round coarsely
        tol = 1e-14 * (abs(a) + abs(b)) * d * l / (0.1 * 0.1) + 1e-290
        np.testing.assert_allclose(both, apart, rtol=0, atol=tol)


class TestBoundConstants:
    def test_k1_d1_is_one(self):
        for p in (1.0, 2.0, 5.0, 100.0):
            assert k1(1, p) == pytest.approx(1.0, rel=1e-12)

    def test_k1_matches_direction_moments(self):
        # k1 = E[|U1|^3 + (d-1) U1^2 |U2|] for cone-measure directions
        d, p, n = 10, 3.0, 10_000
        v = draw_batch(DirectionLaw("sphere", p), RadialLaw("dirac", 1.0), n, d, seed=55).values
        u = v / lp_norm(v, p)[:, None]
        s = np.abs(u[:, 0]) ** 3 + (d - 1) * u[:, 0] ** 2 * np.abs(u[:, 1])
        z = (s.mean() - k1(d, p)) / (s.std() / math.sqrt(len(s)))
        assert abs(z) < 4.0

    def test_k2_consistency_with_k1(self):
        for d, p in [(10, 3.0), (100, 5.0), (7, 1.0)]:
            ratio = math.exp(log_radius_moment(3, d, p))  # E[R0^3]/sigma^3
            np.testing.assert_allclose(k2(d, p), k1(d, p) * ratio, rtol=1e-10)

    @pytest.mark.parametrize("d,p", [(1, 2.0), (10, 3.0), (100, 5.0), (1000, 7.0), (5, 1.0)])
    def test_constants_against_high_precision(self, d, p):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        G = mpmath.gamma
        bracket = G(4 / p) * G(1 / p) + (d - 1) * G(3 / p) * G(2 / p)
        k1_ref = G(d / p) * bracket / (G(1 / p) ** 2 * G((d + 3) / p))
        k2_ref = (
            3 * mpmath.sqrt(3) / 4 * bracket * G((d + 2) / p) ** mpmath.mpf("1.5")
            / (
                G(d / p) ** mpmath.mpf("0.5")
                * G(1 / p) ** mpmath.mpf("0.5")
                * G((d + 3) / p)
                * G(3 / p) ** mpmath.mpf("1.5")
            )
        )
        np.testing.assert_allclose(k1(d, p), float(k1_ref), rtol=1e-12)
        np.testing.assert_allclose(k2(d, p), float(k2_ref), rtol=1e-12)

    def test_k2_large_p_regime(self):
        # the d << p limit is 9 (d+3) (2d+1) sqrt(d) / (16 (d+2)^(3/2))
        d = 5
        exact = k2(d, 10**6)
        approx = 9.0 * 8 * 11 * math.sqrt(5) / (16.0 * 7**1.5)
        assert abs(exact - approx) / approx < 0.01


class TestBiasBound:
    @pytest.mark.parametrize("d,p", [(10, 3.0), (100, 5.0), (1000, 7.0)])
    def test_self_normalizing_sigma_collapses_bound(self, d, p):
        metric = identity_metric(d)
        sigma = recommended_sigma(metric, p)
        m2, h = 2.5, 1e-3
        bound = surrogate_bias_bound(metric, m2, bound_config(p, h, RadialLaw("uniform", sigma)))
        np.testing.assert_allclose(bound, m2 * h, rtol=1e-10)

    def test_d1_reduces_to_k1_one(self):
        metric = identity_metric(1)
        sigma = 0.2
        bound = surrogate_bias_bound(metric, 1.0, bound_config(3.0, 0.1, RadialLaw("dirac", sigma)))
        np.testing.assert_allclose(bound, 0.1 * sigma, rtol=1e-12)

    @staticmethod
    def drawn_bound(metric, p, m2, h, radial, n, law=None):
        # m2 h k1 E[|V|_p^3] / sigma^2 || |G^-1| 1 ||_2, from the rows draw_batch draws:
        # |V|_p = R for sphere directions, R W^(1/d) for ball ones
        v = draw_batch(law or DirectionLaw("sphere", p), radial, n, metric.dim, seed=8).values
        r3 = lp_norm(v, p) ** 3
        scale = m2 * h * k1(metric.dim, p) / radial.sigma**2 * metric.abs_ginv_ones_l2
        return scale * r3.mean(), scale * r3.std() / math.sqrt(n)

    def test_dirac_radial(self):
        # the constant radius is sigma / sqrt(E[U_1^2]), not sigma
        radial = RadialLaw("dirac", 0.1)
        for d, p in [(4, 2.0), (100, 5.0), (1000, 7.0)]:
            metric = exp_corr_metric(d, 0.5)
            expected, _ = self.drawn_bound(metric, p, 1.0, 0.01, radial, n=4)
            got = surrogate_bias_bound(metric, 1.0, bound_config(p, 0.01, radial))
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("d,p", [(4, 2.0), (100, 5.0)])
    def test_uniform_radial(self, d, p):
        metric = exp_corr_metric(d, 0.5)
        radial = RadialLaw("uniform", 0.1)
        expected, se = self.drawn_bound(metric, p, 1.0, 0.01, radial, n=20_000)
        got = surrogate_bias_bound(metric, 1.0, bound_config(p, 0.01, radial))
        assert abs(got - expected) <= 4.0 * se

    @pytest.mark.parametrize("d,p", [(2, 3.0), (4, 2.0)])
    @pytest.mark.parametrize("kind", ["uniform", "dirac"])
    def test_ball_law(self, d, p, kind):
        # the ball law's factor ((d+2)/d)^(3/2) d/(d+3) is 1.13 at d=2 and 1.05 at d=4
        metric = exp_corr_metric(d, 0.5)
        radial, law = RadialLaw(kind, 0.1), DirectionLaw("ball", p)
        expected, se = self.drawn_bound(metric, p, 1.0, 0.01, radial, n=20_000, law=law)
        got = surrogate_bias_bound(metric, 1.0, bound_config(p, 0.01, radial, law))
        assert abs(got - expected) <= 4.0 * se

    def test_radial_law_required(self):
        with pytest.raises(DomainError):
            surrogate_bias_bound(identity_metric(4), 1.0, bound_config(2.0, 0.01, "dirac"))


class TestParameterRules:
    def test_recommended_sigma_rules(self):
        # --sigma auto-d2 is d^-2 exactly; recommended_sigma is the self-normalizing sigma
        assert _build_spec(RunConfig(d=100, sigma="auto-d2")).cfg.radial.sigma == 100 ** -2.0
        one = identity_metric(1)
        assert recommended_sigma(one, 3.0) == pytest.approx(1.0 / k2(1, 3.0))

    def test_recommend_p(self):
        assert recommend_p(100) == 5
        assert recommend_p(1000) == 7
        assert recommend_p(2) == 3
        assert recommend_p(1) == 3
