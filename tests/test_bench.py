"""Benchmark functions, error measure, experiment running, MSE sweeps."""
import math
import os
import threading
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpgrad.bench import (
    ExperimentSpec,
    RunConfig,
    _build_spec,
    central_fdm,
    derive_seed,
    err,
    fdm_row,
    mse_sweep,
    rosenbrock,
    run_experiment,
    synthetic_ms,
    table_specs,
    trig_sum,
)
from lpgrad import bench, sampler
from lpgrad.errors import DomainError, EvaluationError, log
from lpgrad.estimator import _EVAL_BLOCK_BYTES, EstimatorConfig, ObjectiveFunction, estimate_gradient
from lpgrad.metric import exp_corr_metric, from_matrix, identity_metric
from lpgrad.sampler import DIRECTION_KINDS, DirectionLaw, RadialLaw
from lpgrad.scheme import one_point, two_point_central


BATCH_EXPRESSIONS = [
    "sum(x1*x)",
    "x1 + x2^2",
    "1 + 2*3^2",
    "sum(x3)",
    "exp(-sum(x))",
    "sum(sin(x)) + 0.5*pow(sum(x), 2)",
    "x1^3 + cos(x2)/x3",
]


def batched_objectives(d):
    yield from (rosenbrock(d), synthetic_ms(d, 200.0, 1e-3), trig_sum(d))
    for text in BATCH_EXPRESSIONS:
        yield bench._build_function("expr:" + text, d)


class TestBatchedObjectives:
    @pytest.mark.parametrize("d,n", [(4, 4), (6, 6), (4, 9), (6, 1)])
    def test_rows_call_equals_point_calls_bitwise(self, d, n):
        rows = np.random.default_rng(d * 100 + n).normal(size=(n, d))
        for f in batched_objectives(d):
            assert f.vectorized, f.name
            values = f(rows)
            assert f.eval_count == n and values.shape == (n,)
            singles = np.array([f.fresh()(row) for row in rows])
            assert values.tobytes() == singles.tobytes(), f.name

    def test_builtins_equal_their_one_point_forms_bitwise(self):
        d = 6
        rows = np.random.default_rng(5).normal(size=(9, d))
        one_point_forms = [
            (rosenbrock(d), lambda x: np.sum((1.0 - x[:-1]) ** 2 + 100.0 * (x[1:] - x[:-1] ** 2) ** 2)),
            (synthetic_ms(d, 3.0, 2.0), lambda x: np.sum(2.0 * np.sin(x[0::2]) + np.cos(x[1::2]))
             + (3.0 - 2.0) / (2.0 * d) * x.sum() * x.sum()),
            (trig_sum(d), lambda x: np.sin(x).sum()),
        ]
        for f, fun in one_point_forms:
            reference = ObjectiveFunction(fun=fun, dim=d)
            assert f(rows).tobytes() == reference(rows).tobytes(), f.name

    def test_one_rows_call_per_offset_and_row_block(self, monkeypatch):
        calls = []
        call = ObjectiveFunction.__call__
        monkeypatch.setattr(ObjectiveFunction, "__call__",
                            lambda self, x: calls.append(np.shape(x)) or call(self, x))
        d, n = 1000, 70  # 32 rows of 1000 floats fill a block
        spec = _build_spec(RunConfig(function="expr:sum(sin(x))", d=d, l=2, n=n, decorrelate=None))
        estimate_gradient(spec.function, np.zeros(d), spec.cfg, spec.metric)
        assert calls == [(32, d), (32, d), (6, d)] * 2
        assert all(rows * d * 8 <= _EVAL_BLOCK_BYTES for rows, _ in calls)

    def test_failed_block_counts_its_rows(self):
        # at d = 1000 the second block is rows 32..63; its row 40 fails
        d, blocks = 1000, []

        def fun(rows):
            blocks.append(len(rows))
            out = np.zeros(len(rows))
            if len(blocks) == 2:
                out[8] = np.inf
            return out

        f = ObjectiveFunction(fun=fun, dim=d, vectorized=True)
        cfg = EstimatorConfig(one_point(), DirectionLaw("ball", 2.0), RadialLaw("uniform", 0.1), n=70, h=1e-3)
        with pytest.raises(EvaluationError):
            estimate_gradient(f, np.zeros(d), cfg, identity_metric(d))
        assert f.eval_count == 64


@pytest.mark.parametrize("f,seed,scale,atol", [
    (rosenbrock(6), 3, 0.5, 1e-4),
    (synthetic_ms(10, 200.0, 1e-3), 4, 0.3, 1e-6),
    (trig_sum(8), 5, 1.0, 1e-6),
], ids=["rosenbrock", "synthetic", "trig-sum"])
def test_gradient_matches_differences(f, seed, scale, atol):
    # each built-in objective carries its analytic gradient as .grad
    x = np.random.default_rng(seed).normal(size=f.dim) * scale
    np.testing.assert_allclose(f.grad(x), central_fdm(f, x, 1e-6), rtol=1e-6, atol=atol)


class TestRosenbrock:
    def test_gradient_at_origin(self):
        d = 100
        expected = np.full(d, -2.0)
        expected[-1] = 0.0
        np.testing.assert_allclose(rosenbrock(d).grad(np.zeros(d)), expected)

    def test_minimum(self):
        f = rosenbrock(7)
        assert f(np.ones(7)) == 0.0

    def test_origin_value(self):
        assert rosenbrock(10)(np.zeros(10)) == pytest.approx(9.0)

    def test_d1_rejected(self):
        with pytest.raises(DomainError):
            rosenbrock(1)

    def test_same_bits_as_the_plain_expression(self):
        def plain(x):
            head = x[..., :-1]
            return np.sum((1.0 - head) ** 2 + 100.0 * (x[..., 1:] - head**2) ** 2, axis=-1)

        rng = np.random.default_rng(11)
        rows = rng.normal(size=(300, 40)) * np.logspace(-3, 3, 40)
        f = rosenbrock(40)
        assert f(rows).tobytes() == plain(rows).tobytes()
        assert f(rows[7]) == plain(rows[7])


class TestSynthetic:
    def test_gradient_at_origin(self):
        d, m2 = 8, 3.5
        f = synthetic_ms(d, 2.0, m2)
        expected = np.zeros(d)
        expected[0::2] = m2
        np.testing.assert_allclose(f.grad(np.zeros(d)), expected)

    def test_origin_value(self):
        d = 12
        assert synthetic_ms(d, 2.0, 1.0)(np.zeros(d)) == pytest.approx(d / 2)

    def test_odd_d_rejected(self):
        with pytest.raises(DomainError):
            synthetic_ms(7, 2.0, 1.0)

    def test_sin_coefficient_is_no_smoothness_constant(self):
        # the sin coefficient may be negative, and the coupling's Hessian eigenvalue is m1 - m2
        assert synthetic_ms(4, 2.0, -1.0).m2 is None
        with pytest.raises(DomainError):
            synthetic_ms(4, 2.0, math.nan)

    def test_overflowing_coupling_rejected(self):
        with pytest.raises(DomainError, match=r"^m1 - m2 must be finite"):
            synthetic_ms(2, -1e308, 1e308)


class TestCentralFdm:
    def test_quadratic_exact(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(4, 4))
        a = a + a.T
        b = rng.normal(size=4)
        f = ObjectiveFunction(fun=lambda x: float(x @ a @ x + b @ x), dim=4)
        x = rng.normal(size=4)
        np.testing.assert_allclose(central_fdm(f, x, 1e-4), 2 * a @ x + b, atol=1e-8)

    def test_rosenbrock_origin(self):
        d = 10
        f = rosenbrock(d)
        fd = central_fdm(f, np.zeros(d), 1e-4)
        expected = np.full(d, -2.0)
        expected[-1] = 0.0
        np.testing.assert_allclose(fd, expected, atol=1e-6)

    def test_evaluation_count(self):
        f = rosenbrock(5)
        central_fdm(f, np.zeros(5), 1e-4)
        assert f.eval_count == 10

    def test_error_names_the_non_finite_point(self):
        f = ObjectiveFunction(fun=lambda x: float("inf") if x[0] < 0.0 else 1.0, dim=2)
        with pytest.raises(EvaluationError) as exc:
            central_fdm(f, np.zeros(2), 1e-3)
        np.testing.assert_array_equal(exc.value.point, [-1e-3, 0.0])

    def test_overflowing_difference_is_an_evaluation_error(self):
        # as for estimate_gradient, and no raw numpy warning (they are errors here)
        f = ObjectiveFunction(fun=lambda x: math.copysign(1.7e308, x[0]), dim=2)
        with pytest.raises(EvaluationError, match="^the central-difference estimate is not finite$") as exc:
            central_fdm(f, np.zeros(2), 1e-3)
        np.testing.assert_array_equal(exc.value.point, [0.0, 0.0])

    def test_overflowing_point_is_an_evaluation_error(self):
        # x + h e_1 is beyond the float range: f's value there raises, with no numpy warning
        with pytest.raises(EvaluationError, match="returned non-finite value inf") as exc:
            central_fdm(rosenbrock(3), [1e308, 0.0, 0.0], 1e308)
        np.testing.assert_array_equal(exc.value.point, [np.inf, 0.0, 0.0])


class TestErr:
    def test_exact_estimate(self):
        m = identity_metric(3)
        assert err(m, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_zero_estimate(self):
        m = identity_metric(3)
        assert err(m, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        m = identity_metric(2)
        got = err(m, [-2.0, 0.0], [-2.1, 0.1])
        np.testing.assert_allclose(got, math.sqrt(0.02) / 2.0, rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_reference_scale(self, scale):
        # neither norm may underflow to "zero" or overflow to inf
        assert err(identity_metric(2), [scale, scale], [0.0, 0.0]) == 1.0

    def test_difference_beyond_the_float_range(self):
        # ref - est overflows, but the ratio is 2; no raw numpy warning (they are errors here)
        assert err(identity_metric(1), [1e308], [-1e308]) == 2.0

    def test_ratio_beyond_the_float_range_is_inf(self):
        assert err(identity_metric(3), [5e-324, 0.0, 0.0], [0.5, 0.0, 0.0]) == math.inf

    def test_degenerate_reference(self):
        with pytest.raises(DomainError):
            err(identity_metric(2), [0.0, 0.0], [1.0, 1.0])

    def test_reference_zero_in_the_transformed_space(self):
        # a non-zero gradient in the null space of a singular metric's inverse
        metric = from_matrix([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DomainError, match="^reference gradient is zero in the transformed space$"):
            err(metric, [0.0, 1.0], [0.0, 0.0])

    @given(scale=st.floats(0.01, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, scale):
        m = exp_corr_metric(3, 0.5)
        gt = np.array([1.0, -2.0, 0.5])
        ge = np.array([0.9, -2.2, 0.7])
        np.testing.assert_allclose(
            err(m, scale * gt, scale * ge), err(m, gt, ge), rtol=1e-10
        )


def quick_spec(reps=3, n=12, d=6, seed=5, **cfg_kw):
    kw = dict(
        scheme=two_point_central(),
        law=DirectionLaw("sphere", 3.0),
        radial=RadialLaw("uniform", 0.01),
        n=n,
        h=1e-3,
    )
    kw.update(cfg_kw)
    return ExperimentSpec(
        function=trig_sum(d),
        metric=identity_metric(d),
        cfg=EstimatorConfig(**kw),
        reps=reps,
        seed=seed,
    )


@pytest.fixture
def seam_calls(monkeypatch):
    """Counts of the calls through the two module globals a benchmark
    harness wraps to time each estimate and each reference gradient."""
    calls = {"estimate_gradient": 0, "central_fdm": 0}

    def counting(name):
        inner = getattr(bench, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(bench, name, wrapper)

    counting("estimate_gradient")
    counting("central_fdm")
    return calls


# an analytic gradient that is no finite vector of the objective's length 4
BAD_REFERENCES = {"nan": [1.0, np.nan, 0.0, 0.0], "inf": [np.inf, 1.0, 0.0, 0.0], "short": [1.0, 1.0, 1.0]}

RUNNERS = {
    "run_experiment": lambda spec: run_experiment(spec, threads=2),
    "mse_sweep": lambda spec: mse_sweep(spec, [8, 16], threads=2),
    "fdm_row": lambda spec: fdm_row(spec.function, spec.metric, h=1e-4),
}


class TestRunExperiment:
    def test_metric_dimension_must_match_objective(self):
        with pytest.raises(DomainError, match="metric dimension 4 != objective dimension 3"):
            replace(quick_spec(d=3), metric=identity_metric(4))
        # estimate_gradient states the same rule in the same words
        with pytest.raises(DomainError, match=r"^metric dimension 4 != objective dimension 3$"):
            estimate_gradient(rosenbrock(3), np.zeros(3), quick_spec(d=3).cfg, identity_metric(4))

    def test_zero_reference_gradient_rejected(self):
        # x.x has a zero gradient at the origin, so no relative error exists
        f = ObjectiveFunction(fun=lambda x: (x * x).sum(axis=-1), dim=3, grad=lambda x: 2.0 * np.asarray(x),
                              vectorized=True)
        spec = replace(quick_spec(d=3), function=f)
        with pytest.raises(DomainError, match="^reference gradient is zero in the transformed space$"):
            run_experiment(spec)

    def test_fdm_row_checks_dimensions_before_evaluating(self):
        # the same rule as ExperimentSpec's, before any of the 2d points is evaluated
        calls = []

        def spy(rows):
            calls.append(rows.shape)
            return rows.sum(axis=1)

        f = ObjectiveFunction(fun=spy, dim=3, vectorized=True)
        with pytest.raises(DomainError, match=r"^metric dimension 4 != objective dimension 3$"):
            fdm_row(f, identity_metric(4), 1e-4)
        assert calls == []

    def test_determinism(self):
        rows_a, _ = run_experiment(quick_spec())
        rows_b, _ = run_experiment(quick_spec())
        assert rows_a == rows_b or all(
            a.err == b.err and a.seed == b.seed for a, b in zip(rows_a, rows_b)
        )

    def test_thread_count_does_not_change_results(self):
        rows_1, _ = run_experiment(quick_spec(reps=8), threads=1)
        rows_4, _ = run_experiment(quick_spec(reps=8), threads=4)
        assert [r.err for r in rows_1] == [r.err for r in rows_4]
        assert [r.seed for r in rows_1] == [r.seed for r in rows_4]

    def test_zero_threads_is_one_worker_per_core(self, monkeypatch):
        # records the worker count _map asks for and runs the items in turn,
        # so no thread is started whatever the count
        workers = []

        class Recording:
            def __init__(self, max_workers=None):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(bench, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        run_experiment(quick_spec(reps=3), threads=0)
        assert workers == [3]
        # a worker count is capped by the cores and by the items
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for reps, expected in [(2, 2), (5, 4)]:
            workers.clear()
            rows, _ = run_experiment(quick_spec(reps=reps), threads=10**6)
            assert workers == [expected] and len(rows) == reps

    @given(
        law=st.sampled_from(DIRECTION_KINDS),
        radial=st.sampled_from(["uniform", "dirac"]),
        l=st.integers(1, 3),
        decorrelate=st.sampled_from([None, "moment", "sample"]),
        d=st.integers(2, 5),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_independent_of_threads(self, law, radial, l, decorrelate, d, n, seed):
        # rows, failure notes included, depend only on (seed, rep)
        run = RunConfig(function="rosenbrock", d=d, p=3.0, l=l, n=n, h=1e-3, sigma=0.05,
                        law=law, radial=radial, decorrelate=decorrelate, reps=5, seed=seed)
        spec = _build_spec(run)
        rows_1, _ = run_experiment(spec, threads=1)
        rows_3, _ = run_experiment(spec, threads=3)
        assert [repr(replace(r, wall_ms=0.0)) for r in rows_1] == \
            [repr(replace(r, wall_ms=0.0)) for r in rows_3]

    def test_zero_direction_fails_only_its_rep(self, monkeypatch):
        # rep 2's first draw gets a row of zeros; a redraw from the same
        # generator would be left as it comes
        spec = quick_spec(reps=4)
        fresh = np.random.SFC64(derive_seed(spec.seed, 2)).state["state"]["state"]
        pgauss = sampler._pgauss_matrix

        def pgauss_with_zero_row(rng, n, d, p):
            first = np.array_equal(rng.bit_generator.state["state"]["state"], fresh)
            g = pgauss(rng, n, d, p)
            if first:
                g[1] = 0.0
            return g

        monkeypatch.setattr(sampler, "_pgauss_matrix", pgauss_with_zero_row)
        rows_1, summary = run_experiment(spec, threads=1)
        rows_3, _ = run_experiment(spec, threads=3)
        assert [r.note for r in rows_1] == ["", "", "drew a zero direction", ""]
        assert math.isnan(rows_1[2].err) and summary["n_failed"] == 1
        assert [repr(replace(r, wall_ms=0.0)) for r in rows_1] == \
            [repr(replace(r, wall_ms=0.0)) for r in rows_3]

    def test_summary_mean_is_row_mean(self):
        rows, summary = run_experiment(quick_spec(reps=7))
        np.testing.assert_allclose(
            summary["mean_err"], np.mean([r.err for r in rows]), rtol=1e-12
        )

    def test_row_echo_fields(self):
        rows, _ = run_experiment(quick_spec(reps=2))
        row = rows[0]
        assert row.function == "trig-sum"
        assert row.l == 2 and row.n == 12 and row.d == 6
        assert row.n_evals == 24
        assert row.rep == 0 and rows[1].rep == 1

    def test_failed_rep_annotates_row(self):
        d = 4
        bad = ObjectiveFunction(fun=lambda x: float("inf"), dim=d, name="bad")
        spec = ExperimentSpec(
            function=bad,
            metric=identity_metric(d),
            cfg=EstimatorConfig(
                scheme=two_point_central(),
                law=DirectionLaw("sphere", 2.0),
                radial=RadialLaw("uniform", 0.1),
                n=5,
                h=1e-2,
            ),
            reps=2,
            seed=0,
        )
        # reference gradient needs an analytic form for a non-finite objective
        bad.grad = lambda x: np.ones(d)
        rows, summary = run_experiment(spec)
        assert summary["n_failed"] == 2
        assert all(math.isnan(r.err) and r.note for r in rows)
        assert math.isnan(summary["sd_err"])  # no spread is known without two successes

    def test_err_beyond_the_float_range_is_a_success(self):
        # the reference is tiny and the estimate's noise is not: each err is inf, no trial fails
        d, n = 2, 20
        f = ObjectiveFunction(fun=lambda x: 1e-305 * x[0] + 1e10 * x[1] ** 2, dim=d,
                              grad=lambda x: np.array([1e-305, 2e10 * x[1]]))
        spec = ExperimentSpec(
            function=f,
            metric=identity_metric(d),
            cfg=EstimatorConfig(scheme=one_point(), law=DirectionLaw("sphere", 3.0),
                                radial=RadialLaw("uniform", 0.25), n=n, h=1e-4),
            reps=2,
            seed=0,
        )
        rows, summary = run_experiment(spec)
        assert all(r.err == math.inf and r.note == "" for r in rows)
        assert summary["n_failed"] == 0 and summary["mean_n_evals"] == n
        assert summary["mean_err"] == math.inf and math.isnan(summary["sd_err"])

    def test_scalar_fun_returning_a_vector_annotates_rows(self):
        d = 4
        spec = ExperimentSpec(
            function=ObjectiveFunction(fun=lambda x: x, dim=d, name="vector", grad=lambda x: np.ones(d)),
            metric=identity_metric(d),
            cfg=EstimatorConfig(scheme=two_point_central(), law=DirectionLaw("sphere", 2.0),
                                radial=RadialLaw("uniform", 0.1), n=5, h=1e-2),
            reps=2,
            seed=0,
        )
        rows, summary = run_experiment(spec)
        assert summary["n_failed"] == 2
        assert all(math.isnan(r.err) and r.n_evals == 0 for r in rows)
        assert {r.note for r in rows} == {"objective 'vector' returned shape (5, 4) for 5 rows, expected 5 real numbers"}

    def test_every_trial_and_reference_goes_through_the_bench_seams(self, seam_calls):
        spec = _build_spec(RunConfig(function="expr:sum(sin(x))", d=4, l=2, n=8, sigma=0.01, reps=3))
        RUNNERS["run_experiment"](spec)
        assert seam_calls == {"estimate_gradient": 3, "central_fdm": 1}
        RUNNERS["mse_sweep"](spec)
        assert seam_calls == {"estimate_gradient": 3 + 2 * 3, "central_fdm": 2}
        RUNNERS["fdm_row"](spec)
        assert seam_calls == {"estimate_gradient": 9, "central_fdm": 4}

    @pytest.mark.parametrize("runner", RUNNERS)
    @pytest.mark.parametrize("gradient", BAD_REFERENCES.values(), ids=BAD_REFERENCES)
    def test_bad_analytic_reference_is_rejected_before_any_trial(self, seam_calls, runner, gradient):
        # one message from each runner, and no raw numpy warning (they are errors here)
        spec = quick_spec(d=4)
        spec = replace(spec, function=replace(spec.function, grad=lambda x: np.array(gradient)))
        with pytest.raises(DomainError, match=r"^the reference gradient at the origin must be "
                                              r"a finite vector of length 4$"):
            RUNNERS[runner](spec)
        assert seam_calls == {"estimate_gradient": 0, "central_fdm": 0}

    def test_monotone_error_in_n(self):
        # paired reps at the two budgets of the small benchmark preset
        specs = table_specs("t2", reps=50, seed=3)
        small = replace(specs[0], seed=77)  # LN = 11
        large = replace(specs[2], seed=77)  # LN = 20
        _, s_small = run_experiment(small)
        _, s_large = run_experiment(large)
        assert s_large["mean_err"] <= s_small["mean_err"]


class TestFdmRow:
    def test_accounting_and_error(self):
        f = synthetic_ms(20, 2.0, 1.0)
        row = fdm_row(f, identity_metric(20), h=1e-4)
        assert row.n_evals == 40
        assert row.law == "central-fdm"
        assert row.err < 1e-3


class TestMseSweep:
    def test_constant_function_zero_mse(self):
        # all evaluations are equal, so both the mean-centered one-point
        # stencil and any sum-zero stencil produce exactly the zero
        # vector, which is the analytic gradient
        d = 4
        const = ObjectiveFunction(
            fun=lambda x: 7.5, dim=d, name="const", grad=lambda x: np.zeros(d)
        )
        for scheme in (two_point_central(), one_point()):
            spec = ExperimentSpec(
                function=const,
                metric=identity_metric(d),
                cfg=EstimatorConfig(
                    scheme=scheme,
                    law=DirectionLaw("sphere", 2.0),
                    radial=RadialLaw("uniform", 0.1),
                    n=8,
                    h=1e-2,
                ),
                reps=3,
                seed=1,
            )
            points, _, _ = mse_sweep(spec, [8, 16])
            assert all(m == 0.0 for _, m in points)

    def test_requires_two_sizes(self):
        with pytest.raises(DomainError):
            mse_sweep(quick_spec(), [32])

    @pytest.mark.parametrize("mode", ["moment", "sample"])
    def test_decorrelated_spec_rejected(self, mode):
        # the sweep measures raw batches; a decorrelated spec is not overridden
        with pytest.raises(DomainError):
            mse_sweep(quick_spec(decorrelate=mode), [16, 32])

    def test_all_trials_failing_is_fit_error(self):
        d = 3
        bad = ObjectiveFunction(
            fun=lambda x: float("nan"), dim=d, name="bad", grad=lambda x: np.ones(d)
        )
        spec = ExperimentSpec(
            function=bad,
            metric=identity_metric(d),
            cfg=EstimatorConfig(
                scheme=two_point_central(),
                law=DirectionLaw("sphere", 2.0),
                radial=RadialLaw("uniform", 0.1),
                n=4,
                h=1e-2,
            ),
            reps=2,
            seed=0,
        )
        with pytest.raises(DomainError):
            mse_sweep(spec, [4, 8])

    def test_failed_trials_are_counted(self):
        d, reps, n_values = 3, 6, [4, 8, 16]
        cfg = EstimatorConfig(
            scheme=two_point_central(),
            law=DirectionLaw("sphere", 2.0),
            radial=RadialLaw("uniform", 0.1),
            n=4,
            h=1e-2,
        )
        # non-finite beyond a threshold that some batches cross and some do not
        flaky = ObjectiveFunction(
            fun=lambda x: float("nan") if x[0] > 1.5e-3 else float(np.sin(x).sum()),
            dim=d, name="flaky", grad=lambda x: np.cos(x),
        )
        spec = ExperimentSpec(function=flaky, metric=identity_metric(d), cfg=cfg, reps=reps, seed=4)
        _, _, notes = mse_sweep(spec, n_values)
        expected = Counter()
        for n in n_values:
            for rep in range(reps):
                try:
                    estimate_gradient(flaky.fresh(), np.zeros(d), replace(cfg, n=n), spec.metric,
                                      seed=derive_seed(spec.seed, n, rep))
                except EvaluationError as exc:
                    expected[str(exc)] += 1
        assert notes == expected and 0 < sum(notes.values()) < reps * len(n_values)

    def test_concurrent_sweeps_leave_the_logger_alone(self, monkeypatch):
        # two sweeps on threads, the second started while the first is in a
        # (slowed) bench.replace if it calls one: no sweep may toggle the
        # process-wide lpgrad logger, and each returns its single-thread points
        monkeypatch.setattr(log, "disabled", False)  # and restored afterwards
        started = threading.Event()

        def slow_replace(*args, **kwargs):
            started.set()
            time.sleep(0.05)
            return replace(*args, **kwargs)

        monkeypatch.setattr(bench, "replace", slow_replace)
        spec = quick_spec(reps=2, d=3)
        n_values = {"first": [8, 16], "second": [8, 16, 32]}
        alone = {name: mse_sweep(spec, ns)[0] for name, ns in n_values.items()}
        points = {}

        def sweep(name):
            points[name] = mse_sweep(spec, n_values[name])[0]

        first, second = (threading.Thread(target=sweep, args=(name,)) for name in n_values)
        first.start()
        while not started.wait(0.001) and first.is_alive():
            pass
        second.start()
        for thread in (first, second):
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert log.disabled is False
        assert points == alone

    def test_slope_near_inverse_n(self):
        spec = quick_spec(reps=40, d=5, n=16)
        points, slope, _ = mse_sweep(spec, [16, 32, 64, 128])
        assert -1.4 <= slope <= -0.6

    def test_recommended_p_not_worse_than_p2(self):
        # fixed budget far below d: the tuned exponent must not lose.
        # For smooth noiseless objectives the leading-order MSE of the
        # estimator is the same for all p, so the comparison is made
        # with an allowance covering the Monte Carlo spread.
        d, n, reps = 50, 32, 300
        function = trig_sum(d)
        results = {}
        for p in (2.0, 4.0):
            spec = ExperimentSpec(
                function=function,
                metric=identity_metric(d),
                cfg=EstimatorConfig(
                    scheme=two_point_central(),
                    law=DirectionLaw("sphere", p),
                    radial=RadialLaw("uniform", d**-2.0),
                    n=n,
                    h=1e-4,
                ),
                reps=reps,
                seed=11,
            )
            points, _, _ = mse_sweep(spec, [n, 2 * n])
            results[p] = points[0][1]
        assert results[4.0] <= 1.2 * results[2.0]


class TestTableSpecs:
    def test_t3_cells(self):
        specs = table_specs("t3", reps=5, seed=0)
        assert [(s.cfg.scheme.l, s.cfg.n) for s in specs] == [
            (1, 101), (1, 150), (1, 200), (2, 100),
        ]
        assert all(s.cfg.decorrelate == "sample" for s in specs)
        assert specs[0].function.dim == 100
        assert specs[0].cfg.radial.sigma == pytest.approx(1e-4)

    def test_t6_preset_constants(self):
        specs = table_specs("t6", reps=1, seed=0)
        f = specs[0].function
        # m2 is t6's sin coefficient, which the gradient at the origin shows
        assert f.grad(np.zeros(200))[0] == 1e-3 and f.dim == 200
        # at x = 1 the coupling ((m1 - m2)/(2d)) (sum x)^2 adds m1 - m2 to every coordinate
        assert f.grad(np.ones(200))[1] == pytest.approx(200.0 - 1e-3 - math.sin(1.0), rel=1e-14)

    def test_t2dep_metric(self):
        specs = table_specs("t2dep", reps=1, seed=0)
        assert specs[0].metric.ginv is not None
        assert specs[0].metric.label == "exp-corr:0.5"

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            table_specs("t9", reps=1, seed=0)
