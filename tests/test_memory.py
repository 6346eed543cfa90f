"""Peak memory of the estimate path, in N x d float64 blocks.

tracemalloc sees numpy's data buffers, so these budgets count every
n x d array alive at once; a first untraced call settles one-off
allocations.
"""
import tracemalloc

import numpy as np

from lpgrad.bench import central_fdm, rosenbrock
from lpgrad.estimator import EstimatorConfig, estimate_gradient
from lpgrad.metric import identity_metric
from lpgrad.sampler import DirectionLaw, RadialLaw, decorrelate, draw_batch
from lpgrad.scheme import one_point, two_point_central

N, D = 1000, 500
BLOCK = N * D * 8
LAW, RADIAL = DirectionLaw("sphere", 3.0), RadialLaw("uniform", 0.01)


def peak_blocks(fn):
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / BLOCK
    finally:
        tracemalloc.stop()


def test_sample_decorrelate_frees_the_raw_batch():
    # the raw batch and its centered copy, then that copy factored in place
    # and Q copied out row-major; numpy's QR held four blocks of its own
    peak = peak_blocks(lambda: decorrelate(draw_batch(LAW, RADIAL, N, D, 1), 0.01, "sample"))
    assert peak <= 2.2, peak


def test_rosenbrock_rows_use_two_scratch_blocks():
    f = rosenbrock(D)
    x = np.random.default_rng(0).normal(size=(N, D))
    peak = peak_blocks(lambda: f(x))
    assert peak <= 2.2, peak


def test_sample_decorrelated_estimate():
    cfg = EstimatorConfig(one_point(), LAW, RADIAL, n=N, h=1e-3, decorrelate="sample")
    f, x, metric = rosenbrock(D), np.zeros(D), identity_metric(D)
    peak = peak_blocks(lambda: estimate_gradient(f, x, cfg, metric, seed=3))
    assert peak <= 2.2, peak


def test_raw_batch_estimate_keeps_only_the_batch():
    # the draw's two blocks; the points and Rosenbrock's scratch are one row
    # block each, where whole N x d points and scratch made four blocks
    cfg = EstimatorConfig(two_point_central(), LAW, RADIAL, n=N, h=1e-3)
    f, x, metric = rosenbrock(D), np.zeros(D), identity_metric(D)
    peak = peak_blocks(lambda: estimate_gradient(f, x, cfg, metric, seed=3))
    assert peak <= 2.2, peak


def test_central_fdm_builds_its_points_in_row_blocks():
    # 2d x d points at d = 1000 are 16 MB; one row block and its scratch stay under 2 MB
    d = 1000
    f, x = rosenbrock(d), np.zeros(d)
    peak_mb = peak_blocks(lambda: central_fdm(f, x, 1e-4)) * BLOCK / 1e6
    assert peak_mb < 2.0, peak_mb
