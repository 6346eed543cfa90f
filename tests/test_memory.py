"""Peak memory of the estimate path, in N x d float64 blocks.

tracemalloc sees numpy's data buffers, so these budgets count every
n x d array alive at once; a first untraced call settles one-off
allocations.
"""
import tracemalloc

import numpy as np

from lpgrad.bench import rosenbrock
from lpgrad.estimator import EstimatorConfig, estimate_gradient
from lpgrad.metric import identity_metric
from lpgrad.sampler import DirectionLaw, RadialLaw, decorrelate, draw_batch
from lpgrad.scheme import one_point

N, D = 1000, 500
BLOCK = N * D * 8
LAW, RADIAL = DirectionLaw.sphere(3.0), RadialLaw.uniform(0.01)


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
    # the centered copy plus numpy's QR; the raw batch was a fifth block
    peak = peak_blocks(lambda: decorrelate(draw_batch(LAW, RADIAL, N, D, 1), 0.01, "sample"))
    assert peak <= 4.0, peak


def test_rosenbrock_rows_use_two_scratch_blocks():
    f = rosenbrock(D)
    x = np.random.default_rng(0).normal(size=(N, D))
    peak = peak_blocks(lambda: f(x))
    assert peak <= 2.2, peak


def test_sample_decorrelated_estimate():
    cfg = EstimatorConfig(one_point(), LAW, RADIAL, n=N, h=1e-3, decorrelate="sample")
    f, x, metric = rosenbrock(D), np.zeros(D), identity_metric(D)
    peak = peak_blocks(lambda: estimate_gradient(f, x, cfg, metric, seed=3))
    assert peak <= 4.2, peak
