"""Every name a module exports through ``__all__`` exists, so an entry left
behind by a deletion fails here; the public calculators reject non-finite
arguments where they enter."""
import importlib
import math
import pkgutil

import numpy as np
import pytest

import lpgrad
from lpgrad import DomainError, log_direction_moment, log_radius_moment

MODULES = [
    info.name for info in pkgutil.iter_modules(lpgrad.__path__)
    if hasattr(importlib.import_module(f"lpgrad.{info.name}"), "__all__")
]


def test_modules_found():
    assert {"sampler", "estimator", "bench"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    exec(f"from lpgrad.{name} import *", {})


NAN, INF = math.nan, math.inf
CFG = lpgrad.EstimatorConfig(scheme=lpgrad.one_point(), law=lpgrad.DirectionLaw.sphere(2.0),
                             radial=lpgrad.RadialLaw.uniform(0.1), n=4, h=1e-3)


@pytest.mark.parametrize("call", [
    lambda: lpgrad.build_scheme([1.0, NAN]),
    lambda: lpgrad.build_scheme([-INF, 1.0]),
    lambda: lpgrad.central_fdm(lpgrad.rosenbrock(3), np.zeros(3), NAN),
    lambda: lpgrad.central_fdm(lpgrad.rosenbrock(3), np.zeros(3), INF),
    lambda: lpgrad.recommend_p(NAN),
    lambda: lpgrad.recommend_p(INF),
    lambda: log_direction_moment(2, 0, 5, NAN),
    lambda: log_direction_moment(2, 0, 5, INF),
    lambda: log_direction_moment(2, 0, NAN, 3.0),
    lambda: log_direction_moment(2, 0, INF, 3.0),
    lambda: log_radius_moment(2, 5, NAN),
    lambda: log_radius_moment(2, INF, 3.0, "dirac"),
    lambda: log_radius_moment(NAN, 5, 3.0),
    lambda: log_radius_moment(INF, 5, 3.0, "dirac"),
    lambda: lpgrad.estimate_gradient(lpgrad.rosenbrock(3), [NAN, 0.0, 0.0], CFG, lpgrad.identity_metric(3)),
    lambda: lpgrad.estimate_gradient(lpgrad.rosenbrock(3), [INF, 0.0, 0.0], CFG, lpgrad.identity_metric(3)),
    lambda: lpgrad.central_fdm(lpgrad.rosenbrock(3), [NAN, 0.0, 0.0], 1e-4),
    lambda: lpgrad.central_fdm(lpgrad.rosenbrock(3), [INF, 0.0, 0.0], 1e-4),
    lambda: lpgrad.lp_norm([1.0, 2.0], NAN),
    lambda: lpgrad.lp_norm([1.0, 2.0], INF),
    lambda: lpgrad.lp_norm([1.0, 2.0], 0.5),
], ids=["scheme-nan", "scheme-inf", "fdm-h-nan", "fdm-h-inf", "recommend-p-nan", "recommend-p-inf",
        "direction-p-nan", "direction-p-inf", "direction-d-nan", "direction-d-inf",
        "radius-p-nan", "radius-d-inf", "radius-q-nan", "radius-q-inf",
        "estimate-x-nan", "estimate-x-inf", "fdm-x-nan", "fdm-x-inf",
        "lp-norm-p-nan", "lp-norm-p-inf", "lp-norm-p-below-one"])
def test_non_finite_argument_rejected(call):
    with pytest.raises(DomainError):
        call()
