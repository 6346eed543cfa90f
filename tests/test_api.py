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
], ids=["scheme-nan", "scheme-inf", "fdm-h-nan", "fdm-h-inf", "recommend-p-nan", "recommend-p-inf",
        "direction-p-nan", "direction-p-inf", "direction-d-nan", "direction-d-inf",
        "radius-p-nan", "radius-d-inf", "radius-q-nan", "radius-q-inf"])
def test_non_finite_argument_rejected(call):
    with pytest.raises(DomainError):
        call()
