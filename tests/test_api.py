"""Every name a module exports through ``__all__`` exists, so an entry left
behind by a deletion fails here; and every public callable of lpgrad rejects
a bad number where it enters. A registry holds one valid call per public
callable, and the bad calls are derived from it, so a new function that
skips the rule fails here as soon as it is exported."""
import functools
import importlib
import math
import pkgutil

import numpy as np
import pytest

import lpgrad

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
F = lpgrad.rosenbrock(3)
METRIC = lpgrad.identity_metric(3)
CFG = lpgrad.EstimatorConfig(scheme=lpgrad.one_point(), law=lpgrad.DirectionLaw("sphere", 2.0),
                             radial=lpgrad.RadialLaw("uniform", 0.1), n=4, h=1e-3)
SPEC = lpgrad.ExperimentSpec(function=F, metric=METRIC, cfg=CFG, reps=2, seed=0)
BATCH = lpgrad.draw_batch(CFG.law, CFG.radial, 8, 3, 0)

# (id prefix, callable, keyword arguments of one valid call) for each public
# callable, at tiny sizes. Every numeric parameter is passed, and its type
# states its rule: an int is an integer parameter and a float a real one, and
# a list holds numbers of one of the two kinds.
VALID = [
    ("direction-law", lpgrad.DirectionLaw, dict(kind="sphere", p=2.0)),
    ("radial-law", lpgrad.RadialLaw, dict(kind="uniform", sigma=0.1)),
    ("lp-norm", lpgrad.lp_norm, dict(x=[3.0, 4.0], p=2.0)),
    ("direction", lpgrad.log_direction_moment, dict(a=2.0, b=1.0, d=3, p=3.0)),
    ("radius", lpgrad.log_radius_moment, dict(q=2.0, d=3, p=3.0)),
    ("radius-dirac", lpgrad.log_radius_moment, dict(q=2.0, d=3, p=3.0, kind="dirac")),
    ("draw", lpgrad.draw_batch, dict(law=CFG.law, radial=CFG.radial, n=8, d=3, seed=0)),
    ("decorrelate", lpgrad.decorrelate, dict(batch=BATCH, sigma=0.1)),
    ("scheme", lpgrad.build_scheme, dict(betas=[1.0, -1.0])),
    ("one-point", lpgrad.one_point, {}),
    ("two-point", lpgrad.two_point_central, {}),
    ("identity", lpgrad.identity_metric, dict(d=3)),
    ("from-matrix", lpgrad.from_matrix, dict(g=[[2.0, 0.0], [0.0, 1.0]])),
    ("exp-corr", lpgrad.exp_corr_metric, dict(d=3, rho=0.5)),
    ("objective", lpgrad.ObjectiveFunction, dict(fun=np.sum, dim=3, m2=1.0)),
    ("config", lpgrad.EstimatorConfig, dict(scheme=CFG.scheme, law=CFG.law, radial=CFG.radial, n=4, h=1e-3)),
    ("estimate", lpgrad.estimate_gradient, dict(f=F, x=[0.0, 0.0, 0.0], cfg=CFG, metric=METRIC, seed=0)),
    ("k1", lpgrad.k1, dict(d=3, p=3.0)),
    ("k2", lpgrad.k2, dict(d=3, p=3.0)),
    ("bias-bound", lpgrad.surrogate_bias_bound, dict(metric=METRIC, m2=1.0, cfg=CFG)),
    ("recommended-sigma", lpgrad.recommended_sigma, dict(metric=METRIC, p=3.0)),
    ("recommend-p", lpgrad.recommend_p, dict(d=10)),
    ("rosenbrock", lpgrad.rosenbrock, dict(d=3)),
    ("synthetic", lpgrad.synthetic_ms, dict(d=4, m1=2.0, m2=1.0)),
    ("trig-sum", lpgrad.trig_sum, dict(d=3)),
    ("fdm", lpgrad.central_fdm, dict(f=F, x=[0.0, 0.0, 0.0], h=1e-4)),
    ("err", lpgrad.err, dict(metric=METRIC, grad_true=[1.0, 0.0, 0.0], grad_est=[0.5, 0.0, 0.0])),
    ("spec", lpgrad.ExperimentSpec, dict(function=F, metric=METRIC, cfg=CFG, reps=2, seed=0)),
    ("run", lpgrad.run_experiment, dict(spec=SPEC, threads=2)),
    ("fdm-row", lpgrad.fdm_row, dict(function=F, metric=METRIC, h=1e-4)),
    ("sweep", lpgrad.mse_sweep, dict(spec=SPEC, n_values=[4, 8], threads=2)),
    ("moments", lpgrad.moments_report, dict(d=3, p=3.0, draws=10, seed=0, sigma=1.0)),
    ("table", lpgrad.table_specs, dict(name="t2", reps=1, seed=0)),
]

# public callables without a registry entry, each with the reason
EXEMPT = {
    **dict.fromkeys(lpgrad.errors.__all__, "an exception class takes a message, not a number"),
    "GradientEstimate": "a result container that estimate_gradient fills",
    "SampleBatch": "a result container that draw_batch and decorrelate fill",
    "PointScheme": "a result container that build_scheme and one_point fill",
    "TensorMetric": "a result container that the metric builders fill",
    "apply_inverse": "estimate_gradient passes it an overflowed sum, whose rep then fails "
                     "with EvaluationError('the gradient estimate is not finite')",
    "load_matrix": "takes a path, not a number; from_matrix checks the matrix it reads",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# extreme finite values for a real argument; a huge integer count would run
# for very long, and a huge thread count must never be started
EXTREME = {"1e308": 1e308, "-1e308": -1e308, "1e300": 1e300, "1e-300": 1e-300, "5e-324": 5e-324}


def _bad_values(value) -> dict:
    """label -> bad value derived from a valid ``value``: nan, +-inf and,
    for an integer, the nearest value halfway to the next one, or, for a
    real, each extreme finite value."""
    bad = {"nan": NAN, "inf": INF, "-inf": -INF}
    if isinstance(value, int):
        bad["+0.5"] = value + 0.5
    else:
        bad.update(EXTREME)
    return bad


def _derived(wanted):
    """A pytest.param for each bad call derived from the registry whose label
    ``wanted`` accepts: each numeric argument, and the first entry of each
    list argument, replaced in turn by each of its bad values. The argument is
    named in the id when the call has more than one."""
    cases = []
    for prefix, fn, kwargs in VALID:
        numeric = [name for name, value in kwargs.items() if _is_number(value) or isinstance(value, list)]
        for name in numeric:
            value = kwargs[name]
            first = np.ravel(value)[0].item() if isinstance(value, list) else value
            for label, bad in _bad_values(first).items():
                if not wanted(label):
                    continue
                if isinstance(value, list):
                    bad_array = np.array(value, dtype=float)
                    bad_array.flat[0] = bad
                    bad = bad_array.tolist()
                call_id = "-".join([prefix, name, label] if len(numeric) > 1 else [prefix, label])
                cases.append(pytest.param(functools.partial(fn, **{**kwargs, name: bad}), id=call_id))
    return cases


def test_registry_covers_every_public_callable():
    public = {name for name in dir(lpgrad) if not name.startswith("_") and callable(getattr(lpgrad, name))}
    registered = {fn.__name__ for _, fn, _ in VALID}
    assert sorted(public - registered - set(EXEMPT)) == []
    assert sorted(registered & set(EXEMPT)) == []


@pytest.mark.parametrize("prefix, fn, kwargs", VALID, ids=[prefix for prefix, _, _ in VALID])
def test_valid_call_runs(prefix, fn, kwargs):
    # so that a derived call fails for its bad number, not for a bad registry entry
    fn(**kwargs)


@pytest.mark.parametrize("call", _derived(lambda label: label in ("nan", "inf", "-inf")) + [
    pytest.param(lambda: lpgrad.build_scheme([1.0, NAN]), id="scheme-second-offset-nan"),
])
def test_non_finite_argument_rejected(call):
    with pytest.raises(lpgrad.LpgradError):
        call()


@pytest.mark.parametrize("call", _derived(lambda label: label == "+0.5") + [
    pytest.param(lambda: lpgrad.lp_norm([1.0, 2.0], 0.5), id="lp-norm-p-below-one"),
    pytest.param(lambda: lpgrad.draw_batch(CFG.law, CFG.radial, 8, 3, -1), id="draw-seed-negative"),
    pytest.param(lambda: lpgrad.estimate_gradient(F, np.zeros(3), CFG, METRIC, seed=-1),
                 id="estimate-seed-negative"),
    pytest.param(lambda: lpgrad.run_experiment(lpgrad.ExperimentSpec(F, METRIC, CFG, reps=2, seed=-1)),
                 id="run-seed-negative"),
    pytest.param(lambda: lpgrad.run_experiment(SPEC, threads=-1), id="run-threads-negative"),
    pytest.param(lambda: lpgrad.table_specs("t2", 1, -1), id="table-seed-negative"),
    pytest.param(lambda: lpgrad.surrogate_bias_bound(METRIC, -1.0, CFG), id="bias-bound-m2-negative"),
    pytest.param(lambda: lpgrad.exp_corr_metric(3, 1.0), id="exp-corr-rho-one"),
    pytest.param(lambda: lpgrad.ObjectiveFunction(np.sum, 3, m2=-1.0), id="objective-m2-negative"),
    pytest.param(lambda: lpgrad.from_matrix(np.zeros((0, 0))), id="from-matrix-empty"),
    pytest.param(lambda: lpgrad.lp_norm([], 2.0), id="lp-norm-empty"),
    pytest.param(lambda: lpgrad.central_fdm(F, [0.0, 0.0], 1e-4), id="fdm-x-short"),
    pytest.param(lambda: lpgrad.central_fdm(F, [[0.0, 0.0]], 1e-4), id="fdm-x-matrix"),
    pytest.param(lambda: lpgrad.build_scheme(range(1, 151)), id="scheme-powers-overflow"),
    pytest.param(lambda: lpgrad.build_scheme([1.0, 2.0**-540, -(2.0**-540)]), id="scheme-singular-solve"),
    pytest.param(lambda: lpgrad.from_matrix([[1e308, 1e308], [1e308, 1e308]]), id="from-matrix-sum-overflow"),
    pytest.param(lambda: lpgrad.from_matrix([[1e-310, 0.0], [0.0, 1e-310]]), id="from-matrix-inverse-overflow"),
    pytest.param(lambda: lpgrad.err(METRIC, [1.0, 2.0, 3.0], [1.0, 2.0]), id="err-lengths-differ"),
    pytest.param(lambda: lpgrad.log_radius_moment(2, 3, 2.0, "bogus"), id="radius-kind-unknown"),
    pytest.param(lambda: lpgrad.log_direction_moment(1e308, 1.0, 3, 3.0), id="direction-a-lgamma-overflow"),
    pytest.param(lambda: lpgrad.log_direction_moment(2.0, 1e308, 3, 3.0), id="direction-b-lgamma-overflow"),
    pytest.param(lambda: F(np.zeros(5)), id="objective-call-point-long"),
    pytest.param(lambda: F(np.zeros((2, 2, 3))), id="objective-call-rows-3d"),
])
def test_out_of_range_argument_rejected(call):
    # a fraction where an integer is required, a finite number outside the
    # range, or an array of the wrong shape
    with pytest.raises(lpgrad.LpgradError):
        call()


@pytest.mark.parametrize("call", _derived(lambda label: label in EXTREME))
def test_extreme_finite_argument_succeeds_or_is_rejected(call):
    # either is allowed; a numpy warning fails the call, as filterwarnings = error
    try:
        call()
    except lpgrad.LpgradError:
        pass


# the object arguments each checked for its type where it enters
TYPED = {
    "draw": ("law", "radial"),
    "decorrelate": ("batch",),
    "objective": ("fun",),
    "config": ("scheme", "law", "radial"),
    "estimate": ("f", "cfg", "metric"),
    "spec": ("function", "metric", "cfg"),
}


@pytest.mark.parametrize("call", [
    pytest.param(functools.partial(fn, **{**kwargs, name: bad}), id=f"{prefix}-{name}-{label}")
    for prefix, fn, kwargs in VALID for name in TYPED.get(prefix, ())
    for label, bad in {"none": None, "str": "x", "int": 3}.items()
])
def test_wrong_typed_object_rejected(call):
    with pytest.raises(lpgrad.DomainError):
        call()
