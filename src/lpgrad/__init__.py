"""Dimension-robust randomized gradient estimation with lp-spherical sampling.

The estimator perturbs a black-box smooth function along random
directions drawn from lp-sphere/ball laws, combines the evaluations
through an L-point stencil, and applies the generalized inverse of a
tensor metric so that dependent-variable gradients come out directly.
A benchmark harness reproduces the published error tables and
convergence-rate studies.
"""
from .bench import (
    ExperimentSpec,
    ResultRow,
    central_fdm,
    err,
    fdm_row,
    mse_sweep,
    rosenbrock,
    rosenbrock_grad,
    run_experiment,
    synthetic_ms,
    synthetic_ms_grad,
    table_specs,
    trig_sum,
    trig_sum_grad,
)
from .errors import (
    DegenerateSampleError,
    DomainError,
    EvaluationError,
    LpgradError,
    NotApplicableError,
    SingularSchemeError,
)
from .estimator import (
    EstimatorConfig,
    GradientEstimate,
    ObjectiveFunction,
    estimate_gradient,
    k1,
    k2,
    recommend_p,
    recommended_sigma,
    surrogate_bias_bound,
)
from .metric import (
    TensorMetric,
    apply_inverse,
    exp_corr_metric,
    from_matrix,
    identity_metric,
    load_matrix,
)
from .sampler import (
    DirectionLaw,
    RadialLaw,
    SampleBatch,
    decorrelate,
    draw_batch,
    log_direction_moment,
    log_gamma,
    log_radius_moment,
    lp_norm,
    moment_R0,
    radial_xi,
)
from .scheme import (
    PointScheme,
    build_scheme,
    one_point,
    two_point_central,
    validate_bandwidth,
)

__version__ = "0.1.0"
