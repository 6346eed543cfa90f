"""Dimension-robust randomized gradient estimation with lp-spherical sampling.

The estimator perturbs a black-box smooth function along random
directions drawn from lp-sphere/ball laws, combines the evaluations
through an L-point stencil, and applies the generalized inverse of a
tensor metric so that dependent-variable gradients come out directly.
A benchmark harness reproduces the published error tables and
convergence-rate studies.

The top level re-exports the ``__all__`` of each library module; the
command line (``lpgrad.cli``) and its expression compiler
(``lpgrad.expr``) stay in their modules.
"""
from .errors import *
from .sampler import *
from .scheme import *
from .metric import *
from .estimator import *
from .bench import *

__version__ = "0.1.0"
