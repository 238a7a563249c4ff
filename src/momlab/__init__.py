"""momlab: constant-momentum gradient descent with executable certificates.

The package bundles benchmark nonconvex landscapes, the three-stage
momentum update, closed-form descent/gradient/length certificates checked
iterate by iterate, rescaled gradient-flow tracking, empirical Lojasiewicz
exponent fitting, and strict-saddle escape experiments, plus a batch CLI.
"""

from .analysis import Desingularizer, FitError, RateReport, check_rate, fit_desingularizer, measure_length
from .certificates import (
    Certificate,
    Columns,
    LengthReport,
    PerStepReport,
    build_certificate,
    check_descent,
    check_gradient_bound,
    check_length_formula,
    check_step_bound,
    gradient_bound_constants,
    length_constants,
    lyapunov,
    lyapunov_interval,
    lyapunov_values,
    step_bound_delta1,
)
from .gradient_flow import (
    FlowTrajectory,
    TrackingConstants,
    companion_eigen,
    integrate_flow,
    tracking_constants,
    tracking_error,
    tracking_ladder,
    trajectory_length,
)
from .optimizer import LockstepResult, MomentumParams, StopRules, Trace, run, run_lockstep, safe_alpha, step
from .problems import (
    MatrixShape,
    Problem,
    estimate_lipschitz,
    linear_network,
    matrix_factorization,
    matrix_sensing,
    synthetic,
)
from .saddle import (
    CriticalPointAnalysis,
    EscapeExperiment,
    analyze_critical_point,
    characteristic_roots,
    dense_hessian,
    escape_experiment,
    map_jacobian,
    momentum_map,
    saddle_safe_alpha,
)

__version__ = "0.1.0"
