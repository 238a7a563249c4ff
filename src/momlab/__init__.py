"""momlab: constant-momentum gradient descent with executable certificates.

The package bundles benchmark nonconvex landscapes, the three-stage
momentum update, closed-form descent/gradient/length certificates checked
iterate by iterate, rescaled gradient-flow tracking, empirical Lojasiewicz
exponent fitting, and strict-saddle escape experiments, plus a batch CLI.

The names below are exported lazily (PEP 562): `from momlab import run`
imports momlab.optimizer on first use, so a command loads only the modules
it reaches.
"""

import importlib

# submodule -> the public names it exports
_EXPORTS = {
    "analysis": (
        "Desingularizer", "FitError", "RateReport", "check_rate", "fit_desingularizer",
        "measure_length",
    ),
    "certificates": (
        "Certificate", "Columns", "LengthReport", "PerStepReport", "build_certificate",
        "check_descent", "check_gradient_bound", "check_length_formula", "check_step_bound",
        "gradient_bound_constants", "length_constants", "lyapunov", "lyapunov_interval",
        "lyapunov_values", "step_bound_delta1",
    ),
    "gradient_flow": (
        "FlowTrajectory", "TrackingConstants", "companion_eigen", "integrate_flow",
        "tracking_constants", "tracking_error", "tracking_ladder", "trajectory_length",
    ),
    "optimizer": (
        "MomentumParams", "StopRules", "Trace", "run", "run_lockstep", "safe_alpha", "step",
    ),
    "problems": (
        "MatrixShape", "Problem", "estimate_lipschitz", "linear_network", "matrix_factorization",
        "matrix_sensing", "synthetic",
    ),
    "saddle": (
        "CriticalPointAnalysis", "EscapeExperiment", "analyze_critical_point",
        "characteristic_roots", "dense_hessian", "escape_experiment", "map_jacobian",
        "momentum_map", "saddle_safe_alpha",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
