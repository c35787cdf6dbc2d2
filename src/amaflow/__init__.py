"""Solvers for two-block separable convex programs with linear constraints.

The package implements a continuous-time alternating-minimization flow, its
unit-step discretizations (the proximal alternating scheme and the classic
one), hypothesis validators for the time-varying parameter schedules, and a
Lyapunov-energy diagnostic, together with a small command line front end.

The namespace is lazy (PEP 562): ``import amaflow`` loads no submodule and
not numpy. A name below is imported from its submodule on first use and then
kept here. The package never imports ``cli``, so ``python -m amaflow.cli``
runs that module once, as ``__main__``, from a bare package.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "errors": ("CapabilityError", "ConditionError", "ConvergenceError",
               "DimensionMismatchError", "ParseError"),
    "linop": ("DenseMap", "min_eigenvalue_sym", "operator_norm"),
    "functions": ("BoxIndicator", "L1Norm", "QuadraticDistance", "QuadraticForm",
                  "SeparableFunction", "ZeroFunction"),
    "problem": ("KKTResidual", "PrimalDualState", "SolveConfig", "TwoBlockProblem"),
    "schedules": ("ConstantDenseMetric", "ConstantSchedule", "CoupledReciprocal",
                  "MetricSchedule", "ParameterSchedule", "ProxFriendlyMetric",
                  "ReciprocalQuadratic", "ReciprocalSqrt", "ScalarSchedule",
                  "ScaledIdentityMetric", "ValidationReport", "ZeroMetric",
                  "C_VARIANTS", "TAU_C_VARIANTS", "default_grid", "validate",
                  "validate_corollary"),
    "dynamics": ("GammaOutput", "Trajectory", "TrajectorySample", "gamma", "integrate",
                 "regularized_argmin", "solve_x_subproblem", "solve_z_subproblem"),
    "discrete": ("SolveResult", "ama_run", "prox_ama_run", "prox_ama_step"),
    "diagnostics": ("EnergySample", "SummaryReport", "check_energy_monotone", "energy",
                    "report"),
    "example": ("example_c_schedule", "example_problem", "example_reference",
                "example_schedule", "example_start"),
    "probfile": ("ProblemFileData", "load_problem_file", "parse_problem_text",
                 "serialize_problem"),
}
_SUBMODULES = (*_EXPORTS, "trajectory")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    elif name in _ORIGIN:
        value = getattr(_import_module(f".{_ORIGIN[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
