"""Solvers for two-block separable convex programs with linear constraints.

The package implements a continuous-time alternating-minimization flow, its
unit-step discretizations (the proximal alternating scheme and the classic
one), hypothesis validators for the time-varying parameter schedules, and a
Lyapunov-energy diagnostic, together with a small command line front end.
"""

from .errors import (
    CapabilityError,
    ConditionError,
    ConvergenceError,
    DimensionMismatchError,
    ParseError,
    TrajectoryError,
)
from .linop import (
    DenseMap,
    IdentityMap,
    LinearMap,
    ScaledIdentityMap,
    min_eigenvalue_sym,
    operator_norm,
)
from .functions import (
    BoxIndicator,
    L1Norm,
    QuadraticDistance,
    QuadraticForm,
    SeparableFunction,
    ZeroFunction,
)
from .problem import KKTResidual, PrimalDualState, TwoBlockProblem
from .schedules import (
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    MetricSchedule,
    ParameterSchedule,
    ProxFriendlyMetric,
    ReciprocalQuadratic,
    ReciprocalSqrt,
    ScalarSchedule,
    ScaledIdentityMetric,
    ValidationReport,
    ZeroMetric,
    default_grid,
    validate,
    validate_corollary,
)
from .dynamics import (
    GammaOutput,
    Trajectory,
    TrajectorySample,
    gamma,
    integrate,
    regularized_argmin,
    solve_x_subproblem,
    solve_z_subproblem,
)
from .discrete import SolveConfig, SolveResult, ama_run, prox_ama_run, prox_ama_step
from .diagnostics import EnergySample, SummaryReport, check_energy_monotone, energy, report
from .example import (
    C_VARIANTS,
    TAU_C_VARIANTS,
    example_c_schedule,
    example_problem,
    example_reference,
    example_schedule,
    example_start,
)
from .probfile import (
    ProblemFileData,
    load_problem_file,
    parse_problem_text,
    serialize_problem,
)

__version__ = "0.1.0"
