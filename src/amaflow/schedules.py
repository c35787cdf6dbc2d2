"""Time-varying solver parameters and the convergence-hypothesis validators.

Scalar schedules cover the penalty weight c(t) and the prox step tau(t);
metric schedules cover the regularization metrics M1(t), M2(t). Every kind
has an analytic derivative, so hypothesis checks never need numerical
differentiation. Validation is grid-based: each rule is evaluated on a finite
time grid and the report records the grid together with per-rule witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .linop import LinearMap, ScaledIdentityMap, gram

__all__ = [
    "ScalarSchedule",
    "ConstantSchedule",
    "ReciprocalQuadratic",
    "ReciprocalSqrt",
    "CoupledReciprocal",
    "MetricSchedule",
    "ZeroMetric",
    "ScaledIdentityMetric",
    "ProxFriendlyMetric",
    "ConstantDenseMetric",
    "ParameterSchedule",
    "CheckResult",
    "ValidationReport",
    "validate",
    "validate_corollary",
    "default_grid",
]


# ---------------------------------------------------------------------------
# scalar schedules


class ScalarSchedule:
    """A positive scalar function of time with an analytic derivative."""

    kind: str

    def value_at(self, t: float) -> float:
        raise NotImplementedError

    def derivative_at(self, t: float) -> float:
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.value_at(t)


class ConstantSchedule(ScalarSchedule):
    kind = "constant"

    def __init__(self, value: float):
        if value <= 0.0:
            raise ValueError(f"schedule value must be positive, got {value}")
        self.value = float(value)

    def value_at(self, t):
        return self.value

    def derivative_at(self, t):
        return 0.0


class ReciprocalQuadratic(ScalarSchedule):
    """``1/(t^2 + a) + offset`` with ``a > 0``, ``offset >= 0``."""

    kind = "reciprocal_quadratic"

    def __init__(self, a: float, offset: float = 0.0):
        if a <= 0.0:
            raise ValueError(f"parameter a must be positive, got {a}")
        if offset < 0.0:
            raise ValueError(f"offset must be nonnegative, got {offset}")
        self.a = float(a)
        self.offset = float(offset)

    def value_at(self, t):
        return 1.0 / (t * t + self.a) + self.offset

    def derivative_at(self, t):
        return -2.0 * t / (t * t + self.a) ** 2


class ReciprocalSqrt(ScalarSchedule):
    """``1/sqrt(t + a) + offset`` with ``a > 0``, ``offset >= 0``."""

    kind = "reciprocal_sqrt"

    def __init__(self, a: float, offset: float = 0.0):
        if a <= 0.0:
            raise ValueError(f"parameter a must be positive, got {a}")
        if offset < 0.0:
            raise ValueError(f"offset must be nonnegative, got {offset}")
        self.a = float(a)
        self.offset = float(offset)

    def value_at(self, t):
        return 1.0 / math.sqrt(t + self.a) + self.offset

    def derivative_at(self, t):
        return -0.5 * (t + self.a) ** -1.5


class CoupledReciprocal(ScalarSchedule):
    """``numerator / other(t)``; used for tau(t) = a/c(t) couplings."""

    kind = "coupled_reciprocal"

    def __init__(self, numerator: float, other: ScalarSchedule):
        if numerator <= 0.0:
            raise ValueError(f"numerator must be positive, got {numerator}")
        self.numerator = float(numerator)
        self.other = other

    def value_at(self, t):
        return self.numerator / self.other.value_at(t)

    def derivative_at(self, t):
        denom = self.other.value_at(t)
        return -self.numerator * self.other.derivative_at(t) / (denom * denom)


# ---------------------------------------------------------------------------
# metric schedules


class MetricSchedule:
    """A symmetric-operator-valued function of time."""

    kind: str
    dim: int

    def at(self, t: float) -> LinearMap:
        raise NotImplementedError

    def derivative_at(self, t: float) -> LinearMap:
        raise NotImplementedError

    def matrix_at(self, t: float) -> np.ndarray:
        return self.at(t).as_matrix()


class ZeroMetric(MetricSchedule):
    kind = "zero"

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim

    def at(self, t):
        return ScaledIdentityMap(self.dim, 0.0)

    def derivative_at(self, t):
        return ScaledIdentityMap(self.dim, 0.0)


class ScaledIdentityMetric(MetricSchedule):
    """``mu(t) * Id`` for a scalar schedule mu."""

    kind = "scaled_identity"

    def __init__(self, mu: ScalarSchedule, dim: int):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.mu = mu
        self.dim = dim

    def at(self, t):
        return ScaledIdentityMap(self.dim, self.mu.value_at(t))

    def derivative_at(self, t):
        return ScaledIdentityMap(self.dim, self.mu.derivative_at(t))


class ProxFriendlyMetric(MetricSchedule):
    """``(1/tau(t)) Id - c(t) B*B``.

    The choice that collapses the z-subproblem to a single prox of g; the
    two scalar schedules must satisfy ``tau(t) c(t) ||B||^2 <= 1`` for the
    metric to stay positive semidefinite (validated, not assumed here).
    """

    kind = "prox_friendly"

    def __init__(self, tau: ScalarSchedule, c: ScalarSchedule, B: LinearMap):
        self.tau = tau
        self.c = c
        self.B = B
        self.dim = B.dim_in

    @cached_property
    def _btb(self) -> np.ndarray:
        # Only the dense views below need B*B; the solvers' z-step and the
        # energy use the metric's closed form and never build it.
        return gram(self.B).as_matrix()

    def at(self, t):
        from .linop import DenseMap

        mat = np.eye(self.dim) / self.tau.value_at(t) - self.c.value_at(t) * self._btb
        return DenseMap(mat)

    def derivative_at(self, t):
        from .linop import DenseMap

        tau = self.tau.value_at(t)
        mat = (
            -self.tau.derivative_at(t) / (tau * tau) * np.eye(self.dim)
            - self.c.derivative_at(t) * self._btb
        )
        return DenseMap(mat)


class ConstantDenseMetric(MetricSchedule):
    kind = "constant_dense"

    def __init__(self, M: LinearMap):
        if M.dim_in != M.dim_out:
            raise ValueError("metric operator must be square")
        self.M = M
        self.dim = M.dim_in

    def at(self, t):
        return self.M

    def derivative_at(self, t):
        return ScaledIdentityMap(self.dim, 0.0)


@dataclass(frozen=True)
class ParameterSchedule:
    """The bundle (c, M1, M2) a solver run consumes."""

    c: ScalarSchedule
    M1: MetricSchedule
    M2: MetricSchedule

    @property
    def tau(self) -> Optional[ScalarSchedule]:
        """The prox step schedule when M2 is prox-friendly, else None."""
        if isinstance(self.M2, ProxFriendlyMetric):
            return self.M2.tau
        return None


# ---------------------------------------------------------------------------
# validation


class CheckResult(NamedTuple):
    rule: str
    passed: bool
    witness: float
    threshold: float


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a hypothesis check run.

    ``checks`` gate ``passed``; ``beta``, ``cweak``, ``cstrong`` describe the
    well-posedness of the z-subproblem and are informational (the gating
    convergence rule already accounts for them where the hypotheses do).
    """

    mode: str
    checks: tuple
    grid: tuple
    beta: float
    cweak: bool
    cstrong: bool

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def failed_rules(self) -> list:
        return [ch.rule for ch in self.checks if not ch.passed]


def default_grid() -> np.ndarray:
    """Dense sampling on [0, 100] plus a log-spaced tail out to 1e4."""
    head = np.arange(0.0, 100.0001, 0.1)
    tail = np.logspace(2.0, 4.0, 60)[1:]
    return np.concatenate([head, tail])


def _check_grid(t_grid) -> np.ndarray:
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("time grid must be a nonempty vector")
    if np.any(np.diff(grid) <= 0.0) or grid[0] < 0.0:
        raise ValueError("time grid must be nonnegative and strictly increasing")
    return grid


def _check_eps(p, eps: float) -> None:
    sigma = p.f.strong_convexity
    limit = sigma / (2.0 * p.norm_A**2)
    if not 0.0 < eps < limit:
        raise ValueError(
            f"eps must lie in (0, sigma/(2||A||^2)) = (0, {limit:.6g}), got {eps}"
        )


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])


def _spectral_norm_sym(mat: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def _c_rules(p, c: ScalarSchedule, eps: float, grid: np.ndarray) -> list:
    sigma = p.f.strong_convexity
    a2 = p.norm_A**2
    constant = isinstance(c, ConstantSchedule)
    upper = (2.0 * sigma / a2 - eps) if constant else (sigma / a2 - eps)
    values = np.array([c.value_at(t) for t in grid])
    derivs = np.array([c.derivative_at(t) for t in grid])
    range_margin = float(np.min(np.minimum(values - eps, upper - values)))
    sup_deriv = float(np.max(derivs))
    sup_abs_deriv = float(np.max(np.abs(derivs)))
    return [
        CheckResult("c-range", range_margin >= -1e-12, range_margin, 0.0),
        CheckResult("c-decreasing", sup_deriv <= 1e-12, sup_deriv, 0.0),
        CheckResult("c-lipschitz", math.isfinite(sup_abs_deriv), sup_abs_deriv, math.inf),
    ]


def _metric_rules(name: str, mats: list, dmats: list, shift: float) -> list:
    # shift = L/4 for the corresponding smooth coupling.
    n = mats[0].shape[0]
    lower = float(min(_min_eig(m - shift * np.eye(n)) for m in mats))
    loewner = 0.0
    if len(mats) > 1:
        loewner = float(min(_min_eig(mats[i] - mats[i + 1]) for i in range(len(mats) - 1)))
    sup_dnorm = float(max(_spectral_norm_sym(d) for d in dmats))
    return [
        CheckResult(f"{name}-lower-bound", lower >= -1e-10, lower, 0.0),
        CheckResult(f"{name}-loewner-decreasing", loewner >= -1e-10, loewner, 0.0),
        CheckResult(f"{name}-derivative-bounded", math.isfinite(sup_dnorm), sup_dnorm, math.inf),
    ]


def _z_wellposedness(p, c: ScalarSchedule, m2_mats: list, grid: np.ndarray):
    btb = gram(p.B).as_matrix()
    eigs = [
        _min_eig(c.value_at(t) * btb + m) for t, m in zip(grid, m2_mats)
    ]
    beta = float(min(eigs))
    cweak = all(e > 0.0 for e in eigs)
    cstrong = beta > 1e-10
    return beta, cweak, cstrong


def validate(p, c: ScalarSchedule, M1: MetricSchedule, M2: MetricSchedule,
             eps: float, t_grid) -> ValidationReport:
    """Check the convergence hypotheses for the continuous system.

    Rules, each evaluated on the grid: the range and monotone-decrease and
    Lipschitz conditions on c (with the wider range allowed for constant c);
    M1, M2 dominating a quarter of the corresponding gradient Lipschitz
    constants; both metrics Loewner-monotonically decreasing with bounded
    derivative; and the disjunctive convergence condition (uniformly positive
    regularized M2, or uniformly positive-definite B*B).
    """
    grid = _check_grid(t_grid)
    _check_eps(p, eps)
    checks = _c_rules(p, c, eps, grid)

    l1 = p.h1.grad_lipschitz or 0.0
    l2 = p.h2.grad_lipschitz or 0.0
    m1_mats = [M1.matrix_at(t) for t in grid]
    m1_d = [M1.derivative_at(t).as_matrix() for t in grid]
    m2_mats = [M2.matrix_at(t) for t in grid]
    m2_d = [M2.derivative_at(t).as_matrix() for t in grid]
    checks += _metric_rules("m1", m1_mats, m1_d, l1 / 4.0)
    checks += _metric_rules("m2", m2_mats, m2_d, l2 / 4.0)

    n_z = p.dim_z
    alpha = float(min(_min_eig(m - (l2 / 4.0) * np.eye(n_z)) for m in m2_mats))
    btb_min = _min_eig(gram(p.B).as_matrix())
    cond_witness = max(alpha, btb_min)
    checks.append(CheckResult("convergence-condition", cond_witness > 1e-10,
                              cond_witness, 1e-10))

    beta, cweak, cstrong = _z_wellposedness(p, c, m2_mats, grid)
    mode = "theorem-constant-c" if isinstance(c, ConstantSchedule) else "theorem-variable-c"
    return ValidationReport(mode, tuple(checks), tuple(grid), beta, cweak, cstrong)


def validate_corollary(p, c: ScalarSchedule, tau: ScalarSchedule,
                       eps: float, t_grid) -> ValidationReport:
    """Check the prox-friendly hypotheses for (c, tau) directly.

    Covers the same c rules as :func:`validate`, the monotone increase and
    bounded ratio tau'/tau^2 of the step schedule, the coupling inequality
    c(t) tau(t) ||B||^2 <= 1 - (tau(t)/4) L_{h2}, the derivative coupling
    -c'(t) ||B||^2 <= tau'(t)/tau(t)^2, and the disjunctive convergence
    condition with the strict coupling inequality playing the role of the
    uniformly-positive-metric branch.
    """
    grid = _check_grid(t_grid)
    _check_eps(p, eps)
    checks = _c_rules(p, c, eps, grid)

    b2 = p.norm_B**2
    l2 = p.h2.grad_lipschitz or 0.0
    tau_vals = np.array([tau.value_at(t) for t in grid])
    tau_derivs = np.array([tau.derivative_at(t) for t in grid])
    c_vals = np.array([c.value_at(t) for t in grid])
    c_derivs = np.array([c.derivative_at(t) for t in grid])

    inf_tau_deriv = float(np.min(tau_derivs))
    checks.append(CheckResult("tau-increasing", inf_tau_deriv >= -1e-12, inf_tau_deriv, 0.0))

    ratio = float(np.max(tau_derivs / tau_vals**2))
    checks.append(CheckResult("tau-derivative-ratio-bounded", math.isfinite(ratio),
                              ratio, math.inf))

    coupling_excess = float(np.max(c_vals * tau_vals * b2 - (1.0 - tau_vals * l2 / 4.0)))
    checks.append(CheckResult("coupling-inequality", coupling_excess <= 1e-9,
                              coupling_excess, 0.0))

    deriv_excess = float(np.max(-c_derivs * b2 - tau_derivs / tau_vals**2))
    checks.append(CheckResult("derivative-coupling", deriv_excess <= 1e-9,
                              deriv_excess, 0.0))

    strict_margin = float(np.min(1.0 - tau_vals * l2 / 4.0 - c_vals * tau_vals * b2))
    btb_min = _min_eig(gram(p.B).as_matrix())
    cond_witness = max(strict_margin, btb_min)
    checks.append(CheckResult("convergence-condition", cond_witness > 1e-10,
                              cond_witness, 1e-10))

    m2 = ProxFriendlyMetric(tau, c, p.B)
    m2_mats = [m2.matrix_at(t) for t in grid]
    beta, cweak, cstrong = _z_wellposedness(p, c, m2_mats, grid)
    return ValidationReport("corollary-prox-friendly", tuple(checks), tuple(grid),
                            beta, cweak, cstrong)
