"""Time-varying solver parameters and the convergence-hypothesis validators.

Scalar schedules cover the penalty weight c(t) and the prox step tau(t);
metric schedules cover the regularization metrics M1(t), M2(t). Every kind
has an analytic derivative, so hypothesis checks never need numerical
differentiation. Validation is grid-based: each rule is evaluated on a finite
time grid and the report records the grid together with per-rule witnesses.

Every metric kind is ``alpha(t) Id + beta(t) B*B + K`` with a constant K, so
the validators evaluate each rule in closed form from the extreme eigenvalues
of B*B (``btb_min`` and ``norm_B**2`` of the problem); no matrix is built per
grid point.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapabilityError
from .linop import LinearMap, ScaledIdentityMap, _check_symmetric, matrix_of, sym_eigenvalues

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
        if not 0.0 < value < math.inf:
            raise ValueError(f"schedule value must be positive and finite, got {value}")
        self.value = float(value)

    def value_at(self, t):
        return self.value

    def derivative_at(self, t):
        return 0.0


class ReciprocalQuadratic(ScalarSchedule):
    """``1/(t^2 + a) + offset`` with ``a > 0``, ``offset >= 0``."""

    kind = "reciprocal_quadratic"

    def __init__(self, a: float, offset: float = 0.0):
        if not 0.0 < a < math.inf:
            raise ValueError(f"parameter a must be positive and finite, got {a}")
        if not 0.0 <= offset < math.inf:
            raise ValueError(f"offset must be nonnegative and finite, got {offset}")
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
        if not 0.0 < a < math.inf:
            raise ValueError(f"parameter a must be positive and finite, got {a}")
        if not 0.0 <= offset < math.inf:
            raise ValueError(f"offset must be nonnegative and finite, got {offset}")
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
        if not 0.0 < numerator < math.inf:
            raise ValueError(f"numerator must be positive and finite, got {numerator}")
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


class ZeroMetric(MetricSchedule):
    kind = "zero"

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self._zero = ScaledIdentityMap(dim, 0.0)

    def at(self, t):
        return self._zero

    def derivative_at(self, t):
        return self._zero


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
        # Only the dense views below need B*B; the solvers' z-step, the energy
        # and the validators use the metric's closed form and never build it.
        bm = matrix_of(self.B)
        return bm.T @ bm

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


# A prox-friendly metric's closed forms hold only on the problem's own B.
_FOREIGN_B = "prox_friendly metric is built on another B than the problem's and cannot be validated"


class ConstantDenseMetric(MetricSchedule):
    """A constant metric given by a symmetric map M."""

    kind = "constant_dense"

    def __init__(self, M: LinearMap):
        if M.dim_in != M.dim_out:
            raise ValueError("metric operator must be square")
        _check_symmetric(matrix_of(M))
        self.M = M
        self.dim = M.dim_in

    def at(self, t):
        return self.M

    def derivative_at(self, t):
        return ScaledIdentityMap(self.dim, 0.0)


class ParameterSchedule:
    """The bundle (c, M1, M2) a solver run consumes."""

    __slots__ = ("c", "M1", "M2")

    def __init__(self, c: ScalarSchedule, M1: MetricSchedule, M2: MetricSchedule):
        self.c, self.M1, self.M2 = c, M1, M2

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


class ValidationReport:
    """Outcome of a hypothesis check run.

    ``checks`` gate ``passed``; ``beta``, ``cweak``, ``cstrong`` describe the
    well-posedness of the z-subproblem and are informational (the gating
    convergence rule already accounts for them where the hypotheses do).
    """

    __slots__ = ("mode", "checks", "grid", "beta", "cweak", "cstrong")

    def __init__(self, mode: str, checks: tuple, grid: tuple, beta: float,
                 cweak: bool, cstrong: bool):
        self.mode, self.checks, self.grid = mode, checks, grid
        self.beta, self.cweak, self.cstrong = beta, cweak, cstrong

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


def _on_grid(s: ScalarSchedule, grid: np.ndarray) -> tuple:
    """Values and derivatives of a scalar schedule on the grid."""
    return (np.array([s.value_at(t) for t in grid]),
            np.array([s.derivative_at(t) for t in grid]))


def _spectral_form(M: MetricSchedule, grid: np.ndarray, B: LinearMap) -> tuple:
    """``(alpha, alpha', beta, beta', K)`` with ``M(t) = alpha(t) Id + beta(t) B*B + K``.

    Four arrays over the grid and a constant matrix K (None for K = 0); K is
    set only where beta is zero. ``B`` is the problem's second operator.
    """
    zero = np.zeros(grid.size)
    if isinstance(M, ZeroMetric):
        return zero, zero, zero, zero, None
    if isinstance(M, ScaledIdentityMetric):
        mu, dmu = _on_grid(M.mu, grid)
        return mu, dmu, zero, zero, None
    if isinstance(M, ProxFriendlyMetric):
        if M.B is not B:
            raise CapabilityError(_FOREIGN_B)
        tau, dtau = _on_grid(M.tau, grid)
        c, dc = _on_grid(M.c, grid)
        return 1.0 / tau, -dtau / (tau * tau), -c, -dc, None
    if isinstance(M, ConstantDenseMetric):
        return zero, zero, zero, zero, M.M.as_matrix()
    raise CapabilityError(f"metric kind {M.kind!r} has no spectral form and cannot be validated")


def _at_extremes(a: np.ndarray, b: np.ndarray, extremes: np.ndarray) -> np.ndarray:
    """Extreme eigenvalues of ``a Id + b B*B``, one row per grid point.

    ``extremes`` holds the smallest and largest eigenvalue of B*B.
    """
    return a[:, None] + b[:, None] * extremes


def _c_rules(p, c: ScalarSchedule, values: np.ndarray, derivs: np.ndarray,
             eps: float) -> list:
    sigma = p.f.strong_convexity
    a2 = p.norm_A**2
    constant = isinstance(c, ConstantSchedule)
    upper = (2.0 * sigma / a2 - eps) if constant else (sigma / a2 - eps)
    range_margin = float(np.min(np.minimum(values - eps, upper - values)))
    sup_deriv = float(np.max(derivs))
    sup_abs_deriv = float(np.max(np.abs(derivs)))
    return [
        CheckResult("c-range", range_margin >= -1e-12, range_margin, 0.0),
        CheckResult("c-decreasing", sup_deriv <= 1e-12, sup_deriv, 0.0),
        CheckResult("c-lipschitz", math.isfinite(sup_abs_deriv), sup_abs_deriv, math.inf),
    ]


def _metric_rules(name: str, form: tuple, extremes: np.ndarray, shift: float) -> list:
    # shift = L/4 for the corresponding smooth coupling. K cancels from the
    # Loewner differences and the derivative; beta = 0 whenever K is set, so
    # lambda_min(alpha Id + K) = alpha + lambda_min(K).
    alpha, dalpha, beta, dbeta, K = form
    k_min = 0.0 if K is None else float(sym_eigenvalues(K)[0])
    lower = k_min + float(np.min(_at_extremes(alpha - shift, beta, extremes)))
    loewner = 0.0
    if alpha.size > 1:
        loewner = float(np.min(_at_extremes(alpha[:-1] - alpha[1:],
                                            beta[:-1] - beta[1:], extremes)))
    sup_dnorm = float(np.max(np.abs(_at_extremes(dalpha, dbeta, extremes))))
    return [
        CheckResult(f"{name}-lower-bound", lower >= -1e-10, lower, 0.0),
        CheckResult(f"{name}-loewner-decreasing", loewner >= -1e-10, loewner, 0.0),
        CheckResult(f"{name}-derivative-bounded", math.isfinite(sup_dnorm), sup_dnorm, math.inf),
    ]


def _z_beta(p, c_vals: np.ndarray, form: tuple, extremes: np.ndarray) -> float:
    """``min_t lambda_min(c(t) B*B + M2(t))`` over the grid."""
    alpha, _, beta, _, K = form
    if K is None:
        return float(np.min(_at_extremes(alpha, c_vals + beta, extremes)))
    # lambda_min(c B*B + K) is nondecreasing in c because B*B is PSD, so the
    # smallest c on the grid attains the minimum, whatever the c schedule.
    return float(sym_eigenvalues(float(np.min(c_vals)) * p.btb + K)[0])


def validate(p, c: ScalarSchedule, M1: MetricSchedule, M2: MetricSchedule,
             eps: float, t_grid) -> ValidationReport:
    """Check the convergence hypotheses for the continuous system.

    Rules, each evaluated on the grid: the range and monotone-decrease and
    Lipschitz conditions on c (with the wider range allowed for constant c);
    M1, M2 dominating a quarter of the corresponding gradient Lipschitz
    constants; both metrics Loewner-monotonically decreasing with bounded
    derivative; and the disjunctive convergence condition (uniformly positive
    regularized M2, or uniformly positive-definite B*B). A metric that is not
    one of the four shipped kinds raises :class:`CapabilityError`. The first
    call on a fresh problem carries its SVDs of A and B.
    """
    grid = _check_grid(t_grid)
    _check_eps(p, eps)
    c_vals, c_derivs = _on_grid(c, grid)
    checks = _c_rules(p, c, c_vals, c_derivs, eps)

    l1 = p.h1.grad_lipschitz or 0.0
    l2 = p.h2.grad_lipschitz or 0.0
    extremes = np.array([p.btb_min, p.norm_B**2])
    m2_form = _spectral_form(M2, grid, p.B)
    checks += _metric_rules("m1", _spectral_form(M1, grid, p.B), extremes, l1 / 4.0)
    m2_checks = _metric_rules("m2", m2_form, extremes, l2 / 4.0)
    checks += m2_checks

    # alpha = min_t lambda_min(M2(t) - (L2/4) Id) is the m2 lower-bound witness.
    cond_witness = max(m2_checks[0].witness, p.btb_min)
    checks.append(CheckResult("convergence-condition", cond_witness > 1e-10,
                              cond_witness, 1e-10))

    beta = _z_beta(p, c_vals, m2_form, extremes)
    mode = "theorem-constant-c" if isinstance(c, ConstantSchedule) else "theorem-variable-c"
    return ValidationReport(mode, tuple(checks), tuple(grid), beta, beta > 0.0, beta > 1e-10)


def validate_corollary(p, c: ScalarSchedule, tau: ScalarSchedule,
                       eps: float, t_grid) -> ValidationReport:
    """Check the prox-friendly hypotheses for (c, tau) directly.

    Covers the same c rules as :func:`validate`, the monotone increase and
    bounded ratio tau'/tau^2 of the step schedule, the coupling inequality
    c(t) tau(t) ||B||^2 <= 1 - (tau(t)/4) L_{h2}, the derivative coupling
    -c'(t) ||B||^2 <= tau'(t)/tau(t)^2, and the disjunctive convergence
    condition with the strict coupling inequality playing the role of the
    uniformly-positive-metric branch. The first call on a fresh problem
    carries its SVDs of A and B.
    """
    grid = _check_grid(t_grid)
    _check_eps(p, eps)
    c_vals, c_derivs = _on_grid(c, grid)
    checks = _c_rules(p, c, c_vals, c_derivs, eps)

    b2 = p.norm_B**2
    l2 = p.h2.grad_lipschitz or 0.0
    tau_vals, tau_derivs = _on_grid(tau, grid)

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
    cond_witness = max(strict_margin, p.btb_min)
    checks.append(CheckResult("convergence-condition", cond_witness > 1e-10,
                              cond_witness, 1e-10))

    # c B*B + (Id/tau - c B*B) = Id/tau exactly for the prox-friendly M2.
    beta = float(np.min(1.0 / tau_vals))
    return ValidationReport("corollary-prox-friendly", tuple(checks), tuple(grid),
                            beta, beta > 0.0, beta > 1e-10)
