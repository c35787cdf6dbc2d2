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
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapabilityError, DimensionMismatchError
from .linop import DenseMap, _check_symmetric, sym_eigenvalues

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
    "C_VARIANTS",
    "TAU_C_VARIANTS",
]

# The worked example's named c schedules and tau * c products (see
# :mod:`amaflow.example`), kept here so the command line's parser has them
# without importing the solvers.
C_VARIANTS = ("c025", "c199", "c1-decay", "c2-decay")
TAU_C_VARIANTS = {"tc025": 0.25, "tc099": 0.99}


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


class _Reciprocal(ScalarSchedule):
    """The constructor of the two reciprocal kinds: ``a > 0``, ``offset >= 0``."""

    def __init__(self, a: float, offset: float = 0.0):
        if not 0.0 < a < math.inf:
            raise ValueError(f"parameter a must be positive and finite, got {a}")
        if not 0.0 <= offset < math.inf:
            raise ValueError(f"offset must be nonnegative and finite, got {offset}")
        self.a = float(a)
        self.offset = float(offset)


class ReciprocalQuadratic(_Reciprocal):
    """``1/(t^2 + a) + offset`` with ``a > 0``, ``offset >= 0``."""

    kind = "reciprocal_quadratic"

    def value_at(self, t):
        return 1.0 / (t * t + self.a) + self.offset

    def derivative_at(self, t):
        # ``** 2``, not a product: on a numpy float, the validators' t, it is
        # C pow, one ulp off the product on about 1 point in 4,000.
        base = t * t + self.a
        try:
            square = base ** 2
        except OverflowError:  # a Python float's square past the float range
            square = math.inf
        if square == 0.0:  # underflowed: divide by base twice
            return -2.0 * t / base / base
        return -2.0 * t / square


class ReciprocalSqrt(_Reciprocal):
    """``1/sqrt(t + a) + offset`` with ``a > 0``, ``offset >= 0``."""

    kind = "reciprocal_sqrt"

    def value_at(self, t):
        return 1.0 / math.sqrt(t + self.a) + self.offset

    def derivative_at(self, t):
        try:
            return -0.5 * (t + self.a) ** -1.5
        except OverflowError:  # a Python float's power past the float range
            return -math.inf


class CoupledReciprocal(ScalarSchedule):
    """``numerator / other(t)``; used for tau(t) = a/c(t) couplings."""

    kind = "coupled_reciprocal"

    def __init__(self, numerator: float, other: ScalarSchedule):
        if not 0.0 < numerator < math.inf:
            raise ValueError(f"numerator must be positive and finite, got {numerator}")
        self.numerator = float(numerator)
        self.other = other

    def value_at(self, t):
        return self.of(self.other.value_at(t))

    def of(self, other: float) -> float:  # the value where other's is ``other``
        return self.numerator / other if other else math.inf  # other underflowed to 0

    def derivative_at(self, t):
        if _constant(self.other):  # derivative 0; denom * denom may underflow to 0
            return -self.numerator * self.other.derivative_at(t)
        if type(self.other) is CoupledReciprocal:  # k/(k2/o) = (k/k2) o, also where
            # k2/o is inf: its derivative over its square would be inf/inf
            return self.numerator * self.other.other.derivative_at(t) / self.other.numerator
        denom = self.other.value_at(t)
        num = -self.numerator * self.other.derivative_at(t)
        square = denom * denom
        if square == 0.0:  # underflowed: divide by denom twice; where denom is 0,
            # tau is inf and tau' infinite, falling only where other rises
            return num / denom / denom if denom else (-math.inf if num < 0.0 else math.inf)
        return num / square


def _constant(s: ScalarSchedule) -> bool:
    """Whether ``s.value_at(t)`` is one value for every t: a
    :class:`ConstantSchedule`, or a :class:`CoupledReciprocal` of one."""
    while type(s) is CoupledReciprocal:
        s = s.other
    return type(s) is ConstantSchedule


# ---------------------------------------------------------------------------
# metric schedules


class MetricSchedule:
    """A symmetric-operator-valued function of time on R^dim; the solvers and
    the validators read each kind's closed form (see :func:`_spectral_form`)."""

    kind: str
    dim: int


class ZeroMetric(MetricSchedule):
    kind = "zero"

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim


class ScaledIdentityMetric(MetricSchedule):
    """``mu(t) * Id`` for a scalar schedule mu."""

    kind = "scaled_identity"

    def __init__(self, mu: ScalarSchedule, dim: int):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.mu = mu
        self.dim = dim


class ProxFriendlyMetric(MetricSchedule):
    """``(1/tau(t)) Id - c(t) B*B``.

    The choice that collapses the z-subproblem to a single prox of g; the
    two scalar schedules must satisfy ``tau(t) c(t) ||B||^2 <= 1`` for the
    metric to stay positive semidefinite (validated, not assumed here).
    """

    kind = "prox_friendly"

    def __init__(self, tau: ScalarSchedule, c: ScalarSchedule, B):
        self.tau = tau
        self.c = c
        self.B = DenseMap(B)
        self.dim = self.B.shape[1]


class ConstantDenseMetric(MetricSchedule):
    """A constant metric given by a finite symmetric matrix M."""

    kind = "constant_dense"

    def __init__(self, M):
        M = DenseMap(M)
        if M.shape[0] != M.shape[1]:
            raise ValueError("metric operator must be square")
        _check_symmetric(M)
        self.M = M
        self.dim = M.shape[0]


def _check_metrics(p, M1: MetricSchedule, M2: MetricSchedule) -> None:
    """Refuse, for M1 then M2, another size than its block of ``p``
    (:class:`DimensionMismatchError`), then a kind not shipped or a
    prox-friendly metric on a B other than ``p``'s, off which its closed forms
    do not hold; an equal copy is ``p``'s (:class:`CapabilityError`)."""
    for what, want, M in (("M1", p.dim_x, M1), ("M2", p.dim_z, M2)):
        if M.dim != want:
            raise DimensionMismatchError(what, want, M.dim)
        if not isinstance(M, (ZeroMetric, ScaledIdentityMetric, ProxFriendlyMetric,
                              ConstantDenseMetric)):
            raise CapabilityError(f"{what}: metric kind {M.kind!r} is not a shipped kind")
        if isinstance(M, ProxFriendlyMetric) and M.B is not p.B and not np.array_equal(M.B, p.B):
            raise CapabilityError(f"{what}: prox_friendly metric is built on another B "
                                  "than the problem's")


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
    # A grid that rises strictly from a point >= 0 to a point < inf is finite
    # throughout: a NaN fails every comparison, so it fails one of the three.
    if not (grid[0] >= 0.0 and grid[-1] < math.inf and np.all(np.diff(grid) > 0.0)):
        raise ValueError("time grid must be finite, nonnegative and strictly increasing")
    return grid


def _check_eps(p, eps: float) -> None:
    sigma = p.f.strong_convexity
    limit = sigma / (2.0 * p.norm_A**2)
    if not 0.0 < eps < limit:
        raise ValueError(
            f"eps must lie in (0, sigma/(2||A||^2)) = (0, {limit:.6g}), got {eps}"
        )


def _on_grid(s: ScalarSchedule, grid: np.ndarray) -> tuple:
    """Values and derivatives of a scalar schedule on the grid: read once, at
    t = 0, for a schedule that does not depend on t, and otherwise at every
    point through ``value_at`` and ``derivative_at``. A square of t past the
    float range is inf, whose reciprocal is the limit, so it does not warn."""
    if _constant(s):
        return np.full(grid.size, s.value_at(0.0)), np.full(grid.size, s.derivative_at(0.0))
    with np.errstate(over="ignore"):
        return (np.array([s.value_at(t) for t in grid]),
                np.array([s.derivative_at(t) for t in grid]))


def _reciprocal_on_grid(tau: ScalarSchedule, grid: np.ndarray) -> tuple:
    """``1/tau`` and its derivative ``-tau'/tau^2`` on the grid. For tau = k/o
    they are o/k and o'/k, read without forming tau, which can overflow."""
    if type(tau) is CoupledReciprocal:
        o, do = _on_grid(tau.other, grid)
        return o / tau.numerator, do / tau.numerator
    tau, dtau = _on_grid(tau, grid)
    return 1.0 / tau, -dtau / (tau * tau)


def _spectral_form(M: MetricSchedule, grid: np.ndarray) -> tuple:
    """``(alpha, alpha', beta, beta', K)`` with ``M(t) = alpha(t) Id + beta(t) B*B + K``.

    Four arrays over the grid and a constant matrix K (None for K = 0); K is
    set only where beta is zero. ``M`` is a metric :func:`_check_metrics`
    passed, so a prox-friendly one is on the problem's B.
    """
    zero = np.zeros(grid.size)
    if isinstance(M, ZeroMetric):
        return zero, zero, zero, zero, None
    if isinstance(M, ScaledIdentityMetric):
        mu, dmu = _on_grid(M.mu, grid)
        return mu, dmu, zero, zero, None
    if isinstance(M, ProxFriendlyMetric):
        c, dc = _on_grid(M.c, grid)
        alpha, dalpha = _reciprocal_on_grid(M.tau, grid)
        return alpha, dalpha, -c, -dc, None
    return zero, zero, zero, zero, M.M


def _at_extremes(a: np.ndarray, b: np.ndarray, extremes: np.ndarray) -> np.ndarray:
    """Extreme eigenvalues of ``a Id + b B*B``, one row per grid point.

    ``extremes`` holds the smallest and largest eigenvalue of B*B.
    """
    return a[:, None] + b[:, None] * extremes


def _c_rules(p, c: ScalarSchedule, eps: float, t_grid) -> tuple:
    """The checked grid, c and c' on it, and the c rules both validators share."""
    grid = _check_grid(t_grid)
    _check_eps(p, eps)
    values, derivs = _on_grid(c, grid)
    sigma = p.f.strong_convexity
    a2 = p.norm_A**2
    constant = isinstance(c, ConstantSchedule)
    upper = (2.0 * sigma / a2 - eps) if constant else (sigma / a2 - eps)
    range_margin = float(np.min(np.minimum(values - eps, upper - values)))
    sup_deriv = float(np.max(derivs))
    sup_abs_deriv = float(np.max(np.abs(derivs)))
    return grid, values, derivs, [
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
    # An infinite alpha' or beta' is unbounded (tau = k/c: M2' = c' (Id/k - B*B))
    steep = np.isinf(dalpha).any() or np.isinf(dbeta).any()
    sup_dnorm = math.inf if steep else float(np.abs(_at_extremes(dalpha, dbeta, extremes)).max())
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
    # smallest c on the grid attains the minimum, whatever the c schedule. A
    # coupling past the float range has no eigenvalues to read: NaN, which
    # fails cweak and cstrong and leaves a forced solve to run.
    Q = float(np.min(c_vals)) * p.btb + K
    return float(sym_eigenvalues(Q)[0]) if np.isfinite(Q).all() else math.nan


def validate(p, c: ScalarSchedule, M1: MetricSchedule, M2: MetricSchedule,
             eps: float, t_grid) -> ValidationReport:
    """Check the convergence hypotheses for the continuous system.

    Rules, each evaluated on the grid: the range and monotone-decrease and
    Lipschitz conditions on c (with the wider range allowed for constant c);
    M1, M2 dominating a quarter of the corresponding gradient Lipschitz
    constants; both metrics Loewner-monotonically decreasing with bounded
    derivative; and the disjunctive convergence condition (uniformly positive
    regularized M2, or uniformly positive-definite B*B). The metrics first
    pass the check the runs make, :func:`_check_metrics`; a dense M1 validates,
    though no run takes it. The first call on a fresh problem carries its
    SVDs of A and B.
    """
    _check_metrics(p, M1, M2)
    grid, c_vals, _, checks = _c_rules(p, c, eps, t_grid)

    l1 = p.h1.grad_lipschitz or 0.0
    l2 = p.h2.grad_lipschitz or 0.0
    extremes = np.array([p.btb_min, p.norm_B**2])
    m2_form = _spectral_form(M2, grid)
    checks += _metric_rules("m1", _spectral_form(M1, grid), extremes, l1 / 4.0)
    m2_checks = _metric_rules("m2", m2_form, extremes, l2 / 4.0)
    checks += m2_checks

    # alpha = min_t lambda_min(M2(t) - (L2/4) Id) is the m2 lower-bound witness.
    cond_witness = max(m2_checks[0].witness, p.btb_min)
    checks.append(CheckResult("convergence-condition", cond_witness > 1e-10,
                              cond_witness, 1e-10))

    beta = _z_beta(p, c_vals, m2_form, extremes)
    mode = "theorem-constant-c" if isinstance(c, ConstantSchedule) else "theorem-variable-c"
    return ValidationReport(mode, tuple(checks), tuple(grid), beta, beta > 0.0, beta > 1e-10)


@np.errstate(over="ignore", invalid="ignore")  # products past the float range are inf
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
    grid, c_vals, c_derivs, checks = _c_rules(p, c, eps, t_grid)

    b2 = p.norm_B**2
    l2 = p.h2.grad_lipschitz or 0.0
    tau_vals, tau_derivs = _on_grid(tau, grid)

    inf_tau_deriv = float(np.min(tau_derivs))
    checks.append(CheckResult("tau-increasing", inf_tau_deriv >= -1e-12, inf_tau_deriv, 0.0))

    ratios = -_reciprocal_on_grid(tau, grid)[1]  # tau'/tau^2
    ratio = float(ratios.max())
    checks.append(CheckResult("tau-derivative-ratio-bounded", math.isfinite(ratio),
                              ratio, math.inf))

    # tau L2 / 4, formed only where L2 > 0: an infinite tau times L2 = 0 is NaN.
    slack = 1.0 - (tau_vals * l2 / 4.0 if l2 > 0 else 0.0)
    # c tau ||B||^2 is k ||B||^2 exactly for tau = k/c, also where c underflows
    # to 0 and tau is inf.
    coupled = type(tau) is CoupledReciprocal and tau.other is c
    ctb2 = np.full(grid.size, tau.numerator * b2) if coupled else c_vals * tau_vals * b2
    coupling_excess = float((ctb2 - slack).max())
    checks.append(CheckResult("coupling-inequality", coupling_excess <= 1e-9,
                              coupling_excess, 0.0))

    if coupled and np.isinf(c_derivs).any():  # tau = k/c, with c' past the float range:
        steep = np.isinf(c_derivs)  # read c' (1/k - ||B||^2) there, not inf - inf
        excess = np.where(steep, 0.0, -c_derivs * b2) - np.where(steep, 0.0, ratios)
        if 1.0 / tau.numerator != b2:
            excess[steep] = c_derivs[steep] * (1.0 / tau.numerator - b2)
    else:
        excess = -c_derivs * b2 - ratios
    deriv_excess = float(excess.max())
    if math.isnan(deriv_excess):  # inf - inf: c' and tau'/tau^2 both past the float
        deriv_excess = math.inf  # range, unbounded as m2-derivative-bounded reads it
    checks.append(CheckResult("derivative-coupling", deriv_excess <= 1e-9,
                              deriv_excess, 0.0))

    strict_margin = float((slack - ctb2).min())
    cond_witness = max(strict_margin, p.btb_min)
    checks.append(CheckResult("convergence-condition", cond_witness > 1e-10,
                              cond_witness, 1e-10))

    # c B*B + (Id/tau - c B*B) = Id/tau exactly for the prox-friendly M2. min 1/tau
    # is 1/max tau (a rounded 1/x is monotone), with no 1/0 where tau underflows.
    beta = float(1.0 / np.max(tau_vals))
    return ValidationReport("corollary-prox-friendly", tuple(checks), tuple(grid),
                            beta, beta > 0.0, beta > 1e-10)
