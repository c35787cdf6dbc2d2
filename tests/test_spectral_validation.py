"""The closed-form validators against a dense per-grid-point oracle, and their cost.

The oracle below is the validator as it was before the spectral form: it
builds every metric, its derivative and c B*B + M2 as dense matrices at each
grid point and runs an ``eigvalsh`` on each. The property test draws small
random problems (tall, square, wide and rank-deficient B; every metric kind
for M2 and every kind a problem file allows for M1; constant, decaying and
growing c) and asks for the same
report. The cost tests count numpy's eigen- and singular-value calls and
trace allocations; they assert no wall-clock times.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amaflow import (
    CapabilityError,
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    L1Norm,
    MetricSchedule,
    ProxFriendlyMetric,
    QuadraticDistance,
    ReciprocalQuadratic,
    ScaledIdentityMetric,
    TwoBlockProblem,
    ZeroFunction,
    ZeroMetric,
    default_grid,
    example_problem,
    example_schedule,
    validate,
    validate_corollary,
)
from amaflow.schedules import CheckResult
from oracles import metric_derivative, metric_matrix

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)
RTOL = 1e-12


# ---------------------------------------------------------------------------
# dense oracle


def _min_eig(mat):
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])


def _spectral_norm_sym(mat):
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def _dense_c_rules(p, c, eps, grid):
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


def _dense_metric_rules(name, mats, dmats, shift):
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


def _gram(B):
    return B.T @ B


def _dense_z_wellposedness(p, c, m2_mats, grid):
    btb = _gram(p.B)
    eigs = [_min_eig(c.value_at(t) * btb + m) for t, m in zip(grid, m2_mats)]
    beta = float(min(eigs))
    return beta, all(e > 0.0 for e in eigs), beta > 1e-10


def dense_validate(p, c, M1, M2, eps, grid):
    checks = _dense_c_rules(p, c, eps, grid)
    l1 = p.h1.grad_lipschitz or 0.0
    l2 = p.h2.grad_lipschitz or 0.0
    bm = p.B
    m1_mats = [metric_matrix(M1, t, bm) for t in grid]
    m1_d = [metric_derivative(M1, t, bm) for t in grid]
    m2_mats = [metric_matrix(M2, t, bm) for t in grid]
    m2_d = [metric_derivative(M2, t, bm) for t in grid]
    checks += _dense_metric_rules("m1", m1_mats, m1_d, l1 / 4.0)
    checks += _dense_metric_rules("m2", m2_mats, m2_d, l2 / 4.0)
    n_z = p.dim_z
    alpha = float(min(_min_eig(m - (l2 / 4.0) * np.eye(n_z)) for m in m2_mats))
    btb_min = _min_eig(_gram(p.B))
    cond_witness = max(alpha, btb_min)
    checks.append(CheckResult("convergence-condition", cond_witness > 1e-10,
                              cond_witness, 1e-10))
    beta, cweak, cstrong = _dense_z_wellposedness(p, c, m2_mats, grid)
    mode = "theorem-constant-c" if isinstance(c, ConstantSchedule) else "theorem-variable-c"
    return mode, checks, beta, cweak, cstrong


def dense_validate_corollary(p, c, tau, eps, grid):
    checks = _dense_c_rules(p, c, eps, grid)
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
    btb_min = _min_eig(_gram(p.B))
    cond_witness = max(strict_margin, btb_min)
    checks.append(CheckResult("convergence-condition", cond_witness > 1e-10,
                              cond_witness, 1e-10))
    m2 = ProxFriendlyMetric(tau, c, p.B)
    m2_mats = [metric_matrix(m2, t, p.B) for t in grid]
    beta, cweak, cstrong = _dense_z_wellposedness(p, c, m2_mats, grid)
    return "corollary-prox-friendly", checks, beta, cweak, cstrong


# ---------------------------------------------------------------------------
# random cases
#
# Hypothesis draws the size and the seed; each example then checks every B
# shape against every M2 kind (16 reports), cycling the c and M1 kinds so
# that each c kind meets each M2 kind.

SHAPES = ["tall", "square", "wide", "rank-deficient"]
M2_KINDS = ["zero", "scaled_identity", "prox_friendly", "constant_dense"]
M1_KINDS = ["zero", "scaled_identity", "constant_dense"]
C_KINDS = ["constant", "decaying", "growing"]


class Growing(ConstantSchedule):
    """Typed constant, but increasing in time: the c-decreasing rule must see it."""

    def __init__(self, value, slope):
        super().__init__(value)
        self.slope = slope

    def value_at(self, t):
        return self.value + self.slope * t

    def derivative_at(self, t):
        return self.slope


def _c_schedule(kind, rng):
    c0 = rng.uniform(0.05, 1.0)
    if kind == "constant":
        return ConstantSchedule(c0)
    if kind == "decaying":
        return ReciprocalQuadratic(1.0 / c0, rng.uniform(0.0, 0.1))
    return Growing(c0, rng.uniform(1e-4, 1e-2))


def _metric(kind, rng, dim, c, B):
    if kind == "zero":
        return ZeroMetric(dim)
    if kind == "scaled_identity":
        mu0 = rng.uniform(0.01, 3.0)
        mu = ConstantSchedule(mu0) if rng.random() < 0.5 else ReciprocalQuadratic(1.0 / mu0)
        return ScaledIdentityMetric(mu, dim)
    if kind == "constant_dense":
        m = rng.standard_normal((dim, dim))
        return ConstantDenseMetric(0.5 * (m + m.T) + rng.uniform(-1.0, 3.0) * np.eye(dim))
    tau_c = rng.uniform(0.1, 1.5)
    tau = CoupledReciprocal(tau_c, c) if rng.random() < 0.5 else ConstantSchedule(tau_c)
    metric_c = c if rng.random() < 0.5 else ConstantSchedule(rng.uniform(0.05, 1.0))
    return ProxFriendlyMetric(tau, metric_c, B)


def _b_matrix(shape, rng, n_z):
    if shape == "tall":
        B = rng.standard_normal((n_z + rng.integers(1, 4), n_z))
    elif shape == "square":
        B = rng.standard_normal((n_z, n_z))
    elif shape == "wide":
        B = rng.standard_normal((rng.integers(1, n_z), n_z))
    else:
        r = rng.integers(1, n_z)
        B = rng.standard_normal((n_z, r)) @ rng.standard_normal((r, n_z))
    return B / np.linalg.norm(B, 2) * rng.uniform(0.5, 2.0)


def _smooth(rng, dim):
    if rng.random() < 0.5:
        return ZeroFunction(dim)
    return QuadraticDistance(rng.standard_normal(dim), rng.uniform(0.1, 2.0))


def _case(rng, n_z, shape, c_kind, m1_kind, m2_kind):
    B = _b_matrix(shape, rng, n_z)
    m = B.shape[0]
    A = rng.standard_normal((m, m))
    p = TwoBlockProblem(
        f=QuadraticDistance(rng.standard_normal(m), rng.uniform(0.5, 2.0)),
        h1=_smooth(rng, m), g=L1Norm(n_z), h2=_smooth(rng, n_z),
        A=A / np.linalg.norm(A, 2), B=B, b=rng.standard_normal(m))
    c = _c_schedule(c_kind, rng)
    M1 = _metric(m1_kind, rng, m, c, p.B)
    M2 = _metric(m2_kind, rng, n_z, c, p.B)
    steps = rng.uniform(0.05, 5.0, size=rng.integers(1, 41))
    grid = np.cumsum(steps) - (steps[0] if rng.random() < 0.5 else 0.0)
    eps = rng.uniform(0.01, 0.2) * p.f.strong_convexity / (2.0 * p.norm_A**2)
    return p, c, M1, M2, eps, grid


def all_cases(n_z, seed):
    rng = np.random.default_rng(seed)
    for j, (shape, m2_kind) in enumerate((s, k) for s in SHAPES for k in M2_KINDS):
        yield _case(rng, n_z, shape, C_KINDS[j % 3], M1_KINDS[j // 3 % 3], m2_kind)


def _close(a, b):
    return abs(a - b) <= RTOL * (1.0 + abs(b))


def _assert_same_report(rep, oracle):
    mode, checks, beta, cweak, cstrong = oracle
    assert rep.mode == mode
    assert [ch.rule for ch in rep.checks] == [ch.rule for ch in checks]
    for got, want in zip(rep.checks, checks):
        assert _close(got.witness, want.witness), (got, want)
        assert got.threshold == want.threshold
        # a witness within rounding of its threshold decides the flag by
        # rounding alone, in either implementation
        if not _close(want.witness, want.threshold):
            assert got.passed == want.passed, (got, want)
    assert _close(rep.beta, beta), (rep.beta, beta)
    assert rep.cstrong == cstrong
    if not _close(beta, 0.0):
        assert rep.cweak == cweak


@SETTINGS
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_validate_matches_the_dense_oracle(n_z, seed):
    for p, c, M1, M2, eps, grid in all_cases(n_z, seed):
        _assert_same_report(validate(p, c, M1, M2, eps, grid),
                            dense_validate(p, c, M1, M2, eps, grid))


@SETTINGS
@given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.floats(0.1, 1.5), st.booleans())
def test_validate_corollary_matches_the_dense_oracle(n_z, seed, tau_c, coupled):
    for p, c, _, _, eps, grid in all_cases(n_z, seed):
        tau = CoupledReciprocal(tau_c, c) if coupled else ConstantSchedule(tau_c)
        _assert_same_report(validate_corollary(p, c, tau, eps, grid),
                            dense_validate_corollary(p, c, tau, eps, grid))


def test_unknown_metric_kind_is_refused():
    class Custom(MetricSchedule):
        kind = "custom"
        dim = 2

    p = example_problem()
    with pytest.raises(CapabilityError, match="custom"):
        validate(p, ConstantSchedule(0.25), ZeroMetric(2), Custom(), 0.005, [0.0, 1.0])


@pytest.mark.parametrize("grid", [[0.0, 1.0], [1.0, 0.0]], ids=["grid", "bad-grid"])
def test_prox_friendly_metric_on_another_b_is_refused(grid):
    # the metrics are checked before the grid
    p = example_problem()
    c = ConstantSchedule(0.25)
    other = ProxFriendlyMetric(ConstantSchedule(1.0), c, p.B * 0.5)
    with pytest.raises(CapabilityError, match="prox_friendly"):
        validate(p, c, ZeroMetric(2), other, 0.005, grid)


def test_prox_friendly_metric_on_an_equal_b_is_the_problems_own():
    """A separate but equal B validates as the problem's own, as the solvers run
    it: a copy of B's matrix, and the README's pairing of the example problem
    with an example schedule built without it."""
    p = example_problem()
    c = ConstantSchedule(0.25)
    grid = default_grid()
    own = validate(p, c, ZeroMetric(2), ProxFriendlyMetric(ConstantSchedule(1.0), c, p.B),
                   0.005, grid)
    copy = ProxFriendlyMetric(ConstantSchedule(1.0), c, p.B.copy())
    assert validate(p, c, ZeroMetric(2), copy, 0.005, grid).checks == own.checks

    built, apart = example_schedule("c025", 0.99, p), example_schedule("c025", 0.99)
    assert apart.M2.B is not p.B
    reps = [validate(p, s.c, s.M1, s.M2, 0.005, grid) for s in (built, apart)]
    assert reps[0].passed and reps[1].checks == reps[0].checks


# ---------------------------------------------------------------------------
# cost


def _random_problem(n, seed=0):
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return TwoBlockProblem(
        f=QuadraticDistance(np.zeros(n)), h1=ZeroFunction(n), g=L1Norm(n),
        h2=ZeroFunction(n), A=A / np.linalg.norm(A, 2),
        B=B / np.linalg.norm(B, 2), b=rng.standard_normal(n))


def test_build_makes_one_svd_per_operator(decompositions):
    """The build decomposes nothing; each operator gets one SVD, on first use."""
    rng = np.random.default_rng(1)
    f, h, g = QuadraticDistance(np.zeros(5)), ZeroFunction(5), L1Norm(5)
    A, B = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
    p = TwoBlockProblem(f=f, h1=h, g=g, h2=h, A=A, B=B, b=np.zeros(5))
    assert decompositions == {"eigvalsh": 0, "eigh": 0, "svd": 0}
    p.norm_A
    assert decompositions == {"eigvalsh": 0, "eigh": 0, "svd": 1}
    p.btb_min
    assert decompositions == {"eigvalsh": 0, "eigh": 0, "svd": 2}
    p.norm_B, p.norm_A, p.btb_min
    assert decompositions == {"eigvalsh": 0, "eigh": 0, "svd": 2}

    q = TwoBlockProblem(f=f, h1=h, g=g, h2=h, A=A, B=B, b=np.zeros(5))
    q.norm_B
    assert decompositions["svd"] == 3
    q.btb_min, q.norm_B
    assert decompositions["svd"] == 3


def test_prox_friendly_validation_makes_no_decomposition(decompositions):
    """Past the two spectra, made on the first pass, validation decomposes nothing."""
    n = 200
    p = _random_problem(n)
    c = ConstantSchedule(0.25)
    tau = CoupledReciprocal(0.99, c)
    M2 = ProxFriendlyMetric(tau, c, p.B)
    grid = default_grid()
    decompositions["svd"] = 0
    validate(p, c, ZeroMetric(n), M2, 0.005, grid)
    validate_corollary(p, c, tau, 0.005, grid)
    assert decompositions == {"eigvalsh": 0, "eigh": 0, "svd": 2}
    decompositions["svd"] = 0
    tracemalloc.start()
    try:
        rep = validate(p, c, ZeroMetric(n), M2, 0.005, grid)
        cor = validate_corollary(p, c, tau, 0.005, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and cor.passed
    assert decompositions == {"eigvalsh": 0, "eigh": 0, "svd": 0}
    assert peak < 2 * 1024 * 1024


def test_constant_dense_m2_costs_at_most_two_eigvalsh(decompositions):
    n = 20
    p = _random_problem(n, seed=2)
    rng = np.random.default_rng(3)
    K = rng.standard_normal((n, n))
    M2 = ConstantDenseMetric(K @ K.T + np.eye(n))
    decompositions["svd"] = 0
    validate(p, ReciprocalQuadratic(4.0), ZeroMetric(n), M2, 0.005, default_grid())
    assert decompositions["eigvalsh"] <= 2
    assert decompositions["eigh"] == 0
    assert decompositions["svd"] == 2  # the problem's two spectra, on first use
