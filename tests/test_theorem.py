"""The paper's Lyapunov theorem as a property of random problems.

Each example draws a dense problem of size n in 2..6 (random A and B with
singular values in [0.3, 1] and [0.2, 1], |A| = |B| = 1), functions of the
shipped kinds, and schedules of the shipped kinds. Most draws put c and M2
inside the theorem's hypotheses and the rest outside; only draws that
``validate`` passes are kept. For each kept draw a reference saddle is solved
to 1e-10, the energy must not increase along an RK4 run (slack
1e-6 (1 + E) per step, as in :func:`check_energy_monotone`), and the field
must vanish at the reference.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from amaflow import (
    BoxIndicator,
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    L1Norm,
    ParameterSchedule,
    PrimalDualState,
    ProxFriendlyMetric,
    QuadraticDistance,
    ReciprocalQuadratic,
    ReciprocalSqrt,
    ScaledIdentityMetric,
    SolveConfig,
    TwoBlockProblem,
    ZeroFunction,
    ZeroMetric,
    check_energy_monotone,
    default_grid,
    gamma,
    integrate,
    prox_ama_run,
    validate,
)
from amaflow.diagnostics import trajectory_energies

EPS = 0.005
INSIDE = 0.75  # chance that c, and separately M2, are drawn inside the hypotheses


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _dense(rng, n, smin):
    sv = np.sort(rng.uniform(smin, 1.0, n))[::-1]
    sv[0] = 1.0
    return (_orthogonal(rng, n) * sv) @ _orthogonal(rng, n).T


def _smooth(rng, n):
    if rng.random() < 0.5:
        return ZeroFunction(n)
    return QuadraticDistance(rng.standard_normal(n), rng.uniform(0.1, 1.0))


def _c_schedule(rng, sigma):
    """c in range (constant up to 2 sigma, variable up to sigma, |A| = 1), or
    up to four times past the top of the range."""
    frac = rng.uniform(0.05, 1.0) if rng.random() < INSIDE else rng.uniform(1.0, 4.0)
    kind = rng.integers(3)
    if kind == 0:
        return ConstantSchedule(frac * 2.0 * sigma)
    offset = rng.uniform(0.01, 0.1) * sigma
    start = max(frac * sigma - offset, 1e-3)  # c(0) - offset
    if kind == 1:
        return ReciprocalQuadratic(1.0 / start, offset)
    return ReciprocalSqrt(start**-2, offset)


def _m2_schedule(rng, n, c, B, L2):
    """M2 of a shipped kind, at or above L2/4 (inside) or possibly below it."""
    inside = rng.random() < INSIDE
    kind = rng.integers(4)
    if kind == 0:
        tc = rng.uniform(0.2, 0.95) if inside else rng.uniform(1.0, 3.0)
        return ProxFriendlyMetric(CoupledReciprocal(tc, c), c, B)
    if kind == 1:
        mu = L2 / 4.0 + rng.uniform(0.01, 1.0) if inside else rng.uniform(0.0, 1.0) * L2 / 4.0
        return ScaledIdentityMetric(ConstantSchedule(max(mu, 1e-3)), n)
    if kind == 2:
        low = L2 / 4.0 + 0.01 if inside else -0.5
        V = _orthogonal(rng, n)
        K = (V * rng.uniform(low, 1.0 + L2, n)) @ V.T
        return ConstantDenseMetric(0.5 * (K + K.T))
    return ZeroMetric(n)


def random_case(n, rng):
    """A problem of size n, its schedules and a start state, drawn from ``rng``."""
    sigma = rng.uniform(0.5, 2.0)
    g = [lambda: L1Norm(n, rng.uniform(0.1, 1.0)),
         lambda: BoxIndicator(-rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n)),
         lambda: ZeroFunction(n),
         lambda: QuadraticDistance(rng.standard_normal(n), rng.uniform(0.2, 2.0))][rng.integers(4)]()
    h1, h2 = _smooth(rng, n), _smooth(rng, n)
    p = TwoBlockProblem(QuadraticDistance(rng.standard_normal(n), sigma), h1, g, h2,
                        _dense(rng, n, 0.3), _dense(rng, n, 0.2),
                        rng.standard_normal(n))
    c = _c_schedule(rng, sigma)
    L1 = h1.grad_lipschitz
    M1 = ZeroMetric(n) if L1 == 0.0 else ScaledIdentityMetric(
        ConstantSchedule(L1 / 4.0 + rng.uniform(0.01, 1.0)), n)
    sched = ParameterSchedule(c, M1, _m2_schedule(rng, n, c, p.B, h2.grad_lipschitz))
    s0 = PrimalDualState(*(rng.uniform(-3.0, 3.0, n) for _ in range(3)))
    return p, sched, s0


@st.composite
def theorem_cases(draw):
    n = draw(st.integers(2, 6))
    return random_case(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def seeded_case(seed):
    """The case of one integer seed, outside hypothesis: n and the seed of
    :func:`random_case`'s generator are drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    return random_case(n, np.random.default_rng(rng.integers(0, 2**32 - 1)))


def _reference(p):
    """A saddle to 1e-10 from a prox-friendly run that meets the corollary:
    c = sigma (|A| = 1) and c tau |B|^2 = 0.9 - tau L2/4 with |B| = 1."""
    sigma, L1, L2 = p.f.strong_convexity, p.h1.grad_lipschitz, p.h2.grad_lipschitz
    c = ConstantSchedule(sigma)
    tau = CoupledReciprocal(0.9 * sigma / (sigma + L2 / 4.0), c)
    M1 = ZeroMetric(p.dim_x) if L1 == 0.0 else ScaledIdentityMetric(
        ConstantSchedule(L1 / 4.0 + 0.01), p.dim_x)
    zero = np.zeros(p.dim_x)
    res = prox_ama_run(p, ParameterSchedule(c, M1, ProxFriendlyMetric(tau, c, p.B)),
                       PrimalDualState(zero, zero, zero),
                       SolveConfig(max_iters=20000, tol_kkt=1e-10, tol_feas=1e-10,
                                   record_every=20000))
    assert res.status == "converged", res.status
    return res.final


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(theorem_cases())
def test_energy_is_nonincreasing_on_validated_random_problems(case):
    p, sched, s0 = case
    assume(validate(p, sched.c, sched.M1, sched.M2, EPS, default_grid()).passed)
    ref = _reference(p)
    traj = integrate(p, sched, s0, method="rk4", h=0.02, T=1.0)
    passed, violation = check_energy_monotone(trajectory_energies(traj, p, sched, ref))
    assert passed, f"energy rose by {violation:.3e} beyond the slack"
    for t in (0.0, 1.0, 10.0):
        assert gamma(p, sched, t, ref).norm <= 1e-8
