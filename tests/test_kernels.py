"""Every update the run's kernel can be built as, against the blockwise steps
it replaced: the block kinds of the problem and the schedules, crossed so
that each pair of two factors' levels meets at least once, on the discrete
solvers and on both integrators."""

import itertools

import numpy as np
import pytest
from oracles import step_params
from test_loop_invariants import blockwise_rk4, same_bits
from test_stacked_loop import blockwise_euler

from amaflow import (
    BoxIndicator,
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    L1Norm,
    ParameterSchedule,
    ProxFriendlyMetric,
    QuadraticDistance,
    QuadraticForm,
    ReciprocalQuadratic,
    ReciprocalSqrt,
    ScaledIdentityMetric,
    SolveConfig,
    TwoBlockProblem,
    ZeroFunction,
    ZeroMetric,
    ama_run,
    integrate,
    prox_ama_run,
    prox_ama_step,
)
from amaflow.dynamics import _snapshot
from amaflow.trajectory import _run

FACTORS = {
    "g": ("zero", "l1", "box", "quadratic_form"),
    "h1": ("zero", "smooth"),
    "h2": ("zero", "smooth"),
    "M1": ("zero", "constant", "varying"),
    "M2": ("zero", "scaled", "constant_dense", "prox_friendly"),
    "b": ("zero", "nonzero"),
    "c": ("constant", "varying"),
}


def pairwise(factors: dict) -> list:
    """Combinations of the factors' levels, picked greedily from the full
    product, until every pair of two factors' levels is in one of them."""
    names = list(factors)

    def pairs(combo):
        return {(i, combo[i], j, combo[j]) for i, j in itertools.combinations(range(len(names)), 2)}

    todo = set().union(*map(pairs, itertools.product(*factors.values())))
    picked = []
    while todo:
        best = max(itertools.product(*factors.values()), key=lambda cb: len(pairs(cb) & todo))
        picked.append(dict(zip(names, best)))
        todo -= pairs(best)
    return picked


CASES = pairwise(FACTORS)


def spd(rng, n, floor):
    G = rng.standard_normal((n, n))
    return G @ G.T / n + floor * np.eye(n)


def build(case: dict, n: int = 3, seed: int = 5):
    """The problem, schedules and start state of one combination: a square B
    with singular values from 1 down to 0.5, so that c B*B is uniformly
    positive for every c the schedules take."""
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    B = (U * np.linspace(1.0, 0.5, n)) @ V.T
    smooth = {"zero": lambda: ZeroFunction(n),
              "smooth": lambda: QuadraticDistance(rng.standard_normal(n), 0.3)}
    g = {"zero": lambda: ZeroFunction(n), "l1": lambda: L1Norm(n, 0.6),
         "box": lambda: BoxIndicator(-np.full(n, 0.7), np.full(n, 0.9)),
         "quadratic_form": lambda: QuadraticForm(spd(rng, n, 0.1),
                                                 rng.standard_normal(n))}[case["g"]]()
    p = TwoBlockProblem(f=QuadraticDistance(rng.standard_normal(n), 1.2),
                        h1=smooth[case["h1"]](), g=g, h2=smooth[case["h2"]](),
                        A=rng.standard_normal((n, n)) + 2.0 * np.eye(n),
                        B=B,
                        b=np.zeros(n) if case["b"] == "zero" else rng.standard_normal(n))
    c = ConstantSchedule(0.4) if case["c"] == "constant" else ReciprocalQuadratic(2.0, 0.2)
    M1 = {"zero": ZeroMetric(n),
          "constant": ScaledIdentityMetric(ConstantSchedule(0.5), n),
          "varying": ScaledIdentityMetric(ReciprocalSqrt(1.0, 0.5), n)}[case["M1"]]
    M2 = {"zero": ZeroMetric(n),
          "scaled": ScaledIdentityMetric(ConstantSchedule(0.3), n),
          "constant_dense": ConstantDenseMetric(spd(rng, n, 0.2)),
          "prox_friendly": ProxFriendlyMetric(CoupledReciprocal(0.9, c), c, p.B)}[case["M2"]]
    s0 = p.state(*(rng.standard_normal(n) * 2.0 for _ in range(3)))
    return p, ParameterSchedule(c, M1, M2), s0


def stepped(p, sched, s0, steps):
    """The states of ``prox_ama_step`` iterated ``steps`` times, stacked."""
    s, rows = s0, [np.concatenate((s0.x, s0.z, s0.y))]
    for k in range(steps):
        mu1, K, c, tau = step_params(sched, float(k), p.B)
        s = prox_ama_step(p, mu1, K, c, s, tau)
        rows.append(np.concatenate((s.x, s.z, s.y)))
    return np.array(rows)


def unreachable(steps):
    return SolveConfig(max_iters=steps, tol_kkt=1e-300, tol_feas=1e-300)


def check_every_runner(case, n, steps):
    p, sched, s0 = build(case, n)
    states = slice(1, 1 + 3 * n)
    res = prox_ama_run(p, sched, s0, unreachable(steps))
    assert res.iterations_used == steps
    assert same_bits(res.iterates.table[:, states], stepped(p, sched, s0, steps))
    # ama reads g, b and c; it needs h1 = h2 = 0 and runs with no metrics
    plain = TwoBlockProblem(p.f, ZeroFunction(n), p.g, ZeroFunction(n), p.A, p.B, p.b)
    res = ama_run(plain, sched.c, s0, unreachable(steps))
    bare = ParameterSchedule(sched.c, ZeroMetric(n), ZeroMetric(n))
    assert same_bits(res.iterates.table[:, states], stepped(plain, bare, s0, steps))
    h = 0.3
    for method, blockwise in (("euler", blockwise_euler), ("rk4", blockwise_rk4)):
        traj = integrate(p, sched, s0, method, h, h * steps, 1)
        rec = _run(p, s0, blockwise(p, _snapshot(p, sched), h), h, steps, 1)[2]
        assert len(traj.table) == steps + 1
        assert same_bits(traj.table, rec.finish())


def test_the_pairs_are_covered():
    assert len(CASES) < 40
    for a, b in itertools.combinations(FACTORS, 2):
        met = {(case[a], case[b]) for case in CASES}
        assert met == set(itertools.product(FACTORS[a], FACTORS[b]))


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(case.values()))
def test_every_kernel_is_the_blockwise_update(case):
    check_every_runner(case, 3, 6)


def test_a_kernel_at_n_400_is_the_blockwise_update():
    case = {"g": "l1", "h1": "smooth", "h2": "smooth", "M1": "varying",
            "M2": "prox_friendly", "b": "nonzero", "c": "varying"}
    check_every_runner(case, 400, 2)
