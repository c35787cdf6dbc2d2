"""Property tests on small random dense problems with a prox-friendly M2, and
on the theorem's random problems (:mod:`test_theorem`) for the record cadence.

Each example draws a problem of size n in 2..8 (random A, B with |B| <= 1,
f a weighted squared distance, g a weighted l1 norm or zero) and a constant
or decaying penalty c with tau = tau_c / c, so c tau |B|^2 <= tau_c < 1.
The dense quantities the solvers avoid forming are rebuilt here from the
metric's matrix and compared with the matrix-free ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amaflow import (
    ConstantSchedule,
    CoupledReciprocal,
    L1Norm,
    ParameterSchedule,
    PrimalDualState,
    ProxFriendlyMetric,
    QuadraticDistance,
    QuadraticForm,
    ReciprocalQuadratic,
    SolveConfig,
    TwoBlockProblem,
    ZeroFunction,
    ZeroMetric,
    ama_run,
    default_grid,
    example_problem,
    example_start,
    integrate,
    prox_ama_run,
    solve_z_subproblem,
    validate,
)
from amaflow.diagnostics import _terms
from amaflow.dynamics import _snapshot, alternating_update
from oracles import metric_matrix
from test_theorem import _orthogonal, seeded_case, theorem_cases

SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)


@st.composite
def cases(draw, zero_g=False):
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    B = rng.standard_normal((n, n))
    B /= np.linalg.norm(B, 2) * draw(st.floats(1.0, 2.0))
    g = ZeroFunction(n) if zero_g else L1Norm(n, draw(st.floats(0.1, 2.0)))
    p = TwoBlockProblem(
        f=QuadraticDistance(rng.standard_normal(n), draw(st.floats(0.5, 2.0))),
        h1=ZeroFunction(n), g=g, h2=ZeroFunction(n),
        A=A, B=B, b=rng.standard_normal(n))
    c0 = draw(st.floats(0.05, 1.0))
    if draw(st.booleans()):
        c = ConstantSchedule(c0)
    else:
        c = ReciprocalQuadratic(1.0 / c0, draw(st.floats(0.0, 0.1)))
    tau = CoupledReciprocal(draw(st.floats(0.1, 0.99)), c)
    sched = ParameterSchedule(c=c, M1=ZeroMetric(n), M2=ProxFriendlyMetric(tau, c, p.B))
    vecs = [rng.standard_normal(n) for _ in range(4)]
    t = draw(st.floats(0.0, 50.0))
    return p, sched, vecs, t


@SETTINGS
@given(cases(), st.integers(1, 4))
def test_unit_step_euler_equals_prox_ama_run_bitwise(case, record_every):
    p, sched, (x, z, y, _), _ = case
    s0 = PrimalDualState(x, z, y)
    iters = 12
    traj = integrate(p, sched, s0, method="euler", h=1.0, T=float(iters),
                     record_every=record_every)
    run = prox_ama_run(p, sched, s0, SolveConfig(max_iters=iters, tol_kkt=1e-300,
                                                 tol_feas=1e-300,
                                                 record_every=record_every))
    assert [a.t for a in traj.samples] == [b.t for b in run.iterates.samples]
    for a, b in zip(traj.samples, run.iterates.samples):
        for key in ("x", "z", "y"):
            assert np.array_equal(getattr(a.state, key), getattr(b.state, key))
        assert a.kkt == b.kkt
        assert a.feas == b.feas


@SETTINGS
@given(cases(zero_g=True))
def test_matrix_free_z_target_matches_dense_metric(case):
    # With g = 0 the z-step returns tau times its target.
    p, sched, (x_new, z, y, _), t = case
    c, tau = sched.c.value_at(t), sched.tau.value_at(t)
    M2 = metric_matrix(sched.M2, t, p.B)
    Bt = p.B.T
    ax = p.A @ x_new
    terms = [M2 @ z, Bt @ y, c * (Bt @ (ax - p.b))]
    dense = terms[0] + terms[1] - terms[2]
    got = solve_z_subproblem(p, None, c, tau, z, y, x_new) / tau
    scale = sum(float(np.linalg.norm(v)) for v in terms)
    assert np.linalg.norm(got - dense) <= 1e-12 * scale


@SETTINGS
@given(cases(), st.booleans())
def test_fused_update_matches_the_textbook_step(case, with_h2):
    # The kernel takes one prox of tau g at z + tau v and forms the constraint
    # residual r = A x+ + B z+ - b once, with w = -c r. Written out densely:
    # z+ = prox_{tau g}(tau (M2 z + B* y - c B*(A x+ - b) - grad h2(z))) and
    # w = c (b - A x+ - B z+).
    p, sched, (x, z, y, d), t = case
    n = p.dim_z
    if with_h2:
        G = np.random.default_rng(n).standard_normal((n, n))
        h2 = QuadraticForm(G @ G.T / n, d)
        p = TwoBlockProblem(p.f, p.h1, p.g, h2, p.A, p.B, p.b)
    c, tau = sched.c.value_at(t), sched.tau.value_at(t)
    ux, uz, uw, ubz, ur = alternating_update(p, 0.0, None, c, tau, x, z, y)
    A, B = p.A, p.B
    M2 = metric_matrix(sched.M2, t, p.B)
    terms = [M2 @ z, B.T @ y, c * (B.T @ (A @ ux - p.b)), p.h2.grad(z)]
    want_z = p.g.prox(tau, tau * (terms[0] + terms[1] - terms[2] - terms[3]))
    assert np.linalg.norm(uz - want_z) <= 1e-12 * tau * sum(np.linalg.norm(v) for v in terms)
    parts = [p.b, A @ ux, B @ uz]
    want_w = c * (parts[0] - parts[1] - parts[2])
    assert np.linalg.norm(uw - want_w) <= 1e-12 * c * sum(np.linalg.norm(v) for v in parts)
    assert np.array_equal(ur, p.A.dot(ux) + ubz - p.b)


@SETTINGS
@given(cases())
def test_energy_z_term_matches_dense_metric(case):
    p, sched, (x, z, y, dz), t = case
    c = sched.c.value_at(t)
    bdz = p.B @ dz
    dense = c * float(dz @ metric_matrix(sched.M2, t, p.B) @ dz) + c * c * float(bdz @ bdz)
    # The energy terms of a state dz away from a point in z only; the point is
    # no saddle of p, so they are read past energy()'s check of the reference.
    zero = np.zeros((1, x.size))
    got = _terms(p, [_snapshot(p, sched)(t)], zero, dz[None], zero)[1][2][0]
    assert abs(got - dense) <= 1e-12 * abs(dense)


def _bits(smp):
    """A sample as bytes, NaN payloads included."""
    st_ = smp.state
    return (smp.t, st_.x.tobytes(), st_.z.tobytes(), st_.y.tobytes(),
            np.array([smp.feas, *smp.kkt]).tobytes())


def assert_subsampled(sparse, full, r):
    """``sparse`` (record_every r) is ``full`` (record_every 1) subsampled."""
    assert (sparse.status, sparse.iterations_used, sparse.message) == (
        full.status, full.iterations_used, full.message)
    last = full.iterates.samples[-1].t
    kept = [s for s in full.iterates.samples if s.t % r == 0 or s.t == last]
    assert [_bits(s) for s in sparse.iterates.samples] == [_bits(s) for s in kept]


@SETTINGS
@given(cases(), st.integers(1, 9), st.sampled_from((1e-2, 1e-5, 1e-9)))
def test_recording_cadence_does_not_change_the_run(case, r, tol):
    # The z-residual is skipped between recorded iterates where it cannot
    # decide the run; the run must not notice.
    p, sched, (x, z, y, _), _ = case
    s0 = PrimalDualState(x, z, y)
    runs = [prox_ama_run(p, sched, s0, SolveConfig(max_iters=150, tol_kkt=tol,
                                                   tol_feas=tol, record_every=every))
            for every in (1, r)]
    assert_subsampled(runs[1], runs[0], r)


def _diverging(case):
    """A run of a diverging case under a SolveConfig: the example at a penalty
    c far past its range, by prox-ama or ama, or a seeded random case."""
    solver, c = case
    if solver == "seeded":
        p, sched, s0 = seeded_case(c)
        return lambda cfg: prox_ama_run(p, sched, s0, cfg)
    p, s0 = example_problem(), example_start()
    c_sched = ConstantSchedule(c)
    if solver == "ama":
        return lambda cfg: ama_run(p, c_sched, s0, cfg)
    sched = ParameterSchedule(c_sched, ZeroMetric(2),
                              ProxFriendlyMetric(CoupledReciprocal(0.99, c_sched),
                                                 c_sched, p.B))
    return lambda cfg: prox_ama_run(p, sched, s0, cfg)


# The seeded cases (n = 5, l1 g, constant dense M2) once ended by cadence:
# 289 diverged at 620 with every state recorded and ran out its budget
# otherwise; 130 settled near 1.2e154, under the float range, and never
# stopped.
@pytest.mark.parametrize("case, stop, tol, cadences", [
    (("prox-ama", 50.0), 138, 1e-6, range(2, 10)), (("ama", 50.0), 138, 1e-6, range(2, 10)),
    (("prox-ama", 20.0), 236, 1e-6, range(2, 10)), (("ama", 20.0), 237, 1e-6, range(2, 10)),
    (("seeded", 289), 377, 1e-8, (7, 100)), (("seeded", 130), 677, 1e-8, (7, 100)),
], ids=["prox-ama-c50", "ama-c50", "prox-ama-c20", "ama-c20", "seeded-289", "seeded-130"])
def test_diverging_runs_stop_at_the_same_iterate_for_every_cadence(case, stop, tol,
                                                                   cadences):
    run = _diverging(case)

    def at(r):
        return run(SolveConfig(max_iters=2000, tol_kkt=tol, tol_feas=tol, record_every=r))

    full = at(1)
    assert full.status == "diverged" and full.iterations_used == stop
    for r in cadences:
        assert_subsampled(at(r), full, r)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(theorem_cases())
def test_a_random_runs_stop_does_not_depend_on_its_cadence(case):
    p, sched, s0 = case
    runs = [prox_ama_run(p, sched, s0, SolveConfig(max_iters=1000, tol_kkt=1e-8,
                                                   tol_feas=1e-8, record_every=every))
            for every in (1, 7, 100)]
    for every, run in zip((7, 100), runs[1:]):
        assert_subsampled(run, runs[0], every)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 59))
def test_orthogonal_mixing_of_the_constraint_rows_leaves_x_and_z(seed):
    # (QA, QB, Qb) with y0 -> Q y0, Q orthogonal: A* y, |Ax + Bz - b| and
    # B*B are unchanged, so the (x, z) iterates are the original run's up to
    # rounding, y maps to Q y, and validate gives the same verdict.
    p, sched, s0 = seeded_case(seed)
    Q = _orthogonal(np.random.default_rng(1000 + seed), p.dim_y)
    mixed = TwoBlockProblem(p.f, p.h1, p.g, p.h2, Q @ p.A, Q @ p.B, Q @ p.b)
    M2 = sched.M2
    if isinstance(M2, ProxFriendlyMetric):
        M2 = ProxFriendlyMetric(M2.tau, M2.c, mixed.B)
    cfg = SolveConfig(max_iters=50, tol_kkt=1e-300, tol_feas=1e-300)
    runs = [prox_ama_run(p, sched, s0, cfg).iterates,
            prox_ama_run(mixed, ParameterSchedule(sched.c, sched.M1, M2),
                         PrimalDualState(s0.x, s0.z, Q @ s0.y), cfg).iterates]
    assert runs[0].status == runs[1].status and len(runs[0].table) == len(runs[1].table)
    for want, got in zip(runs[0].samples, runs[1].samples):
        w, g = want.state, got.state
        scale = 1e-10 * np.linalg.norm(np.concatenate((w.x, w.z, w.y)))
        for a, b in ((w.x, g.x), (w.z, g.z), (Q @ w.y, g.y)):
            assert np.linalg.norm(b - a) <= scale
    verdicts = [validate(q, sched.c, sched.M1, m2, 0.005, default_grid()).passed
                for q, m2 in ((p, sched.M2), (mixed, M2))]
    assert verdicts[0] == verdicts[1]
