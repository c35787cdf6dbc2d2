"""Property tests on small random dense problems with a prox-friendly M2.

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
    DenseMap,
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
    energy,
    example_problem,
    example_start,
    integrate,
    prox_ama_run,
    solve_z_subproblem,
)
from amaflow.dynamics import alternating_update

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
        A=DenseMap(A), B=DenseMap(B), b=rng.standard_normal(n))
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
    M2 = sched.M2.at(t).as_matrix()
    Bt = p.B.matrix.T
    ax = p.A.matrix @ x_new
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
        h2 = QuadraticForm(DenseMap(G @ G.T / n), d)
        p = TwoBlockProblem(p.f, p.h1, p.g, h2, p.A, p.B, p.b)
    c, tau = sched.c.value_at(t), sched.tau.value_at(t)
    up = alternating_update(p, 0.0, None, c, tau, x, z, y)
    A, B = p.A.matrix, p.B.matrix
    M2 = sched.M2.at(t).as_matrix()
    terms = [M2 @ z, B.T @ y, c * (B.T @ (A @ up.x - p.b)), p.h2.grad(z)]
    want_z = p.g.prox(tau, tau * (terms[0] + terms[1] - terms[2] - terms[3]))
    assert np.linalg.norm(up.z - want_z) <= 1e-12 * tau * sum(np.linalg.norm(v) for v in terms)
    parts = [p.b, A @ up.x, B @ up.z]
    want_w = c * (parts[0] - parts[1] - parts[2])
    assert np.linalg.norm(up.w - want_w) <= 1e-12 * c * sum(np.linalg.norm(v) for v in parts)
    assert np.array_equal(up.r, up.ax + up.bz - p.b)


@SETTINGS
@given(cases())
def test_energy_z_term_matches_dense_metric(case):
    p, sched, (x, z, y, dz), t = case
    ref = PrimalDualState(x, z, y)
    s = PrimalDualState(x, z + dz, y)
    c = sched.c.value_at(t)
    bdz = p.B.matrix @ dz
    dense = c * float(dz @ sched.M2.at(t).as_matrix() @ dz) + c * c * float(bdz @ bdz)
    got = energy(p, sched, t, s, ref, ref_checked=True).components[2]
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


@pytest.mark.parametrize("c, stop", [(50.0, 142), (20.0, 243)])
@pytest.mark.parametrize("solver", ["prox-ama", "ama"])
def test_diverging_runs_stop_at_the_same_iterate_for_every_cadence(c, stop, solver):
    p, s0 = example_problem(), example_start()
    c_sched = ConstantSchedule(c)
    sched = ParameterSchedule(c_sched, ZeroMetric(2),
                              ProxFriendlyMetric(CoupledReciprocal(0.99, c_sched),
                                                 c_sched, p.B))

    def run(r):
        cfg = SolveConfig(max_iters=3000, record_every=r)
        if solver == "ama":
            return ama_run(p, c_sched, s0, cfg)
        return prox_ama_run(p, sched, s0, cfg)

    full = run(1)
    assert full.status == "diverged" and full.iterations_used == stop
    for r in range(2, 10):
        assert_subsampled(run(r), full, r)
