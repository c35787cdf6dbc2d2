import math

import numpy as np
import pytest

from amaflow import (
    CapabilityError,
    ConditionError,
    ConstantDenseMetric,
    ConvergenceError,
    ConstantSchedule,
    CoupledReciprocal,
    DimensionMismatchError,
    GammaOutput,
    L1Norm,
    ParameterSchedule,
    PrimalDualState,
    ProxFriendlyMetric,
    QuadraticDistance,
    ReciprocalSqrt,
    ScaledIdentityMetric,
    SolveConfig,
    TwoBlockProblem,
    ZeroFunction,
    ZeroMetric,
    energy,
    example_schedule,
    example_start,
    gamma,
    integrate,
    prox_ama_run,
    prox_ama_step,
    regularized_argmin,
    solve_x_subproblem,
    solve_z_subproblem,
    validate,
)
from amaflow.diagnostics import trajectory_energies
from amaflow.dynamics import _snapshot
from amaflow.trajectory import DIVERGED_ABOVE
from oracles import metric_matrix

A_MAT = np.array([[2.0, 1.0], [-2.0, 1.0]]) / np.sqrt(8.0)
B_MAT = np.array([[-3.0, 0.0], [4.0, 0.0]]) / 5.0
ANCHOR = np.array([1.0, 0.0])

GOLDEN_U = np.array([-3.1421356237309492, -10.0])
GOLDEN_V = np.array([48.500049998724556, -3.96])
GOLDEN_W = np.array([8.098230804512045, -10.023233304448274])


# The entry points that read a schedule's metrics, each refusing a metric pair
# the problem cannot hold before any update.
ENTRIES = ["prox_ama_run", "integrate", "gamma", "energy", "validate"]


def entry_calls(p, sched, s0, ref):
    """A call of each of :data:`ENTRIES` on ``p`` under ``sched``."""
    return {
        "prox_ama_run": lambda: prox_ama_run(p, sched, s0, SolveConfig(max_iters=5)),
        "integrate": lambda: integrate(p, sched, s0, method="rk4", h=0.5, T=2.0),
        "gamma": lambda: gamma(p, sched, 0.0, s0),
        "energy": lambda: energy(p, sched, 0.0, s0, ref),
        "validate": lambda: validate(p, sched.c, sched.M1, sched.M2, 0.005, [0.0, 1.0]),
    }


def raw_field(x, z, y, c, tau):
    """The example's field written out with plain matrix algebra.

    Kept free of package internals so the main implementation is checked
    against an independently coded route, not against itself.
    """
    x_new = ANCHOR + A_MAT.T @ y
    m2 = np.eye(2) / tau - c * (B_MAT.T @ B_MAT)
    target = m2 @ z + B_MAT.T @ y - c * (B_MAT.T @ (A_MAT @ x_new))
    arg = tau * target
    z_new = np.sign(arg) * np.maximum(np.abs(arg) - tau, 0.0)
    w = c * (-(A_MAT @ x_new) - B_MAT @ z_new)
    return x_new - x, z_new - z, w


class TestXSubproblem:
    def test_unregularized_formula(self, ex_problem, rng):
        m1 = 0.0
        for _ in range(25):
            x = rng.uniform(-5, 5, 2)
            y = rng.uniform(-5, 5, 2)
            got = solve_x_subproblem(ex_problem, m1, x, y)
            assert got == pytest.approx(ANCHOR + A_MAT.T @ y, abs=1e-12)

    def test_zero_multiplier_lands_on_anchor(self, ex_problem):
        m1 = 0.0
        out = solve_x_subproblem(ex_problem, m1, ANCHOR, np.zeros(2))
        assert out == pytest.approx([1.0, 0.0])

    def test_identity_metric_averages(self):
        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(2), 1.0),
            h1=ZeroFunction(2),
            g=L1Norm(2, 1.0),
            h2=ZeroFunction(2),
            A=np.eye(2),
            B=np.eye(2),
            b=np.zeros(2),
        )
        out = solve_x_subproblem(p, 1.0, [2.0, 0.0], np.zeros(2))
        assert out == pytest.approx([1.0, 0.0])

    def test_negative_factor_refused(self, ex_problem):
        with pytest.raises(ConditionError, match="negative factor -0.5$"):
            solve_x_subproblem(ex_problem, -0.5, ANCHOR, np.zeros(2))

    @pytest.mark.parametrize("entry", ["prox_ama_run", "integrate", "gamma", "energy"])
    def test_dense_metric_refused(self, entry, ex_problem, ex_start, ex_reference, updates):
        # validate takes a dense M1; no run does.
        c = ConstantSchedule(0.25)
        sched = ParameterSchedule(c, ConstantDenseMetric(np.eye(2)), ZeroMetric(2))
        validate(ex_problem, c, sched.M1, sched.M2, 0.005, [0.0, 1.0])
        with pytest.raises(CapabilityError,
                           match="^x-subproblem supports only zero or scaled-identity M1$"):
            entry_calls(ex_problem, sched, ex_start, ex_reference)[entry]()
        assert updates == []

    def test_contraction_in_multiplier(self, ex_problem, rng):
        # the map y -> new x is ||A||/sigma Lipschitz when M1 = 0
        m1 = 0.0
        x = np.array([0.3, -0.4])
        bound = ex_problem.norm_A / ex_problem.f.strong_convexity
        for _ in range(100):
            y1, y2 = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
            d_out = np.linalg.norm(
                solve_x_subproblem(ex_problem, m1, x, y1)
                - solve_x_subproblem(ex_problem, m1, x, y2))
            assert d_out <= bound * np.linalg.norm(y1 - y2) + 1e-9


class TestZSubproblem:
    def test_small_pull_is_absorbed(self, ex_problem):
        y = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        out = solve_z_subproblem(ex_problem, None, 0.25, 1.0, np.zeros(2), y, np.zeros(2))
        assert out == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_prox_path_satisfies_stationarity(self, ex_problem, rng):
        tau = 3.96
        m2 = metric_matrix(ProxFriendlyMetric(ConstantSchedule(tau), ConstantSchedule(0.25),
                                              ex_problem.B), 0.0, B_MAT)
        for _ in range(30):
            z = rng.uniform(-6, 6, 2)
            y = rng.uniform(-3, 3, 2)
            x_new = rng.uniform(-3, 3, 2)
            target = (m2 @ z + B_MAT.T @ y
                      - 0.25 * (B_MAT.T @ (A_MAT @ x_new)))
            z_new = solve_z_subproblem(ex_problem, None, 0.25, tau, z, y, x_new)
            # optimality: target - z_new/tau must be an l1 subgradient at z_new
            g = target - z_new / tau
            assert np.all(np.abs(g) <= 1.0 + 1e-10)
            live = np.abs(z_new) > 1e-12
            assert np.allclose(g[live], np.sign(z_new[live]), atol=1e-10)

    def test_general_metric_matches_linear_solve(self, rng):
        # smooth g turns the z-subproblem into a linear system we can solve
        # directly; the iterative general-metric path must agree
        m2_mat = np.array([[0.5, 0.1], [0.1, 0.7]])
        w = 1.3
        d_z = np.array([0.2, -0.5])
        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(2), 1.0),
            h1=ZeroFunction(2),
            g=QuadraticDistance(d_z, w),
            h2=ZeroFunction(2),
            A=np.eye(2),
            B=np.eye(2),
            b=np.zeros(2),
        )
        c = 0.3
        m2 = m2_mat
        for _ in range(20):
            z = rng.uniform(-4, 4, 2)
            y = rng.uniform(-4, 4, 2)
            x_new = rng.uniform(-4, 4, 2)
            got = solve_z_subproblem(p, m2, c, None, z, y, x_new)
            target = m2_mat @ z + y - c * x_new
            expect = np.linalg.solve(c * np.eye(2) + m2_mat + w * np.eye(2),
                                     target + w * d_z)
            assert got == pytest.approx(expect, abs=1e-8)

    def test_resolvent_contraction(self, rng):
        m2_mat = np.array([[0.5, 0.1], [0.1, 0.7]])
        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(2), 1.0),
            h1=ZeroFunction(2),
            g=L1Norm(2, 1.0),
            h2=ZeroFunction(2),
            A=np.eye(2),
            B=np.eye(2),
            b=np.zeros(2),
        )
        c = 0.3
        beta = c + float(np.linalg.eigvalsh(m2_mat)[0])
        m2 = m2_mat
        z = np.array([0.1, 0.2])
        x_new = np.array([-0.3, 0.4])
        for _ in range(100):
            y1, y2 = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)
            z1 = solve_z_subproblem(p, m2, c, None, z, y1, x_new)
            z2 = solve_z_subproblem(p, m2, c, None, z, y2, x_new)
            # target shift is B*(y1-y2) = y1-y2; resolvent gain is 1/beta
            assert np.linalg.norm(z1 - z2) <= np.linalg.norm(y1 - y2) / beta + 1e-7

    def test_nonpositive_tau_refused(self, ex_problem):
        with pytest.raises(ConditionError):
            solve_z_subproblem(ex_problem, None, 0.25, 0.0, np.zeros(2), np.zeros(2),
                               np.zeros(2))


class TestRegularizedArgmin:
    def test_negative_identity_refused(self):
        with pytest.raises(ConditionError):
            regularized_argmin(L1Norm(2, 1.0), -0.5 * np.eye(2), np.zeros(2))

    def test_singular_dense_metric_gated(self):
        q = np.diag([1.0, 0.0])
        with pytest.raises(ConditionError):
            regularized_argmin(L1Norm(2, 1.0), q, np.zeros(2))

    def test_gate_relaxation_allows_attainable_case(self):
        q = np.diag([1.0, 0.0])
        # strongly convex objective keeps the minimum attained even though
        # the metric is singular
        out = regularized_argmin(QuadraticDistance(np.zeros(2), 1.0), q,
                                 np.array([2.0, 3.0]), require_uniform=False)
        assert out == pytest.approx([1.0, 3.0], abs=1e-8)

    def test_inner_loop_stops_on_a_relative_step(self):
        # At 1e12 the iterates move by rounding, far above an absolute 1e-10.
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 4))
        q = m @ m.T + 0.5 * np.eye(4)
        target = rng.standard_normal(4) * 1e12
        out = regularized_argmin(L1Norm(4, 1.0), q, target)
        exact = np.linalg.solve(q, target - np.sign(out))
        assert np.linalg.norm(out - exact) <= 1e-8 * np.linalg.norm(exact)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("helper", ["regularized_argmin", "solve_z_subproblem", "gamma",
                                        "prox_ama_step"])
    @pytest.mark.parametrize("target", [1e160, math.nan])
    def test_inner_loop_fails_on_a_point_past_the_float_range(self, ex_problem, helper,
                                                              target):
        # Past |p| = 1.3e154 the squared norm is inf, and a relative step test
        # would pass after one step, with Q p - target off by about 3e159. The
        # public helpers that reach the loop, the last three with a constant
        # dense M2 from z = (target, target), raise without numpy's warning.
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        z, zero = np.array([target, target]), np.zeros(2)
        K = np.array([[0.6, 0.1], [0.1, 0.4]])
        sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2),
                                  ConstantDenseMetric(K))
        calls = {
            "regularized_argmin": lambda: regularized_argmin(L1Norm(2, 0.1), q, z),
            "solve_z_subproblem": lambda: solve_z_subproblem(
                ex_problem, K, 0.25, None, z, zero, zero),
            "gamma": lambda: gamma(ex_problem, sched, 0.0, PrimalDualState(zero, z, zero)),
            "prox_ama_step": lambda: prox_ama_step(ex_problem, 0.0, K, 0.25,
                                                   PrimalDualState(zero, z, zero)),
        }
        with pytest.raises(ConvergenceError, match="not finite"):
            calls[helper]()


class TestGamma:
    def test_golden_value_at_start(self, ex_problem, ex_sched_c025, ex_start):
        out = gamma(ex_problem, ex_sched_c025, 0.0, ex_start)
        assert out.u == pytest.approx(GOLDEN_U, abs=1e-12)
        assert out.v == pytest.approx(GOLDEN_V, abs=1e-12)
        assert out.w == pytest.approx(GOLDEN_W, abs=1e-12)

    def test_matches_raw_algebra_on_probes(self, ex_problem, rng):
        for c_val, tau_c in ((0.25, 0.99), (1.99, 0.25), (0.6, 0.7)):
            sched = ParameterSchedule(
                ConstantSchedule(c_val),
                ZeroMetric(2),
                ProxFriendlyMetric(ConstantSchedule(tau_c / c_val),
                                   ConstantSchedule(c_val), ex_problem.B),
            )
            for _ in range(10):
                s = PrimalDualState(rng.uniform(-8, 8, 2), rng.uniform(-8, 8, 2),
                                    rng.uniform(-8, 8, 2))
                out = gamma(ex_problem, sched, 0.0, s)
                u, v, w = raw_field(s.x, s.z, s.y, c_val, tau_c / c_val)
                assert out.u == pytest.approx(u, abs=1e-12)
                assert out.v == pytest.approx(v, abs=1e-12)
                assert out.w == pytest.approx(w, abs=1e-12)

    def test_vanishes_at_saddle(self, ex_problem, ex_reference):
        sched = example_schedule("c025", 0.99, ex_problem)
        for t in (0.0, 1.0, 10.0, 100.0):
            assert gamma(ex_problem, sched, t, ex_reference).norm <= 1e-8

    def test_norm_property(self):
        out = GammaOutput(np.array([3.0, 0.0]), np.array([0.0, 4.0]), np.zeros(2))
        assert out.norm == pytest.approx(5.0)


class TestIntegrate:
    def test_argument_validation(self, ex_problem, ex_sched_c025, ex_start):
        with pytest.raises(ValueError):
            integrate(ex_problem, ex_sched_c025, ex_start, method="heun")
        with pytest.raises(ValueError):
            integrate(ex_problem, ex_sched_c025, ex_start, h=0.0)
        with pytest.raises(ValueError):
            integrate(ex_problem, ex_sched_c025, ex_start, h=1.5)
        with pytest.raises(ValueError):
            integrate(ex_problem, ex_sched_c025, ex_start, h=0.01, T=0.005)
        with pytest.raises(ValueError):
            integrate(ex_problem, ex_sched_c025, ex_start, record_every=0)

    @pytest.mark.parametrize("bad", [2.5, True, math.nan, "3"])
    def test_record_every_must_be_an_integer(self, bad, ex_problem, ex_sched_c025, ex_start):
        # 2.5 recorded every 5th step.
        with pytest.raises(ValueError, match="record_every must be an integer"):
            integrate(ex_problem, ex_sched_c025, ex_start, method="euler", h=0.5, T=5.0,
                      record_every=bad)

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_a_non_finite_horizon_is_refused(self, T, ex_problem, ex_sched_c025, ex_start):
        with pytest.raises(ValueError, match="horizon must be finite"):
            integrate(ex_problem, ex_sched_c025, ex_start, method="euler", h=0.5, T=T)

    def test_recording_cadence(self, ex_problem, ex_sched_c025, ex_start):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler",
                         h=0.1, T=1.0, record_every=3)
        assert traj.times() == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])
        assert traj.final is traj.samples[-1]
        assert traj.method == "euler"
        assert traj.step == 0.1

    def test_unit_step_euler_is_the_discrete_iteration(
            self, ex_problem, ex_sched_c025, ex_start):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler",
                         h=1.0, T=10.0)
        cfg = SolveConfig(max_iters=10, tol_kkt=1e-15, tol_feas=1e-15)
        run = prox_ama_run(ex_problem, ex_sched_c025, ex_start, cfg)
        assert np.array_equal(traj.final.state.x, run.final.x)
        assert np.array_equal(traj.final.state.z, run.final.z)
        assert np.array_equal(traj.final.state.y, run.final.y)

    def test_energy_of_every_recorded_sample(self, ex_problem, ex_sched_c025,
                                             ex_start, ex_reference):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="rk4",
                         h=0.1, T=1.0)
        es = trajectory_energies(traj, ex_problem, ex_sched_c025, ex_reference)
        assert len(es) == len(traj.samples)
        assert all(e >= 0.0 for e in es)

    def test_subproblem_failure_carries_partial_trajectory(
            self, ex_problem, ex_start):
        # zero M2 over the rank-deficient second operator leaves the
        # z-subproblem without a uniformly positive metric
        sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2),
                                  ZeroMetric(2))
        partial = integrate(ex_problem, sched, ex_start, method="euler", h=0.5, T=2.0)
        assert len(partial.samples) == 1
        assert partial.samples[0].t == 0.0
        assert "aborted at t=0" in partial.message
        assert partial.status == "error"


def textbook(p, sched, s0, method, h, steps):
    """Every state of explicit Euler or classic RK4 over the public field."""
    def shifted(s, k, f):
        return PrimalDualState(s.x + k.u * f, s.z + k.v * f, s.y + k.w * f)

    states = [s0]
    s = s0
    for n in range(steps):
        t = n * h
        k1 = gamma(p, sched, t, s)
        if method == "euler":
            s = shifted(s, k1, h)
        else:
            k2 = gamma(p, sched, t + h / 2, shifted(s, k1, h / 2))
            k3 = gamma(p, sched, t + h / 2, shifted(s, k2, h / 2))
            k4 = gamma(p, sched, t + h, shifted(s, k3, h))
            s = PrimalDualState(s.x + (k1.u + 2 * k2.u + 2 * k3.u + k4.u) * (h / 6),
                                s.z + (k1.v + 2 * k2.v + 2 * k3.v + k4.v) * (h / 6),
                                s.y + (k1.w + 2 * k2.w + 2 * k3.w + k4.w) * (h / 6))
        states.append(s)
    return states


def random_problem(n=5, seed=5):
    """A dense problem with smooth h1, h2 and M1 = 0.5 Id, so every term of the
    field is exercised."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    p = TwoBlockProblem(
        f=QuadraticDistance(rng.standard_normal(n), 1.5),
        h1=QuadraticDistance(rng.standard_normal(n), 0.3),
        g=L1Norm(n, 0.7), h2=QuadraticDistance(rng.standard_normal(n), 0.2),
        A=rng.standard_normal((n, n)) + 2.0 * np.eye(n),
        B=B / np.linalg.norm(B, 2), b=rng.standard_normal(n))
    c = ConstantSchedule(0.5)
    sched = ParameterSchedule(c, ScaledIdentityMetric(ConstantSchedule(0.5), n),
                              ProxFriendlyMetric(CoupledReciprocal(0.9, c), c, p.B))
    s0 = p.state(*(rng.standard_normal(n) for _ in range(3)))
    return p, sched, s0


class TestIntegratorsAreTheTextbookSchemes:
    """The integrators equal a plain loop over :func:`gamma`, bit for bit."""

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("case", ["example", "random"])
    def test_every_state_equals_the_textbook_loop(self, case, method, ex_problem,
                                                  ex_start):
        if case == "example":
            p, s0 = ex_problem, ex_start
            sched = example_schedule("c1-decay", 0.99, p)
        else:
            p, sched, s0 = random_problem()
        h, steps = 0.05, 40
        traj = integrate(p, sched, s0, method=method, h=h, T=h * steps)
        states = textbook(p, sched, s0, method, h, steps)
        assert len(traj.samples) == len(states) == steps + 1
        for smp, s in zip(traj.samples, states):
            for key in ("x", "z", "y"):
                assert np.array_equal(getattr(smp.state, key), getattr(s, key))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestIntegrateDivergence:
    @staticmethod
    def large_penalty(p):
        c = ConstantSchedule(50.0)
        return ParameterSchedule(c, ZeroMetric(2),
                                 ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B))

    def test_stops_at_the_first_recorded_sample_past_the_bound(self, ex_problem, ex_start):
        # Only recorded samples are judged: the solver, which judges every
        # state, stops at 138, between the recorded t = 130 and 140.
        sched = self.large_penalty(ex_problem)
        traj = integrate(ex_problem, sched, ex_start, method="euler", h=1.0, T=3000.0,
                         record_every=10)
        assert traj.message == "integration diverged at t=140: residual NaN or past 1e+150"
        assert traj.status == "diverged"
        *before, last = traj.samples
        assert last.t == 140.0
        assert not max(last.feas, last.kkt.rx) <= DIVERGED_ABOVE
        assert all(max(smp.feas, smp.kkt.rx) <= DIVERGED_ABOVE for smp in before)
        run = prox_ama_run(ex_problem, sched, ex_start,
                           SolveConfig(max_iters=3000, record_every=10))
        assert run.status == "diverged" and run.iterations_used == 138
        assert [a.t for a in before] == [b.t for b in run.iterates.samples[:-1]]
        for a, b in zip(before, run.iterates.samples):
            for key in ("x", "z", "y"):
                assert np.array_equal(getattr(a.state, key), getattr(b.state, key))
            assert a.kkt == b.kkt and a.feas == b.feas

    def test_rk4_stops_too(self, ex_problem, ex_start):
        traj = integrate(ex_problem, self.large_penalty(ex_problem), ex_start,
                         method="rk4", h=1.0, T=3000.0, record_every=10)
        last = traj.final
        assert traj.status == "diverged"
        assert f"diverged at t={last.t:g}" in traj.message
        assert not all(math.isfinite(v) for v in last.kkt)


class TestBoundaryChecks:
    """Runs check their start once; public helpers still check what they get."""

    @pytest.mark.parametrize("block", ["x", "z", "y"])
    @pytest.mark.parametrize("run", ["prox-ama", "ama", "integrate"])
    def test_wrong_length_start_fails_before_any_update(
            self, run, block, ex_problem, updates):
        from amaflow import ama_run

        # plain arrays, whose products check no lengths: the run itself must
        # catch the start
        p = TwoBlockProblem(f=ex_problem.f, h1=ex_problem.h1, g=ex_problem.g,
                            h2=ex_problem.h2, A=A_MAT, B=B_MAT, b=ex_problem.b)
        sched = example_schedule("c025", 0.99, p)

        blocks = {"x": np.zeros(2), "z": np.zeros(2), "y": np.zeros(2)}
        blocks[block] = np.zeros(3)
        s0 = PrimalDualState(**blocks)
        cfg = SolveConfig(max_iters=5)
        with pytest.raises(DimensionMismatchError):
            if run == "prox-ama":
                prox_ama_run(p, sched, s0, cfg)
            elif run == "ama":
                ama_run(p, ConstantSchedule(0.25), s0, cfg)
            else:
                integrate(p, sched, s0, method="rk4", h=0.5, T=1.0)
        assert updates == []

    def test_public_helpers_accept_lists(self, ex_problem, ex_sched_c025):
        p, sched = ex_problem, ex_sched_c025
        m1, c, tau = 0.0, 0.25, sched.tau.value_at(0.0)
        x, z, y = [1.0, -2.0], [0.5, 3.0], [-1.0, 2.0]
        arr = [np.array(v) for v in (x, z, y)]
        assert np.array_equal(solve_x_subproblem(p, m1, x, y),
                              solve_x_subproblem(p, m1, arr[0], arr[2]))
        assert np.array_equal(solve_z_subproblem(p, None, c, tau, z, y, x),
                              solve_z_subproblem(p, None, c, tau, arr[1], arr[2], arr[0]))
        assert np.array_equal(regularized_argmin(p.g, 2.0 * np.eye(2), x),
                              regularized_argmin(p.g, 2.0 * np.eye(2), arr[0]))
        listed = gamma(p, sched, 0.0, PrimalDualState(x, z, y))
        assert np.array_equal(listed.u, gamma(p, sched, 0.0, PrimalDualState(*arr)).u)
        assert np.array_equal(p.f.prox(1.0, x), p.f.prox(1.0, arr[0]))

    def test_public_helpers_reject_wrong_lengths(self, ex_problem, ex_sched_c025):
        p, sched = ex_problem, ex_sched_c025
        m1, c, tau = 0.0, 0.25, sched.tau.value_at(0.0)
        good, bad = np.zeros(2), np.zeros(3)
        calls = [
            lambda: solve_x_subproblem(p, m1, bad, good),
            lambda: solve_x_subproblem(p, m1, good, bad),
            lambda: solve_z_subproblem(p, None, c, tau, bad, good, good),
            lambda: solve_z_subproblem(p, None, c, tau, good, bad, good),
            lambda: solve_z_subproblem(p, None, c, tau, good, good, bad),
            lambda: regularized_argmin(p.g, 2.0 * np.eye(2), bad),
            lambda: gamma(p, sched, 0.0, PrimalDualState(bad, good, good)),
            lambda: gamma(p, sched, 0.0, PrimalDualState(good, bad, good)),
            lambda: gamma(p, sched, 0.0, PrimalDualState(good, good, bad)),
            lambda: p.f.prox(1.0, bad),
            lambda: p.g.prox(1.0, bad),
            lambda: p.h1.grad(bad),
            lambda: p.kkt_residual(PrimalDualState(good, good, bad)),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatchError):
                call()


class TestProxFriendlyMetricOfAnotherRun:
    """The one-prox z-step and the (c/tau) energy term hold only for a
    prox-friendly M2 on the run's c and the problem's B."""

    @staticmethod
    def other_c(p):
        c9 = ConstantSchedule(0.9)
        M2 = ProxFriendlyMetric(CoupledReciprocal(0.2, c9), c9, p.B)
        return (ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2), M2),
                ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2),
                                  ConstantDenseMetric(metric_matrix(M2, 0.0, p.B))))

    def test_another_c_runs_as_its_dense_matrix(self, ex_problem, ex_start, ex_reference,
                                                decompositions):
        mismatch, dense = self.other_c(ex_problem)
        cfg = SolveConfig(max_iters=60, record_every=7)
        a = prox_ama_run(ex_problem, mismatch, ex_start, cfg)
        assert decompositions["eigvalsh"] == 1  # one coupling while M2 is unchanged
        b = prox_ama_run(ex_problem, dense, ex_start, cfg)
        assert a.status == b.status and a.iterations_used == b.iterations_used
        np.testing.assert_allclose(a.iterates.table, b.iterates.table, rtol=1e-12, atol=0)
        a, b = (integrate(ex_problem, s, ex_start, method="rk4", h=0.5, T=5.0)
                for s in (mismatch, dense))
        np.testing.assert_allclose(a.table, b.table, rtol=1e-12, atol=0)
        ea, eb = (trajectory_energies(t, ex_problem, s, ex_reference)
                  for t, s in ((a, mismatch), (b, dense)))
        np.testing.assert_allclose(ea, eb, rtol=1e-12, atol=0)
        a, b = (energy(ex_problem, s, 0.0, ex_start, ex_reference) for s in (mismatch, dense))
        np.testing.assert_allclose(a.components, b.components, rtol=1e-12, atol=0)

    def test_another_c_forms_its_closed_form_bit_for_bit(self, ex_problem):
        # K = Id/tau - c2 B*B at every t, for a decaying c2 of the metric's own.
        c2 = ReciprocalSqrt(1.1, 0.01)
        sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2), ProxFriendlyMetric(
            CoupledReciprocal(0.2, c2), c2, ex_problem.B))
        snap = _snapshot(ex_problem, sched)
        for t in (0.0, 1.5, 37.0):
            mu1, K, c, tau = snap(t)
            want = np.eye(2) / sched.M2.tau.value_at(t) - c2.value_at(t) * (B_MAT.T @ B_MAT)
            assert (mu1, c, tau) == (0.0, 0.25, None)
            assert np.array_equal(K, want)
            assert np.array_equal(K, metric_matrix(sched.M2, t, B_MAT))

    def test_an_equal_c_keeps_the_one_prox_step(self, ex_problem, ex_start, decompositions):
        c, equal = ConstantSchedule(0.25), ConstantSchedule(0.25)
        sched = ParameterSchedule(c, ZeroMetric(2),
                                  ProxFriendlyMetric(CoupledReciprocal(0.99, equal), equal,
                                                     ex_problem.B))
        same = example_schedule("c025", 0.99, ex_problem)
        cfg = SolveConfig(max_iters=40, record_every=3)
        a = prox_ama_run(ex_problem, sched, ex_start, cfg)
        assert decompositions["eigvalsh"] == 0
        assert np.array_equal(a.iterates.table,
                              prox_ama_run(ex_problem, same, ex_start, cfg).iterates.table)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("which", ["M1", "M2"])
    def test_another_b_is_refused_before_the_first_update(self, which, entry, ex_problem,
                                                          ex_start, ex_reference, updates):
        c = ConstantSchedule(0.25)
        metrics = {"M1": ZeroMetric(2), "M2": ZeroMetric(2),
                   which: ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, ex_problem.B * 0.5)}
        sched = ParameterSchedule(c, metrics["M1"], metrics["M2"])
        with pytest.raises(CapabilityError, match=f"^{which}: prox_friendly metric is built "
                                                  "on another B than the problem's$"):
            entry_calls(ex_problem, sched, ex_start, ex_reference)[entry]()
        assert updates == []


class TestMetricDimensions:
    """A metric of another size than its block is refused by every entry point
    that reads a schedule, before any update."""

    METRICS = {
        "M1 scaled identity": ("M1", lambda: ScaledIdentityMetric(ConstantSchedule(1.0), 5)),
        "M2 scaled identity": ("M2", lambda: ScaledIdentityMetric(ConstantSchedule(1.0), 3)),
        "M2 constant dense": ("M2", lambda: ConstantDenseMetric(np.eye(3))),
    }

    @pytest.mark.parametrize("metric", sorted(METRICS))
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_refused(self, entry, metric, ex_problem, ex_start, ex_reference, updates):
        which, build = self.METRICS[metric]
        metrics = {"M1": ZeroMetric(2), "M2": ZeroMetric(2), which: build()}
        sched = ParameterSchedule(ConstantSchedule(0.25), metrics["M1"], metrics["M2"])
        want = 5 if metric.startswith("M1") else 3
        with pytest.raises(DimensionMismatchError,
                           match=f"^{which}: expected dimension 2, got {want}$"):
            entry_calls(ex_problem, sched, ex_start, ex_reference)[entry]()
        assert updates == []


class TestHelperArrayDimensions:
    """The single-step helpers check the size of the K or Q array they are
    given, and name the metric and the block size."""

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2)])
    @pytest.mark.parametrize("helper", ["solve_z_subproblem", "prox_ama_step",
                                        "regularized_argmin"])
    def test_refused(self, helper, shape, ex_problem, ex_start):
        M, s = np.eye(*shape), ex_start
        calls = {
            "solve_z_subproblem": ("M2", lambda: solve_z_subproblem(ex_problem, M, 0.25, None,
                                                                    s.z, s.y, s.x)),
            "prox_ama_step": ("M2", lambda: prox_ama_step(ex_problem, 0.0, M, 0.25, s)),
            "regularized_argmin": ("Q", lambda: regularized_argmin(ex_problem.g, M,
                                                                   np.zeros(2))),
        }
        what, call = calls[helper]
        with pytest.raises(DimensionMismatchError,
                           match=f"^{what}: expected dimension 2, got 3$"):
            call()

    def test_the_prox_branch_does_not_read_k(self, ex_problem, ex_start):
        s = ex_start
        got = solve_z_subproblem(ex_problem, np.eye(3), 0.25, 3.96, s.z, s.y, s.x)
        want = solve_z_subproblem(ex_problem, None, 0.25, 3.96, s.z, s.y, s.x)
        assert got.tobytes() == want.tobytes()
        got = prox_ama_step(ex_problem, 0.0, np.eye(3), 0.25, s, 3.96)
        want = prox_ama_step(ex_problem, 0.0, None, 0.25, s, 3.96)
        assert got.z.tobytes() == want.z.tobytes()
