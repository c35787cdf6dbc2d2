import math

import numpy as np
import pytest

from amaflow import (
    CapabilityError,
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    L1Norm,
    MetricSchedule,
    ParameterSchedule,
    PrimalDualState,
    ProxFriendlyMetric,
    QuadraticDistance,
    ReciprocalQuadratic,
    ScaledIdentityMetric,
    SolveConfig,
    TwoBlockProblem,
    ZeroFunction,
    ZeroMetric,
    ama_run,
    example_problem,
    example_schedule,
    example_start,
    integrate,
    prox_ama_run,
    prox_ama_step,
)
from amaflow.trajectory import DIVERGED_ABOVE
from oracles import step_params
from test_dynamics import ENTRIES, entry_calls

A_T = (np.array([[2.0, 1.0], [-2.0, 1.0]]) / np.sqrt(8.0)).T
Y_STAR = np.array([-1.0, 1.0]) / np.sqrt(2.0)


class TestUnequalTolerances:
    """The z-residual is held to tol_kkt, as the x-residual is; tol_feas bounds
    the feasibility residual alone."""

    @staticmethod
    def start_with_z_residual(rz):
        # x = d and y = 0 make the x-residual 0, b = A x + B z makes the
        # feasibility residual 0, and z = e + 2 rz gives the z-residual
        # |z - prox_g(z)| = |z - e| / 2 = rz.
        d, e = np.array([0.5, -1.0]), np.array([1.0, 2.0])
        A, B = np.array([[1.0, 0.5], [-0.5, 1.0]]), np.array([[0.8, 0.0], [0.3, 0.6]])
        z = e + np.array([2.0 * rz, 0.0])
        p = TwoBlockProblem(f=QuadraticDistance(d, 1.0), h1=ZeroFunction(2),
                            g=QuadraticDistance(e, 1.0), h2=ZeroFunction(2),
                            A=A, B=B, b=A.dot(d) + B.dot(z))
        c = ConstantSchedule(0.25)
        sched = ParameterSchedule(c, ZeroMetric(2),
                                  ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B))
        return p, sched, p.state(d, z, np.zeros(2))

    def test_the_start_state_has_the_residuals_it_is_built_for(self):
        p, _, s0 = self.start_with_z_residual(1e-4)
        kkt = p.kkt_residual(s0)
        assert kkt.feas <= 1e-15 and kkt.rx == 0.0 and kkt.rz == pytest.approx(1e-4, rel=1e-9)

    @pytest.mark.parametrize("tol_kkt, tol_feas, stops_at_start", [
        (1e-3, 1e-6, True), (1e-6, 1e-3, False)])
    def test_the_z_residual_is_read_against_tol_kkt(self, tol_kkt, tol_feas,
                                                    stops_at_start):
        p, sched, s0 = self.start_with_z_residual(1e-4)
        res = prox_ama_run(p, sched, s0, SolveConfig(max_iters=2000, tol_kkt=tol_kkt,
                                                     tol_feas=tol_feas))
        assert res.status == "converged"
        assert (res.iterations_used == 0) == stops_at_start
        feas, rx, rz = res.iterates.table[-1, 7:]
        assert rx <= tol_kkt and rz <= tol_kkt and feas <= tol_feas


class TestStep:
    def test_saddle_is_a_fixed_point(self, ex_problem, ex_sched_c025, ex_reference):
        s = ex_reference
        tau = ex_sched_c025.tau.value_at(0.0)
        out = prox_ama_step(ex_problem, 0.0, None, 0.25, s, tau)
        assert out.x == pytest.approx(s.x, abs=1e-10)
        assert out.z == pytest.approx(s.z, abs=1e-10)
        assert out.y == pytest.approx(s.y, abs=1e-10)

    def test_first_iterate_formula(self, ex_problem, ex_sched_c025, ex_start):
        out = prox_ama_step(ex_problem, 0.0, None, 0.25, ex_start,
                            ex_sched_c025.tau.value_at(0.0))
        assert out.x == pytest.approx(np.array([1.0, 0.0]) + A_T @ ex_start.y,
                                      abs=1e-12)
        assert out.t == pytest.approx(1.0)

    def test_run_samples_schedules_at_iteration_index(self, ex_problem, ex_start):
        # two manual steps with the schedule read at t=0 and t=1 must equal a
        # two-iteration run
        sched = example_schedule("c1-decay", 0.99, ex_problem)
        s = ex_start
        for k in (0.0, 1.0):
            mu1, K, c, tau = step_params(sched, k, ex_problem.B)
            s = prox_ama_step(ex_problem, mu1, K, c, s, tau)
        run = prox_ama_run(ex_problem, sched, ex_start,
                           SolveConfig(max_iters=2, tol_kkt=1e-15, tol_feas=1e-15))
        assert np.array_equal(run.final.x, s.x)
        assert np.array_equal(run.final.z, s.z)
        assert np.array_equal(run.final.y, s.y)


class TestProxAmaRun:
    def test_example_converges(self, ex_problem, ex_sched_c025, ex_start):
        cfg = SolveConfig(max_iters=20000, tol_kkt=1e-8, tol_feas=1e-8)
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start, cfg)
        assert res.status == "converged"
        assert res.final.x == pytest.approx([0.0, 0.0], abs=1e-6)
        assert res.final.z == pytest.approx([0.0, 0.0], abs=1e-6)
        assert res.final.y == pytest.approx(Y_STAR, abs=1e-6)
        assert res.iterations_used < 20000
        assert res.iterates.final.state is res.final

    def test_larger_penalty_reaches_the_same_saddle(self, ex_problem, ex_start):
        sched = example_schedule("c199", 0.25, ex_problem)
        cfg = SolveConfig(max_iters=20000, tol_kkt=1e-8, tol_feas=1e-8)
        res = prox_ama_run(ex_problem, sched, ex_start, cfg)
        assert res.status == "converged"
        assert res.final.x == pytest.approx([0.0, 0.0], abs=1e-4)
        assert res.final.y == pytest.approx(Y_STAR, abs=1e-4)

    def test_starting_at_the_saddle_costs_nothing(self, ex_problem, ex_sched_c025,
                                                  ex_reference, quick_cfg):
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_reference, quick_cfg)
        assert res.status == "converged"
        assert res.iterations_used == 0
        assert len(res.iterates.samples) == 1

    def test_max_iters_status(self, ex_problem, ex_sched_c025, ex_start):
        cfg = SolveConfig(max_iters=3, tol_kkt=1e-15, tol_feas=1e-15)
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start, cfg)
        assert res.status == "max_iters"
        assert res.iterations_used == 3
        assert res.final.t == pytest.approx(3.0)

    def test_recording_cadence(self, ex_problem, ex_sched_c025, ex_start):
        cfg = SolveConfig(max_iters=12, tol_kkt=1e-15, tol_feas=1e-15,
                          record_every=5)
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start, cfg)
        assert res.iterates.times() == pytest.approx([0.0, 5.0, 10.0, 12.0])

    def test_ill_posed_subproblem_reports_error(self, ex_problem, ex_start):
        sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2),
                                  ZeroMetric(2))
        res = prox_ama_run(ex_problem, sched, ex_start,
                           SolveConfig(max_iters=50, tol_kkt=1e-8, tol_feas=1e-8))
        assert res.status == "error"
        assert res.iterations_used == 0
        assert "not uniformly positive" in res.message
        assert len(res.iterates.samples) == 1


class LoggedMatrix(np.ndarray):
    """A matrix that logs ``(name, "apply")`` for each product it makes; its
    transpose logs ``(name, "adjoint")``. The solvers multiply by the problem's
    matrices directly, so this is where their products are seen."""

    def __new__(cls, matrix, name, log):
        obj = np.asarray(matrix, dtype=float).view(cls)
        obj.name, obj.log, obj.op = name, log, "apply"
        return obj

    def __array_finalize__(self, obj):
        self.name = getattr(obj, "name", None)
        self.log = getattr(obj, "log", None)
        self.op = getattr(obj, "op", "apply")

    @property
    def T(self):
        view = super().T
        view.op = "adjoint" if self.op == "apply" else "apply"
        return view

    def dot(self, x):
        self.log.append((self.name, self.op))
        return self.view(np.ndarray).dot(x)


def logged_problem(rng, n=20):
    """A prox-friendly problem whose products with A and B go to the returned log."""
    log = []
    B = rng.standard_normal((n, n))
    p = TwoBlockProblem(
        f=QuadraticDistance(rng.standard_normal(n), 1.0), h1=ZeroFunction(n),
        g=L1Norm(n, 0.5), h2=ZeroFunction(n), A=rng.standard_normal((n, n)) + 3.0 * np.eye(n),
        B=B / np.linalg.norm(B, 2), b=rng.standard_normal(n))
    # The build keeps plain arrays; put logged views of the two in their place.
    for name in "AB":
        m = LoggedMatrix(getattr(p, name), name, log)
        setattr(p, name, m)
        setattr(p, name + "t", m.T)
    c = ConstantSchedule(1.0)
    sched = ParameterSchedule(c, ZeroMetric(n),
                              ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B))
    s0 = p.state(np.zeros(n), np.zeros(n), np.zeros(n))
    log.clear()
    return p, sched, s0, log


class TestMatvecCount:
    def test_prox_friendly_run_makes_five_matvecs_per_iteration(self, rng):
        p, sched, s0, log = logged_problem(rng)
        counts = {}
        for iters in (10, 50):
            log.clear()
            res = prox_ama_run(p, sched, s0, SolveConfig(max_iters=iters, tol_kkt=1e-300,
                                                         tol_feas=1e-300))
            assert res.iterations_used == iters
            counts[iters] = len(log)
        assert (counts[50] - counts[10]) / 40 <= 5
        assert counts[10] <= 5 * 10 + 4


PLAIN = [("A", "apply"), ("B", "adjoint"), ("B", "apply"), ("A", "adjoint")]
# The start state's A* y, B z and A x; its z-residual's B* y only where the
# stop rule reads it.
START = [("A", "adjoint"), ("B", "apply"), ("A", "apply")]


class TestPassPlan:
    """The order and number of matrix products per iteration."""

    @staticmethod
    def unreachable(iters, record_every):
        return SolveConfig(max_iters=iters, tol_kkt=1e-300, tol_feas=1e-300,
                           record_every=record_every)

    def test_iterations_stream_a_b_b_a(self, rng):
        # A recorded iteration makes the same four products: the B* y of the
        # z-residuals the stop rule does not read is one np.matvec over the
        # recorded rows, which calls no dot; the start state's included.
        p, sched, s0, log = logged_problem(rng)
        res = prox_ama_run(p, sched, s0, self.unreachable(12, 4))
        assert res.iterations_used == 12
        assert log == START + PLAIN * 12

    def test_unrecorded_run_makes_four_products_per_iteration(self, rng):
        p, sched, s0, log = logged_problem(rng)
        res = prox_ama_run(p, sched, s0, self.unreachable(50, 50))
        assert res.iterations_used == 50
        assert len(log) <= 4 * 50 + 5

    def test_unit_step_euler_makes_four_products_per_step(self, rng):
        p, sched, s0, log = logged_problem(rng)
        counts = {}
        for steps in (10, 50):
            log.clear()
            integrate(p, sched, s0, method="euler", h=1.0, T=float(steps),
                      record_every=steps)
            counts[steps] = len(log)
        assert (counts[50] - counts[10]) / 40 <= 4

    @pytest.mark.parametrize("record_every, products", [(1, 83), (10, 83)])
    def test_unit_step_euler_makes_the_products_of_the_discrete_run(
            self, rng, record_every, products):
        # 3 for the start and 4 per step, recorded or not: a recorded step's
        # A* y is the one the next step needs, and its z-residual's B* y is
        # made after the run, for all recorded rows at once.
        p, sched, s0, log = logged_problem(rng)
        integrate(p, sched, s0, method="euler", h=1.0, T=20.0, record_every=record_every)
        euler = list(log)
        log.clear()
        res = prox_ama_run(p, sched, s0, self.unreachable(20, record_every))
        assert res.iterations_used == 20
        assert len(euler) == products
        assert euler == log


class TestAmaRun:
    def test_example_converges_without_metrics(self, ex_problem, ex_start,
                                               ex_sched_c025):
        cfg = SolveConfig(max_iters=20000, tol_kkt=1e-6, tol_feas=1e-6)
        plain = ama_run(ex_problem, ConstantSchedule(0.25), ex_start, cfg)
        assert plain.status == "converged"
        metric = prox_ama_run(ex_problem, ex_sched_c025, ex_start, cfg)
        assert plain.final.x == pytest.approx(metric.final.x, abs=1e-3)
        assert plain.final.z == pytest.approx(metric.final.z, abs=1e-3)
        assert plain.final.y == pytest.approx(metric.final.y, abs=1e-3)

    def test_zero_metrics_reduce_prox_ama_to_ama(self, ex_start, rng):
        # on a problem with smooth g both solvers run the same inner path,
        # so the reduction is exact
        p = TwoBlockProblem(
            f=QuadraticDistance(np.array([2.0, -1.0]), 1.0),
            h1=ZeroFunction(2),
            g=QuadraticDistance(np.zeros(2), 0.7),
            h2=ZeroFunction(2),
            A=np.eye(2),
            B=np.eye(2),
            b=np.array([1.0, 1.0]),
        )
        s0 = PrimalDualState(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2),
                             rng.uniform(-3, 3, 2))
        cfg = SolveConfig(max_iters=40, tol_kkt=1e-12, tol_feas=1e-12)
        a = ama_run(p, ConstantSchedule(0.5), s0, cfg)
        sched = ParameterSchedule(ConstantSchedule(0.5), ZeroMetric(2), ZeroMetric(2))
        b = prox_ama_run(p, sched, s0, cfg)
        assert a.final.x == pytest.approx(b.final.x, abs=1e-12)
        assert a.final.z == pytest.approx(b.final.z, abs=1e-12)
        assert a.final.y == pytest.approx(b.final.y, abs=1e-12)

    def test_limit_against_hand_solution(self):
        d = np.array([2.0, -1.0])
        b = np.array([1.0, 1.0])
        p = TwoBlockProblem(
            f=QuadraticDistance(d, 1.0),
            h1=ZeroFunction(2),
            g=ZeroFunction(2),
            h2=ZeroFunction(2),
            A=np.eye(2),
            B=np.eye(2),
            b=b,
        )
        s0 = PrimalDualState(np.zeros(2), np.zeros(2), np.array([1.0, -2.0]))
        res = ama_run(p, ConstantSchedule(0.5), s0,
                      SolveConfig(max_iters=1000, tol_kkt=1e-10, tol_feas=1e-10))
        assert res.status == "converged"
        # stationarity forces the multiplier to zero, the first block to its
        # anchor, and the second block to soak up the constraint
        assert res.final.y == pytest.approx([0.0, 0.0], abs=1e-9)
        assert res.final.x == pytest.approx(d, abs=1e-9)
        assert res.final.z == pytest.approx(b - d, abs=1e-9)

    def test_requires_plain_smooth_parts(self, ex_start):
        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(2), 1.0),
            h1=QuadraticDistance(np.zeros(2), 1.0),
            g=ZeroFunction(2),
            h2=ZeroFunction(2),
            A=np.eye(2),
            B=np.eye(2),
            b=np.zeros(2),
        )
        with pytest.raises(CapabilityError):
            ama_run(p, ConstantSchedule(0.5), p.state(np.zeros(2), np.zeros(2),
                                                      np.zeros(2)), SolveConfig())


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolveConfig(tol_kkt=0.0)
        with pytest.raises(ValueError):
            SolveConfig(tol_feas=-1.0)
        with pytest.raises(ValueError):
            SolveConfig(record_every=0)

    @pytest.mark.parametrize("key", ["tol_kkt", "tol_feas"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_tolerances_must_be_finite(self, key, bad):
        with pytest.raises(ValueError, match="positive and finite"):
            SolveConfig(**{key: bad})

    def test_defaults(self):
        cfg = SolveConfig()
        assert cfg.max_iters == 20000
        assert cfg.tol_kkt == 1e-6
        assert cfg.tol_feas == 1e-6
        assert cfg.record_every == 1

    @pytest.mark.parametrize("key", ["max_iters", "record_every"])
    @pytest.mark.parametrize("bad", [2.5, 1.0 + 2**-52, True, False, math.inf, math.nan,
                                     "3", None])
    def test_run_sizes_must_be_integers(self, key, bad):
        # A fraction was a TypeError from range() (max_iters) or a cadence of
        # every 5th iterate at 2.5 (record_every); True ran one iteration.
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            SolveConfig(**{key: bad})

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_integral_run_sizes_are_ints(self, value):
        cfg = SolveConfig(max_iters=value, record_every=value)
        assert type(cfg.max_iters) is int and type(cfg.record_every) is int
        assert cfg.max_iters == cfg.record_every == 3

    def test_an_int_past_the_float_range_is_a_run_size(self, ex_problem, ex_sched_c025,
                                                       ex_start):
        # math.isfinite(10**400) raises OverflowError: an int is not converted
        cfg = SolveConfig(max_iters=10**400, record_every=10**400)
        assert cfg.max_iters == cfg.record_every == 10**400
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start, cfg)
        assert res.status == "converged" and len(res.iterates.table) == 2

    def test_an_integral_float_runs_as_its_int(self, ex_problem, ex_sched_c025, ex_start):
        runs = [prox_ama_run(ex_problem, ex_sched_c025, ex_start,
                             SolveConfig(max_iters=v, record_every=w))
                for v, w in ((50, 7), (50.0, 7.0))]
        assert runs[0].iterations_used == runs[1].iterations_used == 50
        assert runs[0].iterates.table.tobytes() == runs[1].iterates.table.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDivergence:
    @staticmethod
    def large_penalty(p):
        # c = 50 is far outside the admissible range 0 < c < 2 of the example
        c = ConstantSchedule(50.0)
        return ParameterSchedule(c, ZeroMetric(2),
                                 ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B))

    def test_stops_at_the_first_residual_past_the_bound(self, ex_problem, ex_start):
        res = prox_ama_run(ex_problem, self.large_penalty(ex_problem), ex_start,
                           SolveConfig(max_iters=300))
        assert (res.status, res.iterations_used) == ("diverged", 138)
        *before, last = res.iterates.samples
        assert last.t == res.iterations_used and last.state is res.final
        assert not max(last.feas, last.kkt.rx) <= DIVERGED_ABOVE
        assert all(max(smp.feas, smp.kkt.rx) <= DIVERGED_ABOVE for smp in before)
        assert all(math.isfinite(v) for smp in before for v in smp.kkt)
        assert res.message == "residual NaN or past 1e+150 at iteration 138"

    def test_diverged_sample_is_recorded_between_cadence_points(self, ex_problem,
                                                                 ex_start):
        full = prox_ama_run(ex_problem, self.large_penalty(ex_problem), ex_start,
                            SolveConfig(max_iters=300))
        sparse = prox_ama_run(ex_problem, self.large_penalty(ex_problem), ex_start,
                              SolveConfig(max_iters=300, record_every=100))
        k = full.iterations_used
        assert sparse.status == "diverged" and sparse.iterations_used == k
        assert sparse.iterates.times() == pytest.approx(
            [float(t) for t in range(0, k, 100)] + [float(k)])

    def test_plain_scheme_stops_diverged_not_in_the_inner_loop(self, ex_problem, ex_start):
        # Its general-M2 z-step runs the inner loop on iterates near 1e18, which
        # an absolute step test could not stop.
        res = ama_run(ex_problem, ConstantSchedule(50.0), ex_start,
                      SolveConfig(max_iters=3000))
        assert res.status == "diverged"
        assert res.iterations_used == 138


class TestExampleReference:
    def test_reference_is_the_final_state_of_a_fully_recorded_run(self, ex_reference):
        p = example_problem()
        sched = example_schedule("c025", 0.99, p)
        full = prox_ama_run(p, sched, example_start(),
                            SolveConfig(max_iters=100000, tol_kkt=1e-10, tol_feas=1e-10,
                                        record_every=1))
        assert full.status == "converged"
        assert len(full.iterates.samples) == full.iterations_used + 1
        for key in ("x", "z", "y"):
            assert np.array_equal(getattr(ex_reference, key), getattr(full.final, key))


class TestConstantCoupling:
    """The general-M2 z-step checks and decomposes c B*B + M2 once while it is
    constant: one eigvalsh gives both the positivity gate and the norm."""

    M2 = ConstantDenseMetric([[0.6, 0.1], [0.1, 0.4]])

    def manual(self, p, sched, s0, iters):
        s = s0
        for k in range(iters):
            t = float(k)
            mu1, K, c, tau = step_params(sched, t, p.B)
            s = prox_ama_step(p, mu1, K, c, s, tau)
        return s

    def test_constant_dense_run_decomposes_once(self, ex_problem, ex_start,
                                                decompositions):
        sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2), self.M2)
        res = prox_ama_run(ex_problem, sched, ex_start,
                           SolveConfig(max_iters=50, tol_kkt=1e-300, tol_feas=1e-300))
        assert res.iterations_used == 50
        assert decompositions == {"eigvalsh": 1, "eigh": 0, "svd": 0}
        s = self.manual(ex_problem, sched, ex_start, 50)
        for a, b in ((res.final.x, s.x), (res.final.z, s.z), (res.final.y, s.y)):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_coupling_ends_the_run_as_an_error(self):
        # B*B = 1e308 in its corner, so c B*B at c = 2 is inf: the coupling's
        # check refuses it before its eigenvalues, and the run ends error.
        p = TwoBlockProblem(QuadraticDistance([1.0, 0.0], 1.0), ZeroFunction(2),
                            L1Norm(2, 1.0), ZeroFunction(2), A_T.T,
                            np.array([[-0.6, 0.0], [0.8, 0.0]]) * 1e154,
                            np.zeros(2))
        sched = ParameterSchedule(ConstantSchedule(2.0), ZeroMetric(2), self.M2)
        res = prox_ama_run(p, sched, p.state([-10.0, 10.0], [0.0, 0.0], [1e-200, 0.0]),
                           SolveConfig(max_iters=50))
        assert (res.status, res.iterations_used) == ("error", 0)
        assert res.message == "matrix has non-finite entries"

    def test_integration_decomposes_once_per_run(self, ex_problem, ex_start,
                                                 decompositions):
        sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2), self.M2)
        for method in ("euler", "rk4"):
            integrate(ex_problem, sched, ex_start, method=method, h=0.5, T=5.0)
        assert decompositions == {"eigvalsh": 2, "eigh": 0, "svd": 0}

    def test_plain_scheme_norms_once(self, ex_problem, ex_start, decompositions):
        res = ama_run(ex_problem, ConstantSchedule(0.25), ex_start,
                      SolveConfig(max_iters=50, tol_kkt=1e-300, tol_feas=1e-300))
        assert res.iterations_used == 50
        assert decompositions == {"eigvalsh": 1, "eigh": 0, "svd": 0}

    def test_varying_penalty_rebuilds_every_update(self, ex_problem, ex_start,
                                                   decompositions):
        sched = ParameterSchedule(ReciprocalQuadratic(1.1, 0.3), ZeroMetric(2), self.M2)
        res = prox_ama_run(ex_problem, sched, ex_start,
                           SolveConfig(max_iters=20, tol_kkt=1e-300, tol_feas=1e-300))
        assert res.iterations_used == 20
        assert decompositions == {"eigvalsh": 20, "eigh": 0, "svd": 0}
        s = self.manual(ex_problem, sched, ex_start, 20)
        for a, b in ((res.final.x, s.x), (res.final.z, s.z), (res.final.y, s.y)):
            assert np.array_equal(a, b)

    def test_scaled_identity_run_decomposes_once(self, ex_problem, ex_start,
                                                 decompositions):
        cfg = SolveConfig(max_iters=50, tol_kkt=1e-300, tol_feas=1e-300)
        c = ConstantSchedule(0.25)
        res = prox_ama_run(ex_problem, ParameterSchedule(
            c, ZeroMetric(2), ScaledIdentityMetric(ConstantSchedule(0.5), 2)), ex_start, cfg)
        assert res.iterations_used == 50
        assert decompositions == {"eigvalsh": 1, "eigh": 0, "svd": 0}
        dense = prox_ama_run(ex_problem, ParameterSchedule(
            c, ZeroMetric(2), ConstantDenseMetric(0.5 * np.eye(2))), ex_start, cfg)
        assert len(res.iterates.samples) == len(dense.iterates.samples) == 51
        for a, b in zip(res.iterates.samples, dense.iterates.samples):
            for key in ("x", "z", "y"):
                assert np.array_equal(getattr(a.state, key), getattr(b.state, key))

    def test_changing_mu_rebuilds_the_coupling(self, ex_problem, ex_start,
                                               decompositions):
        class Growing(ConstantSchedule):
            def value_at(self, t):
                return self.value + 0.01 * t

        sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2),
                                  ScaledIdentityMetric(Growing(0.5), 2))
        res = prox_ama_run(ex_problem, sched, ex_start,
                           SolveConfig(max_iters=20, tol_kkt=1e-300, tol_feas=1e-300))
        assert res.iterations_used == 20
        assert decompositions == {"eigvalsh": 20, "eigh": 0, "svd": 0}
        s = self.manual(ex_problem, sched, ex_start, 20)
        for a, b in ((res.final.x, s.x), (res.final.z, s.z), (res.final.y, s.y)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("which", ["M1", "M2"])
    def test_other_metric_kinds_are_refused_before_the_first_update(
            self, which, entry, ex_problem, ex_start, ex_reference, updates):
        class Custom(MetricSchedule):
            kind = "custom"
            dim = 2

        metrics = {"M1": ZeroMetric(2), "M2": ZeroMetric(2), which: Custom()}
        sched = ParameterSchedule(ConstantSchedule(0.25), metrics["M1"], metrics["M2"])
        with pytest.raises(CapabilityError,
                           match=f"^{which}: metric kind 'custom' is not a shipped kind$"):
            entry_calls(ex_problem, sched, ex_start, ex_reference)[entry]()
        assert updates == []


def subtracting_run(p, c, tau, s0, iters):
    """Rows (x, z, y, feasibility) of ``iters`` prox-AMA iterations with M1 = 0,
    h1 = h2 = 0 and a prox-friendly M2, every ``- b`` written out."""
    A, B = p.A, p.B
    x, z, y = s0.x, s0.z, s0.y
    r = A.dot(x) + B.dot(z) - p.b
    rows = [np.concatenate([x, z, y, [math.sqrt(r.dot(r))]])]
    bz = B.dot(z)
    for _ in range(iters):
        x = p.f._conj_grad(A.T.dot(y))
        ax = A.dot(x)
        z = p.g._prox(tau, z + B.T.dot(y - (ax + bz - p.b) * c) * tau)
        bz = B.dot(z)
        r = ax + bz - p.b
        y = y + r * -c
        rows.append(np.concatenate([x, z, y, [math.sqrt(r.dot(r))]]))
    return np.array(rows)


class TestZeroRightHandSide:
    """A b of +0.0 entries skips ``- b``: ``v - 0.0`` is ``v`` for every float."""

    @pytest.mark.parametrize("b, skips", [((0.0, 0.0), True), ((-0.0, 0.0), False),
                                          ((0.0, 1e-300), False), ((0.0,), True),
                                          ((-0.0,), False)])
    def test_only_an_all_plus_zero_b_is_skipped(self, b, skips):
        n = len(b)
        p = TwoBlockProblem(QuadraticDistance(np.zeros(n), 1.0), ZeroFunction(n),
                            L1Norm(n, 1.0), ZeroFunction(n), np.eye(n),
                            np.eye(n), np.array(b))
        assert p.b_is_zero is skips

    @pytest.mark.parametrize("b", [(0.0, 0.0), (-0.0, 0.0), (0.0,), (-0.0,)])
    def test_runs_equal_the_subtracting_loop_bit_for_bit(self, b, rng):
        # Unit-step Euler, the solvers' loop with no tolerance to stop at.
        n = len(b)
        c, tau = 0.25, 0.99 / 0.25
        if n == 1:
            # A 1 x 1 product keeps a -0.0, and g = 0 keeps the z-step's sign,
            # so the sign of b's zero shows in z from the first step on.
            A = B = np.eye(1)
            d, g, s0 = np.array([-0.0]), ZeroFunction(1), PrimalDualState([-0.0], [-0.0], [-0.0])
        else:
            A = example_problem().A
            B = rng.standard_normal((n, n)) / 4.0
            d, g = rng.standard_normal(n), L1Norm(n, 0.5)
            s0 = PrimalDualState(*rng.uniform(-10.0, 10.0, (3, n)))
        p = TwoBlockProblem(QuadraticDistance(d, 1.0), ZeroFunction(n), g, ZeroFunction(n),
                            A, B, np.array(b))
        cs = ConstantSchedule(c)
        sched = ParameterSchedule(cs, ZeroMetric(n),
                                  ProxFriendlyMetric(CoupledReciprocal(0.99, cs), cs, p.B))
        want = subtracting_run(p, c, tau, s0, 40)
        traj = integrate(p, sched, s0, method="euler", h=1.0, T=40.0)
        assert traj.table[:, 1:2 + 3 * n].tobytes() == want.tobytes()
        assert p.feasibility_residual(traj.final.state) == want[-1, -1]
        if n == 1:
            assert (np.signbit(want[1:, 1]) == np.signbit(b[0])).all()

    @pytest.mark.parametrize("case", ["general", "rk4"])
    def test_skipping_equals_subtracting_on_every_path(self, case, rng):
        p = example_problem()
        assert p.b_is_zero
        subtracting = TwoBlockProblem(p.f, p.h1, p.g, p.h2, p.A, p.B, p.b)
        subtracting.b_is_zero = False
        s0 = PrimalDualState(*rng.uniform(-10.0, 10.0, (3, 2)))
        if case == "general":
            sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2),
                                      ConstantDenseMetric([[0.6, 0.1], [0.1, 0.4]]))
            cfg = SolveConfig(max_iters=60, tol_kkt=1e-300, tol_feas=1e-300)
            tables = [prox_ama_run(q, sched, s0, cfg).iterates.table for q in (p, subtracting)]
        else:
            sched = example_schedule("c025", 0.99, p)
            tables = [integrate(q, sched, s0, method="rk4", h=0.05, T=3.0).table
                      for q in (p, subtracting)]
        assert tables[0].tobytes() == tables[1].tobytes()
