import math

import numpy as np
import pytest

from amaflow import (
    CapabilityError,
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    DenseMap,
    IdentityMap,
    L1Norm,
    MetricSchedule,
    ParameterSchedule,
    PrimalDualState,
    ProxFriendlyMetric,
    QuadraticDistance,
    ReciprocalQuadratic,
    ScaledIdentityMap,
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

A_T = (np.array([[2.0, 1.0], [-2.0, 1.0]]) / np.sqrt(8.0)).T
Y_STAR = np.array([-1.0, 1.0]) / np.sqrt(2.0)


class TestStep:
    def test_saddle_is_a_fixed_point(self, ex_problem, ex_sched_c025, ex_reference):
        s = ex_reference
        m1 = ex_sched_c025.M1.at(0.0)
        m2 = ex_sched_c025.M2.at(0.0)
        tau = ex_sched_c025.tau.value_at(0.0)
        out = prox_ama_step(ex_problem, m1, m2, 0.25, s, tau)
        assert out.x == pytest.approx(s.x, abs=1e-10)
        assert out.z == pytest.approx(s.z, abs=1e-10)
        assert out.y == pytest.approx(s.y, abs=1e-10)

    def test_first_iterate_formula(self, ex_problem, ex_sched_c025, ex_start):
        out = prox_ama_step(ex_problem, ex_sched_c025.M1.at(0.0),
                            ex_sched_c025.M2.at(0.0), 0.25, ex_start,
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
            s = prox_ama_step(ex_problem, sched.M1.at(k), sched.M2.at(k),
                              sched.c.value_at(k), s, sched.tau.value_at(k))
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


def logged_map(matrix, name, log):
    m = DenseMap(matrix)
    m.matrix = LoggedMatrix(m.matrix, name, log)
    return m


def logged_problem(rng, n=20):
    """A prox-friendly problem whose products with A and B go to the returned log."""
    log = []
    B = rng.standard_normal((n, n))
    p = TwoBlockProblem(
        f=QuadraticDistance(rng.standard_normal(n), 1.0), h1=ZeroFunction(n),
        g=L1Norm(n, 0.5), h2=ZeroFunction(n),
        A=logged_map(rng.standard_normal((n, n)) + 3.0 * np.eye(n), "A", log),
        B=logged_map(B / np.linalg.norm(B, 2), "B", log), b=rng.standard_normal(n))
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
RECORDED = PLAIN[:3] + [("B", "adjoint"), ("A", "adjoint")]


class TestPassPlan:
    """The order and number of matrix products per iteration."""

    @staticmethod
    def unreachable(iters, record_every):
        return SolveConfig(max_iters=iters, tol_kkt=1e-300, tol_feas=1e-300,
                           record_every=record_every)

    def test_iterations_stream_a_b_b_a(self, rng):
        p, sched, s0, log = logged_problem(rng)
        res = prox_ama_run(p, sched, s0, self.unreachable(12, 4))
        assert res.iterations_used == 12
        expected = []
        for k in range(1, 13):
            expected += RECORDED if k % 4 == 0 or k == 12 else PLAIN
        assert len(log) == 4 + len(expected)
        assert log[4:] == expected

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

    @pytest.mark.parametrize("record_every, products", [(1, 104), (10, 86)])
    def test_unit_step_euler_makes_the_products_of_the_discrete_run(
            self, rng, record_every, products):
        # 4 for the start, 4 per step, and B* y plus A* y at each recorded step
        # in place of the A* y the next step needs anyway.
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
            A=IdentityMap(2),
            B=IdentityMap(2),
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
            A=IdentityMap(2),
            B=IdentityMap(2),
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
            A=IdentityMap(2),
            B=IdentityMap(2),
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

    def test_defaults(self):
        cfg = SolveConfig()
        assert cfg.max_iters == 20000
        assert cfg.tol_kkt == 1e-6
        assert cfg.tol_feas == 1e-6
        assert cfg.record_every == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDivergence:
    @staticmethod
    def large_penalty(p):
        # c = 50 is far outside the admissible range 0 < c < 2 of the example
        c = ConstantSchedule(50.0)
        return ParameterSchedule(c, ZeroMetric(2),
                                 ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B))

    def test_stops_at_the_first_nonfinite_residual(self, ex_problem, ex_start):
        res = prox_ama_run(ex_problem, self.large_penalty(ex_problem), ex_start,
                           SolveConfig(max_iters=300))
        assert res.status == "diverged"
        assert res.iterations_used < 300
        *before, last = res.iterates.samples
        assert last.t == res.iterations_used and last.state is res.final
        assert not all(math.isfinite(v) for v in last.kkt)
        assert all(math.isfinite(v) for smp in before for v in smp.kkt)
        assert f"iteration {res.iterations_used}" in res.message

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
        assert res.iterations_used == 142


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

    M2 = ConstantDenseMetric(DenseMap([[0.6, 0.1], [0.1, 0.4]]))

    def manual(self, p, sched, s0, iters):
        s = s0
        for k in range(iters):
            t = float(k)
            s = prox_ama_step(p, sched.M1.at(t), sched.M2.at(t), sched.c.value_at(t), s)
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
            c, ZeroMetric(2), ConstantDenseMetric(DenseMap(0.5 * np.eye(2)))), ex_start, cfg)
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

    @pytest.mark.parametrize("which", ["M1", "M2"])
    def test_other_metric_kinds_are_refused_before_the_first_update(
            self, which, ex_problem, ex_start, monkeypatch):
        import amaflow.discrete
        import amaflow.dynamics

        class Custom(MetricSchedule):
            kind = "custom"
            dim = 2

            def at(self, t):
                return DenseMap(np.eye(2))

        updates = []
        for mod in (amaflow.discrete, amaflow.dynamics):
            monkeypatch.setattr(mod, "alternating_update",
                                lambda *a, **k: updates.append(a))
        metrics = {"M1": ZeroMetric(2), "M2": ZeroMetric(2), which: Custom()}
        sched = ParameterSchedule(ConstantSchedule(0.25), metrics["M1"], metrics["M2"])
        match = "custom" if which == "M2" else "M1"
        with pytest.raises(CapabilityError, match=match):
            prox_ama_run(ex_problem, sched, ex_start, SolveConfig(max_iters=5))
        with pytest.raises(CapabilityError, match=match):
            integrate(ex_problem, sched, ex_start, method="euler", h=1.0, T=5.0)
        assert updates == []
