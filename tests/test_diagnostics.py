import numpy as np
import pytest

from amaflow import (
    ConstantSchedule,
    PrimalDualState,
    SolveConfig,
    SolveResult,
    Trajectory,
    ZeroMetric,
    check_energy_monotone,
    energy,
    example_schedule,
    example_start,
    integrate,
    prox_ama_run,
    report,
    validate,
)
from amaflow import diagnostics, dynamics
from amaflow.schedules import ParameterSchedule


@pytest.fixture(scope="module")
def sched_unit_tau(ex_problem):
    # tau = 0.25/0.25 = 1 keeps the metric values easy to freeze
    return example_schedule("c025", 0.25, ex_problem)


def displaced(ref, dx=(0.0, 0.0), dz=(0.0, 0.0), dy=(0.0, 0.0)):
    return PrimalDualState(ref.x + np.asarray(dx), ref.z + np.asarray(dz),
                           ref.y + np.asarray(dy))


class TestEnergyValues:
    def test_zero_at_reference(self, ex_problem, sched_unit_tau, ex_reference):
        e = energy(ex_problem, sched_unit_tau, 0.0, ex_reference, ex_reference)
        assert e.energy == 0.0
        assert e.components == (0.0, 0.0, 0.0, 0.0)

    def test_x_displacement(self, ex_problem, sched_unit_tau, ex_reference):
        s = displaced(ex_reference, dx=(1.0, 0.0))
        e = energy(ex_problem, sched_unit_tau, 0.0, s, ex_reference)
        # (2*1*0.25 - 0.25^2 * 1) * 1 with no x-metric
        assert e.energy == pytest.approx(0.4375, rel=1e-9)
        assert e.components[1] == 0.0
        assert e.components[2] == 0.0
        assert e.components[3] == 0.0

    def test_z_displacement(self, ex_problem, sched_unit_tau, ex_reference):
        s = displaced(ex_reference, dz=(1.0, 0.0))
        e = energy(ex_problem, sched_unit_tau, 0.0, s, ex_reference)
        # c <dz, (I - c B*B) dz> + c^2 |B dz|^2 = 0.25*0.75 + 0.0625*1
        assert e.energy == pytest.approx(0.25, rel=1e-9)
        assert e.components[0] == 0.0

    def test_y_displacement(self, ex_problem, sched_unit_tau, ex_reference):
        s = displaced(ex_reference, dy=(1.0, 0.0))
        e = energy(ex_problem, sched_unit_tau, 0.0, s, ex_reference)
        assert e.energy == pytest.approx(1.0, rel=1e-12)
        assert e.components[:3] == (0.0, 0.0, 0.0)

    def test_components_sum_to_total(self, ex_problem, ex_sched_c025,
                                     ex_reference, rng):
        for _ in range(25):
            s = PrimalDualState(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2),
                                rng.uniform(-5, 5, 2))
            t = float(rng.uniform(0.0, 50.0))
            e = energy(ex_problem, ex_sched_c025, t, s, ex_reference)
            assert e.energy == pytest.approx(sum(e.components), rel=1e-14)
            assert e.energy >= 0.0
            assert e.t == t

    def test_reference_must_be_saddle(self, ex_problem, ex_sched_c025, ex_start):
        with pytest.raises(ValueError, match="saddle"):
            energy(ex_problem, ex_sched_c025, 0.0, ex_start, ex_start)

    def test_integrate_rejects_a_non_saddle_reference_before_stepping(
            self, ex_problem, ex_sched_c025, ex_start, monkeypatch):
        updates = []
        real = dynamics.alternating_update
        monkeypatch.setattr(dynamics, "alternating_update",
                            lambda *a, **k: updates.append(1) or real(*a, **k))
        with pytest.raises(ValueError, match="saddle"):
            integrate(ex_problem, ex_sched_c025, ex_start, method="euler", h=0.5,
                      T=2.0, reference=ex_start)
        assert updates == []

    def test_reference_is_checked_once_per_trajectory(
            self, ex_problem, ex_sched_c025, ex_start, ex_reference, monkeypatch):
        checks = []
        real = diagnostics.check_reference
        monkeypatch.setattr(diagnostics, "check_reference",
                            lambda *a: checks.append(1) or real(*a))
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler", h=0.5,
                         T=5.0, reference=ex_reference)
        assert len(traj.samples) == 11 and len(checks) == 1
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start,
                           SolveConfig(max_iters=10, tol_kkt=1e-15, tol_feas=1e-15))
        rep = report(res, ex_problem, ref=ex_reference, sched=ex_sched_c025)
        assert rep.energy_monotone is True and len(checks) == 2


class TestMonotoneCheck:
    def test_recorded_energies_pass(self, ex_problem, ex_sched_c025, ex_start,
                                    ex_reference):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="rk4",
                         h=0.01, T=5.0, record_every=25, reference=ex_reference)
        ok, worst = check_energy_monotone(traj)
        assert ok
        assert worst == 0.0
        es = traj.energies()
        assert es[-1] < es[0]

    def test_reversed_trajectory_fails(self, ex_problem, ex_sched_c025, ex_start,
                                       ex_reference):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="rk4",
                         h=0.01, T=2.0, record_every=20, reference=ex_reference)
        backwards = Trajectory(list(reversed(traj.samples)), traj.method,
                               traj.step, traj.horizon)
        ok, worst = check_energy_monotone(backwards)
        assert not ok
        assert worst > 0.0

    def test_recompute_path(self, ex_problem, ex_sched_c025, ex_start,
                            ex_reference):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler",
                         h=0.1, T=3.0, record_every=5)
        ok, worst = check_energy_monotone(traj, ex_reference, ex_problem,
                                          ex_sched_c025)
        assert ok
        assert worst == 0.0

    def test_recompute_needs_context(self, ex_problem, ex_sched_c025, ex_start):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler",
                         h=0.5, T=1.0)
        with pytest.raises(ValueError, match="recorded energies"):
            check_energy_monotone(traj)

    def test_needs_two_samples(self, ex_problem, ex_sched_c025, ex_start,
                               ex_reference):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler",
                         h=0.5, T=1.0, reference=ex_reference)
        stub = Trajectory(traj.samples[:1], traj.method, traj.step, traj.horizon)
        with pytest.raises(ValueError, match="two samples"):
            check_energy_monotone(stub)


class TestReport:
    def test_converged_discrete_run(self, ex_problem, ex_sched_c025, ex_start,
                                    ex_reference):
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start, SolveConfig())
        rep = report(res, ex_problem, ref=ex_reference, sched=ex_sched_c025)
        assert rep.status == "converged"
        assert rep.kind == "discrete"
        assert rep.iterations == res.iterations_used
        assert rep.final_t == res.final.t
        assert rep.final_feas <= 1e-6
        assert rep.final_kkt_rx <= 1e-6
        assert rep.time_to_tolerance == res.final.t
        assert rep.energy_start is not None
        assert rep.energy_end < rep.energy_start
        assert rep.energy_monotone is True
        assert rep.energy_max_violation == 0.0
        d = rep.as_dict()
        assert d["status"] == "converged"
        assert "energy_start" in d
        assert "message" not in d

    def test_plain_trajectory_without_reference(self, ex_problem, ex_sched_c025,
                                                ex_start):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="rk4",
                         h=0.1, T=1.0)
        rep = report(traj, ex_problem)
        assert rep.status == "ok"
        assert rep.kind == "continuous"
        assert rep.iterations is None
        assert rep.energy_start is None
        assert "energy_start" not in rep.as_dict()

    def test_empty_trajectory(self, ex_problem, ex_start):
        res = SolveResult(final=ex_start,
                          iterates=Trajectory([], "prox-ama", 1.0, 0.0),
                          status="error", iterations_used=0, message="boom")
        rep = report(res, ex_problem)
        assert rep.status == "error"
        assert rep.final_t is None
        assert "boom" in rep.as_dict()["message"]

    def test_validation_attachment(self, ex_problem, ex_sched_c025, ex_start):
        bad = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2), ZeroMetric(2))
        vrep = validate(ex_problem, bad.c, bad.M1, bad.M2, 0.005, [0.0, 1.0])
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler",
                         h=0.5, T=1.0)
        rep = report(traj, ex_problem, validation=vrep)
        d = rep.as_dict()
        assert d["validation_passed"] is False
        assert "convergence-condition" in d["validation_failed_rules"]

    def test_tolerance_time_scans_samples(self, ex_problem, ex_sched_c025,
                                          ex_start):
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start,
                           SolveConfig(max_iters=20000, tol_kkt=1e-8,
                                       tol_feas=1e-8))
        rep = report(res, ex_problem, tol=1e-3)
        # the looser report tolerance is reached strictly earlier than the
        # solver's own stopping point
        assert rep.time_to_tolerance < res.final.t
