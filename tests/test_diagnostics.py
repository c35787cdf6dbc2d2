import warnings

import numpy as np
import pytest

from amaflow import (
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    DimensionMismatchError,
    L1Norm,
    PrimalDualState,
    ProxFriendlyMetric,
    QuadraticDistance,
    ReciprocalQuadratic,
    ScaledIdentityMetric,
    SolveConfig,
    SolveResult,
    Trajectory,
    TwoBlockProblem,
    ZeroFunction,
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
from amaflow.diagnostics import trajectory_energies
from amaflow.schedules import ParameterSchedule
from amaflow.trajectory import _Recorder


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

    def test_the_state_must_fit_the_problem(self, ex_problem, ex_sched_c025,
                                            ex_reference):
        # blocks of length 1 used to broadcast against the reference
        short = PrimalDualState([1.0], [1.0], [1.0])
        with pytest.raises(DimensionMismatchError):
            energy(ex_problem, ex_sched_c025, 0.0, short, ex_reference)

    def test_reference_is_checked_once_per_trajectory(
            self, ex_problem, ex_sched_c025, ex_start, ex_reference, monkeypatch):
        checks = []
        real = diagnostics.check_reference
        monkeypatch.setattr(diagnostics, "check_reference",
                            lambda *a: checks.append(1) or real(*a))
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler", h=0.5, T=5.0)
        column = trajectory_energies(traj, ex_problem, ex_sched_c025, ex_reference)
        assert len(column) == 11 and len(checks) == 1
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start,
                           SolveConfig(max_iters=10, tol_kkt=1e-15, tol_feas=1e-15))
        column = trajectory_energies(res.iterates, ex_problem, ex_sched_c025, ex_reference)
        assert len(column) == 11 and len(checks) == 2


class TestNotANumberReference:
    """A reference with a NaN in any block is no verified saddle point, for
    every function that checks one. One NaN in x leaves rz finite, in z rx,
    in y the feasibility residual."""

    @pytest.fixture(params=["x", "z", "y"])
    def nan_ref(self, request, ex_reference):
        ref = PrimalDualState(ex_reference.x.copy(), ex_reference.z.copy(),
                              ex_reference.y.copy())
        getattr(ref, request.param)[0] = np.nan
        return ref

    def test_check_reference(self, ex_problem, nan_ref):
        with pytest.raises(ValueError, match="max residual nan"):
            diagnostics.check_reference(ex_problem, nan_ref)

    def test_energy(self, ex_problem, ex_sched_c025, ex_start, nan_ref):
        with pytest.raises(ValueError, match="saddle"):
            energy(ex_problem, ex_sched_c025, 0.0, ex_start, nan_ref)

    def test_trajectory_energies(self, ex_problem, ex_sched_c025, ex_start, nan_ref):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler", h=0.5,
                         T=1.0)
        with pytest.raises(ValueError, match="saddle"):
            trajectory_energies(traj, ex_problem, ex_sched_c025, nan_ref)


class TestMonotoneCheck:
    def test_recorded_energies_pass(self, ex_problem, ex_sched_c025, ex_start,
                                    ex_reference):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="rk4",
                         h=0.01, T=5.0, record_every=25)
        es = trajectory_energies(traj, ex_problem, ex_sched_c025, ex_reference)
        ok, worst = check_energy_monotone(es)
        assert ok
        assert worst == 0.0
        assert es[-1] < es[0]

    def test_reversed_trajectory_fails(self, ex_problem, ex_sched_c025, ex_start,
                                       ex_reference):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="rk4",
                         h=0.01, T=2.0, record_every=20)
        backwards = Trajectory(traj.table[::-1], traj.method, traj.step, traj.horizon,
                               traj.dims)
        es = trajectory_energies(backwards, ex_problem, ex_sched_c025, ex_reference)
        ok, worst = check_energy_monotone(es)
        assert not ok
        assert worst > 0.0

    @pytest.mark.parametrize("energy", [0.0, 3.0, 1000.0])
    def test_the_slack_is_one_millionth_of_one_plus_the_energy(self, energy):
        slack = 1e-6 * (1.0 + energy)
        assert check_energy_monotone([energy, energy + 0.9995 * slack]) == (True, 0.0)
        ok, worst = check_energy_monotone([energy, energy + 1.0005 * slack])
        assert not ok and worst == pytest.approx(0.0005 * slack, rel=1e-6)

    def test_needs_two_samples(self, ex_problem, ex_sched_c025, ex_start,
                               ex_reference):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler",
                         h=0.5, T=1.0)
        es = trajectory_energies(traj, ex_problem, ex_sched_c025, ex_reference)
        for few in (es[:1], []):
            with pytest.raises(ValueError, match="two samples"):
                check_energy_monotone(few)


class TestReport:
    def test_converged_discrete_run(self, ex_problem, ex_sched_c025, ex_start,
                                    ex_reference):
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start, SolveConfig())
        column = trajectory_energies(res.iterates, ex_problem, ex_sched_c025, ex_reference)
        rep = report(res, energies=column)
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
        assert (rep.energy_start, rep.energy_end) == (column[0], column[-1])
        d = rep.as_dict()
        assert d["status"] == "converged"
        assert "energy_start" in d
        assert "message" not in d

    def test_plain_trajectory_without_reference(self, ex_problem, ex_sched_c025,
                                                ex_start):
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="rk4",
                         h=0.1, T=1.0)
        rep = report(traj)
        assert rep.status == "ok"
        assert rep.kind == "continuous"
        assert rep.iterations is None
        assert rep.energy_start is None
        assert "energy_start" not in rep.as_dict()

    def test_a_trajectory_reports_its_own_outcome(self, ex_problem, ex_start):
        c = ConstantSchedule(50.0)
        sched = ParameterSchedule(c, ZeroMetric(2),
                                  ProxFriendlyMetric(CoupledReciprocal(0.99, c), c,
                                                     ex_problem.B))
        traj = integrate(ex_problem, sched, ex_start, method="euler", h=1.0, T=3000.0,
                         record_every=10)
        d = report(traj).as_dict()
        assert (d["status"], d["kind"], d["final_t"]) == ("diverged", "continuous", 140.0)
        assert d["message"] == "integration diverged at t=140: residual NaN or past 1e+150"
        res = prox_ama_run(ex_problem, sched, ex_start, SolveConfig(max_iters=3000))
        # A solver run's trajectory carries its iterations as its horizon.
        d = report(res.iterates).as_dict()
        assert (d["status"], d["kind"], d["iterations"]) == ("diverged", "discrete", 138)
        assert d["message"] == res.message
        assert d == report(res).as_dict()

    def test_empty_trajectory(self, ex_problem, ex_start):
        empty = _Recorder((2, 2, 2)).trajectory("prox-ama", 1.0, 0.0, "error", "boom")
        res = SolveResult(final=ex_start, iterates=empty, status="error", iterations_used=0,
                          message="boom")
        rep = report(res)
        assert rep.status == "error"
        assert rep.final_t is None
        assert "boom" in rep.as_dict()["message"]

    def test_validation_attachment(self, ex_problem, ex_sched_c025, ex_start):
        bad = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2), ZeroMetric(2))
        vrep = validate(ex_problem, bad.c, bad.M1, bad.M2, 0.005, [0.0, 1.0])
        traj = integrate(ex_problem, ex_sched_c025, ex_start, method="euler",
                         h=0.5, T=1.0)
        rep = report(traj, vrep)
        d = rep.as_dict()
        assert d["validation_passed"] is False
        assert "convergence-condition" in d["validation_failed_rules"]

    def test_tolerance_time_scans_samples(self, ex_problem, ex_sched_c025,
                                          ex_start):
        res = prox_ama_run(ex_problem, ex_sched_c025, ex_start,
                           SolveConfig(max_iters=20000, tol_kkt=1e-8,
                                       tol_feas=1e-8))
        rep = report(res)
        # the report's 1e-6 is reached strictly earlier than the solver's own
        # stopping point, at the first row whose three residuals pass it
        assert rep.time_to_tolerance < res.final.t
        first = next(s for s in res.iterates.samples if max(s.kkt) <= 1e-6)
        assert rep.time_to_tolerance == first.t


def per_row_energy(p, params, s, ref):
    """The energy of one state, the formula written out row by row."""
    mu1, K, c, tau = params
    dx, dz, dy = s.x - ref.x, s.z - ref.z, s.y - ref.y
    x_term = (2.0 * p.f.strong_convexity * c - c * c * p.norm_A**2) * float(dx.dot(dx))
    x_metric = c * float(dx.dot(dx * mu1))
    if tau is not None:
        z_metric = c / tau * float(dz.dot(dz))
    else:
        bdz = p.B.dot(dz)
        m2_term = 0.0 if K is None else float(dz.dot(K.dot(dz)))
        z_metric = c * m2_term + c * c * float(bdz.dot(bdz))
    return x_term + x_metric + z_metric + float(dy.dot(dy))


class SteppedSchedule(ConstantSchedule):
    """``value`` before t = 5 and 1.25 times it from then on."""

    def value_at(self, t):
        return self.value if t < 5.0 else self.value * 1.25


def random_problem(rng, n, B=None):
    B = rng.standard_normal((n, n)) / (2.0 * np.sqrt(n)) if B is None else B
    return TwoBlockProblem(QuadraticDistance(rng.standard_normal(n), 1.5), ZeroFunction(n),
                           L1Norm(n, 0.5), ZeroFunction(n),
                           rng.standard_normal((n, n)) + 2.0 * np.eye(n),
                           B, rng.standard_normal(n))


def schedules(p, kind):
    n = p.dim_x
    c = ReciprocalQuadratic(4.0, 0.05)
    if kind == "prox":
        return ParameterSchedule(c, ZeroMetric(n),
                                 ProxFriendlyMetric(CoupledReciprocal(0.9, c), c, p.B))
    if kind == "prox-other-c":
        # the metric's c matches the run's before t = 5 only: tau rows, then
        # rows that share one dense M2
        c, other = ConstantSchedule(0.25), SteppedSchedule(0.25)
        return ParameterSchedule(c, ScaledIdentityMetric(ConstantSchedule(0.3), n),
                                 ProxFriendlyMetric(CoupledReciprocal(0.5, other), other, p.B))
    if kind == "constant-dense":
        G = np.random.default_rng(n).standard_normal((n, n))
        return ParameterSchedule(c, ScaledIdentityMetric(ReciprocalQuadratic(2.0, 0.1), n),
                                 ConstantDenseMetric(G @ G.T / n))
    if kind == "scaled-identity":  # a K per distinct mu(t)
        return ParameterSchedule(c, ZeroMetric(n),
                                 ScaledIdentityMetric(ReciprocalQuadratic(1.0, 0.2), n))
    return ParameterSchedule(c, ZeroMetric(n), ZeroMetric(n))


class TestStackedEnergy:
    """The energy column is computed a block of rows at a time; each entry
    equals the row-by-row formula bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_stacked_products_are_the_rows_own(self, n, rng):
        table = rng.standard_normal((300, 3 * n + 5)) * 10.0 ** rng.integers(-4, 5, (300, 1))
        D = table[:, 1:1 + n]  # a strided view, as the table's blocks are
        M = rng.standard_normal((n, n))
        assert np.vecdot(D, D).tobytes() == np.array([r.dot(r) for r in D]).tobytes()
        for layout in (M, np.asfortranarray(M), M[::-1], M[:, ::-1]):
            got = np.matvec(diagnostics._blas_layout(layout), D)
            assert got.tobytes() == np.array([layout.dot(r) for r in D]).tobytes()

    @pytest.mark.parametrize("kind", ["prox", "prox-other-c", "constant-dense",
                                      "scaled-identity", "zero"])
    @pytest.mark.parametrize("n", [2, 7, 50])
    def test_column_equals_the_per_row_formula(self, kind, n, rng):
        B = rng.standard_normal((n, 2 * n))[:, ::2] / (2.0 * np.sqrt(n))  # no unit stride
        p = random_problem(rng, n, B if kind == "zero" else None)
        sched = schedules(p, kind)
        m = 2 * diagnostics._BLOCK + 37
        table = np.empty((m, 3 * n + 5))
        table[:, 0] = np.arange(m) * 0.02
        table[:, 1:] = rng.standard_normal((m, 3 * n + 4)) * 10.0 ** rng.integers(-3, 4, (m, 1))
        ref = PrimalDualState(*rng.standard_normal((3, n)))
        snap = dynamics._snapshot(p, sched)
        traj = Trajectory(table, "rk4", 0.02, m * 0.02, (n, n, n))
        out = diagnostics._energy_column(p, snap, traj, ref)
        want = [per_row_energy(p, snap(s.t), s, ref) for s in traj._states()]
        assert out.tobytes() == np.array(want).tobytes()
        if kind == "prox-other-c":
            assert {snap(t)[3] is None for t in table[:, 0]} == {True, False}

    def test_energy_is_the_first_row_of_a_block(self, ex_problem, ex_sched_c025,
                                                 ex_reference, rng):
        for t in (0.0, 1.5, 30.0):
            s = displaced(ex_reference, *rng.standard_normal((3, 2)))
            e = energy(ex_problem, ex_sched_c025, t, s, ex_reference)
            params = dynamics._snapshot(ex_problem, ex_sched_c025)(t)
            assert e.energy == per_row_energy(ex_problem, params, s, ex_reference)
            assert e.energy == sum(e.components)

    @pytest.mark.parametrize("method, h, record_every", [("rk4", 0.01, 10),
                                                         ("euler", 0.05, 1)])
    def test_an_integrations_energies_are_the_per_row_formula(
            self, ex_problem, ex_start, ex_reference, method, h, record_every):
        sched = example_schedule("c1-decay", 0.99, ex_problem)
        traj = integrate(ex_problem, sched, ex_start, method=method, h=h, T=30.0,
                         record_every=record_every)
        assert len(traj.table) > diagnostics._BLOCK
        column = trajectory_energies(traj, ex_problem, sched, ex_reference)
        snap = dynamics._snapshot(ex_problem, sched)
        want = [per_row_energy(ex_problem, snap(s.t), s, ex_reference)
                for s in traj._states()]
        assert column == want

    def test_a_diverged_run_warns_nothing(self, ex_problem, ex_start, ex_reference):
        c = ConstantSchedule(50.0)
        sched = ParameterSchedule(c, ZeroMetric(2),
                                  ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, ex_problem.B))
        res = prox_ama_run(ex_problem, sched, ex_start, SolveConfig())
        assert res.status == "diverged"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            column = trajectory_energies(res.iterates, ex_problem, sched, ex_reference)
            rep = report(res, energies=column)
        # The run stops at a residual past 1e150, where the energy is still a number.
        assert res.iterations_used == 138 and np.isfinite(column).all()
        assert rep.energy_monotone is False and 0.0 < rep.energy_max_violation < np.inf


class TestNotANumberEnergy:
    """A step whose energy increase is not a number is a violation of size inf."""

    @pytest.mark.parametrize("second", [np.nan, np.inf])
    def test_the_monotone_check_fails(self, second):
        assert check_energy_monotone([1.0, second]) == (False, np.inf)

    def test_inf_after_inf_is_not_a_number(self):
        assert check_energy_monotone([1.0, np.inf, np.inf]) == (False, np.inf)
        assert check_energy_monotone([1.0, 0.5, 0.5]) == (True, 0.0)

    def test_the_report_says_so(self, ex_start):
        table = np.zeros((2, 10))
        table[:, 0] = (0.0, 1.0)
        table[:, 1:7] = np.concatenate([ex_start.x, ex_start.z, ex_start.y])
        rep = report(Trajectory(table, "prox-ama", 1.0, 1.0, (2, 2, 2)),
                     energies=[1.0, np.nan])
        assert rep.energy_monotone is False
        assert rep.energy_max_violation == np.inf
        assert rep.as_dict()["energy_max_violation"] == np.inf
