"""The recorded table of a run: its layout, its views and its memory.

A run records each kept iterate as one row of a float64 table with the
CSV's columns; samples are views of its rows, built on demand.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import amaflow.cli as cli
from amaflow import (
    ConstantSchedule,
    CoupledReciprocal,
    ParameterSchedule,
    PrimalDualState,
    ProxFriendlyMetric,
    ScalarSchedule,
    ScaledIdentityMetric,
    SolveConfig,
    Trajectory,
    TrajectoryError,
    TrajectorySample,
    ZeroMetric,
    ama_run,
    example_schedule,
    integrate,
    prox_ama_run,
)
from amaflow.problem import KKTResidual

from test_properties import SETTINGS, cases


def _row(smp):
    """A sample as the table row it came from."""
    st_ = smp.state
    extra = () if smp.energy is None else (smp.energy,)
    return np.array([smp.t, *st_.x, *st_.z, *st_.y, smp.feas, smp.kkt.rx, smp.kkt.rz,
                     *extra])


@SETTINGS
@given(cases(), st.integers(1, 9), st.booleans())
def test_unit_step_euler_table_equals_the_solver_table(case, every, diverging):
    p, sched, (x, z, y, _), _ = case
    if diverging:
        c = ConstantSchedule(50.0)
        sched = ParameterSchedule(c, ZeroMetric(p.dim_x),
                                  ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B))
    s0, iters = PrimalDualState(x, z, y), 300
    run = prox_ama_run(p, sched, s0, SolveConfig(max_iters=iters, tol_kkt=1e-300,
                                                 tol_feas=1e-300, record_every=every))
    try:
        traj = integrate(p, sched, s0, method="euler", h=1.0, T=float(iters),
                         record_every=every)
    except TrajectoryError as exc:
        traj = exc.trajectory
    a, b = traj.table, run.iterates.table
    assert a.shape == b.shape
    assert run.status == "diverged" if diverging else run.status in ("max_iters", "diverged")
    if run.status == "max_iters":
        assert np.array_equal(a, b)
        return
    # The solver stops at the first iterate with a residual that is not
    # finite, which it records off the cadence too; Euler at the next
    # recorded one. Every row before those is the same.
    assert a[:-1].tobytes() == b[:-1].tobytes()
    assert a[-1, 0] >= b[-1, 0]
    if a[-1, 0] == b[-1, 0]:
        assert a[-1].tobytes() == b[-1].tobytes()


def test_table_layout_and_sample_views(ex_problem, ex_start, ex_reference):
    sched = example_schedule("c1-decay", 0.99, ex_problem)
    for traj in (prox_ama_run(ex_problem, sched, ex_start, SolveConfig(record_every=7))
                 .iterates,
                 integrate(ex_problem, sched, ex_start, method="rk4", h=0.1, T=5.0,
                           record_every=3, reference=ex_reference)):
        table = traj.table
        assert traj.dims == (2, 2, 2)
        assert table.dtype == np.float64 and table.shape[1] == 10 + (traj.method == "rk4")
        assert not table.flags.writeable
        assert np.array_equal(traj.times(), table[:, 0])
        samples = traj.samples
        assert samples is traj.samples and samples[-1] is traj.final
        assert len(samples) == len(table)
        for smp, row in zip(samples, table):
            assert _row(smp).tobytes() == row.tobytes()
            for v in (smp.state.x, smp.state.z, smp.state.y):
                assert np.shares_memory(v, row)
            assert smp.state.t == smp.t and smp.kkt.feas == smp.feas
        energies = traj.energies()
        assert (energies == table[:, -1].tolist() if traj.method == "rk4"
                else energies == [None] * len(table))


def test_solver_final_is_the_last_row(ex_problem, ex_start, ex_sched_c025):
    res = prox_ama_run(ex_problem, ex_sched_c025, ex_start, SolveConfig(record_every=50))
    assert res.final is res.iterates.final.state
    assert np.shares_memory(res.final.x, res.iterates.table[-1])
    assert res.final.t == res.iterations_used == res.iterates.table[-1, 0]


@pytest.mark.parametrize("with_energy", [False, True])
def test_list_round_trip(with_energy):
    rng = np.random.default_rng(3)
    made = []
    for k in range(5):
        x, z, y = rng.standard_normal(3), rng.standard_normal(2), rng.standard_normal(4)
        feas, rx, rz = rng.random(3)
        made.append(TrajectorySample(float(k), PrimalDualState(x, z, y, float(k)), feas,
                                     KKTResidual(rx, rz, feas),
                                     float(k) if with_energy else None))
    traj = Trajectory(made, "prox-ama", 1.0, 4.0)
    assert traj.dims == (3, 2, 4)
    assert traj.table.shape == (5, 13 + with_energy)
    assert traj.table.tobytes() == np.stack([_row(s) for s in made]).tobytes()
    again = Trajectory(traj.samples, traj.method, traj.step, traj.horizon)
    assert again.table.tobytes() == traj.table.tobytes()
    for a, b in zip(traj.samples, made):
        assert _row(a).tobytes() == _row(b).tobytes()


def test_empty_list_round_trip():
    traj = Trajectory([], "prox-ama", 1.0, 0.0)
    assert len(traj.table) == 0 and traj.samples == []
    assert traj.energies() == [] and len(traj.times()) == 0
    with pytest.raises(ValueError, match="empty"):
        traj.final


def test_recording_costs_at_most_128_bytes_per_row(ex_problem, ex_start):
    sched = example_schedule("c1-decay", 0.99, ex_problem)
    cfg = SolveConfig()
    prox_ama_run(ex_problem, sched, ex_start, cfg)  # warm every lazy cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = prox_ama_run(ex_problem, sched, ex_start, cfg)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = len(res.iterates.table)
    assert rows == 4076
    assert kept / rows <= 128


def test_paper_example_cli_memory(tmp_path, monkeypatch, ex_reference):
    # The longest recorded example run: 4,076 rows, an energy per row from
    # the cached reference, and a CSV written a block at a time.
    argv = ["paper-example", "--c-schedule", "c1-decay", "--out-prefix"]
    assert cli.main(argv + [str(tmp_path / "warm")]) == 0
    built = []
    init = TrajectorySample.__init__
    monkeypatch.setattr(TrajectorySample, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    tracemalloc.start()
    try:
        assert cli.main(argv + [str(tmp_path / "run")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000
    assert len(built) <= 1
    assert ((tmp_path / "run.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes())


class _Drop(ScalarSchedule):
    """``before`` up to t = 5, then ``after``."""

    kind = "drop"

    def __init__(self, before, after):
        self.before, self.after = before, after

    def value_at(self, t):
        return self.before if t < 5.0 else self.after

    def derivative_at(self, t):
        return 0.0


def test_a_failing_step_ends_every_mode_the_same_way(ex_problem, ex_start):
    """M2 = mu(t) Id over the example's rank-1 B stops being uniformly positive
    at t = 5, an iterate that is not recorded: the solver and unit-step Euler
    stop there with the same table, the failing step's start state last."""
    sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2),
                              ScaledIdentityMetric(_Drop(1.0, 1e-14), 2))
    run = prox_ama_run(ex_problem, sched, ex_start, SolveConfig(record_every=3))
    assert run.status == "error" and run.iterations_used == 5
    assert "not uniformly positive" in run.message
    assert run.iterates.times().tolist() == [0.0, 3.0, 5.0]
    with pytest.raises(TrajectoryError) as err:
        integrate(ex_problem, sched, ex_start, method="euler", h=1.0, T=50.0,
                  record_every=3)
    assert err.value.status == "error" and "aborted at t=5:" in str(err.value)
    assert np.array_equal(err.value.trajectory.table, run.iterates.table)


def test_a_capability_error_mid_run_ends_the_solver_run(ex_problem, ex_start):
    """c(t) = 0 from t = 5 leaves the ama z-step the conjugate gradient of the
    l1 norm, which does not exist: the run ends as ``error``, not raising."""
    run = ama_run(ex_problem, _Drop(0.25, 0.0), ex_start, SolveConfig(record_every=3))
    assert run.status == "error" and run.iterations_used == 5
    assert "conjugate gradient" in run.message
    assert run.iterates.times().tolist() == [0.0, 3.0, 5.0]
