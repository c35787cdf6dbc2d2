"""The recorded table of a run: its layout, its views and its memory.

A run records each kept iterate as one row of a float64 table with the
CSV's columns; samples are views of its rows, built on demand.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amaflow.cli as cli
from amaflow import (
    ConstantSchedule,
    CapabilityError,
    ConditionError,
    ConvergenceError,
    CoupledReciprocal,
    ParameterSchedule,
    PrimalDualState,
    ProxFriendlyMetric,
    ScalarSchedule,
    ScaledIdentityMetric,
    SolveConfig,
    Trajectory,
    TrajectorySample,
    ZeroMetric,
    ama_run,
    example_schedule,
    integrate,
    prox_ama_run,
)
from amaflow.trajectory import _Recorder, _run

import test_discrete
from test_properties import SETTINGS, cases


def _row(smp):
    """A sample as the table row it came from."""
    st_ = smp.state
    return np.array([smp.t, *st_.x, *st_.z, *st_.y, smp.feas, smp.kkt.rx, smp.kkt.rz])


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
    traj = integrate(p, sched, s0, method="euler", h=1.0, T=float(iters),
                     record_every=every)
    a, b = traj.table, run.iterates.table
    assert a.shape == b.shape
    assert run.status == "diverged" if diverging else run.status in ("max_iters", "diverged")
    if run.status == "max_iters":
        assert np.array_equal(a, b)
        return
    # The solver stops at the first iterate with a residual past the bound,
    # which it records off the cadence too; Euler at the next recorded one.
    # Every row before those is the same.
    assert a[:-1].tobytes() == b[:-1].tobytes()
    assert a[-1, 0] >= b[-1, 0]
    if a[-1, 0] == b[-1, 0]:
        assert a[-1].tobytes() == b[-1].tobytes()


def test_table_layout_and_sample_views(ex_problem, ex_start):
    sched = example_schedule("c1-decay", 0.99, ex_problem)
    for traj in (prox_ama_run(ex_problem, sched, ex_start, SolveConfig(record_every=7))
                 .iterates,
                 integrate(ex_problem, sched, ex_start, method="rk4", h=0.1, T=5.0,
                           record_every=3)):
        table = traj.table
        assert traj.dims == (2, 2, 2) and traj.cuts == (3, 5, 7)
        assert table.dtype == np.float64 and table.shape[1] == 10
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


def test_solver_final_is_the_last_row(ex_problem, ex_start, ex_sched_c025):
    res = prox_ama_run(ex_problem, ex_sched_c025, ex_start, SolveConfig(record_every=50))
    assert res.final is res.iterates.final.state
    assert np.shares_memory(res.final.x, res.iterates.table[-1])
    assert res.final.t == res.iterations_used == res.iterates.table[-1, 0]


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_an_integration_that_reaches_its_horizon_is_ok(ex_problem, ex_start, method):
    sched = example_schedule("c1-decay", 0.99, ex_problem)
    traj = integrate(ex_problem, sched, ex_start, method=method, h=0.5, T=2.0)
    assert (traj.status, traj.message) == ("ok", "")
    assert traj.times()[-1] == 2.0


@pytest.mark.parametrize("c, max_iters, status", [
    (0.25, 20000, "converged"), (0.25, 5, "max_iters"), (50.0, 3000, "diverged"),
])
def test_a_solver_run_and_its_trajectory_end_the_same_way(ex_problem, ex_start, c,
                                                         max_iters, status):
    c = ConstantSchedule(c)
    sched = ParameterSchedule(c, ZeroMetric(2),
                              ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, ex_problem.B))
    run = prox_ama_run(ex_problem, sched, ex_start, SolveConfig(max_iters=max_iters))
    assert run.status == status
    assert (run.iterates.status, run.iterates.message) == (run.status, run.message)
    assert run.iterates.horizon == run.iterations_used


def test_an_empty_table():
    traj = _Recorder((3, 2, 4)).trajectory("prox-ama", 1.0, 0.0, "error", "boom")
    assert (traj.status, traj.message) == ("error", "boom")
    by_hand = Trajectory(traj.table, "rk4", 0.1, 1.0, (3, 2, 4))
    assert (by_hand.status, by_hand.message) == ("ok", "")
    assert traj.table.shape == (0, 13) and traj.samples == []
    assert traj.cuts == (4, 6, 10)
    assert len(traj.times()) == 0
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
    assert (run.iterates.status, run.iterates.message) == ("error", run.message)
    traj = integrate(ex_problem, sched, ex_start, method="euler", h=1.0, T=50.0,
                     record_every=3)
    assert traj.status == "error" and "aborted at t=5:" in traj.message
    assert np.array_equal(traj.table, run.iterates.table)


def test_a_capability_error_mid_run_ends_the_solver_run(ex_problem, ex_start):
    """c(t) = 0 from t = 5 leaves the ama z-step the conjugate gradient of the
    l1 norm, which does not exist: the run ends as ``error``, not raising."""
    run = ama_run(ex_problem, _Drop(0.25, 0.0), ex_start, SolveConfig(record_every=3))
    assert run.status == "error" and run.iterations_used == 5
    assert "conjugate gradient" in run.message
    assert run.iterates.times().tolist() == [0.0, 3.0, 5.0]


_FAILURES = (ConvergenceError("stub"), ConditionError("stub"), CapabilityError("stub"))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(steps=st.integers(0, 25), every=st.integers(1, 8), h=st.sampled_from([1.0, 0.25]),
       tol=st.booleans(), converge_at=st.none() | st.integers(0, 27),
       raise_at=st.none() | st.integers(0, 27), failure=st.sampled_from(_FAILURES),
       fractional=st.booleans())
@example(steps=10, every=3, h=1.0, tol=True, converge_at=None, raise_at=0,
         failure=_FAILURES[0], fractional=False)
@example(steps=10, every=3, h=1.0, tol=False, converge_at=None, raise_at=6,
         failure=_FAILURES[1], fractional=True)
@example(steps=10, every=3, h=1.0, tol=True, converge_at=0, raise_at=0,
         failure=_FAILURES[2], fractional=False)
@example(steps=10, every=4, h=0.25, tol=True, converge_at=7, raise_at=7,
         failure=_FAILURES[0], fractional=True)
def test_the_loop_records_and_stops_where_its_rule_says(steps, every, h, tol, converge_at,
                                                        raise_at, failure, fractional):
    """``_run`` with a stub step that leaves x and y alone, moves z onto the
    anchor e of g at state ``converge_at`` (the start state when 0) and
    raises ``failure`` in step ``raise_at``: its rows are t = 0, every
    ``every``-th state before the stop and the stop once; it stops at the
    first state that passes the tolerance (the start state too, taking no
    step), else at the failing step as ``error``, else after every step as
    ``max_iters``. Without a tolerance no state passes. The start state of
    :meth:`test_discrete.TestUnequalTolerances.start_with_z_residual` has
    x-residual 0, feasibility residual 0 and z-residual 1e-4; at e its
    z-residual is 0."""
    p, _, s0 = test_discrete.TestUnequalTolerances.start_with_z_residual(1e-4)
    e = p.g.d
    if converge_at == 0:
        s0 = PrimalDualState(s0.x, e, s0.y)
    taken = []

    def step(t, x, z, y, aty, bz, stacked):
        k = round(t / h)
        taken.append(k)
        if k == raise_at:
            raise failure
        z = e.copy() if converge_at is not None and k + 1 >= converge_at else z
        if fractional:
            s = np.concatenate([x, z, y])
            return s[:2], s[2:4], None, None, None, s
        bz = p.B.dot(z)
        return x, z, np.zeros(2), bz, p.A.dot(x) + bz - p.b, None

    status, stop, rec, exc = _run(p, s0, step, h, steps, every, (1e-6, 1.0) if tol else None)
    if tol and converge_at is not None and converge_at <= steps and (
            raise_at is None or converge_at <= raise_at):
        want = ("converged", converge_at, None, list(range(converge_at)))
    elif raise_at is not None and raise_at < steps:
        want = ("error", raise_at, failure, list(range(raise_at + 1)))
    else:
        want = ("max_iters", steps, None, list(range(steps)))
    assert (status, stop, exc, taken) == want
    rows = sorted({k for k in range(stop) if not k % every} | {stop})
    table = rec.trajectory("stub", h, stop * h, status, "").table
    assert table[:, 0].tolist() == [k * h for k in rows]
    moved = [converge_at is not None and k >= converge_at for k in rows]
    assert (table[:, -1] == 0.0).tolist() == moved
