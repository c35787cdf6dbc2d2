"""The run loop's array work beyond the update: fractional Euler and RK4 steps
combined on one stacked (x, z, y) state, and the z-residual column of the
recorded rows, written after the loop in row blocks. Each must give the bits
of the blockwise, row-by-row computation it replaces."""

import math

import numpy as np
import pytest
from test_loop_invariants import blockwise_rk4, same_bits, smooth_problem
from test_trajectory import _Drop

from amaflow import (
    BoxIndicator,
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    L1Norm,
    ParameterSchedule,
    PrimalDualState,
    ProxFriendlyMetric,
    QuadraticDistance,
    QuadraticForm,
    ReciprocalQuadratic,
    ScaledIdentityMetric,
    SolveConfig,
    TwoBlockProblem,
    ZeroFunction,
    ZeroMetric,
    example_reference,
    example_schedule,
    integrate,
    prox_ama_run,
)
from amaflow import dynamics
from amaflow.dynamics import _snapshot, _step
from amaflow.trajectory import DIVERGED_ABOVE, _Recorder, _run


def blockwise_euler(p, snap, h):
    """Explicit Euler at h != 1 as it was written before it was stacked: each
    block combined on its own, the loop adding the step of y."""
    def step(t, x, z, y, aty, bz, s):
        x_new, z_new, w = dynamics.alternating_update(p, *snap(t), x, z, y, True, aty, bz)[:3]
        return x + (x_new - x) * h, z + (z_new - z) * h, w * h, None, None, None
    return step


def varying_schedule(p, n, m2, K):
    c = ReciprocalQuadratic(1.1, 0.3)
    M1 = ScaledIdentityMetric(ConstantSchedule(0.5), n)
    M2 = (ConstantDenseMetric(K) if m2 == "dense"
          else ProxFriendlyMetric(CoupledReciprocal(0.9, c), c, p.B))
    return ParameterSchedule(c, M1, M2)


class TestStackedSteps:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m2", ["dense", "prox-friendly"])
    @pytest.mark.parametrize("h", [0.05, 0.5])
    def test_fractional_euler_is_the_blockwise_step(self, n, m2, h):
        p, s0, K = smooth_problem(n, 60 + n)
        snap = _snapshot(p, varying_schedule(p, n, m2, K))
        steps = 80
        tables = [_run(p, s0, make(p, snap, h), h, steps, 1)[2].finish()
                  for make in (_step, blockwise_euler)]
        assert len(tables[0]) == steps + 1
        assert same_bits(*tables)

    @pytest.mark.parametrize("method, blockwise", [("euler", blockwise_euler),
                                                    ("rk4", blockwise_rk4)])
    @pytest.mark.parametrize("every", [1, 7])
    def test_integrate_is_the_blockwise_loop(self, method, blockwise, every):
        p, s0, K = smooth_problem(3, 71)
        sched = varying_schedule(p, 3, "prox-friendly", K)
        h, steps = 0.05, 50
        traj = integrate(p, sched, s0, method, h, h * steps, every)
        rec = _run(p, s0, blockwise(p, _snapshot(p, sched), h), h, steps, every)[2]
        assert same_bits(traj.table, rec.finish())

    def test_a_step_hands_its_stacked_state_to_the_next(self):
        p, s0, K = smooth_problem(2, 5)
        snap = _snapshot(p, varying_schedule(p, 2, "dense", K))
        for method in ("euler", "rk4"):
            step = _step(p, snap, 0.1, method)
            x, z, w, bz, r, s = step(0.0, s0.x, s0.z, s0.y, p.At.dot(s0.y), None, None)
            assert w is None and bz is None and r is None and s is not None
            y = s[5:]
            for view, part in zip((x, z), np.split(s, [2, 5])):
                assert view.base is s and np.array_equal(view, part)
            again = step(0.1, x, z, y, p.At.dot(y), None, s)[5]
            fresh = step(0.1, x.copy(), z.copy(), y.copy(), p.At.dot(y), None, None)[5]
            assert same_bits(again, fresh)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_no_state_a_step_returns_or_records_is_a_stage_row(self, method):
        # The stages write their fields into rows the step keeps and rewrites:
        # a returned state owns its memory, and no later step changes it or
        # the recorded table.
        p, s0, K = smooth_problem(3, 9)
        snap = _snapshot(p, varying_schedule(p, 3, "prox-friendly", K))
        step = _step(p, snap, 0.1, method)
        x, z, _, _, _, s = step(0.0, s0.x, s0.z, s0.y, p.At.dot(s0.y), None, None)
        assert s.base is None and x.base is s and z.base is s
        kept = s.copy()
        rec = _run(p, s0, step, 0.1, 5, 1)[2]
        table = rec.finish().copy()
        y = s[7:]
        step(0.1, x, z, y, p.At.dot(y), None, s)
        step(0.2, s0.x, s0.z, s0.y, p.At.dot(s0.y), None, None)
        assert same_bits(s, kept) and same_bits(rec.rows, table)

    def test_the_unit_step_is_the_update(self, ex_problem, ex_start):
        p, s0 = ex_problem, ex_start
        params = _snapshot(p, example_schedule())(0.0)
        step = _step(p, _snapshot(p, example_schedule()), 1.0)
        got = step(0.0, s0.x, s0.z, s0.y, p.At.dot(s0.y), None, None)
        want = dynamics.alternating_update(p, *params, s0.x, s0.z, s0.y)
        assert got[5] is None and len(want) == 5
        for a, b in zip(got, want):
            assert same_bits(a, b)


# The smooth kinds for h2 and every kind for g, on blocks of other lengths.
def h2_kinds(m, rng):
    Q = rng.standard_normal((m, m))
    return {"zero": ZeroFunction(m),
            "quadratic_distance": QuadraticDistance(rng.standard_normal(m), 0.4),
            "quadratic_form": QuadraticForm(Q @ Q.T / m, rng.standard_normal(m))}


def g_kinds(m, rng):
    Q = rng.standard_normal((m, m))
    lo = -rng.uniform(0.1, 1.0, m)
    return {"zero": ZeroFunction(m), "l1": L1Norm(m, 0.6),
            "box_indicator": BoxIndicator(lo, -lo),
            "quadratic_distance": QuadraticDistance(rng.standard_normal(m), 0.8),
            "quadratic_form": QuadraticForm(Q @ Q.T / m + 0.1 * np.eye(m),
                                            rng.standard_normal(m))}


def kind_problem(g_kind, h2_kind, n=3, seed=17):
    rng = np.random.default_rng(seed)
    m = n + 1
    B = rng.standard_normal((n, m))
    p = TwoBlockProblem(
        f=QuadraticDistance(rng.standard_normal(n), 1.2), h1=ZeroFunction(n),
        g=g_kinds(m, rng)[g_kind], h2=h2_kinds(m, rng)[h2_kind],
        A=rng.standard_normal((n, n)) + 2.0 * np.eye(n),
        B=B / np.linalg.norm(B, 2), b=rng.standard_normal(n))
    c = ConstantSchedule(0.4)
    sched = ParameterSchedule(c, ZeroMetric(n),
                              ProxFriendlyMetric(CoupledReciprocal(0.5, c), c, p.B))
    s0 = p.state(rng.standard_normal(n) * 3, rng.standard_normal(m) * 3,
                 rng.standard_normal(n) * 3)
    return p, sched, s0


def rows_z_residuals(p, traj):
    """The z-residual column recomputed a row at a time by ``kkt_residual``."""
    return np.array([p.kkt_residual(s).rz for s in traj._states()])


class TestDeferredZResidual:
    @pytest.mark.parametrize("g_kind", ["zero", "l1", "box_indicator",
                                        "quadratic_distance", "quadratic_form"])
    @pytest.mark.parametrize("h2_kind", ["zero", "quadratic_distance", "quadratic_form"])
    @pytest.mark.parametrize("every", [1, 7])
    def test_the_column_is_the_rows_own(self, g_kind, h2_kind, every):
        p, sched, s0 = kind_problem(g_kind, h2_kind)
        res = prox_ama_run(p, sched, s0, SolveConfig(max_iters=120, tol_kkt=1e-300,
                                                     tol_feas=1e-300, record_every=every))
        assert (res.status, res.iterations_used) == ("max_iters", 120)
        assert len(res.iterates.table) == 120 // every + 1 + bool(120 % every)
        assert res.iterates.table[:, -1].tobytes() == rows_z_residuals(p, res.iterates).tobytes()

    @pytest.mark.parametrize("g_kind", ["l1", "quadratic_form"])
    def test_the_column_is_the_rows_own_at_n_40(self, g_kind):
        # Long enough rows that a product summed in another order than the
        # row's own BLAS call would show in the last bits.
        p, sched, s0 = kind_problem(g_kind, "quadratic_form", n=40)
        res = prox_ama_run(p, sched, s0, SolveConfig(max_iters=60, tol_kkt=1e-300,
                                                     tol_feas=1e-300, record_every=3))
        assert len(res.iterates.table) == 21
        assert res.iterates.table[:, -1].tobytes() == rows_z_residuals(p, res.iterates).tobytes()

    @pytest.mark.parametrize("run, stop, rows", [
        ("c1-decay", ("converged", 4075), 4076), ("at-the-saddle", ("converged", 0), 1),
        ("error", ("error", 5), 2), ("max-iters", ("max_iters", 50), 9)],
        ids=["c1-decay", "at-the-saddle", "error", "max-iters"])
    @pytest.mark.parametrize("block", [1, 5, None])
    def test_the_column_is_the_rows_own_across_blocks(self, ex_problem, ex_start,
                                                      monkeypatch, block, run, stop, rows):
        # The pass after the loop writes the column on every return path: a
        # run that converges, at its start state too (the reference with z
        # moved by 1e-8, so its z-residual is not 0), one whose step fails
        # between recorded iterates, and one that takes every step; the
        # longest, 4,076 rows, fills five recorder blocks of 819 at n = 2, or
        # blocks of 1 and 5 rows.
        if block is not None:
            init = _Recorder.__init__

            def small_blocks(self, *args):
                init(self, *args)
                self.block = block
            monkeypatch.setattr(_Recorder, "__init__", small_blocks)
        sched, start, cfg = example_schedule(), ex_start, SolveConfig(record_every=7)
        if run == "c1-decay":
            sched, cfg = example_schedule("c1-decay", 0.99, ex_problem), SolveConfig()
        elif run == "at-the-saddle":
            ref = example_reference()
            start = PrimalDualState(ref.x, ref.z + 1e-8, ref.y)
        elif run == "error":
            sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2),
                                      ScaledIdentityMetric(_Drop(1.0, 1e-14), 2))
        else:
            cfg = SolveConfig(max_iters=50, record_every=7)
        res = prox_ama_run(ex_problem, sched, start, cfg)
        assert (res.status, res.iterations_used) == stop
        assert len(res.iterates.table) == rows
        assert (res.iterates.table[:, -1].tobytes()
                == rows_z_residuals(ex_problem, res.iterates).tobytes())

    def test_integrate_writes_the_column_too(self):
        p, sched, s0 = kind_problem("quadratic_form", "quadratic_form")
        traj = integrate(p, sched, s0, "rk4", 0.05, 5.0, 3)
        assert traj.table[:, -1].tobytes() == rows_z_residuals(p, traj).tobytes()

    def test_stopping_rows_read_their_z_residual_in_the_loop(self, ex_problem, ex_start,
                                                             monkeypatch):
        # A converged run's rows all pass the feasibility and x tolerances
        # from some iterate on; the stop rule reads those rows' rz in the
        # loop to judge them, and the start state's only if it passes them
        # too (on c025 it does not). The pass after the loop writes the
        # column of every row.
        # One formula serves both: a state's (1-d) reads are the rule's, a
        # block of rows (2-d) is the column's.
        read, passed = [], []
        formula = dynamics.TwoBlockProblem._z_residuals

        def counted(self, z, y):
            (read if z.ndim == 1 else passed).append(len(z))
            return formula(self, z, y)
        monkeypatch.setattr(dynamics.TwoBlockProblem, "_z_residuals", counted)
        res = prox_ama_run(ex_problem, example_schedule(), ex_start, SolveConfig())
        table = res.iterates.table
        assert res.status == "converged"
        feas, rx = table[:, -3], table[:, -2]
        assert len(read) == int(np.sum((feas <= 1e-6) & (rx <= 1e-6))) == 1
        assert passed == [len(table)] == [201]


def blowing_up(w):
    """The example with h2 = (w/2)|z|^2 from z = 0: z grows by about
    tau * w a step, so w |z| passes the float range, and with it the
    z-residual, while |z| and the other residuals are still finite."""
    from amaflow import example_problem

    ex = example_problem()
    p = TwoBlockProblem(ex.f, ex.h1, ex.g, QuadraticDistance(np.zeros(2), w), ex.A, ex.B,
                        ex.b)
    c = ConstantSchedule(0.25)
    sched = ParameterSchedule(c, ZeroMetric(2),
                              ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B))
    return p, sched, PrimalDualState([-10.0, 10.0], [0.0, 0.0], [-10.0, 10.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestZResidualDivergence:
    # The stop rule reads the z-residual only where the other two pass the
    # tolerance. Past the bound, or the float range, alone it is a record: the
    # run stops at the first state whose feasibility or x-residual is past
    # the bound, one state later here, whatever the cadence.
    @pytest.mark.parametrize("w, every, stop, rows", [(1e8, 1, 19, 20), (1e8, 3, 19, 8),
                                                      (1e3, 1, 43, 44), (1e3, 3, 43, 16)])
    def test_the_run_ends_where_another_residual_passes_the_bound(self, w, every, stop,
                                                                  rows):
        p, sched, s0 = blowing_up(w)
        res = prox_ama_run(p, sched, s0, SolveConfig(max_iters=2000, record_every=every))
        assert (res.status, res.iterations_used) == ("diverged", stop)
        assert res.message == f"residual NaN or past 1e+150 at iteration {stop}"
        table = res.iterates.table
        assert len(table) == rows and table[-1, 0] == stop
        assert res.final.y.tobytes() == table[-1, 5:7].tobytes()
        for row in table:
            kkt = p.kkt_residual(PrimalDualState(row[1:3], row[3:5], row[5:7]))
            assert row[7:].tobytes() == np.array([kkt.feas, kkt.rx, kkt.rz]).tobytes()
        assert (table[:-1, 7:9] <= DIVERGED_ABOVE).all()
        assert not (table[-1, 7:9] <= DIVERGED_ABOVE).all()
        assert table[-2, 0] == stop - 1 and table[-2, 9] > DIVERGED_ABOVE

    @pytest.mark.parametrize("block", [1, 4])
    def test_the_block_size_does_not_move_the_stop(self, monkeypatch, updates, block):
        # The z-residuals written a block at a time are a record only: the
        # run stops at the same state, and takes no step past it.
        init = _Recorder.__init__

        def small_blocks(self, *args):
            init(self, *args)
            self.block = block
        monkeypatch.setattr(_Recorder, "__init__", small_blocks)
        p, sched, s0 = blowing_up(1e3)
        res = prox_ama_run(p, sched, s0, SolveConfig(max_iters=2000))
        assert (res.status, res.iterations_used, len(res.iterates.table)) == ("diverged", 43, 44)
        assert len(updates) == 43

    def test_integrate_judges_its_recorded_states_only(self):
        # t = 18, recorded with an infinite z-residual alone, does not stop
        # the run; t = 19, past the bound in all three, is not recorded.
        p, sched, s0 = blowing_up(1e8)
        traj = integrate(p, sched, s0, "euler", 1.0, 100.0, 3)
        assert traj.status == "diverged" and traj.table[-1, 0] == 21.0
        assert "diverged at t=21" in traj.message
        assert traj.table[-2, 0] == 18.0 and traj.table[-2, 9] == math.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("every", [1, 100])
def test_the_large_penalty_run_diverges_at_138_on_its_x_residual(ex_problem, ex_start,
                                                                 every):
    c = ConstantSchedule(50.0)
    sched = ParameterSchedule(c, ZeroMetric(2),
                              ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, ex_problem.B))
    res = prox_ama_run(ex_problem, sched, ex_start, SolveConfig(max_iters=3000,
                                                                record_every=every))
    assert (res.status, res.iterations_used) == ("diverged", 138)
    assert len(res.iterates.table) == (139 if every == 1 else 3)
    feas, rx, rz = res.iterates.table[-1, 7:]
    assert feas <= DIVERGED_ABOVE < rx
