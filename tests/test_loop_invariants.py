"""The n = 2 path's loop invariants, computed once where they stop changing:
the committed reference saddle, the constant schedule snapshot, the catalog's
per-step constants and the stacked RK4 state. Each must give the bits of the
computation it replaces."""

import sys
import threading
from functools import partial

import numpy as np
import pytest

from amaflow import (
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    L1Norm,
    ParameterSchedule,
    ProxFriendlyMetric,
    QuadraticDistance,
    ReciprocalQuadratic,
    ScaledIdentityMetric,
    SolveConfig,
    TwoBlockProblem,
    ZeroFunction,
    ZeroMetric,
    ama_run,
    example_reference,
    example_schedule,
    example_start,
    integrate,
    prox_ama_run,
)
from amaflow import dynamics
from amaflow.diagnostics import check_reference
from amaflow.dynamics import _snapshot, _step
from amaflow.trajectory import _run


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCommittedReference:
    def test_the_constant_is_the_solve_it_stands_for(self, ex_problem):
        ref = example_reference()
        cfg = SolveConfig(max_iters=100000, tol_kkt=1e-10, tol_feas=1e-10,
                          record_every=100000)
        solved = prox_ama_run(ex_problem, example_schedule("c025", 0.99, ex_problem),
                              example_start(), cfg)
        assert solved.status == "converged"
        for key in "xzy":
            assert np.abs(getattr(ref, key) - getattr(solved.final, key)).max() <= 1e-12
        assert ref.t == 0.0
        check_reference(ex_problem, ref)

    def test_each_call_returns_its_own_arrays(self):
        a, b = example_reference(), example_reference()
        assert a is not b and a.x is not b.x
        a.y[0] = 5.0
        assert b.y[0] == pytest.approx(-1 / np.sqrt(2))


class PerT(ConstantSchedule):
    """A constant schedule that the snapshot does not know as one, so it is
    read at every t."""


def schedules(p):
    """Pairs (constant, read per t) of equal schedules on the example, one for
    each kind of snapshot."""
    n = p.dim_x
    out = []
    for Const in (ConstantSchedule, PerT):
        c, c2 = Const(0.25), Const(0.5)
        tau = CoupledReciprocal(0.99, c)
        out.append([
            ParameterSchedule(c, ZeroMetric(n), ProxFriendlyMetric(tau, c, p.B)),
            ParameterSchedule(c, ScaledIdentityMetric(Const(0.3), n),
                              ProxFriendlyMetric(tau, c, p.B)),
            # a prox-friendly M2 with another c runs as its dense matrix
            ParameterSchedule(c2, ZeroMetric(n),
                              ProxFriendlyMetric(CoupledReciprocal(0.9, c), c, p.B)),
            ParameterSchedule(c, ZeroMetric(n), ZeroMetric(n)),
            ParameterSchedule(c, ZeroMetric(n),
                              ConstantDenseMetric(np.array([[0.6, 0.1], [0.1, 0.4]]))),
            ParameterSchedule(c, ScaledIdentityMetric(Const(0.3), n),
                              ScaledIdentityMetric(Const(0.7), n)),
        ])
    return list(zip(*out))


def rk4_table(p, sched, s0):
    """The table of a short RK4 run, or of the part before it stopped (the
    zero M2 on the example's rank-one B is not uniformly positive)."""
    return integrate(p, sched, s0, "rk4", 0.05, 1.0, 3).table


class TestConstantSnapshot:
    TIMES = (0.0, 1.0, 2.5, 1e6)

    @pytest.mark.parametrize("index", range(6))
    def test_a_constant_snapshot_is_one_tuple_equal_to_the_per_t_reading(
            self, index, ex_problem):
        const, per_t = schedules(ex_problem)[index]
        snap, read = _snapshot(ex_problem, const), _snapshot(ex_problem, per_t)
        first = snap(0.0)
        for t in self.TIMES:
            assert snap(t) is first
            got, want = snap(t), read(t)
            assert got[0] == want[0] and got[2:] == want[2:]
            assert (got[1] is None) == (want[1] is None)
            if got[1] is not None:
                assert same_bits(got[1], want[1])

    @pytest.mark.parametrize("index", range(6))
    def test_runs_equal_the_per_t_runs(self, index, ex_problem, ex_start):
        const, per_t = schedules(ex_problem)[index]
        cfg = SolveConfig(max_iters=60, tol_kkt=1e-300, tol_feas=1e-300, record_every=7)
        a = prox_ama_run(ex_problem, const, ex_start, cfg).iterates.table
        b = prox_ama_run(ex_problem, per_t, ex_start, cfg).iterates.table
        assert same_bits(a, b)
        a, b = (rk4_table(ex_problem, s, ex_start) for s in (const, per_t))
        assert same_bits(a, b)

    def test_ama_runs_read_a_constant_c_once(self, ex_problem, ex_start, monkeypatch):
        cfg = SolveConfig(max_iters=40, tol_kkt=1e-300, tol_feas=1e-300, record_every=5)
        reads = []
        c = ConstantSchedule(0.25)
        monkeypatch.setattr(c, "value_at", lambda t: reads.append(t) or 0.25)
        a = ama_run(ex_problem, c, ex_start, cfg).iterates.table
        assert reads == [0.0]
        b = ama_run(ex_problem, PerT(0.25), ex_start, cfg).iterates.table
        assert same_bits(a, b)

    def test_varying_schedules_are_read_at_every_t(self, ex_problem):
        p, n = ex_problem, ex_problem.dim_x
        decay = ReciprocalQuadratic(1.1, 0.01)
        const = ConstantSchedule(0.25)
        cases = [
            # (schedule, what the snapshot must give at t)
            (example_schedule("c1-decay", 0.99, p),
             lambda t: (0.0, decay.value_at(t), 0.99 / decay.value_at(t))),
            (ParameterSchedule(const, ScaledIdentityMetric(decay, n),
                               ProxFriendlyMetric(CoupledReciprocal(0.99, const),
                                                  const, p.B)),
             lambda t: (decay.value_at(t), 0.25, 0.99 / 0.25)),
            (ParameterSchedule(const, ZeroMetric(n),
                               ProxFriendlyMetric(CoupledReciprocal(0.99, decay),
                                                  const, p.B)),
             lambda t: (0.0, 0.25, 0.99 / decay.value_at(t))),
        ]
        for sched, want in cases:
            snap = _snapshot(p, sched)
            seen = set()
            for t in (0.0, 0.5, 3.0):
                mu1, K, c, tau = snap(t)
                assert K is None and (mu1, c, tau) == want(t)
                seen.add((mu1, c, tau))
            assert len(seen) == 3
        # M2 = mu(t) Id: its K follows mu(t)
        snap = _snapshot(p, ParameterSchedule(const, ZeroMetric(n),
                                              ScaledIdentityMetric(decay, n)))
        for t in (0.0, 0.5, 3.0):
            assert same_bits(snap(t)[1], np.eye(n) * decay.value_at(t))


# Operands where an arithmetic slip shows: signed zeros, infinities, NaN,
# subnormals, numbers at and around the thresholds.
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                    2.2250738585072014e-308, -1e-310, 1.0, -1.0, 0.99, -3.96,
                    3.96000001, 1e300, -1e300, 0.3, -2.7])
GAMMAS = (1.0, 3.96, 1.0, 0.5, 3.96, 5e-324, 1e300, 0.5, 5e-324, 1.0)


def l1_prox(w, g, x):
    return np.sign(x) * np.maximum(np.abs(x) - g * w, 0.0)


def qd_prox(w, d, g, x):
    return (x + g * w * d) / (1.0 + g * w)


def special_pairs():
    """Inputs of length 2 taking every pair of the special values."""
    i, j = np.meshgrid(np.arange(SPECIAL.size), np.arange(SPECIAL.size))
    return np.stack([SPECIAL[i.ravel()], SPECIAL[j.ravel()]], axis=1)


def catalog():
    out = []
    for w in (1.0, 0.7, 0.0, 5e-324):
        out.append((L1Norm(2, w), lambda g, x, w=w: l1_prox(w, g, x)))
    for w, d in ((1.0, [1.0, 0.0]), (0.7, [-0.0, 2.5]), (5e-324, [1e300, -3.0])):
        out.append((QuadraticDistance(d, w),
                    lambda g, x, w=w, d=np.array(d): qd_prox(w, d, g, x)))
    return out


class TestCachedProxConstants:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_gamma_sequences_give_the_uncached_bits(self):
        xs = special_pairs()
        for fun, formula in catalog():
            for g in GAMMAS:
                for x in xs:
                    assert same_bits(fun._prox(g, x), formula(g, x)), (fun.kind, g, x)
                    assert same_bits(fun.prox(g, x), formula(g, x))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unit_weight_conjugate_gradient_skips_nothing(self):
        for w in (1.0, 0.7):
            fun = QuadraticDistance([1.0, -0.0], w)
            for s in special_pairs():
                assert same_bits(fun._conj_grad(s), fun.d + s / w)

    def test_the_anchor_is_a_read_only_copy(self):
        d = np.array([1.0, 0.0])
        fun = QuadraticDistance(d, 2.0)
        d[0] = 9.0
        assert fun.d[0] == 1.0 and not fun.d.flags.writeable
        assert same_bits(fun._prox(0.5, np.zeros(2)), qd_prox(2.0, np.array([1.0, 0.0]),
                                                              0.5, np.zeros(2)))

    def test_a_function_shared_by_two_problems(self):
        """Two problems share f and g, with other steps; their runs, taken in
        turns, equal runs on functions of their own."""
        def problem(f, g):
            A = np.array([[2.0, 1.0], [-2.0, 1.0]]) / np.sqrt(8.0)
            B = np.array([[-3.0, 0.0], [4.0, 0.0]]) / 5.0
            return TwoBlockProblem(f=f, h1=ZeroFunction(2), g=g, h2=ZeroFunction(2),
                                   A=A, B=B, b=np.array([0.1, -0.2]))

        def sched(p, c, tau_c, mu):
            c = ConstantSchedule(c)
            return ParameterSchedule(c, ScaledIdentityMetric(ConstantSchedule(mu), 2),
                                     ProxFriendlyMetric(CoupledReciprocal(tau_c, c), c,
                                                        p.B))

        f, g = QuadraticDistance([1.0, 0.0], 0.7), L1Norm(2, 0.4)
        shared = [problem(f, g), problem(f, g)]
        own = [problem(QuadraticDistance([1.0, 0.0], 0.7), L1Norm(2, 0.4))
               for _ in range(2)]
        params = [(0.25, 0.99, 0.5), (1.5, 0.5, 2.0)]
        cfg = SolveConfig(max_iters=3, tol_kkt=1e-300, tol_feas=1e-300)
        s = [example_start()] * 2
        t = [example_start()] * 2
        for _ in range(20):
            for i in (0, 1):
                a = prox_ama_run(shared[i], sched(shared[i], *params[i]), s[i], cfg)
                b = prox_ama_run(own[i], sched(own[i], *params[i]), t[i], cfg)
                assert same_bits(a.iterates.table, b.iterates.table)
                s[i], t[i] = a.final, b.final

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_function_shared_by_four_threads(self):
        funs = [L1Norm(2, 0.7), QuadraticDistance([1.0, -2.0], 0.7)]
        formulas = [lambda g, x: l1_prox(0.7, g, x),
                    lambda g, x: qd_prox(0.7, np.array([1.0, -2.0]), g, x)]
        xs = special_pairs()
        wrong = []
        sequences = ((1.0, 3.96, 1.0), (0.5, 1.0, 2.5), (3.96, 0.5, 3.96), (2.5, 1.0, 0.5))
        barrier = threading.Barrier(len(sequences))

        def work(gammas):
            barrier.wait()
            for _ in range(3):
                for g in gammas:
                    for x in xs[::7]:
                        for fun, formula in zip(funs, formulas):
                            if not same_bits(fun._prox(g, x), formula(g, x)):
                                wrong.append((fun.kind, g))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(gs,)) for gs in sequences]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []


def blockwise_rk4(p, snap, h):
    """The RK4 step as it was written before its stages were stacked: each
    block combined on its own, each stage a separate update."""
    half, sixth = 0.5 * h, h / 6.0

    def field(params, x, z, y, aty=None, bz=None):
        x_new, z_new, w = dynamics.alternating_update(p, *params, x, z, y, aty=aty, bz=bz)[:3]
        return x_new - x, z_new - z, w

    def step(t, x, z, y, aty, bz, s):
        mid = snap(t + half)
        u1, v1, w1 = field(snap(t), x, z, y, aty, bz)
        u2, v2, w2 = field(mid, x + u1 * half, z + v1 * half, y + w1 * half)
        u3, v3, w3 = field(mid, x + u2 * half, z + v2 * half, y + w2 * half)
        u4, v4, w4 = field(snap(t + h), x + u3 * h, z + v3 * h, y + w3 * h)
        return (x + (u1 + u2 * 2.0 + u3 * 2.0 + u4) * sixth,
                z + (v1 + v2 * 2.0 + v3 * 2.0 + v4) * sixth,
                (w1 + w2 * 2.0 + w3 * 2.0 + w4) * sixth, None, None, None)
    return step


def smooth_problem(n, seed):
    """Smooth h1 and h2, a nonzero b and, for n != m, blocks of other lengths."""
    rng = np.random.default_rng(seed)
    m = n + 1
    B = rng.standard_normal((n, m))
    p = TwoBlockProblem(
        f=QuadraticDistance(rng.standard_normal(n), 1.5),
        h1=QuadraticDistance(rng.standard_normal(n), 0.3),
        g=L1Norm(m, 0.7), h2=QuadraticDistance(rng.standard_normal(m), 0.2),
        A=rng.standard_normal((n, n)) + 2.0 * np.eye(n),
        B=B / np.linalg.norm(B, 2), b=rng.standard_normal(n))
    s0 = p.state(rng.standard_normal(n), rng.standard_normal(m), rng.standard_normal(n))
    G = rng.standard_normal((m, m))
    return p, s0, G @ G.T / m + 0.5 * np.eye(m)


class TestStackedRungeKutta:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m2", ["dense", "prox-friendly"])
    def test_the_stacked_step_is_the_blockwise_step(self, n, m2):
        p, s0, K = smooth_problem(n, 40 + n)
        c = ReciprocalQuadratic(1.1, 0.3)
        M1 = ScaledIdentityMetric(ConstantSchedule(0.5), n)
        M2 = (ConstantDenseMetric(K) if m2 == "dense"
              else ProxFriendlyMetric(CoupledReciprocal(0.9, c), c, p.B))
        snap = _snapshot(p, ParameterSchedule(c, M1, M2))
        h, steps = 0.05, 60
        tables = [_run(p, s0, make(p, snap, h), h, steps, 1)[2].finish()
                  for make in (partial(_step, method="rk4"), blockwise_rk4)]
        assert len(tables[0]) == steps + 1
        assert same_bits(*tables)

    def test_integrate_equals_the_blockwise_loop_on_the_example(self, ex_problem,
                                                                ex_start):
        sched = example_schedule("c1-decay", 0.99, ex_problem)
        traj = integrate(ex_problem, sched, ex_start, "rk4", 0.01, 2.0, 10)
        snap = _snapshot(ex_problem, sched)
        rec = _run(ex_problem, ex_start, blockwise_rk4(ex_problem, snap, 0.01), 0.01,
                   200, 10)[2]
        assert same_bits(traj.table, rec.finish())
