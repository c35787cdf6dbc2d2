import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amaflow import (
    CapabilityError,
    DenseMap,
    DimensionMismatchError,
    KKTResidual,
    L1Norm,
    PrimalDualState,
    QuadraticDistance,
    SolveConfig,
    TwoBlockProblem,
    ZeroFunction,
    example_problem,
    example_schedule,
    example_start,
    prox_ama_run,
)

Y_STAR = np.array([-1.0, 1.0]) / np.sqrt(2.0)


def state(p, x, z, y):
    return PrimalDualState(np.asarray(x, float), np.asarray(z, float), np.asarray(y, float))


class TestLagrangian:
    def test_at_origin_any_multiplier(self, ex_problem, rng):
        s0 = state(ex_problem, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        assert ex_problem.lagrangian(s0) == pytest.approx(0.5)
        for _ in range(10):
            s = state(ex_problem, [0.0, 0.0], [0.0, 0.0], rng.uniform(-3, 3, 2))
            # the origin pair is feasible, so the multiplier term vanishes
            assert ex_problem.lagrangian(s) == pytest.approx(0.5)

    def test_zero_multiplier_gives_primal(self, ex_problem, rng):
        for _ in range(20):
            x = rng.uniform(-4, 4, 2)
            z = rng.uniform(-4, 4, 2)
            s = state(ex_problem, x, z, [0.0, 0.0])
            assert ex_problem.lagrangian(s) == pytest.approx(
                ex_problem.primal_objective(x, z))

    def test_anchored_point(self, ex_problem):
        s = state(ex_problem, [1.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        assert ex_problem.lagrangian(s) == pytest.approx(0.0)


class TestPrimalObjective:
    def test_start_value(self, ex_problem, ex_start):
        # f((-10,10)) = ((-11)^2 + 10^2)/2 = 110.5, plus |z|_1 = 20
        val = ex_problem.primal_objective(ex_start.x, ex_start.z)
        assert val == pytest.approx(130.5)

    def test_infinite_term_propagates(self):
        from amaflow import BoxIndicator

        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(1), 1.0),
            h1=ZeroFunction(1),
            g=BoxIndicator([-1.0], [1.0]),
            h2=ZeroFunction(1),
            A=np.eye(1),
            B=np.eye(1),
            b=np.zeros(1),
        )
        assert math.isinf(p.primal_objective([0.0], [2.0]))


class TestDualObjective:
    def test_optimal_value(self, ex_problem):
        assert ex_problem.dual_objective(Y_STAR) == pytest.approx(0.5, abs=1e-9)

    def test_zero_multiplier(self, ex_problem):
        # -f*(0) = -min f = -0, -g*(0) = 0
        assert ex_problem.dual_objective(np.zeros(2)) == pytest.approx(0.0)

    def test_outside_dual_domain(self, ex_problem):
        # push B*y outside the unit sup-norm ball so g* blows up
        y = np.array([-10.0, 10.0])
        assert ex_problem.dual_objective(y) == -math.inf

    def test_needs_plain_smooth_parts(self):
        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(1), 1.0),
            h1=QuadraticDistance(np.zeros(1), 1.0),
            g=L1Norm(1, 1.0),
            h2=ZeroFunction(1),
            A=np.eye(1),
            B=np.eye(1),
            b=np.zeros(1),
        )
        with pytest.raises(CapabilityError):
            p.dual_objective(np.zeros(1))

    def test_weak_duality_on_probes(self, ex_problem, rng):
        best_primal = 0.5
        for _ in range(40):
            y = rng.uniform(-0.6, 0.6, 2)
            d = ex_problem.dual_objective(y)
            assert d <= best_primal + 1e-9


class TestFeasibility:
    def test_reference_is_feasible(self, ex_problem):
        s = state(ex_problem, [0.0, 0.0], [0.0, 0.0], Y_STAR)
        assert ex_problem.feasibility_residual(s) == pytest.approx(0.0)

    def test_unit_violation(self, ex_problem):
        # A(1,0) has norm 1 (columns of A are unit) so the residual is 1
        s = state(ex_problem, [1.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        assert ex_problem.feasibility_residual(s) == pytest.approx(1.0)

    def test_offset_right_hand_side(self):
        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(2), 1.0),
            h1=ZeroFunction(2),
            g=L1Norm(2, 1.0),
            h2=ZeroFunction(2),
            A=np.eye(2),
            B=np.eye(2),
            b=np.array([1.0, 1.0]),
        )
        s = state(p, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        assert p.feasibility_residual(s) == pytest.approx(np.sqrt(2.0))


class TestKKTResidual:
    def test_saddle_point(self, ex_problem):
        s = state(ex_problem, [0.0, 0.0], [0.0, 0.0], Y_STAR)
        r = ex_problem.kkt_residual(s)
        assert r.rx <= 1e-9
        assert r.rz <= 1e-9
        assert r.feas <= 1e-9
        assert r.max <= 1e-9

    def test_rounded_multiplier_is_close(self, ex_problem):
        # five-decimal rounding of the multiplier perturbs the x-residual to
        # a few parts in 1e6; it should still sit below a loose gate
        s = state(ex_problem, [0.0, 0.0], [0.0, 0.0], [-0.70711, 0.70711])
        assert ex_problem.kkt_residual(s).max <= 5e-6

    def test_zero_multiplier_x_pull(self, ex_problem):
        # with y=0 the x-block fixed point is the anchor, one unit away in
        # the first coordinate, scaled by the prox step denominator
        s = state(ex_problem, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        r = ex_problem.kkt_residual(s)
        assert r.rx == pytest.approx(0.5)
        assert r.rz == pytest.approx(0.0)

    def test_equals_the_norm_formula_bit_for_bit(self, rng):
        n = 6
        A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        p = TwoBlockProblem(
            f=QuadraticDistance(rng.standard_normal(n), 1.5),
            h1=QuadraticDistance(rng.standard_normal(n), 0.3), g=L1Norm(n, 0.7),
            h2=QuadraticDistance(rng.standard_normal(n), 0.2), A=A,
            B=B, b=rng.standard_normal(n))
        for _ in range(20):
            x, z, y = (rng.standard_normal(n) * 10.0 for _ in range(3))
            r = p.kkt_residual(state(p, x, z, y))
            rx = x - p.f.prox(1.0, x + A.T @ y - p.h1.grad(x))
            rz = z - p.g.prox(1.0, z + B.T @ y - p.h2.grad(z))
            assert r.rx == float(np.linalg.norm(rx))
            assert r.rz == float(np.linalg.norm(rz))
            assert r.feas == float(np.linalg.norm(A @ x + B @ z - p.b))

    def test_max_field(self, ex_problem):
        s = state(ex_problem, [3.0, 0.0], [1.0, -1.0], [0.2, 0.1])
        r = ex_problem.kkt_residual(s)
        assert r.max == pytest.approx(max(r.rx, r.rz, r.feas))

    @pytest.mark.parametrize("where", range(3))
    def test_max_is_nan_when_a_residual_is(self, where):
        # Python's max() returns its first argument when a later one is NaN
        values = [1e-12, 0.0, 2e-12]
        values[where] = math.nan
        assert math.isnan(KKTResidual(*values).max)


class TestSaddleInequalities:
    def test_probes(self, ex_problem, rng):
        star = state(ex_problem, [0.0, 0.0], [0.0, 0.0], Y_STAR)
        l_star = ex_problem.lagrangian(star)
        for _ in range(100):
            y = rng.uniform(-2, 2, 2)
            lhs = ex_problem.lagrangian(state(ex_problem, star.x, star.z, y))
            assert lhs <= l_star + 1e-9
            x = rng.uniform(-3, 3, 2)
            z = rng.uniform(-3, 3, 2)
            rhs = ex_problem.lagrangian(state(ex_problem, x, z, star.y))
            assert rhs >= l_star - 1e-9


class TestConstruction:
    def test_example_shapes(self, ex_problem):
        assert ex_problem.dim_x == 2
        assert ex_problem.dim_z == 2
        assert ex_problem.dim_y == 2
        assert ex_problem.norm_A == pytest.approx(1.0, abs=1e-8)
        assert ex_problem.norm_B == pytest.approx(1.0, abs=1e-8)

    def test_rejects_weakly_convex_first_block(self):
        with pytest.raises(ValueError):
            TwoBlockProblem(
                f=L1Norm(1, 1.0),
                h1=ZeroFunction(1),
                g=L1Norm(1, 1.0),
                h2=ZeroFunction(1),
                A=np.eye(1),
                B=np.eye(1),
                b=np.zeros(1),
            )

    def test_rejects_nonsmooth_coupling_term(self):
        with pytest.raises(ValueError):
            TwoBlockProblem(
                f=QuadraticDistance(np.zeros(1), 1.0),
                h1=L1Norm(1, 1.0),
                g=L1Norm(1, 1.0),
                h2=ZeroFunction(1),
                A=np.eye(1),
                B=np.eye(1),
                b=np.zeros(1),
            )

    def test_rejects_null_first_operator(self):
        with pytest.raises(ValueError):
            TwoBlockProblem(
                f=QuadraticDistance(np.zeros(1), 1.0),
                h1=ZeroFunction(1),
                g=L1Norm(1, 1.0),
                h2=ZeroFunction(1),
                A=[[0.0]],
                B=np.eye(1),
                b=np.zeros(1),
            )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["A", "B", "b"])
    def test_rejects_non_finite_data(self, name, bad):
        data = {"A": np.eye(2), "B": np.eye(2), "b": np.zeros(2)}
        data[name].flat[-1] = bad
        h = ZeroFunction(2)
        with pytest.raises(ValueError, match=f"^{name} must have finite entries$"):
            TwoBlockProblem(f=QuadraticDistance(np.zeros(2)), h1=h, g=L1Norm(2), h2=h,
                            A=data["A"], B=data["B"], b=data["b"])

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            TwoBlockProblem(
                f=QuadraticDistance(np.zeros(2), 1.0),
                h1=ZeroFunction(2),
                g=L1Norm(1, 1.0),
                h2=ZeroFunction(1),
                A=np.eye(2),
                B=np.eye(1),
                b=np.zeros(2),
            )

    @pytest.mark.parametrize("edit, message", [
        ({"h1": ZeroFunction(3)}, "x block (h1): expected dimension 2, got 3"),
        ({"h2": ZeroFunction(3)}, "z block (h2): expected dimension 2, got 3"),
        ({"B": np.ones((3, 2))}, "constraint rows (B): expected dimension 2, got 3"),
        ({"A": np.ones((2, 3))}, "x block: expected dimension 2, got 3"),
        ({"g": L1Norm(3), "h2": ZeroFunction(3)}, "z block: expected dimension 3, got 2"),
        ({"b": np.zeros(3)}, "constraint rows: expected dimension 3, got 2"),
    ], ids=["h1", "h2", "B-rows", "A-columns", "B-columns", "b"])
    def test_mismatch_names_the_sizes_that_disagree(self, edit, message):
        parts = {"f": QuadraticDistance(np.zeros(2)), "h1": ZeroFunction(2), "g": L1Norm(2),
                 "h2": ZeroFunction(2), "A": np.eye(2), "B": np.eye(2),
                 "b": np.zeros(2)}
        with pytest.raises(DimensionMismatchError) as err:
            TwoBlockProblem(**{**parts, **edit})
        assert str(err.value) == message

    def test_state_coercion_and_mismatch(self, ex_problem):
        s = ex_problem.state([1, 2], [3, 4], [5, 6])
        assert s.x.dtype == np.float64
        with pytest.raises(DimensionMismatchError):
            ex_problem.state([1.0], [3.0, 4.0], [5.0, 6.0])

    def test_example_matches_fresh_build(self, ex_problem):
        q = example_problem()
        assert np.allclose(q.A, ex_problem.A)
        assert np.allclose(q.B, ex_problem.B)
        s = example_start()
        assert s.x == pytest.approx([-10.0, 10.0])


class TestArrayOperators:
    """A and B are float64 arrays, kept as given or converted once at build."""

    @staticmethod
    def build(A, B):
        ex = example_problem()
        return TwoBlockProblem(ex.f, ex.h1, ex.g, ex.h2, A, B, ex.b)

    def test_float_arrays_are_kept_as_given(self, rng):
        A, B = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
        p = self.build(A, B)
        assert p.A is A and p.B is B
        assert p.At.base is A and p.Bt.base is B

    def test_arrays_lists_and_dense_maps_give_bit_identical_runs(self):
        ex = example_problem()
        tables = []
        for A, B in ((ex.A, ex.B), (ex.A.tolist(), ex.B.tolist()),
                     (DenseMap(ex.A.tolist()), DenseMap(ex.B.tolist()))):
            p = self.build(A, B)
            assert type(p.A) is type(p.B) is np.ndarray and p.A.dtype == p.B.dtype == np.float64
            res = prox_ama_run(p, example_schedule("c025", 0.99, p), example_start(),
                               SolveConfig(max_iters=400))
            tables.append(res.iterates.table.tobytes())
        assert tables[0] == tables[1] == tables[2]

    @pytest.mark.parametrize("name, shape, message", [
        ("A", (2,), "matrix must be 2-d"), ("A", (2, 2, 1), "matrix must be 2-d"),
        ("b", (2, 1), "right-hand side b must be a vector"),
    ], ids=["1-d", "3-d", "b-2-d"])
    def test_an_array_of_another_rank_raises(self, name, shape, message):
        ex = example_problem()
        parts = {"A": ex.A, "B": ex.B, "b": ex.b, name: np.ones(shape)}
        with pytest.raises(ValueError, match=message):
            TwoBlockProblem(ex.f, ex.h1, ex.g, ex.h2, parts["A"], parts["B"], parts["b"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_spectra_on_first_use_equal_the_direct_calls_bit_for_bit(m, n_x, n_z, seed):
    """Tall, square and wide A and B: the cached spectra are numpy's own calls."""
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((m, n_x)), rng.standard_normal((m, n_z))
    p = TwoBlockProblem(f=QuadraticDistance(np.zeros(n_x)), h1=ZeroFunction(n_x),
                        g=L1Norm(n_z), h2=ZeroFunction(n_z), A=A, B=B,
                        b=np.zeros(m))
    sv = np.linalg.svd(B, compute_uv=False)
    assert p.norm_A == float(np.linalg.norm(A, 2))
    assert p.norm_B == float(sv[0])
    assert p.btb_min == (0.0 if m < n_z else float(sv[-1]) ** 2)
    assert type(p.norm_A) is type(p.norm_B) is type(p.btb_min) is float
