import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amaflow import (
    CapabilityError,
    DenseMap,
    DimensionMismatchError,
    L1Norm,
    PrimalDualState,
    QuadraticDistance,
    TwoBlockProblem,
    ZeroFunction,
    example_problem,
    example_start,
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
        from amaflow import BoxIndicator, IdentityMap

        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(1), 1.0),
            h1=ZeroFunction(1),
            g=BoxIndicator([-1.0], [1.0]),
            h2=ZeroFunction(1),
            A=IdentityMap(1),
            B=IdentityMap(1),
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
        from amaflow import IdentityMap

        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(1), 1.0),
            h1=QuadraticDistance(np.zeros(1), 1.0),
            g=L1Norm(1, 1.0),
            h2=ZeroFunction(1),
            A=IdentityMap(1),
            B=IdentityMap(1),
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
        from amaflow import IdentityMap

        p = TwoBlockProblem(
            f=QuadraticDistance(np.zeros(2), 1.0),
            h1=ZeroFunction(2),
            g=L1Norm(2, 1.0),
            h2=ZeroFunction(2),
            A=IdentityMap(2),
            B=IdentityMap(2),
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
            h2=QuadraticDistance(rng.standard_normal(n), 0.2), A=DenseMap(A),
            B=DenseMap(B), b=rng.standard_normal(n))
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
        from amaflow import IdentityMap

        with pytest.raises(ValueError):
            TwoBlockProblem(
                f=L1Norm(1, 1.0),
                h1=ZeroFunction(1),
                g=L1Norm(1, 1.0),
                h2=ZeroFunction(1),
                A=IdentityMap(1),
                B=IdentityMap(1),
                b=np.zeros(1),
            )

    def test_rejects_nonsmooth_coupling_term(self):
        from amaflow import IdentityMap

        with pytest.raises(ValueError):
            TwoBlockProblem(
                f=QuadraticDistance(np.zeros(1), 1.0),
                h1=L1Norm(1, 1.0),
                g=L1Norm(1, 1.0),
                h2=ZeroFunction(1),
                A=IdentityMap(1),
                B=IdentityMap(1),
                b=np.zeros(1),
            )

    def test_rejects_null_first_operator(self):
        from amaflow import IdentityMap

        with pytest.raises(ValueError):
            TwoBlockProblem(
                f=QuadraticDistance(np.zeros(1), 1.0),
                h1=ZeroFunction(1),
                g=L1Norm(1, 1.0),
                h2=ZeroFunction(1),
                A=DenseMap([[0.0]]),
                B=IdentityMap(1),
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
                            A=DenseMap(data["A"]), B=DenseMap(data["B"]), b=data["b"])

    def test_rejects_mismatched_dimensions(self):
        from amaflow import IdentityMap

        with pytest.raises(DimensionMismatchError):
            TwoBlockProblem(
                f=QuadraticDistance(np.zeros(2), 1.0),
                h1=ZeroFunction(2),
                g=L1Norm(1, 1.0),
                h2=ZeroFunction(1),
                A=IdentityMap(2),
                B=IdentityMap(1),
                b=np.zeros(2),
            )

    def test_state_coercion_and_mismatch(self, ex_problem):
        s = ex_problem.state([1, 2], [3, 4], [5, 6])
        assert s.x.dtype == np.float64
        with pytest.raises(DimensionMismatchError):
            ex_problem.state([1.0], [3.0, 4.0], [5.0, 6.0])

    def test_example_matches_fresh_build(self, ex_problem):
        q = example_problem()
        assert np.allclose(q.A.as_matrix(), ex_problem.A.as_matrix())
        assert np.allclose(q.B.as_matrix(), ex_problem.B.as_matrix())
        s = example_start()
        assert s.x == pytest.approx([-10.0, 10.0])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_spectra_on_first_use_equal_the_direct_calls_bit_for_bit(m, n_x, n_z, seed):
    """Tall, square and wide A and B: the cached spectra are numpy's own calls."""
    rng = np.random.default_rng(seed)
    A, B = rng.standard_normal((m, n_x)), rng.standard_normal((m, n_z))
    p = TwoBlockProblem(f=QuadraticDistance(np.zeros(n_x)), h1=ZeroFunction(n_x),
                        g=L1Norm(n_z), h2=ZeroFunction(n_z), A=DenseMap(A), B=DenseMap(B),
                        b=np.zeros(m))
    sv = np.linalg.svd(B, compute_uv=False)
    assert p.norm_A == float(np.linalg.norm(A, 2))
    assert p.norm_B == float(sv[0])
    assert p.btb_min == (0.0 if m < n_z else float(sv[-1]) ** 2)
    assert type(p.norm_A) is type(p.norm_B) is type(p.btb_min) is float
