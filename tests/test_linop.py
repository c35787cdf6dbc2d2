import numpy as np
import pytest

from amaflow import (
    DenseMap,
    DimensionMismatchError,
    IdentityMap,
    ScaledIdentityMap,
    min_eigenvalue_sym,
    operator_norm,
)

A_MAT = np.array([[2.0, 1.0], [-2.0, 1.0]]) / np.sqrt(8.0)
B_MAT = np.array([[-3.0, 0.0], [4.0, 0.0]]) / 5.0


class TestApply:
    def test_dense_columns(self):
        out = DenseMap(A_MAT).apply([1.0, 0.0])
        assert out == pytest.approx([0.7071067811865475, -0.7071067811865475])

    def test_identity(self):
        assert IdentityMap(2).apply([3.0, -4.0]) == pytest.approx([3.0, -4.0])

    def test_dense_second(self):
        assert DenseMap(B_MAT).apply([5.0, 7.0]) == pytest.approx([-3.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DenseMap(A_MAT).apply([1.0, 2.0, 3.0])

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (7, 4), (64, 64), (400, 400)])
    def test_dense_products_equal_matmul_bit_for_bit(self, shape, rng):
        m = rng.standard_normal(shape)
        op = DenseMap(m)
        x = rng.standard_normal(2 * shape[1])
        y = rng.standard_normal(shape[0])
        assert np.array_equal(op.apply(x[::2]), m @ x[::2])
        assert np.array_equal(op.apply(x[: shape[1]]), m @ x[: shape[1]])
        assert np.array_equal(op.adjoint_apply(y), m.T @ y)


class TestAdjoint:
    def test_dense_adjoint_values(self):
        out = DenseMap(A_MAT).adjoint_apply([-0.7071067811865475, 0.7071067811865475])
        assert out == pytest.approx([-1.0, 0.0], abs=1e-12)

    def test_identity_adjoint(self):
        m = IdentityMap(3)
        v = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(m.adjoint_apply(v), m.apply(v))

    def test_dense_second_adjoint(self):
        assert DenseMap(B_MAT).adjoint_apply([1.0, 0.0]) == pytest.approx([-0.6, 0.0])

    def test_adjoint_identity_on_probes(self, rng):
        maps = [
            DenseMap(A_MAT),
            DenseMap(rng.standard_normal((3, 2)).T),
            DenseMap(rng.standard_normal((4, 3))),
            ScaledIdentityMap(3, 2.5),
            IdentityMap(2),
        ]
        for m in maps:
            for _ in range(100):
                x = rng.standard_normal(m.dim_in)
                y = rng.standard_normal(m.dim_out)
                lhs = float(np.dot(m.adjoint_apply(y), x))
                rhs = float(np.dot(y, m.apply(x)))
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


class TestOperatorNorm:
    def test_example_operators_are_unit_norm(self):
        assert operator_norm(DenseMap(A_MAT)) == pytest.approx(1.0, abs=1e-8)
        assert operator_norm(DenseMap(B_MAT)) == pytest.approx(1.0, abs=1e-8)

    def test_scaled_identity(self):
        assert operator_norm(ScaledIdentityMap(3, -2.5)) == pytest.approx(2.5, abs=1e-10)

    def test_zero_map(self):
        assert operator_norm(ScaledIdentityMap(4, 0.0)) == 0.0

    def test_submultiplicative(self, rng):
        for _ in range(10):
            m = DenseMap(rng.standard_normal((3, 3)))
            n = DenseMap(rng.standard_normal((3, 3)))
            prod = operator_norm(DenseMap(m.matrix @ n.matrix))
            assert prod <= operator_norm(m) * operator_norm(n) + 1e-8

    def test_near_degenerate_top_gap_matches_svd(self, rng):
        # A top singular gap of 1e-4 is where a power iteration stalls.
        q1, _ = np.linalg.qr(rng.standard_normal((400, 400)))
        q2, _ = np.linalg.qr(rng.standard_normal((400, 400)))
        sv = np.linspace(1.0, 0.2, 400)
        sv[1] = 1.0 - 1e-4
        for mat in (np.diag([2.0, 2.0 - 1e-4]), (q1 * sv) @ q2.T):
            expect = np.linalg.svd(mat, compute_uv=False)[0]
            assert abs(operator_norm(DenseMap(mat)) - expect) <= 1e-12 * expect

    def test_all_ones_start_in_null_direction(self):
        # The all-ones vector is annihilated; the fallback probe must kick in.
        m = DenseMap(np.array([[1.0, -1.0]]))
        assert operator_norm(m) == pytest.approx(np.sqrt(2.0), abs=1e-10)


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue_sym(IdentityMap(2)) == pytest.approx(1.0)

    def test_gram_of_rank_deficient(self):
        assert min_eigenvalue_sym(DenseMap(B_MAT.T @ B_MAT)) == pytest.approx(0.0, abs=1e-10)

    def test_prox_friendly_combination(self):
        m = DenseMap(np.eye(2) - 0.25 * (B_MAT.T @ B_MAT))
        assert min_eigenvalue_sym(m) == pytest.approx(0.75, abs=1e-10)

    def test_shift_property(self, rng):
        mat = rng.standard_normal((3, 3))
        sym = DenseMap(mat + mat.T)
        base = min_eigenvalue_sym(sym)
        shifted = min_eigenvalue_sym(DenseMap(sym.matrix + 0.7 * np.eye(3)))
        assert shifted == pytest.approx(base + 0.7, abs=1e-9)

    def test_asymmetric_rejected_with_magnitude(self):
        with pytest.raises(ValueError, match="asymmetry"):
            min_eigenvalue_sym(DenseMap(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionMismatchError):
            min_eigenvalue_sym(DenseMap(np.ones((2, 3))))


class TestStructure:
    def test_as_matrix_matches_apply(self, rng):
        maps = [DenseMap(rng.standard_normal((2, 3))),
                DenseMap(rng.standard_normal((3, 4)).T),
                ScaledIdentityMap(3, -1.5), IdentityMap(2)]
        for m in maps:
            mat = m.as_matrix()
            assert mat.shape == (m.dim_out, m.dim_in)
            for _ in range(5):
                x = rng.standard_normal(m.dim_in)
                assert mat @ x == pytest.approx(m.apply(x), abs=1e-13)
