import re

import numpy as np
import pytest

from amaflow import ConditionError, DenseMap, DimensionMismatchError, min_eigenvalue_sym, operator_norm

A_MAT = np.array([[2.0, 1.0], [-2.0, 1.0]]) / np.sqrt(8.0)
B_MAT = np.array([[-3.0, 0.0], [4.0, 0.0]]) / 5.0


class TestDenseMap:
    """An operator is a 2-d float64 array; ``DenseMap`` is the check."""

    def test_a_float_array_is_returned_as_it_is(self, rng):
        m = rng.standard_normal((3, 2))
        view = m.T  # a transposed view is kept as a view, not made contiguous
        assert DenseMap(m) is m
        assert DenseMap(view) is view

    @pytest.mark.parametrize("given", [[[1, 2], [3, 4]], [[1.0, 2.0], [3.0, 4.0]],
                                       np.array([[1, 2], [3, 4]])],
                             ids=["int-list", "float-list", "int-array"])
    def test_lists_and_integer_arrays_are_converted(self, given):
        m = DenseMap(given)
        assert type(m) is np.ndarray and m.dtype == np.float64
        assert np.array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)], ids=["1-d", "3-d"])
    def test_other_dimensions_raise(self, shape):
        with pytest.raises(ValueError, match="matrix must be 2-d"):
            DenseMap(np.ones(shape))


class TestProducts:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (7, 4), (64, 64), (400, 400)])
    def test_dense_products_equal_matmul_bit_for_bit(self, shape, rng):
        # The solvers multiply with ``ndarray.dot``: the same BLAS product as
        # ``@``, also for a strided vector and through the transposed view.
        m = DenseMap(rng.standard_normal(shape))
        x = rng.standard_normal(2 * shape[1])
        y = rng.standard_normal(shape[0])
        assert np.array_equal(m.dot(x[::2]), m @ x[::2])
        assert np.array_equal(m.dot(x[: shape[1]]), m @ x[: shape[1]])
        assert np.array_equal(m.T.dot(y), m.T @ y)


class TestOperatorNorm:
    def test_example_operators_are_unit_norm(self):
        assert operator_norm(A_MAT) == pytest.approx(1.0, abs=1e-8)
        assert operator_norm(B_MAT) == pytest.approx(1.0, abs=1e-8)

    def test_scaled_identity(self):
        assert operator_norm(-2.5 * np.eye(3)) == pytest.approx(2.5, abs=1e-10)

    def test_zero_map(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0

    def test_submultiplicative(self, rng):
        for _ in range(10):
            m = rng.standard_normal((3, 3))
            n = rng.standard_normal((3, 3))
            prod = operator_norm(m @ n)
            assert prod <= operator_norm(m) * operator_norm(n) + 1e-8

    def test_near_degenerate_top_gap_matches_svd(self, rng):
        # A top singular gap of 1e-4 is where a power iteration stalls.
        q1, _ = np.linalg.qr(rng.standard_normal((400, 400)))
        q2, _ = np.linalg.qr(rng.standard_normal((400, 400)))
        sv = np.linspace(1.0, 0.2, 400)
        sv[1] = 1.0 - 1e-4
        for mat in (np.diag([2.0, 2.0 - 1e-4]), (q1 * sv) @ q2.T):
            expect = np.linalg.svd(mat, compute_uv=False)[0]
            assert abs(operator_norm(mat) - expect) <= 1e-12 * expect

    def test_all_ones_start_in_null_direction(self):
        # The all-ones vector is annihilated; the fallback probe must kick in.
        assert operator_norm([[1.0, -1.0]]) == pytest.approx(np.sqrt(2.0), abs=1e-10)


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue_sym(np.eye(2)) == pytest.approx(1.0)

    def test_gram_of_rank_deficient(self):
        assert min_eigenvalue_sym(B_MAT.T @ B_MAT) == pytest.approx(0.0, abs=1e-10)

    def test_prox_friendly_combination(self):
        m = np.eye(2) - 0.25 * (B_MAT.T @ B_MAT)
        assert min_eigenvalue_sym(m) == pytest.approx(0.75, abs=1e-10)

    def test_shift_property(self, rng):
        mat = rng.standard_normal((3, 3))
        sym = mat + mat.T
        base = min_eigenvalue_sym(sym)
        shifted = min_eigenvalue_sym(sym + 0.7 * np.eye(3))
        assert shifted == pytest.approx(base + 0.7, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mat, asymmetry", [
        ([[0.0, 1.0], [0.0, 0.0]], "1.000e+00"),
        ([[1e308, -1e308], [1e308, 1.0]], "inf"),  # a - a.T is past the float range
    ], ids=["finite", "infinite"])
    def test_asymmetric_rejected_with_magnitude(self, mat, asymmetry):
        with pytest.raises(ValueError, match=re.escape(f"max asymmetry {asymmetry}") + "$"):
            min_eigenvalue_sym(np.array(mat))

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionMismatchError):
            min_eigenvalue_sym(np.ones((2, 3)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_rejected(self, bad, where):
        # A NaN asymmetry compares as passing, and inf - inf is NaN: the
        # entries are checked first, with no numpy warning.
        mat = np.eye(2)
        mat[where] = bad
        with pytest.raises(ConditionError, match="non-finite"):
            min_eigenvalue_sym(mat)
