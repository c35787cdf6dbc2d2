"""Dense linear operators with exact adjoints, and their spectral queries.

A problem's operators are dense matrices; the maps here give them a checked
``apply``/``adjoint_apply`` for callers outside the solvers, which work on
the matrices themselves. Everything is immutable, so maps can be shared
freely between concurrent solver runs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "LinearMap",
    "DenseMap",
    "IdentityMap",
    "ScaledIdentityMap",
    "operator_norm",
    "min_eigenvalue_sym",
]


_FLOAT = np.dtype(float)


def as_vector(x, n: int, what: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a float vector of length ``n`` or raise.

    A float64 ndarray of the right shape is returned as it is, after three
    attribute checks; anything else goes through ``np.asarray``.
    """
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.shape == (n,):
        return x
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != n:
        raise DimensionMismatchError(what, n, v.shape[0] if v.ndim == 1 else -1)
    return v


class LinearMap:
    """A finite-dimensional linear operator with an exact adjoint and a dense
    matrix; subclasses implement all three methods."""

    dim_in: int
    dim_out: int

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, y) -> np.ndarray:
        raise NotImplementedError

    def as_matrix(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)


class DenseMap(LinearMap):
    """Operator given by an explicit (row-major) matrix."""

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
        self.matrix = m
        self.dim_out, self.dim_in = m.shape

    # ``ndarray.dot`` makes the same BLAS product as ``@`` for a matrix and a
    # vector, with half the call overhead on small operands.
    def apply(self, x):
        return self.matrix.dot(as_vector(x, self.dim_in, "apply input"))

    def adjoint_apply(self, y):
        return self.matrix.T.dot(as_vector(y, self.dim_out, "adjoint input"))

    def as_matrix(self):
        return self.matrix.copy()


class ScaledIdentityMap(LinearMap):
    """``factor * Id`` on R^n; ``factor`` may be zero or negative."""

    def __init__(self, n: int, factor: float):
        if n <= 0:
            raise ValueError(f"dimension must be positive, got {n}")
        self.dim_in = self.dim_out = n
        self.factor = float(factor)

    def apply(self, x):
        return as_vector(x, self.dim_in, "apply input") * self.factor

    def adjoint_apply(self, y):
        return as_vector(y, self.dim_out, "adjoint input") * self.factor

    def as_matrix(self):
        return np.eye(self.dim_in) * self.factor


class IdentityMap(ScaledIdentityMap):
    def __init__(self, n: int):
        super().__init__(n, 1.0)


def matrix_of(m: LinearMap) -> np.ndarray:
    """The dense matrix of ``m``, shared with a :class:`DenseMap`, not copied."""
    return m.matrix if isinstance(m, DenseMap) else m.as_matrix()


def _blas_layout(M: np.ndarray) -> np.ndarray:
    """``M`` if it is C- or F-contiguous, else a C-ordered copy. ``M.dot(v)``
    multiplies a matrix with no unit stride as such a copy, where
    ``np.matvec`` would sum without BLAS; a copy of any other layout makes
    the same BLAS call as the matrix itself."""
    return M if M.flags.f_contiguous else np.ascontiguousarray(M)


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M.dot(x)`` for a vector ``x``; for a block of vectors, one per row,
    each row's own ``M.dot``, bit for bit, from one ``np.matvec`` (the same
    BLAS call per row)."""
    return M.dot(x) if x.ndim == 1 else np.matvec(_blas_layout(M), x)


def _check_symmetric(a: np.ndarray) -> None:
    """Raise unless the square matrix ``a`` is symmetric to 1e-10 relative to
    its largest entry; the message carries the maximal asymmetry."""
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("symmetric eigenvalue input", a.shape[1], a.shape[0])
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if asym > 1e-10 * scale:
        raise ValueError(f"map is not symmetric: max asymmetry {asym:.3e}")


def sym_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the square matrix ``a``, after
    :func:`_check_symmetric`."""
    _check_symmetric(a)
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def operator_norm(m: LinearMap) -> float:
    """Largest singular value of ``m``, from an SVD of its dense matrix."""
    return float(np.linalg.norm(matrix_of(m), 2))


def min_eigenvalue_sym(m: LinearMap) -> float:
    """Smallest eigenvalue of a square symmetric map, via dense eigh.

    The map is materialized and checked for symmetry first; an asymmetric
    input raises with the maximal asymmetry magnitude in the message.
    """
    return float(sym_eigenvalues(matrix_of(m))[0])
