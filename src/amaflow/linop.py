"""Dense operators as plain float64 arrays, and their spectral queries.

A problem's operators (A, B, a quadratic form's Q, a constant metric's M)
are dense 2-d float64 arrays, checked once by :func:`DenseMap` when their
owner is built; every product is a ``dot`` on them. They are never
modified, so they can be shared freely between concurrent solver runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConditionError, DimensionMismatchError

__all__ = ["DenseMap", "operator_norm", "min_eigenvalue_sym"]


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


def as_square(m, n: int, what: str) -> np.ndarray:
    """Coerce ``m`` to a float (n, n) array or raise, naming ``what`` and the
    first side that is not ``n`` (-1 when ``m`` is not 2-d)."""
    a = np.asarray(m, dtype=float)
    if a.shape != (n, n):
        raise DimensionMismatchError(what, n, -1 if a.ndim != 2 else
                                     a.shape[1] if a.shape[0] == n else a.shape[0])
    return a


def DenseMap(matrix) -> np.ndarray:
    """``matrix`` as a 2-d float64 array, not copied if it is one; any other
    number of dimensions raises ValueError. Products are ``dot``: the BLAS
    call of ``@`` with half the overhead on small operands."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-d, got shape {m.shape}")
    return m


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
    """Raise unless the square matrix ``a`` is finite and symmetric to 1e-10
    relative to its largest entry; the message carries the maximal asymmetry.
    A non-finite entry is a :class:`ConditionError`, found before ``a - a.T``,
    where inf - inf would be NaN and compare as passing. An ``a - a.T`` past
    the float range is an infinite asymmetry, refused without a warning."""
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError("symmetric eigenvalue input", a.shape[1], a.shape[0])
    top = float(np.max(np.abs(a))) if a.size else 0.0
    if not top < np.inf:  # NaN fails the comparison too
        raise ConditionError("matrix has non-finite entries")
    with np.errstate(over="ignore"):
        asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if asym > 1e-10 * max(1.0, top):
        raise ValueError(f"map is not symmetric: max asymmetry {asym:.3e}")


def sym_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the square matrix ``a``, after
    :func:`_check_symmetric`."""
    _check_symmetric(a)
    return np.linalg.eigvalsh(0.5 * a + 0.5 * a.T)  # a + a.T can overflow


def operator_norm(m) -> float:
    """Largest singular value of the matrix ``m``, from one SVD."""
    return float(np.linalg.norm(DenseMap(m), 2))


def min_eigenvalue_sym(m) -> float:
    """Smallest eigenvalue of a square symmetric matrix, via dense eigh.

    The matrix is checked first: a non-finite or asymmetric input raises,
    the latter with the maximal asymmetry magnitude in the message.
    """
    return float(sym_eigenvalues(DenseMap(m))[0])
