"""Small dense linear-operator algebra with exact adjoints.

Operators are composed lazily (sums, compositions, adjoints are never
materialized during ``apply``); only the spectral queries (operator norm,
smallest symmetric eigenvalue) build a dense matrix. Everything here is
immutable and pure, so maps can be shared freely between concurrent solver
runs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "LinearMap",
    "DenseMap",
    "IdentityMap",
    "ScaledIdentityMap",
    "SumMap",
    "ComposeMap",
    "AdjointMap",
    "gram",
    "scaled",
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
    """A finite-dimensional linear operator with an exact adjoint.

    Subclasses implement :meth:`apply` and :meth:`adjoint_apply`; the base
    class supplies lazy combinators and dense materialization.
    """

    dim_in: int
    dim_out: int

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def adjoint_apply(self, y) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self) -> "LinearMap":
        return AdjointMap(self)

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)

    def as_matrix(self) -> np.ndarray:
        """Materialize the dense matrix, one unit vector at a time."""
        cols = np.empty((self.dim_out, self.dim_in))
        e = np.zeros(self.dim_in)
        for j in range(self.dim_in):
            e[j] = 1.0
            cols[:, j] = self.apply(e)
            e[j] = 0.0
        return cols


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

    def adjoint(self):
        return DenseMap(self.matrix.T)

    def as_matrix(self):
        return self.matrix.copy()


class IdentityMap(LinearMap):
    def __init__(self, n: int):
        if n <= 0:
            raise ValueError(f"dimension must be positive, got {n}")
        self.dim_in = self.dim_out = n

    def apply(self, x):
        return as_vector(x, self.dim_in, "apply input").copy()

    def adjoint_apply(self, y):
        return as_vector(y, self.dim_out, "adjoint input").copy()

    def adjoint(self):
        return self


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

    def adjoint(self):
        return self


class SumMap(LinearMap):
    def __init__(self, left: LinearMap, right: LinearMap):
        if (left.dim_in, left.dim_out) != (right.dim_in, right.dim_out):
            raise DimensionMismatchError("sum of maps", left.dim_in, right.dim_in)
        self.left, self.right = left, right
        self.dim_in, self.dim_out = left.dim_in, left.dim_out

    def apply(self, x):
        return self.left.apply(x) + self.right.apply(x)

    def adjoint_apply(self, y):
        return self.left.adjoint_apply(y) + self.right.adjoint_apply(y)


class ComposeMap(LinearMap):
    """``outer ∘ inner``: apply ``inner`` first."""

    def __init__(self, outer: LinearMap, inner: LinearMap):
        if outer.dim_in != inner.dim_out:
            raise DimensionMismatchError("composition", outer.dim_in, inner.dim_out)
        self.outer, self.inner = outer, inner
        self.dim_in, self.dim_out = inner.dim_in, outer.dim_out

    def apply(self, x):
        return self.outer.apply(self.inner.apply(x))

    def adjoint_apply(self, y):
        return self.inner.adjoint_apply(self.outer.adjoint_apply(y))


class AdjointMap(LinearMap):
    def __init__(self, of: LinearMap):
        self.of = of
        self.dim_in, self.dim_out = of.dim_out, of.dim_in

    def apply(self, x):
        return self.of.adjoint_apply(x)

    def adjoint_apply(self, y):
        return self.of.apply(y)

    def adjoint(self):
        return self.of


def gram(m: LinearMap) -> LinearMap:
    """The symmetric PSD map ``m* ∘ m``."""
    return ComposeMap(m.adjoint(), m)


def scaled(m: LinearMap, factor: float) -> LinearMap:
    """``factor * m`` as a lazy composition with a scaled identity."""
    return ComposeMap(ScaledIdentityMap(m.dim_out, factor), m)


def operator_norm(m: LinearMap) -> float:
    """Largest singular value of ``m``, from an SVD of its dense matrix."""
    return float(np.linalg.norm(m.as_matrix(), 2))


def min_eigenvalue_sym(m: LinearMap, sym_tol: float = 1e-10) -> float:
    """Smallest eigenvalue of a square symmetric map, via dense eigh.

    The map is materialized and checked for symmetry first; an asymmetric
    input raises with the maximal asymmetry magnitude in the message.
    """
    if m.dim_in != m.dim_out:
        raise DimensionMismatchError("symmetric eigenvalue input", m.dim_in, m.dim_out)
    a = m.as_matrix()
    asym = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if asym > sym_tol * scale:
        raise ValueError(f"map is not symmetric: max asymmetry {asym:.3e}")
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])
