"""Two-block problem instances and the residuals that define "solved".

A problem is

    minimize  f(x) + h1(x) + g(z) + h2(z)
    subject to  A x + B z = b

with f strongly convex, h1 and h2 smooth, and A nonzero. The Lagrangian uses
the multiplier convention ``<y, b - Ax - Bz>``; optimality is measured through
prox fixed points at unit step, which vanish exactly at saddle points.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DimensionMismatchError
from .functions import SeparableFunction
from .linop import _FLOAT, LinearMap, as_vector, matrix_of

__all__ = ["PrimalDualState", "TwoBlockProblem", "KKTResidual"]


class PrimalDualState:
    """A primal-dual triple (x, z, y) stamped with a time or iteration index."""

    __slots__ = ("x", "z", "y", "t")

    def __init__(self, x, z, y, t: float = 0.0):
        if not (type(x) is type(z) is type(y) is np.ndarray
                and x.dtype is z.dtype is y.dtype is _FLOAT):
            x, z, y = (np.asarray(v, dtype=float) for v in (x, z, y))
        self.x, self.z, self.y, self.t = x, z, y, t

    def __repr__(self) -> str:
        return f"PrimalDualState(x={self.x!r}, z={self.z!r}, y={self.y!r}, t={self.t!r})"

    def with_time(self, t: float) -> "PrimalDualState":
        return PrimalDualState(self.x, self.z, self.y, t)


class KKTResidual(NamedTuple):
    """Prox fixed-point violations; all three are zero exactly at saddles."""

    rx: float
    rz: float
    feas: float

    @property
    def max(self) -> float:
        return max(self.rx, self.rz, self.feas)


class TwoBlockProblem:
    """Immutable problem data; all residual/objective operations live here.

    The dense matrices of A and B are kept once, at build, as ``mat_A`` and
    ``mat_B`` (shared with a :class:`~amaflow.linop.DenseMap`), with their
    transposes ``mat_At`` and ``mat_Bt`` as views; the solvers multiply by
    these directly. The build checks are O(n^2): A, B and b must be finite
    and A nonzero. The spectra the hypotheses need (``norm_A``, and
    ``norm_B`` and ``btb_min`` from one SVD of B) are computed once per
    problem, on first use; the iteration never reads them.
    """

    def __init__(self, f: SeparableFunction, h1: SeparableFunction,
                 g: SeparableFunction, h2: SeparableFunction, A: LinearMap,
                 B: LinearMap, b):
        self.f, self.h1, self.g, self.h2, self.A, self.B = f, h1, g, h2, A, B
        self.b = np.asarray(b, dtype=float)
        if self.b.ndim != 1:
            raise ValueError("right-hand side b must be a vector")
        if self.f.strong_convexity <= 0.0:
            raise ValueError(
                f"f must be strongly convex; got modulus {self.f.strong_convexity}"
            )
        for name, fun in (("h1", self.h1), ("h2", self.h2)):
            if fun.grad_lipschitz is None:
                raise ValueError(f"{name} must be smooth (gradient available)")
        if self.A.dim_in != self.f.dim or self.h1.dim != self.f.dim:
            raise DimensionMismatchError("x block", self.f.dim, self.A.dim_in)
        if self.B.dim_in != self.g.dim or self.h2.dim != self.g.dim:
            raise DimensionMismatchError("z block", self.g.dim, self.B.dim_in)
        if self.A.dim_out != self.b.shape[0] or self.B.dim_out != self.b.shape[0]:
            raise DimensionMismatchError("constraint rows", self.b.shape[0], self.A.dim_out)
        self.mat_A, self.mat_B = matrix_of(A), matrix_of(B)
        self.mat_At, self.mat_Bt = self.mat_A.T, self.mat_B.T
        for name, arr in (("A", self.mat_A), ("B", self.mat_B), ("b", self.b)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must have finite entries")
        if not self.mat_A.any():
            raise ValueError("A must be a nonzero operator")

    @cached_property
    def norm_A(self) -> float:
        return float(np.linalg.norm(self.mat_A, 2))

    # One SVD of B gives both extreme eigenvalues of B*B, norm_B**2 and
    # btb_min (zero for a wide B); the validators need no others.
    @cached_property
    def _sv_B(self) -> np.ndarray:
        return np.linalg.svd(self.mat_B, compute_uv=False)

    @cached_property
    def norm_B(self) -> float:
        return float(self._sv_B[0])

    @cached_property
    def btb_min(self) -> float:
        return float(self._sv_B[-1]) ** 2 if self.B.dim_out >= self.B.dim_in else 0.0

    @cached_property
    def btb(self) -> np.ndarray:
        """B*B as a dense matrix, built on first use from one product."""
        return self.mat_Bt @ self.mat_B

    @property
    def dim_x(self) -> int:
        return self.f.dim

    @property
    def dim_z(self) -> int:
        return self.g.dim

    @property
    def dim_y(self) -> int:
        return self.b.shape[0]

    def state(self, x, z, y, t: float = 0.0) -> PrimalDualState:
        """Build a state, checking dimensions against this problem."""
        return PrimalDualState(
            as_vector(x, self.dim_x, "x"),
            as_vector(z, self.dim_z, "z"),
            as_vector(y, self.dim_y, "y"),
            t,
        )

    def primal_objective(self, x, z) -> float:
        x = as_vector(x, self.dim_x, "x")
        z = as_vector(z, self.dim_z, "z")
        return self.f(x) + self.h1(x) + self.g(z) + self.h2(z)

    def lagrangian(self, s: PrimalDualState) -> float:
        y = as_vector(s.y, self.dim_y, "y")
        primal = self.primal_objective(s.x, s.z)
        if math.isinf(primal):
            return primal
        gap = self.b - self.A.apply(s.x) - self.B.apply(s.z)
        return primal + float(y @ gap)

    def dual_objective(self, y) -> float:
        """Fenchel dual value ``-f*(A*y) - g*(B*y) + <y, b>``.

        Only available when the smooth couplings are absent: with h1 or h2
        nonzero the dual involves infimal convolutions this toolkit does not
        approximate.
        """
        if self.h1.kind != "zero" or self.h2.kind != "zero":
            raise CapabilityError("dual objective requires h1 = h2 = 0")
        y = as_vector(y, self.dim_y, "y")
        f_star = self.f.conj_eval(self.A.adjoint_apply(y))
        g_star = self.g.conj_eval(self.B.adjoint_apply(y))
        if math.isinf(f_star) or math.isinf(g_star):
            return -math.inf
        return -f_star - g_star + float(y @ self.b)

    def feasibility_residual(self, s: PrimalDualState) -> float:
        """``|A x + B z - b|``."""
        ax = self.mat_A.dot(as_vector(s.x, self.dim_x, "x"))
        bz = self.mat_B.dot(as_vector(s.z, self.dim_z, "z"))
        with np.errstate(over="ignore"):
            return self._feas(ax, bz)

    def kkt_residual(self, s: PrimalDualState) -> KKTResidual:
        """Unit-step prox fixed-point residuals for the optimality system.

        Norms are ``sqrt(r . r)``, the computation ``np.linalg.norm`` makes
        for a vector; a norm past the float range is ``inf``.
        """
        x = as_vector(s.x, self.dim_x, "x")
        z = as_vector(s.z, self.dim_z, "z")
        y = as_vector(s.y, self.dim_y, "y")
        bty = self.mat_Bt.dot(y)
        aty = self.mat_At.dot(y)
        with np.errstate(over="ignore"):
            return KKTResidual(self._x_residual(x, aty), self._z_residual(z, bty),
                               self._feas(self.mat_A.dot(x), self.mat_B.dot(z)))

    # The three residuals on trusted arrays. A squared norm past the float
    # range is inf, which is what it means: the run has diverged. The callers
    # switch numpy's overflow warning off for that, once per call or run.

    def _feas(self, ax: np.ndarray, bz: np.ndarray) -> float:
        """``|ax + bz - b|``."""
        r = ax + bz - self.b
        return math.sqrt(r.dot(r))

    def _x_residual(self, x: np.ndarray, aty: np.ndarray) -> float:
        """``|x - prox_f(x + A* y - grad h1(x))|``."""
        vx = x + aty
        if self.h1.kind != "zero":
            vx = vx - self.h1.grad(x)
        rx = x - self.f._prox(1.0, vx)
        return math.sqrt(rx.dot(rx))

    def _z_residual(self, z: np.ndarray, bty: np.ndarray) -> float:
        """``|z - prox_g(z + B* y - grad h2(z))|``."""
        vz = z + bty
        if self.h2.kind != "zero":
            vz = vz - self.h2.grad(z)
        rz = z - self.g._prox(1.0, vz)
        return math.sqrt(rz.dot(rz))
