"""Two-block problem instances and the residuals that define "solved".

A problem is

    minimize  f(x) + h1(x) + g(z) + h2(z)
    subject to  A x + B z = b

with f strongly convex, h1 and h2 smooth, and A nonzero. The Lagrangian uses
the multiplier convention ``<y, b - Ax - Bz>``; optimality is measured through
prox fixed points at unit step, which vanish exactly at saddle points. A
:class:`SolveConfig` says how close to zero a solver run must bring them.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, DimensionMismatchError
from .functions import SeparableFunction
from .linop import _FLOAT, DenseMap, _matvec, as_vector, operator_norm

__all__ = ["PrimalDualState", "TwoBlockProblem", "KKTResidual", "SolveConfig"]


def _integral(value, name: str) -> int:
    """``value`` as an int: an int of any size, or an integral float such as
    ``20000.0``. A bool, a fraction or a value that is not a number raises
    ValueError."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral) or isinstance(value, numbers.Real)
            and math.isfinite(value) and value == int(value)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _record_every(value) -> int:
    """``record_every`` as an int of at least 1 (see :func:`_integral`)."""
    every = _integral(value, "record_every")
    if every < 1:
        raise ValueError(f"record_every must be >= 1, got {every}")
    return every


class SolveConfig:
    """Iteration budget, stopping tolerances and recording cadence of a run."""

    __slots__ = ("max_iters", "tol_kkt", "tol_feas", "record_every")

    def __init__(self, max_iters: int = 20000, tol_kkt: float = 1e-6,
                 tol_feas: float = 1e-6, record_every: int = 1):
        max_iters = _integral(max_iters, "max_iters")
        if max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {max_iters}")
        if not (0.0 < tol_kkt < math.inf and 0.0 < tol_feas < math.inf):
            raise ValueError("tolerances must be positive and finite")
        self.max_iters, self.tol_kkt = max_iters, tol_kkt
        self.tol_feas, self.record_every = tol_feas, _record_every(record_every)

    def __repr__(self) -> str:
        return (f"SolveConfig(max_iters={self.max_iters!r}, tol_kkt={self.tol_kkt!r}, "
                f"tol_feas={self.tol_feas!r}, record_every={self.record_every!r})")


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


class KKTResidual(NamedTuple):
    """Prox fixed-point violations; all three are zero exactly at saddles."""

    rx: float
    rz: float
    feas: float

    @property
    def max(self) -> float:
        """The largest residual; NaN when any is NaN."""
        return math.nan if any(map(math.isnan, self)) else max(self)


class TwoBlockProblem:
    """Immutable problem data; all residual/objective operations live here.

    A and B are float64 arrays (:func:`~amaflow.linop.DenseMap`, which keeps
    such an array as it is), with their transposes ``At`` and ``Bt`` as
    views; the solvers multiply by these directly. The build checks are
    O(n^2): A, B and b must be finite and A nonzero. ``b_is_zero`` records
    whether every entry of b is +0.0; then ``v - b`` is ``v`` bit for bit,
    -0.0 included, and the residuals skip the subtraction (a -0.0 in b keeps
    it: it turns -0.0 into +0.0). The spectra the hypotheses need
    (``norm_A``, and ``norm_B`` and ``btb_min`` from one SVD of B) are
    computed once per problem, on first use; the iteration never reads them.
    """

    def __init__(self, f: SeparableFunction, h1: SeparableFunction,
                 g: SeparableFunction, h2: SeparableFunction, A, B, b):
        A, B = DenseMap(A), DenseMap(B)
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
        rows = self.b.shape[0]
        for what, want, got in (("x block", f.dim, A.shape[1]), ("x block (h1)", f.dim, h1.dim),
                                ("z block", g.dim, B.shape[1]), ("z block (h2)", g.dim, h2.dim),
                                ("constraint rows", rows, A.shape[0]),
                                ("constraint rows (B)", rows, B.shape[0])):
            if got != want:
                raise DimensionMismatchError(what, want, got)
        self.At, self.Bt = A.T, B.T
        for name, arr in (("A", A), ("B", B), ("b", self.b)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must have finite entries")
        if not A.any():
            raise ValueError("A must be a nonzero operator")
        self.b_is_zero = not self.b.any() and not np.signbit(self.b).any()
        # The residuals' prox maps at step 1, and h1's and h2's gradients or None.
        self._f_prox1, self._g_prox1 = f._prox_at(1.0), g._prox_at(1.0)
        self._h1_grad, self._h2_grad = (None if h.kind == "zero" else h._grad for h in (h1, h2))

    @cached_property
    def norm_A(self) -> float:
        return operator_norm(self.A)

    # One SVD of B gives both extreme eigenvalues of B*B, norm_B**2 and
    # btb_min (zero for a wide B); the validators need no others.
    @cached_property
    def _sv_B(self) -> np.ndarray:
        return np.linalg.svd(self.B, compute_uv=False)

    @cached_property
    def norm_B(self) -> float:
        return float(self._sv_B[0])

    @cached_property
    def btb_min(self) -> float:
        rows, cols = self.B.shape
        return float(self._sv_B[-1]) ** 2 if rows >= cols else 0.0

    @cached_property
    def btb(self) -> np.ndarray:
        """B*B as a dense matrix, built on first use from one product."""
        return self.Bt @ self.B

    @property
    def dim_x(self) -> int:
        return self.f.dim

    @property
    def dim_z(self) -> int:
        return self.g.dim

    @property
    def dim_y(self) -> int:
        return self.b.shape[0]

    def state(self, x, z, y) -> PrimalDualState:
        """Build a state at t = 0, checking dimensions against this problem."""
        return PrimalDualState(
            as_vector(x, self.dim_x, "x"),
            as_vector(z, self.dim_z, "z"),
            as_vector(y, self.dim_y, "y"),
        )

    def primal_objective(self, x, z) -> float:
        x = as_vector(x, self.dim_x, "x")
        z = as_vector(z, self.dim_z, "z")
        return self.f(x) + self.h1(x) + self.g(z) + self.h2(z)

    def lagrangian(self, s: PrimalDualState) -> float:
        y = as_vector(s.y, self.dim_y, "y")
        x = as_vector(s.x, self.dim_x, "x")
        z = as_vector(s.z, self.dim_z, "z")
        primal = self.primal_objective(x, z)
        if math.isinf(primal):
            return primal
        gap = self.b - self.A.dot(x) - self.B.dot(z)
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
        f_star = self.f.conj_eval(self.At.dot(y))
        g_star = self.g.conj_eval(self.Bt.dot(y))
        if math.isinf(f_star) or math.isinf(g_star):
            return -math.inf
        return -f_star - g_star + float(y @ self.b)

    def feasibility_residual(self, s: PrimalDualState) -> float:
        """``|A x + B z - b|``."""
        ax = self.A.dot(as_vector(s.x, self.dim_x, "x"))
        bz = self.B.dot(as_vector(s.z, self.dim_z, "z"))
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
        with np.errstate(over="ignore"):
            return KKTResidual(self._x_residual(x, self.At.dot(y)),
                               float(self._z_residuals(z, y)),
                               self._feas(self.A.dot(x), self.B.dot(z)))

    # The three residuals on trusted arrays. A squared norm past the float
    # range is inf, which is what it means: the run has diverged. The callers
    # switch numpy's overflow warning off for that, once per call or run.

    def _feas(self, ax: np.ndarray, bz: np.ndarray) -> float:
        """``|ax + bz - b|``."""
        r = ax + bz if self.b_is_zero else ax + bz - self.b
        return math.sqrt(r.dot(r))

    def _x_residual(self, x: np.ndarray, aty: np.ndarray) -> float:
        """``|x - prox_f(x + A* y - grad h1(x))|``."""
        vx = x + aty
        if self._h1_grad is not None:
            vx = vx - self._h1_grad(x)
        rx = x - self._f_prox1(vx)
        return math.sqrt(rx.dot(rx))

    def _z_residuals(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``|z - prox_g(z + B* y - grad h2(z))|``, the one z-residual formula,
        of a state (a numpy float, bit for bit ``math.sqrt(r.dot(r))``) or of
        each row of the blocks ``z`` and ``y``, bit for bit the row's own:
        ``B* y``, the catalog's prox and gradient and the squared norm are each
        the row's own computation (see :func:`~amaflow.linop._matvec` and
        ``np.vecdot``)."""
        vz = z + _matvec(self.Bt, y)
        if self._h2_grad is not None:
            vz = vz - self._h2_grad(z)
        rz = z - self._g_prox1(vz)
        return np.sqrt(np.vecdot(rz, rz))
