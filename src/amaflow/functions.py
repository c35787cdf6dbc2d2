"""Catalog of convex functions with closed-form prox/gradient/conjugate.

Each function knows its strong-convexity modulus ``strong_convexity`` and, for
smooth kinds, the Lipschitz constant of its gradient ``grad_lipschitz``
(``None`` when the gradient does not exist). Values are extended-real:
indicators return ``math.inf`` outside their set, never a float overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapabilityError
from .linop import DenseMap, _check_symmetric, _matvec, as_vector

__all__ = [
    "SeparableFunction",
    "QuadraticDistance",
    "L1Norm",
    "BoxIndicator",
    "ZeroFunction",
    "QuadraticForm",
]

_ZERO = np.array(0.0)  # the soft threshold's floor, shared read-only
_ZERO.flags.writeable = False
_sign, _maximum, _abs = np.sign, np.maximum, np.abs


class SeparableFunction:
    """Base class: evaluation, prox, gradient, conjugate capabilities.

    Capabilities not available for a kind raise :class:`CapabilityError`.
    ``conj_grad`` is single-valued exactly when ``strong_convexity > 0``; a
    kind with that property defines it in closed form. The public ``prox``,
    ``grad`` and ``conj_grad`` check their inputs once and call the kind's
    trusted ``_prox``/``_grad``/``_conj_grad``, which the solvers call on
    arrays they own. A kind's prox is ``_prox_at(gamma)``, the map
    ``x -> prox_{gamma f}(x)`` with its per-step constants formed once; a run
    builds it once per step size. The trusted ``_prox`` and ``_grad`` of the
    shipped kinds also take a block of points, one per row, and give each row
    the bits of its own call.
    """

    kind: str
    dim: int
    strong_convexity: float = 0.0
    grad_lipschitz: float | None = None

    def __call__(self, x) -> float:
        raise NotImplementedError

    def prox(self, gamma: float, x) -> np.ndarray:
        gamma = float(gamma)
        if gamma <= 0.0:
            raise ValueError(f"prox step must be positive, got {gamma}")
        return self._prox(gamma, as_vector(x, self.dim, "prox input"))

    def _prox(self, gamma: float, x: np.ndarray) -> np.ndarray:
        return self._prox_at(gamma)(x)

    def _prox_at(self, gamma: float):
        """``x -> prox_{gamma f}(x)``, its per-step constants formed here."""
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        # Without the capability, _grad raises before the input matters.
        if self.grad_lipschitz is not None:
            x = as_vector(x, self.dim, "grad input")
        return self._grad(x)

    def _grad(self, x: np.ndarray) -> np.ndarray:
        raise CapabilityError(f"{self.kind} has no gradient")

    def conj_eval(self, s) -> float:
        raise CapabilityError(f"{self.kind} has no closed-form conjugate")

    def conj_grad(self, s) -> np.ndarray:
        # Without the capability, _conj_grad raises before the input matters.
        if self.strong_convexity > 0.0:
            s = as_vector(s, self.dim, "conj_grad input")
        return self._conj_grad(s)

    def _conj_grad(self, s: np.ndarray) -> np.ndarray:
        raise CapabilityError(f"{self.kind} has no single-valued conjugate gradient")


class QuadraticDistance(SeparableFunction):
    """``(w/2)·||x - d||^2`` with ``w > 0``; strongly convex and smooth."""

    kind = "quadratic_distance"

    def __init__(self, d, weight: float = 1.0):
        self.d = np.array(d, dtype=float)  # a read-only copy: _prox caches w d
        if self.d.ndim != 1 or not np.isfinite(self.d).all():
            raise ValueError("anchor d must be a vector with finite entries")
        self.d.flags.writeable = False
        self.weight = float(weight)
        if not 0.0 < self.weight < math.inf:
            raise ValueError(f"weight must be positive and finite, got {weight}")
        self.dim = self.d.shape[0]
        self.strong_convexity = self.weight
        self.grad_lipschitz = self.weight

    def __call__(self, x):
        x = as_vector(x, self.dim, "eval input")
        return 0.5 * self.weight * float(np.sum((x - self.d) ** 2))

    def _prox_at(self, gamma):
        # The divisor is a 0-d array: a ufunc is slower on a Python float.
        gw = gamma * self.weight
        gwd, den = gw * self.d, np.array(1.0 + gw)
        return lambda x: (x + gwd) / den

    def _grad(self, x):
        return self.weight * (x - self.d)

    def _conj_grad(self, s):
        # s / 1.0 is s, bit for bit.
        return self.d + s if self.weight == 1.0 else self.d + s / self.weight

    def conj_eval(self, s):
        s = as_vector(s, self.dim, "conjugate input")
        return float(np.sum(s**2)) / (2.0 * self.weight) + float(s @ self.d)


class L1Norm(SeparableFunction):
    """``w·||x||_1``; ``weight = 0`` degenerates to the zero function."""

    kind = "l1"

    def __init__(self, dim: int, weight: float = 1.0):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.weight = float(weight)
        if not 0.0 <= self.weight < math.inf:
            raise ValueError(f"weight must be nonnegative and finite, got {weight}")
        self.dim = dim
        self.grad_lipschitz = None

    def __call__(self, x):
        x = as_vector(x, self.dim, "eval input")
        return self.weight * float(np.sum(np.abs(x)))

    def _prox_at(self, gamma):
        threshold = np.array(gamma * self.weight)  # 0-d
        return lambda x: _sign(x) * _maximum(_abs(x) - threshold, _ZERO)

    def conj_eval(self, s):
        # Indicator of the weight-radius sup-norm ball.
        s = as_vector(s, self.dim, "conjugate input")
        if float(np.max(np.abs(s), initial=0.0)) <= self.weight + 1e-12:
            return 0.0
        return math.inf


class BoxIndicator(SeparableFunction):
    """Indicator of the box ``[lo, hi]`` (componentwise)."""

    kind = "box_indicator"

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("box bounds must be equal-length vectors")
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("box bounds must not be NaN")
        if np.any(self.lo > self.hi):
            raise ValueError("box has lo > hi in some component")
        self.dim = self.lo.shape[0]
        self.grad_lipschitz = None

    def __call__(self, x):
        x = as_vector(x, self.dim, "eval input")
        inside = np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12)
        return 0.0 if inside else math.inf

    def _prox_at(self, gamma):
        lo, hi = self.lo, self.hi
        return lambda x: np.clip(x, lo, hi)

    def conj_eval(self, s):
        # Support function of the box.
        s = as_vector(s, self.dim, "conjugate input")
        return float(np.sum(np.maximum(self.lo * s, self.hi * s)))


class ZeroFunction(SeparableFunction):
    """Identically zero; the smooth couplings h1, h2 default to this."""

    kind = "zero"

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self.grad_lipschitz = 0.0

    def __call__(self, x):
        as_vector(x, self.dim, "eval input")
        return 0.0

    def _prox_at(self, gamma):
        return lambda x: x.copy()

    def _grad(self, x):
        return np.zeros(x.shape)

    def conj_eval(self, s):
        # Indicator of the origin.
        s = as_vector(s, self.dim, "conjugate input")
        return 0.0 if float(np.max(np.abs(s), initial=0.0)) <= 1e-12 else math.inf


class QuadraticForm(SeparableFunction):
    """``(1/2)<x, Qx> + <q, x>`` for symmetric PSD ``Q``.

    Q is decomposed once, ``Q = V diag(lam) V*``, at build; the strong
    convexity (smallest lam), the gradient's Lipschitz constant (largest
    |lam|), the prox and the conjugate gradient all read that factorization;
    a smallest lam of at most ``n * eps * max |lam|`` makes Q singular. No
    closed-form conjugate value is exposed.
    """

    kind = "quadratic_form"

    def __init__(self, Q, q):
        self.q = np.asarray(q, dtype=float)
        if self.q.ndim != 1:
            raise ValueError("linear term q must be a vector")
        self.Q = Q = DenseMap(Q)
        self.dim = self.q.shape[0]
        if Q.shape != (self.dim, self.dim):
            raise ValueError("Q must be square and match the dimension of q")
        if not (np.isfinite(Q).all() and np.isfinite(self.q).all()):
            raise ValueError("Q and q must have finite entries")
        _check_symmetric(Q)
        self._lam, self._V = np.linalg.eigh(0.5 * Q + 0.5 * Q.T)  # Q + Q.T can overflow
        sigma = float(self._lam[0])
        if sigma < -1e-10:
            raise ValueError(f"Q must be positive semidefinite; min eigenvalue {sigma:.3e}")
        self.grad_lipschitz = float(max(-sigma, self._lam[-1]))
        floor = self.dim * np.finfo(float).eps * self.grad_lipschitz
        self.strong_convexity = sigma if sigma > floor else 0.0

    def __call__(self, x):
        x = as_vector(x, self.dim, "eval input")
        return 0.5 * float(x @ (self.Q @ x)) + float(self.q @ x)

    def _prox_at(self, gamma):
        # (I + gamma Q)^-1 (x - gamma q) in the eigenbasis of Q.
        V, gq, den = self._V, gamma * self.q, 1.0 + gamma * self._lam
        return lambda x: _matvec(V, _matvec(V.T, x - gq) / den)

    def _grad(self, x):
        return _matvec(self.Q, x) + self.q

    def _conj_grad(self, s):
        if self.strong_convexity <= 0.0:
            raise CapabilityError("quadratic_form with singular Q: conjugate gradient is set-valued")
        V = self._V
        return V.dot(V.T.dot(s - self.q) / self._lam)
