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
from .linop import LinearMap, _check_symmetric, as_vector

__all__ = [
    "SeparableFunction",
    "QuadraticDistance",
    "L1Norm",
    "BoxIndicator",
    "ZeroFunction",
    "QuadraticForm",
]


class SeparableFunction:
    """Base class: evaluation, prox, gradient, conjugate capabilities.

    Capabilities not available for a kind raise :class:`CapabilityError`.
    ``conj_grad`` is single-valued exactly when ``strong_convexity > 0``; a
    kind with that property defines it in closed form. The public ``prox``
    and ``conj_grad`` check their inputs once and call the kind's trusted
    ``_prox``/``_conj_grad``, which the solvers call on arrays they own.
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
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
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
        self.d = np.asarray(d, dtype=float)
        if self.d.ndim != 1:
            raise ValueError("anchor d must be a vector")
        self.weight = float(weight)
        if self.weight <= 0.0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.dim = self.d.shape[0]
        self.strong_convexity = self.weight
        self.grad_lipschitz = self.weight

    def __call__(self, x):
        x = as_vector(x, self.dim, "eval input")
        return 0.5 * self.weight * float(np.sum((x - self.d) ** 2))

    def _prox(self, gamma, x):
        return (x + gamma * self.weight * self.d) / (1.0 + gamma * self.weight)

    def grad(self, x):
        x = as_vector(x, self.dim, "grad input")
        return self.weight * (x - self.d)

    def _conj_grad(self, s):
        return self.d + s / self.weight

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
        if self.weight < 0.0:
            raise ValueError(f"weight must be nonnegative, got {weight}")
        self.dim = dim
        self.grad_lipschitz = None

    def __call__(self, x):
        x = as_vector(x, self.dim, "eval input")
        return self.weight * float(np.sum(np.abs(x)))

    def _prox(self, gamma, x):
        return np.sign(x) * np.maximum(np.abs(x) - gamma * self.weight, 0.0)

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
        if np.any(self.lo > self.hi):
            raise ValueError("box has lo > hi in some component")
        self.dim = self.lo.shape[0]
        self.grad_lipschitz = None

    def __call__(self, x):
        x = as_vector(x, self.dim, "eval input")
        inside = np.all(x >= self.lo - 1e-12) and np.all(x <= self.hi + 1e-12)
        return 0.0 if inside else math.inf

    def _prox(self, gamma, x):
        return np.clip(x, self.lo, self.hi)

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

    def _prox(self, gamma, x):
        return x.copy()

    def grad(self, x):
        as_vector(x, self.dim, "grad input")
        return np.zeros(self.dim)

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

    def __init__(self, Q: LinearMap, q):
        self.q = np.asarray(q, dtype=float)
        if self.q.ndim != 1:
            raise ValueError("linear term q must be a vector")
        if Q.dim_in != Q.dim_out or Q.dim_in != self.q.shape[0]:
            raise ValueError("Q must be square and match the dimension of q")
        self.Q = Q
        self.dim = self.q.shape[0]
        self._Qmat = Q.as_matrix()
        _check_symmetric(self._Qmat)
        self._lam, self._V = np.linalg.eigh(0.5 * (self._Qmat + self._Qmat.T))
        sigma = float(self._lam[0])
        if sigma < -1e-10:
            raise ValueError(f"Q must be positive semidefinite; min eigenvalue {sigma:.3e}")
        self.grad_lipschitz = float(max(-sigma, self._lam[-1]))
        floor = self.dim * np.finfo(float).eps * self.grad_lipschitz
        self.strong_convexity = sigma if sigma > floor else 0.0

    def __call__(self, x):
        x = as_vector(x, self.dim, "eval input")
        return 0.5 * float(x @ (self._Qmat @ x)) + float(self.q @ x)

    def _prox(self, gamma, x):
        # (I + gamma Q)^-1 (x - gamma q) in the eigenbasis of Q.
        V = self._V
        return V.dot(V.T.dot(x - gamma * self.q) / (1.0 + gamma * self._lam))

    def grad(self, x):
        x = as_vector(x, self.dim, "grad input")
        return self._Qmat @ x + self.q

    def _conj_grad(self, s):
        if self.strong_convexity <= 0.0:
            raise CapabilityError("quadratic_form with singular Q: conjugate gradient is set-valued")
        V = self._V
        return V.dot(V.T.dot(s - self.q) / self._lam)
