"""The first-order system driving the solvers, and explicit integrators.

The vector field is defined through two alternating strongly convex
subproblems followed by a multiplier residual:

    x' + x = argmin_p  f(p) - <p, A*y> + <p - x, grad h1(x)> + (1/2)|p - x|^2_M1(t)
    z' + z = argmin_q  g(q) + (c(t)/2) |A(x + x') + Bq - b|^2
                       + <q - z, grad h2(z)> + (1/2)|q - z|^2_M2(t)
    y'     = c(t) (b - A(x + x') - B(z + z'))

evaluated strictly in that order (the z subproblem consumes the fresh x).
With unit-step explicit Euler this is exactly the proximal alternating
minimization iteration in :mod:`amaflow.discrete`: both run the step of
:func:`_euler_step` at h = 1, :func:`alternating_update`, in the one run loop
of :mod:`amaflow.trajectory`, so the two produce bit-identical numbers.

The update works on trusted float64 arrays and per-step scalars: a schedule
is read through :func:`_snapshot`, which gives M1's factor, c, and either the
prox step tau (prox-friendly M2) or M2 as one dense matrix K, and every
product is a ``dot`` with the problem's dense matrices. Runs check their
start state once; the public helpers check what they are given and then call
the same private steps. Scalar products are written ``array * scalar``: the
same IEEE product as ``scalar * array``, without the reflected-operator
dispatch.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import CapabilityError, ConditionError, ConvergenceError, TrajectoryError
from .functions import SeparableFunction
from .linop import LinearMap, ScaledIdentityMap, as_vector, matrix_of, sym_eigenvalues
from .problem import PrimalDualState, TwoBlockProblem
from .schedules import (
    ConstantDenseMetric,
    ParameterSchedule,
    ProxFriendlyMetric,
    ScaledIdentityMetric,
    ZeroMetric,
    _FOREIGN_B,
)
from .trajectory import Trajectory, TrajectorySample, _run

__all__ = [
    "Coupling",
    "GammaOutput",
    "TrajectorySample",
    "Trajectory",
    "regularized_argmin",
    "solve_x_subproblem",
    "solve_z_subproblem",
    "Update",
    "alternating_update",
    "gamma",
    "integrate",
]


class GammaOutput:
    """The field value (u, v, w) = (x', z', y') at one (t, state)."""

    __slots__ = ("u", "v", "w")

    def __init__(self, u: np.ndarray, v: np.ndarray, w: np.ndarray):
        self.u, self.v, self.w = u, v, w

    @property
    def norm(self) -> float:
        return math.sqrt(
            float(self.u @ self.u) + float(self.v @ self.v) + float(self.w @ self.w)
        )


_M1_KINDS = "x-subproblem supports only zero or scaled-identity M1"


def _m1_factor(M1_t: LinearMap) -> float:
    if not isinstance(M1_t, ScaledIdentityMap):
        raise CapabilityError(_M1_KINDS)
    return M1_t.factor


def _metric_matrix(M2_t: LinearMap) -> Optional[np.ndarray]:
    """M2 as the kernel's K: None for a zero map, else its dense matrix."""
    if isinstance(M2_t, ScaledIdentityMap) and M2_t.factor == 0.0:
        return None
    return matrix_of(M2_t)


def _snapshot(p: TwoBlockProblem, sched: ParameterSchedule):
    """``t -> (mu1, K, c, tau)``: the update's parameters on ``p`` at time t.

    mu1 is M1's factor. With a prox-friendly M2, tau is its step and K is
    None; otherwise tau is None and K is M2(t) as a dense matrix: None for a
    zero M2, and one shared array while M2 is unchanged (a constant dense M2,
    or a scaled identity whose mu(t) keeps its value), so a run builds its
    coupling once. The metric kinds are resolved here, once: an M1 that is
    not zero or a scaled identity, an M2 of a kind not shipped, or a
    prox-friendly M2 on another B than ``p``'s raises :class:`CapabilityError`
    before any update. Where a prox-friendly M2's c differs from the run's,
    K is M2(t) as a dense matrix.
    """
    c_at = sched.c.value_at
    M1, M2 = sched.M1, sched.M2
    if isinstance(M1, ZeroMetric):
        def mu1_at(t):
            return 0.0
    elif isinstance(M1, ScaledIdentityMetric):
        mu1_at = M1.mu.value_at
    else:
        raise CapabilityError(_M1_KINDS)
    if isinstance(M2, ProxFriendlyMetric):
        if M2.B is not p.B and not np.array_equal(matrix_of(M2.B), p.mat_B):
            raise CapabilityError(_FOREIGN_B)
        tau_at = M2.tau.value_at
        if M2.c is sched.c:
            return lambda t: (mu1_at(t), None, c_at(t), tau_at(t))
        m2_c_at = M2.c.value_at
        last = [None, None]  # (tau(t), M2's c(t)) and its K, rebuilt when they change

        def prox_at(t):
            c, key = c_at(t), (tau_at(t), m2_c_at(t))
            if key[1] == c:
                return mu1_at(t), None, c, key[0]
            if last[0] != key:
                last[:] = key, matrix_of(M2.at(t))
            return mu1_at(t), last[1], c, None
        return prox_at
    if isinstance(M2, ZeroMetric):
        return lambda t: (mu1_at(t), None, c_at(t), None)
    if isinstance(M2, ConstantDenseMetric):
        K = matrix_of(M2.M)
        return lambda t: (mu1_at(t), K, c_at(t), None)
    if not isinstance(M2, ScaledIdentityMetric):
        raise CapabilityError(f"z-subproblem does not support M2 of kind {M2.kind!r}")
    mu_at, eye = M2.mu.value_at, np.eye(M2.dim)
    last = [None, None]  # mu(t) and its K, rebuilt when the value changes

    def at(t):
        mu = mu_at(t)
        if last[0] != mu:
            last[:] = mu, eye * mu
        return mu1_at(t), last[1], c_at(t), None
    return at


class Coupling(NamedTuple):
    """The z-subproblem's quadratic form ``Q = c B*B + K`` as one dense matrix,
    checked, with its Lipschitz constant and the ``(c, K)`` it was built from."""

    c: float
    K: Optional[np.ndarray]
    Q: np.ndarray
    lip: float


def _lipschitz(Q: np.ndarray, require_uniform: bool) -> float:
    """``|Q| = max |eigenvalue|`` of a symmetric Q, after checking, if so
    required, that Q is uniformly positive: both from one ``eigvalsh``."""
    eig = sym_eigenvalues(Q)
    if require_uniform and eig[0] <= 1e-12:
        raise ConditionError(
            f"subproblem metric not uniformly positive (min eigenvalue {eig[0]:.3e}); "
            "the z-subproblem is not well posed under these schedules"
        )
    return float(max(-eig[0], eig[-1]))


def _coupling(p: TwoBlockProblem, K: Optional[np.ndarray], c: float,
              require_uniform: bool, last: Optional[Coupling] = None) -> Coupling:
    """``c B*B + K`` with its spectral checks; ``last`` is reused as it is when
    it was built from the same ``c`` and the same ``K`` array."""
    if last is not None and last.c == c and last.K is K:
        return last
    Q = p.btb * c if K is None else p.btb * c + K
    return Coupling(c, K, Q, _lipschitz(Q, require_uniform))


def _inner_argmin(fun: SeparableFunction, Q: np.ndarray, lip: float,
                  target: np.ndarray, start: Optional[np.ndarray]) -> np.ndarray:
    """The proximal-gradient loop for a general Q with Lipschitz constant ``lip``.

    It stops once a step is at most ``1e-10 * max(1, |p|)``, p the new point,
    so iterates of any scale can stop.
    """
    if lip == 0.0:
        return fun._conj_grad(target)
    step = 1.0 / lip
    p = np.zeros(fun.dim) if start is None else start
    for k in range(50000):
        p_next = fun._prox(step, p - (Q.dot(p) - target) * step)
        d = p_next - p
        delta = math.sqrt(d.dot(d))
        p = p_next
        if delta <= 1e-10 * max(1.0, math.sqrt(p.dot(p))):
            return p
    raise ConvergenceError(
        "inner proximal-gradient solve did not reach tolerance",
        best_estimate=p,
        diagnostics={"iterations": 50000, "last_step": delta},
    )


def regularized_argmin(fun: SeparableFunction, Q: LinearMap, target,
                       start=None, require_uniform: bool = True) -> np.ndarray:
    """``argmin_p  fun(p) + (1/2)<p, Qp> - <target, p>`` for symmetric PSD Q.

    Scaled-identity Q dispatches to a single prox (or, for Q = 0, to the
    conjugate gradient of ``fun``). General Q runs an inner proximal-gradient
    loop; by default that path insists on a uniformly positive Q
    (``require_uniform``), the well-posedness the convergence analysis needs.
    Callers that only need attainment (the classic alternating scheme with no
    regularization) relax it.
    """
    target = as_vector(target, fun.dim, "subproblem target")
    if isinstance(Q, ScaledIdentityMap):
        mu = Q.factor
        if mu < 0.0:
            raise ConditionError(f"subproblem metric has negative factor {mu}")
        if mu == 0.0:
            return fun.conj_grad(target)
        return fun.prox(1.0 / mu, target / mu)
    Qm = matrix_of(Q)
    lip = _lipschitz(Qm, require_uniform)
    if start is not None:
        start = as_vector(start, fun.dim, "start")
    return _inner_argmin(fun, Qm, lip, target, start)


# The three steps of the update, on trusted arrays.

def _x_argmin(p: TwoBlockProblem, mu1: float, x: np.ndarray, aty: np.ndarray) -> np.ndarray:
    pull = aty if p.h1.kind == "zero" else aty - p.h1.grad(x)
    if mu1 == 0.0:
        return p.f._conj_grad(pull)
    if mu1 < 0.0:
        raise ConditionError(f"subproblem metric has negative factor {mu1}")
    return p.f._prox(1.0 / mu1, (x * mu1 + pull) / mu1)


def _z_prox(p: TwoBlockProblem, c: float, tau: float, z: np.ndarray, y: np.ndarray,
            ax: np.ndarray, bz: Optional[np.ndarray]) -> np.ndarray:
    """The prox-friendly z-step ``prox_{tau g}(z + tau v)``; see :func:`solve_z_subproblem`."""
    if tau <= 0.0:
        raise ConditionError(f"prox step tau must be positive, got {tau}")
    if bz is None:
        bz = p.mat_B.dot(z)
    v = p.mat_Bt.dot(y - (ax + bz - p.b) * c)
    if p.h2.kind != "zero":
        v = v - p.h2.grad(z)
    return p.g._prox(tau, z + v * tau)


def _z_general(p: TwoBlockProblem, cp: Coupling, z: np.ndarray, y: np.ndarray,
               ax: np.ndarray) -> np.ndarray:
    """The general z-step: the inner loop on ``cp.Q``, warm-started at z."""
    target = p.mat_Bt.dot(y - (ax - p.b) * cp.c)
    if cp.K is not None:
        target = cp.K.dot(z) + target
    if p.h2.kind != "zero":
        target = target - p.h2.grad(z)
    return _inner_argmin(p.g, cp.Q, cp.lip, target, z)


def solve_x_subproblem(p: TwoBlockProblem, M1_t: LinearMap, x, y) -> np.ndarray:
    """Return the x-block argmin (the new point, not the velocity).

    Only M1 = 0 or a positive multiple of the identity is supported; both keep
    the update a single prox or conjugate-gradient evaluation of f.
    """
    x = as_vector(x, p.dim_x, "x")
    mu1 = _m1_factor(M1_t)
    return _x_argmin(p, mu1, x, p.mat_At.dot(as_vector(y, p.dim_y, "y")))


def solve_z_subproblem(p: TwoBlockProblem, M2_t: Optional[LinearMap], c_t: float,
                       tau_t: Optional[float], z, y, x_new) -> np.ndarray:
    """Return the z-block argmin given the freshly updated x.

    When ``tau_t`` is supplied the metric is the prox-friendly choice
    M2 = (1/tau) Id - c B*B, so c B*B + M2 collapses to (1/tau) Id and the
    whole update is one prox of tau g at the matrix-free point

        z + tau (B*(y - c (A x_new + B z - b)) - grad h2(z)),

    tau times M2 z + B* y - c B*(A x_new - b) - grad h2(z), with one adjoint.
    This branch never reads ``M2_t`` (it may be None) and takes the metric's c
    and B to be ``c_t`` and ``p.B``: a prox-friendly M2 must share the run's c
    schedule and the problem's B. Otherwise the quadratic coupling
    Q = c B*B + M2 is formed as one dense matrix and solved by the inner
    proximal-gradient loop of :func:`regularized_argmin`.
    """
    z = as_vector(z, p.dim_z, "z")
    y = as_vector(y, p.dim_y, "y")
    ax_new = p.mat_A.dot(as_vector(x_new, p.dim_x, "x_new"))
    if tau_t is not None:
        return _z_prox(p, c_t, tau_t, z, y, ax_new, None)
    return _z_general(p, _coupling(p, _metric_matrix(M2_t), c_t, True), z, y, ax_new)


class Update(NamedTuple):
    """One step: the new blocks, the multiplier step, the new blocks'
    ``ax = A x``, ``bz = B z`` and ``r = ax + bz - b`` for reuse, and the
    z-step's :class:`Coupling` (None on the prox-friendly branch). A step
    that does not know the products, an integrator's, leaves them None."""

    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    ax: np.ndarray
    bz: np.ndarray
    coupling: Optional[Coupling]
    r: np.ndarray


def alternating_update(p: TwoBlockProblem, mu1: float, K: Optional[np.ndarray],
                       c: float, tau: Optional[float], x: np.ndarray, z: np.ndarray,
                       y: np.ndarray, require_uniform: bool = True, aty=None, bz=None,
                       coupling: Optional[Coupling] = None) -> Update:
    """One x-then-z sweep plus the multiplier residual, on trusted arrays.

    ``(mu1, K, c, tau)`` is a :func:`_snapshot` of the schedules. Returns an
    :class:`Update` with ``r = A x_new + B z_new - b``, formed once, and
    ``w = -c r``. ``aty`` and ``bz`` are ``A* y`` and ``B z`` when known;
    ``coupling`` is the previous update's, reused when c and K are unchanged,
    so a run with a constant coupling checks and decomposes it once. The
    continuous field and the discrete iteration both reduce to this.
    """
    if aty is None:
        aty = p.mat_At.dot(y)
    x_new = _x_argmin(p, mu1, x, aty)
    ax = p.mat_A.dot(x_new)
    if tau is not None:
        z_new = _z_prox(p, c, tau, z, y, ax, bz)
    else:
        coupling = _coupling(p, K, c, require_uniform, coupling)
        z_new = _z_general(p, coupling, z, y, ax)
    bz_new = p.mat_B.dot(z_new)
    r = ax + bz_new - p.b
    return Update(x_new, z_new, r * -c, ax, bz_new, coupling, r)


def _field(p: TwoBlockProblem, params: tuple, x, z, y, aty=None, bz=None,
           coupling: Optional[Coupling] = None) -> tuple:
    """The field ``(x', z', y')`` at a state for the snapshot ``params``, and
    the update's coupling."""
    up = alternating_update(p, *params, x, z, y, aty=aty, bz=bz, coupling=coupling)
    return up.x - x, up.z - z, up.w, up.coupling


def gamma(p: TwoBlockProblem, sched: ParameterSchedule, t: float,
          s: PrimalDualState) -> GammaOutput:
    """Evaluate the field at (t, s); zero exactly at saddle points."""
    s = p.state(s.x, s.z, s.y)
    u, v, w, _ = _field(p, _snapshot(p, sched)(t), s.x, s.z, s.y)
    return GammaOutput(u, v, w)


def _euler_step(p: TwoBlockProblem, snap, h: float, require_uniform: bool = True):
    """Explicit Euler at step ``h``. At h = 1 it is the update itself, the
    discrete iteration, whose ``B z_new`` and ``r`` serve the next step."""
    def unit(t, x, z, y, aty, bz, cp):
        mu1, K, c, tau = snap(t)
        return alternating_update(p, mu1, K, c, tau, x, z, y, require_uniform, aty, bz, cp)
    if h == 1.0:
        return unit

    def step(t, x, z, y, aty, bz, cp):
        up = unit(t, x, z, y, aty, bz, cp)
        return Update(x + (up.x - x) * h, z + (up.z - z) * h, up.w * h, None, None,
                      up.coupling, None)
    return step


def _rk4_step(p: TwoBlockProblem, snap, h: float):
    """The classic four-stage step; the stages share the coupling while it
    is unchanged."""
    half, sixth = 0.5 * h, h / 6.0

    def step(t, x, z, y, aty, bz, cp):
        mid = snap(t + half)
        u1, v1, w1, cp = _field(p, snap(t), x, z, y, aty, bz, cp)
        u2, v2, w2, cp = _field(p, mid, x + u1 * half, z + v1 * half, y + w1 * half,
                                coupling=cp)
        u3, v3, w3, cp = _field(p, mid, x + u2 * half, z + v2 * half, y + w2 * half,
                                coupling=cp)
        u4, v4, w4, cp = _field(p, snap(t + h), x + u3 * h, z + v3 * h, y + w3 * h,
                                coupling=cp)
        return Update(x + (u1 + u2 * 2.0 + u3 * 2.0 + u4) * sixth,
                      z + (v1 + v2 * 2.0 + v3 * 2.0 + v4) * sixth,
                      (w1 + w2 * 2.0 + w3 * 2.0 + w4) * sixth, None, None, cp, None)
    return step


def integrate(p: TwoBlockProblem, sched: ParameterSchedule, s0: PrimalDualState,
              method: str = "rk4", h: float = 0.01, T: float = 10.0,
              record_every: int = 1,
              reference: Optional[PrimalDualState] = None) -> Trajectory:
    """Run an explicit fixed-step integration from t = 0 to t = T.

    Residuals are computed at recorded samples only; an energy value is
    attached to each sample when a reference saddle point is supplied. The
    dimensions of ``s0`` are checked, and the reference is checked to be a
    saddle point, once, before the first step. The run is the solvers' loop
    with an Euler or RK4 step, and stops as they do: at a subproblem failure,
    with a last sample for the state the failing step started from, and at a
    recorded sample with a residual that is not finite. Either raises
    :class:`TrajectoryError` carrying the partial trajectory, with status
    ``error`` or ``diverged``. Unit-step Euler is the solvers' step, so its
    trajectory is ``prox_ama_run``'s, bit for bit, with the same products.
    """
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < h <= 1.0:
        raise ValueError(f"step size must lie in (0, 1], got {h}")
    if T < h:
        raise ValueError(f"horizon {T} shorter than one step {h}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")

    snap = _snapshot(p, sched)
    energy = None
    if reference is not None:
        from .diagnostics import _energy, check_reference

        check_reference(p, reference)

        def energy(t, x, z, y):
            return _energy(p, snap(t), t, PrimalDualState(x, z, y, t), reference).energy
    step = _rk4_step(p, snap, h) if method == "rk4" else _euler_step(p, snap, h)
    status, k, rec, exc = _run(p, s0, step, h, max(1, int(round(T / h))), record_every,
                               energy=energy)
    traj = rec.trajectory(method, h, T)
    if status == "error":
        raise TrajectoryError(f"integration aborted at t={k * h:.6g}: {exc}",
                              trajectory=traj) from exc
    if status == "diverged":
        raise TrajectoryError(f"integration diverged at t={k * h:.6g}: residual not finite",
                              trajectory=traj, status="diverged")
    return traj
