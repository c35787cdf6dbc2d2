"""The first-order system driving the solvers, and explicit integrators.

The vector field is defined through two alternating strongly convex
subproblems followed by a multiplier residual:

    x' + x = argmin_p  f(p) - <p, A*y> + <p - x, grad h1(x)> + (1/2)|p - x|^2_M1(t)
    z' + z = argmin_q  g(q) + (c(t)/2) |A(x + x') + Bq - b|^2
                       + <q - z, grad h2(z)> + (1/2)|q - z|^2_M2(t)
    y'     = c(t) (b - A(x + x') - B(z + z'))

evaluated strictly in that order (the z subproblem consumes the fresh x).
With unit-step explicit Euler this is exactly the proximal alternating
minimization iteration in :mod:`amaflow.discrete`; the shared update lives in
:func:`alternating_update` so the two produce bit-identical numbers.

Runs check their start state once; inside a run the update works on trusted
float64 arrays, and the public helpers' own checks take a fast path for them.
Scalar products are written ``array * scalar``: the same IEEE product as
``scalar * array``, without the reflected-operator dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    CapabilityError,
    ConditionError,
    ConvergenceError,
    TrajectoryError,
)
from .functions import SeparableFunction
from .linop import (
    IdentityMap,
    LinearMap,
    ScaledIdentityMap,
    SumMap,
    as_vector,
    gram,
    min_eigenvalue_sym,
    operator_norm,
    scaled,
)
from .problem import KKTResidual, PrimalDualState, TwoBlockProblem
from .schedules import ParameterSchedule

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


@dataclass(frozen=True)
class GammaOutput:
    """The field value (u, v, w) = (x', z', y') at one (t, state)."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    @property
    def norm(self) -> float:
        return math.sqrt(
            float(self.u @ self.u) + float(self.v @ self.v) + float(self.w @ self.w)
        )


@dataclass(frozen=True, slots=True)
class TrajectorySample:
    t: float
    state: PrimalDualState
    feas: float
    kkt: KKTResidual
    energy: Optional[float] = None


@dataclass
class Trajectory:
    """Recorded samples of one run plus the configuration that produced it."""

    samples: list
    method: str
    step: float
    horizon: float

    @property
    def final(self) -> TrajectorySample:
        if not self.samples:
            raise ValueError("trajectory is empty")
        return self.samples[-1]

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def energies(self):
        return [s.energy for s in self.samples]


def _identity_factor(m: LinearMap) -> Optional[float]:
    if isinstance(m, ScaledIdentityMap):
        return m.factor
    if isinstance(m, IdentityMap):
        return 1.0
    return None


def _scaled_argmin(fun: SeparableFunction, mu: float, target: np.ndarray) -> np.ndarray:
    """``argmin_p  fun(p) + (mu/2)|p|^2 - <target, p>``: one prox, or for mu = 0
    the conjugate gradient of ``fun``."""
    if mu < 0.0:
        raise ConditionError(f"subproblem metric has negative factor {mu}")
    if mu == 0.0:
        return fun.conj_grad(target)
    return fun.prox(1.0 / mu, target / mu)


def _lipschitz(Q: LinearMap, require_uniform: bool) -> float:
    """``|Q|``, after checking that Q is uniformly positive if so required."""
    if require_uniform:
        floor = min_eigenvalue_sym(Q)
        if floor <= 1e-12:
            raise ConditionError(
                f"subproblem metric not uniformly positive (min eigenvalue {floor:.3e}); "
                "the z-subproblem is not well posed under these schedules"
            )
    return operator_norm(Q)


def _inner_argmin(fun: SeparableFunction, Q: LinearMap, lip: float,
                  target: np.ndarray, start: Optional[np.ndarray]) -> np.ndarray:
    """The proximal-gradient loop for a general Q with Lipschitz constant ``lip``.

    It stops once a step is at most ``1e-10 * max(1, |p|)``, p the new point,
    so iterates of any scale can stop.
    """
    if lip == 0.0:
        return fun.conj_grad(target)
    step = 1.0 / lip
    p = np.zeros(fun.dim) if start is None else start.copy()
    for k in range(50000):
        p_next = fun.prox(step, p - step * (Q.apply(p) - target))
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
    mu = _identity_factor(Q)
    if mu is not None:
        return _scaled_argmin(fun, mu, target)
    lip = _lipschitz(Q, require_uniform)
    if start is not None:
        start = as_vector(start, fun.dim, "start")
    return _inner_argmin(fun, Q, lip, target, start)


class Coupling(NamedTuple):
    """The z-subproblem's quadratic form ``Q = c B*B + M2``, checked, with its
    Lipschitz constant and the ``(c, M2)`` it was built from."""

    c: float
    M2: LinearMap
    Q: LinearMap
    lip: float


def _coupling(p: TwoBlockProblem, M2_t: LinearMap, c_t: float, require_uniform: bool,
              last: Optional[Coupling] = None) -> Coupling:
    """``c_t B*B + M2_t`` with its spectral checks; ``last`` is reused as it is
    when it was built from the same ``c_t`` and the same ``M2_t`` object."""
    if last is not None and last.c == c_t and last.M2 is M2_t:
        return last
    Q = SumMap(scaled(gram(p.B), c_t), M2_t)
    return Coupling(c_t, M2_t, Q, _lipschitz(Q, require_uniform))


def solve_x_subproblem(p: TwoBlockProblem, M1_t: LinearMap, x, y,
                       aty=None) -> np.ndarray:
    """Return the x-block argmin (the new point, not the velocity).

    Only M1 = 0 or a positive multiple of the identity is supported; both keep
    the update a single prox or conjugate-gradient evaluation of f. ``aty`` is
    the product ``A* y`` when the caller already has it; ``y`` is then unused.
    """
    x = as_vector(x, p.dim_x, "x")
    mu = _identity_factor(M1_t)
    if mu is None:
        raise CapabilityError("x-subproblem supports only zero or scaled-identity M1")
    if aty is None:
        aty = p.A.adjoint_apply(as_vector(y, p.dim_y, "y"))
    pull = aty if p.h1.kind == "zero" else aty - p.h1.grad(x)
    if mu == 0.0:
        return p.f.conj_grad(pull)
    return _scaled_argmin(p.f, mu, x * mu + pull)


def solve_z_subproblem(p: TwoBlockProblem, M2_t: Optional[LinearMap], c_t: float,
                       tau_t: Optional[float], z, y, x_new,
                       require_uniform: bool = True, ax_new=None,
                       bz=None, coupling: Optional[Coupling] = None) -> np.ndarray:
    """Return the z-block argmin given the freshly updated x.

    When ``tau_t`` is supplied the metric is the prox-friendly choice
    M2 = (1/tau) Id - c B*B, so c B*B + M2 collapses to (1/tau) Id and the
    whole update is one prox of g, at the matrix-free target

        z/tau + B*(y - c (A x_new + B z - b)) - grad h2(z),

    which is M2 z + B* y - c B*(A x_new - b) - grad h2(z) with one adjoint.
    This branch never reads ``M2_t`` (it may be None) and takes the metric's c
    and B to be ``c_t`` and ``p.B``: a prox-friendly M2 must share the run's c
    schedule and the problem's B. Otherwise the quadratic coupling
    c B*B + M2 is solved by the inner proximal-gradient loop of
    :func:`regularized_argmin`; ``coupling`` is that form for ``c_t`` and
    ``M2_t`` when the caller keeps it across updates.

    ``ax_new = A x_new`` and ``bz = B z`` are used when the caller already has
    them; ``x_new`` is then unused.
    """
    z = as_vector(z, p.dim_z, "z")
    y = as_vector(y, p.dim_y, "y")
    if ax_new is None:
        ax_new = p.A.apply(as_vector(x_new, p.dim_x, "x_new"))
    if tau_t is not None:
        if tau_t <= 0.0:
            raise ConditionError(f"prox step tau must be positive, got {tau_t}")
        if bz is None:
            bz = p.B.apply(z)
        target = z / tau_t + p.B.adjoint_apply(y - (ax_new + bz - p.b) * c_t)
        if p.h2.kind != "zero":
            target = target - p.h2.grad(z)
        return _scaled_argmin(p.g, 1.0 / tau_t, target)
    target = M2_t.apply(z) + p.B.adjoint_apply(y - (ax_new - p.b) * c_t)
    if p.h2.kind != "zero":
        target = target - p.h2.grad(z)
    if coupling is None:
        coupling = _coupling(p, M2_t, c_t, require_uniform)
    return _inner_argmin(p.g, coupling.Q, coupling.lip, target, z)


class Update(NamedTuple):
    """One alternating sweep: the new blocks, the multiplier step, the
    products ``ax = A x`` and ``bz = B z`` of the new blocks for reuse, and the
    z-step's :class:`Coupling` (None on the prox-friendly branch)."""

    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    ax: np.ndarray
    bz: np.ndarray
    coupling: Optional[Coupling]


def alternating_update(p: TwoBlockProblem, M1_t: LinearMap, M2_t: Optional[LinearMap],
                       c_t: float, tau_t: Optional[float], s: PrimalDualState,
                       require_uniform: bool = True, aty=None, bz=None,
                       coupling: Optional[Coupling] = None) -> Update:
    """One x-then-z sweep plus the multiplier residual.

    Returns an :class:`Update` with ``w = c (b - A x_new - B z_new)``. ``aty``
    and ``bz`` are the products ``A* s.y`` and ``B s.z`` when the caller
    already has them; ``coupling`` is the previous update's, reused when c and
    the M2 map are unchanged, so a run with a constant coupling checks and
    norms it once. The continuous field and the discrete iteration both
    reduce to this; keeping one code path makes the unit-step Euler
    discretization reproduce the discrete solver exactly, not merely to
    rounding.
    """
    x_new = solve_x_subproblem(p, M1_t, s.x, s.y, aty=aty)
    ax_new = p.A.apply(x_new)
    if tau_t is None:
        coupling = _coupling(p, M2_t, c_t, require_uniform, coupling)
    z_new = solve_z_subproblem(p, M2_t, c_t, tau_t, s.z, s.y, x_new,
                               require_uniform=require_uniform, ax_new=ax_new, bz=bz,
                               coupling=coupling)
    bz_new = p.B.apply(z_new)
    w = (p.b - ax_new - bz_new) * c_t
    return Update(x_new, z_new, w, ax_new, bz_new, coupling)


def _schedule_snapshot(sched: ParameterSchedule, t: float):
    """``(M1(t), M2(t), c(t), tau(t))``; M2 is None when tau makes it implicit."""
    tau = sched.tau
    if tau is not None:
        return sched.M1.at(t), None, sched.c.value_at(t), tau.value_at(t)
    return sched.M1.at(t), sched.M2.at(t), sched.c.value_at(t), None


def _field(p: TwoBlockProblem, sched: ParameterSchedule, t: float,
           s: PrimalDualState) -> tuple:
    """The field ``(x', z', y')`` at (t, s) as three arrays."""
    up = alternating_update(p, *_schedule_snapshot(sched, t), s)
    return up.x - s.x, up.z - s.z, up.w


def gamma(p: TwoBlockProblem, sched: ParameterSchedule, t: float,
          s: PrimalDualState) -> GammaOutput:
    """Evaluate the field at (t, s); zero exactly at saddle points."""
    return GammaOutput(*_field(p, sched, t, s))


def _shifted(s: PrimalDualState, k: tuple, factor: float, t: float) -> PrimalDualState:
    u, v, w = k
    return PrimalDualState(s.x + u * factor, s.z + v * factor, s.y + w * factor, t)


def _rk4_step(p, sched, t, s, h) -> PrimalDualState:
    half = 0.5 * h
    u1, v1, w1 = k1 = _field(p, sched, t, s)
    u2, v2, w2 = k2 = _field(p, sched, t + half, _shifted(s, k1, half, t))
    u3, v3, w3 = k3 = _field(p, sched, t + half, _shifted(s, k2, half, t))
    u4, v4, w4 = _field(p, sched, t + h, _shifted(s, k3, h, t))
    sixth = h / 6.0
    x = s.x + (u1 + u2 * 2.0 + u3 * 2.0 + u4) * sixth
    z = s.z + (v1 + v2 * 2.0 + v3 * 2.0 + v4) * sixth
    y = s.y + (w1 + w2 * 2.0 + w3 * 2.0 + w4) * sixth
    return PrimalDualState(x, z, y, t + h)


def _euler_step(p, sched, t, s, h, bz=None) -> tuple:
    """One Euler step from ``s``, whose ``B z`` is ``bz`` when the caller has it.

    Returns the next state and, at unit step, its ``B z``: the argmins become
    the next iterate, matching the discrete solver's update bit for bit, so
    the update's ``B z_new`` is exactly the product the next step needs.
    Other steps return None for it.
    """
    up = alternating_update(p, *_schedule_snapshot(sched, t), s, bz=bz)
    if h == 1.0:
        return PrimalDualState(up.x, up.z, s.y + up.w, t + h), up.bz
    return PrimalDualState(
        s.x + (up.x - s.x) * h, s.z + (up.z - s.z) * h, s.y + up.w * h, t + h
    ), None


def integrate(p: TwoBlockProblem, sched: ParameterSchedule, s0: PrimalDualState,
              method: str = "rk4", h: float = 0.01, T: float = 10.0,
              record_every: int = 1,
              reference: Optional[PrimalDualState] = None) -> Trajectory:
    """Run an explicit fixed-step integration from t = 0 to t = T.

    Residuals are computed at recorded samples only; an energy value is
    attached to each sample when a reference saddle point is supplied. The
    dimensions of ``s0`` are checked, and the reference is checked to be a
    saddle point, once, before the first step. A subproblem failure mid-run,
    or a recorded sample with a residual that is not finite, raises
    :class:`TrajectoryError` carrying the partial trajectory (that sample
    included). Unit-step Euler carries each update's ``B z_new`` into the
    next step, as the discrete solver does.
    """
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < h <= 1.0:
        raise ValueError(f"step size must lie in (0, 1], got {h}")
    if T < h:
        raise ValueError(f"horizon {T} shorter than one step {h}")
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")

    from .diagnostics import check_reference, energy as energy_fn

    s = p.state(s0.x, s0.z, s0.y)
    if reference is not None:
        check_reference(p, reference)
    n_steps = int(round(T / h))
    if n_steps < 1:
        n_steps = 1

    def make_sample(t, state, bz):
        e = None
        if reference is not None:
            e = energy_fn(p, sched, t, state, reference, ref_checked=True).energy
        kkt = p.kkt_residual(state, bz=bz)
        return TrajectorySample(t, state, kkt.feas, kkt, e)

    samples = [make_sample(0.0, s, None)]
    bz = None
    for n in range(n_steps):
        t = n * h
        try:
            if method == "euler":
                s, bz = _euler_step(p, sched, t, s, h, bz)
            else:
                s = _rk4_step(p, sched, t, s, h)
        except (ConvergenceError, ConditionError, CapabilityError) as exc:
            partial = Trajectory(samples, method, h, T)
            raise TrajectoryError(f"integration aborted at t={t:.6g}: {exc}",
                                  trajectory=partial) from exc
        if (n + 1) % record_every == 0 or n + 1 == n_steps:
            smp = make_sample((n + 1) * h, s, bz)
            samples.append(smp)
            if not all(math.isfinite(v) for v in smp.kkt):
                raise TrajectoryError(
                    f"integration diverged at t={smp.t:.6g}: residual not finite",
                    trajectory=Trajectory(samples, method, h, T))
    return Trajectory(samples, method, h, T)
