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


@dataclass(frozen=True)
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
        if mu < 0.0:
            raise ConditionError(f"subproblem metric has negative factor {mu}")
        if mu == 0.0:
            return fun.conj_grad(target)
        return fun.prox(1.0 / mu, target / mu)

    if require_uniform:
        floor = min_eigenvalue_sym(Q)
        if floor <= 1e-12:
            raise ConditionError(
                f"subproblem metric not uniformly positive (min eigenvalue {floor:.3e}); "
                "the z-subproblem is not well posed under these schedules"
            )
    lip = operator_norm(Q)
    if lip == 0.0:
        return fun.conj_grad(target)
    step = 1.0 / lip
    p = np.zeros(fun.dim) if start is None else as_vector(start, fun.dim, "start").copy()
    for k in range(50000):
        p_next = fun.prox(step, p - step * (Q.apply(p) - target))
        delta = float(np.linalg.norm(p_next - p))
        p = p_next
        if delta < 1e-10:
            return p
    raise ConvergenceError(
        "inner proximal-gradient solve did not reach tolerance",
        best_estimate=p,
        diagnostics={"iterations": 50000, "last_step": delta},
    )


def solve_x_subproblem(p: TwoBlockProblem, M1_t: LinearMap, x, y,
                       aty=None) -> np.ndarray:
    """Return the x-block argmin (the new point, not the velocity).

    Only M1 = 0 or a positive multiple of the identity is supported; both keep
    the update a single prox or conjugate-gradient evaluation of f. ``aty`` is
    the product ``A* y`` when the caller already has it.
    """
    x = as_vector(x, p.dim_x, "x")
    y = as_vector(y, p.dim_y, "y")
    mu = _identity_factor(M1_t)
    if mu is None:
        raise CapabilityError("x-subproblem supports only zero or scaled-identity M1")
    if aty is None:
        aty = p.A.adjoint_apply(y)
    pull = aty - p.h1.grad(x)
    if mu == 0.0:
        return p.f.conj_grad(pull)
    return regularized_argmin(p.f, M1_t, mu * x + pull)


def solve_z_subproblem(p: TwoBlockProblem, M2_t: Optional[LinearMap], c_t: float,
                       tau_t: Optional[float], z, y, x_new,
                       require_uniform: bool = True, ax_new=None,
                       bz=None) -> np.ndarray:
    """Return the z-block argmin given the freshly updated x.

    When ``tau_t`` is supplied the metric is the prox-friendly choice
    M2 = (1/tau) Id - c B*B, so c B*B + M2 collapses to (1/tau) Id and the
    whole update is one prox of g, at the matrix-free target

        z/tau + B*(y - c (A x_new + B z - b)) - grad h2(z),

    which is M2 z + B* y - c B*(A x_new - b) - grad h2(z) with one adjoint.
    This branch never reads ``M2_t`` (it may be None) and takes the metric's c
    and B to be ``c_t`` and ``p.B``: a prox-friendly M2 must share the run's c
    schedule and the problem's B. Otherwise the quadratic coupling is solved by
    the inner proximal-gradient loop of :func:`regularized_argmin`.

    ``ax_new = A x_new`` and ``bz = B z`` are used when the caller already has
    them.
    """
    z = as_vector(z, p.dim_z, "z")
    y = as_vector(y, p.dim_y, "y")
    x_new = as_vector(x_new, p.dim_x, "x_new")
    if ax_new is None:
        ax_new = p.A.apply(x_new)
    if tau_t is not None:
        if tau_t <= 0.0:
            raise ConditionError(f"prox step tau must be positive, got {tau_t}")
        if bz is None:
            bz = p.B.apply(z)
        target = (z / tau_t + p.B.adjoint_apply(y - c_t * (ax_new + bz - p.b))
                  - p.h2.grad(z))
        return regularized_argmin(p.g, ScaledIdentityMap(p.dim_z, 1.0 / tau_t), target)
    target = (M2_t.apply(z) + p.B.adjoint_apply(y - c_t * (ax_new - p.b))
              - p.h2.grad(z))
    Q = SumMap(scaled(gram(p.B), c_t), M2_t)
    return regularized_argmin(p.g, Q, target, start=z, require_uniform=require_uniform)


class Update(NamedTuple):
    """One alternating sweep: the new blocks, the multiplier step, and the
    products ``ax = A x`` and ``bz = B z`` of the new blocks for reuse."""

    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    ax: np.ndarray
    bz: np.ndarray


def alternating_update(p: TwoBlockProblem, M1_t: LinearMap, M2_t: Optional[LinearMap],
                       c_t: float, tau_t: Optional[float], s: PrimalDualState,
                       require_uniform: bool = True, aty=None, bz=None) -> Update:
    """One x-then-z sweep plus the multiplier residual.

    Returns an :class:`Update` with ``w = c (b - A x_new - B z_new)``. ``aty``
    and ``bz`` are the products ``A* s.y`` and ``B s.z`` when the caller
    already has them. The continuous field and the discrete iteration both
    reduce to this; keeping one code path makes the unit-step Euler
    discretization reproduce the discrete solver exactly, not merely to
    rounding.
    """
    x_new = solve_x_subproblem(p, M1_t, s.x, s.y, aty=aty)
    ax_new = p.A.apply(x_new)
    z_new = solve_z_subproblem(p, M2_t, c_t, tau_t, s.z, s.y, x_new,
                               require_uniform=require_uniform, ax_new=ax_new, bz=bz)
    bz_new = p.B.apply(z_new)
    w = c_t * (p.b - ax_new - bz_new)
    return Update(x_new, z_new, w, ax_new, bz_new)


def _schedule_snapshot(sched: ParameterSchedule, t: float):
    """``(M1(t), M2(t), c(t), tau(t))``; M2 is None when tau makes it implicit."""
    tau = sched.tau
    if tau is not None:
        return sched.M1.at(t), None, sched.c.value_at(t), tau.value_at(t)
    return sched.M1.at(t), sched.M2.at(t), sched.c.value_at(t), None


def gamma(p: TwoBlockProblem, sched: ParameterSchedule, t: float,
          s: PrimalDualState) -> GammaOutput:
    """Evaluate the field at (t, s); zero exactly at saddle points."""
    up = alternating_update(p, *_schedule_snapshot(sched, t), s)
    return GammaOutput(up.x - s.x, up.z - s.z, up.w)


def _shifted(s: PrimalDualState, g: GammaOutput, factor: float, t: float) -> PrimalDualState:
    return PrimalDualState(s.x + factor * g.u, s.z + factor * g.v, s.y + factor * g.w, t)


def _rk4_step(p, sched, t, s, h) -> PrimalDualState:
    k1 = gamma(p, sched, t, s)
    k2 = gamma(p, sched, t + 0.5 * h, _shifted(s, k1, 0.5 * h, t))
    k3 = gamma(p, sched, t + 0.5 * h, _shifted(s, k2, 0.5 * h, t))
    k4 = gamma(p, sched, t + h, _shifted(s, k3, h, t))
    x = s.x + (h / 6.0) * (k1.u + 2.0 * k2.u + 2.0 * k3.u + k4.u)
    z = s.z + (h / 6.0) * (k1.v + 2.0 * k2.v + 2.0 * k3.v + k4.v)
    y = s.y + (h / 6.0) * (k1.w + 2.0 * k2.w + 2.0 * k3.w + k4.w)
    return PrimalDualState(x, z, y, t + h)


def _euler_step(p, sched, t, s, h) -> PrimalDualState:
    up = alternating_update(p, *_schedule_snapshot(sched, t), s)
    if h == 1.0:
        # Unit step: the argmins become the next iterate, matching the
        # discrete solver's update bit for bit.
        return PrimalDualState(up.x, up.z, s.y + up.w, t + h)
    return PrimalDualState(
        s.x + h * (up.x - s.x), s.z + h * (up.z - s.z), s.y + h * up.w, t + h
    )


def integrate(p: TwoBlockProblem, sched: ParameterSchedule, s0: PrimalDualState,
              method: str = "rk4", h: float = 0.01, T: float = 10.0,
              record_every: int = 1,
              reference: Optional[PrimalDualState] = None) -> Trajectory:
    """Run an explicit fixed-step integration from t = 0 to t = T.

    Residuals are computed at recorded samples only; an energy value is
    attached to each sample when a reference saddle point is supplied. The
    reference is checked to be a saddle point once, before the first step. A
    subproblem failure mid-run raises :class:`TrajectoryError` carrying the
    partial trajectory.
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

    if reference is not None:
        check_reference(p, reference)
    stepper = _euler_step if method == "euler" else _rk4_step
    n_steps = int(round(T / h))
    if n_steps < 1:
        n_steps = 1

    def make_sample(t, state):
        e = None
        if reference is not None:
            e = energy_fn(p, sched, t, state, reference, ref_checked=True).energy
        kkt = p.kkt_residual(state)
        return TrajectorySample(t, state, kkt.feas, kkt, e)

    s = s0.with_time(0.0)
    samples = [make_sample(0.0, s)]
    for n in range(n_steps):
        t = n * h
        try:
            s = stepper(p, sched, t, s, h)
        except (ConvergenceError, ConditionError, CapabilityError) as exc:
            partial = Trajectory(samples, method, h, T)
            raise TrajectoryError(f"integration aborted at t={t:.6g}: {exc}",
                                  trajectory=partial) from exc
        if (n + 1) % record_every == 0 or n + 1 == n_steps:
            samples.append(make_sample((n + 1) * h, s))
    return Trajectory(samples, method, h, T)
