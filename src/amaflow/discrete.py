"""Alternating-minimization iterations as standalone solvers.

Both solvers are the unit-step explicit Euler discretization of the
continuous system in :mod:`amaflow.dynamics`; they share its
:func:`~amaflow.dynamics.alternating_update`, so a trajectory from
``integrate(..., method="euler", h=1)`` and a solver run with the same
schedules agree exactly. Schedules are sampled at t = k for iteration k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import CapabilityError, ConditionError, ConvergenceError
from .dynamics import (
    Trajectory,
    TrajectorySample,
    _schedule_snapshot,
    alternating_update,
)
from .linop import ScaledIdentityMap
from .problem import KKTResidual, PrimalDualState, TwoBlockProblem
from .schedules import ParameterSchedule, ScalarSchedule

__all__ = ["SolveConfig", "SolveResult", "prox_ama_step", "prox_ama_run", "ama_run"]


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int = 20000
    tol_kkt: float = 1e-6
    tol_feas: float = 1e-6
    record_every: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        if self.tol_kkt <= 0.0 or self.tol_feas <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class SolveResult:
    final: PrimalDualState
    iterates: Trajectory
    status: str  # converged | max_iters | diverged | error
    iterations_used: int
    message: str = ""


def prox_ama_step(p: TwoBlockProblem, M1_k, M2_k, c_k: float,
                  s_k: PrimalDualState, tau_k: Optional[float] = None) -> PrimalDualState:
    """One iteration: x-argmin, z-argmin with the fresh x, multiplier ascent."""
    up = alternating_update(p, M1_k, M2_k, c_k, tau_k, s_k)
    return PrimalDualState(up.x, up.z, s_k.y + up.w, s_k.t + 1)


def _run_loop(p: TwoBlockProblem, snapshot, s0: PrimalDualState, cfg: SolveConfig,
              method: str, require_uniform: bool) -> SolveResult:
    """The loop of :func:`prox_ama_run` and :func:`ama_run`.

    An iteration streams the matrices four times, A B B A on the
    prox-friendly branch: the update's A x+, B* of the z-target and B z+,
    then A* y+ for the x-residual, which the next x-step reuses along with
    B z+. The z-residual (one more B* y+, before A* y+, and a prox of g) is
    computed only where it can decide the run: on recorded iterates (the
    last one included) and on iterates whose x-residual and feasibility
    residual both pass their tolerances or are not both finite. Anywhere
    else one of the two is finite and above its tolerance, so the iterate
    can neither converge nor be found diverged by them. The one case this
    reports later than a full residual would: a non-finite value that shows
    first in rz alone, on an iterate that is not recorded. The run then stops
    as ``diverged`` once it reaches rx or the feasibility residual (through
    the next z-step, typically one iterate later) or at the next recorded
    iterate, whichever comes first.
    """
    A, B = p.A, p.B

    def sample(k, state, ax=None, bz=None):
        bty = B.adjoint_apply(state.y)
        aty = A.adjoint_apply(state.y)
        kkt = p.kkt_residual(state, aty, ax, bz, bty)
        return TrajectorySample(float(k), state, kkt.feas, kkt), aty

    s = p.state(s0.x, s0.z, s0.y)
    bz = B.apply(s.z)
    first, aty = sample(0, s, A.apply(s.x), bz)
    samples = [first]
    stop = _stop(first.kkt, cfg, 0)
    if stop is not None:
        traj = Trajectory(samples, method, 1.0, 0.0)
        return SolveResult(s, traj, stop[0], 0, stop[1])

    status, message = "max_iters", ""
    used = cfg.max_iters
    coupling = None
    for k in range(cfg.max_iters):
        m1_k, m2_k, c_k, tau_k = snapshot(k)
        try:
            up = alternating_update(p, m1_k, m2_k, c_k, tau_k, s,
                                    require_uniform=require_uniform, aty=aty, bz=bz,
                                    coupling=coupling)
        except (ConvergenceError, ConditionError) as exc:
            status, message, used = "error", str(exc), k
            break
        coupling, bz = up.coupling, up.bz
        s = PrimalDualState(up.x, up.z, s.y + up.w, float(k + 1))
        recorded = (k + 1) % cfg.record_every == 0 or k + 1 == cfg.max_iters
        if recorded:
            smp, aty = sample(k + 1, s, up.ax, bz)
            samples.append(smp)
        else:
            aty = A.adjoint_apply(s.y)
            rx = p._x_residual(s.x, aty)
            feas = p.feasibility_residual(s, up.ax, bz)
            if ((rx > cfg.tol_kkt or feas > cfg.tol_feas)
                    and math.isfinite(rx) and math.isfinite(feas)):
                continue
            kkt = KKTResidual(rx, p._z_residual(s.z, B.adjoint_apply(s.y)), feas)
            smp = TrajectorySample(float(k + 1), s, feas, kkt)
        stop = _stop(smp.kkt, cfg, k + 1)
        if stop is not None:
            if not recorded:
                samples.append(smp)
            (status, message), used = stop, k + 1
            break

    if status == "error" and samples[-1].t != s.t:
        samples.append(sample(s.t, s)[0])
    traj = Trajectory(samples, method, 1.0, float(used))
    return SolveResult(s, traj, status, used, message)


def _stop(kkt, cfg: SolveConfig, k: int) -> Optional[tuple]:
    """``(status, message)`` when the residuals of iterate ``k`` end the run:
    all within tolerance, or one not finite."""
    if kkt.rx <= cfg.tol_kkt and kkt.rz <= cfg.tol_kkt and kkt.feas <= cfg.tol_feas:
        return "converged", ""
    if not (math.isfinite(kkt.rx) and math.isfinite(kkt.rz) and math.isfinite(kkt.feas)):
        return "diverged", f"residual not finite at iteration {k}"
    return None


def prox_ama_run(p: TwoBlockProblem, sched: ParameterSchedule, s0: PrimalDualState,
                 cfg: SolveConfig) -> SolveResult:
    """Iterate the proximal alternating scheme until the residuals pass.

    The run stops as ``converged`` when they pass, as ``diverged`` at the first
    iterate with a residual that is not finite, as ``error`` when a subproblem
    fails, and otherwise as ``max_iters``. The dimensions of ``s0`` are checked
    once, before the first update.
    """
    return _run_loop(p, lambda k: _schedule_snapshot(sched, float(k)), s0, cfg,
                     "prox-ama", require_uniform=True)


def ama_run(p: TwoBlockProblem, c_schedule: ScalarSchedule, s0: PrimalDualState,
            cfg: SolveConfig) -> SolveResult:
    """The classic alternating scheme: no metrics, no smooth couplings.

    Requires h1 = h2 = 0. The z-subproblem is only required to be attained
    here, not strongly convex, so the uniform-positivity gate is relaxed.
    Statuses are those of :func:`prox_ama_run`.
    """
    if p.h1.kind != "zero" or p.h2.kind != "zero":
        raise CapabilityError("the plain alternating scheme requires h1 = h2 = 0")
    zero_x = ScaledIdentityMap(p.dim_x, 0.0)
    zero_z = ScaledIdentityMap(p.dim_z, 0.0)

    def snapshot(k):
        return (zero_x, zero_z, c_schedule.value_at(float(k)), None)

    return _run_loop(p, snapshot, s0, cfg, "ama", require_uniform=False)
