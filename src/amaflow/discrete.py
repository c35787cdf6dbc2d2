"""Alternating-minimization iterations as standalone solvers.

Both solvers are the unit-step explicit Euler discretization of the
continuous system in :mod:`amaflow.dynamics`; they share its
:func:`~amaflow.dynamics.alternating_update`, so a trajectory from
``integrate(..., method="euler", h=1)`` and a solver run with the same
schedules agree exactly. Schedules are sampled at t = k for iteration k.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import CapabilityError, ConditionError, ConvergenceError
from .dynamics import _m1_factor, _metric_matrix, _sample, _snapshot, alternating_update
from .problem import PrimalDualState, TwoBlockProblem
from .schedules import ParameterSchedule, ScalarSchedule
from .trajectory import Trajectory, _Recorder

__all__ = ["SolveConfig", "SolveResult", "prox_ama_step", "prox_ama_run", "ama_run"]


class SolveConfig:
    """Iteration budget, stopping tolerances and recording cadence of a run."""

    __slots__ = ("max_iters", "tol_kkt", "tol_feas", "record_every")

    def __init__(self, max_iters: int = 20000, tol_kkt: float = 1e-6,
                 tol_feas: float = 1e-6, record_every: int = 1):
        if max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {max_iters}")
        if not (0.0 < tol_kkt < math.inf and 0.0 < tol_feas < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {record_every}")
        self.max_iters, self.tol_kkt = max_iters, tol_kkt
        self.tol_feas, self.record_every = tol_feas, record_every

    def __repr__(self) -> str:
        return (f"SolveConfig(max_iters={self.max_iters!r}, tol_kkt={self.tol_kkt!r}, "
                f"tol_feas={self.tol_feas!r}, record_every={self.record_every!r})")


class SolveResult:
    """The final state, the recorded iterates and how the run ended:
    ``status`` is converged, max_iters, diverged or error."""

    __slots__ = ("final", "iterates", "status", "iterations_used", "message")

    def __init__(self, final: PrimalDualState, iterates: Trajectory, status: str,
                 iterations_used: int, message: str = ""):
        self.final, self.iterates, self.status = final, iterates, status
        self.iterations_used, self.message = iterations_used, message


def prox_ama_step(p: TwoBlockProblem, M1_k, M2_k, c_k: float,
                  s_k: PrimalDualState, tau_k: Optional[float] = None) -> PrimalDualState:
    """One iteration: x-argmin, z-argmin with the fresh x, multiplier ascent."""
    s = p.state(s_k.x, s_k.z, s_k.y)
    K = None if tau_k is not None else _metric_matrix(M2_k)
    up = alternating_update(p, _m1_factor(M1_k), K, c_k, tau_k, s.x, s.z, s.y)
    return PrimalDualState(up.x, up.z, s.y + up.w, s_k.t + 1)


@np.errstate(over="ignore")
def _run_loop(p: TwoBlockProblem, snapshot, s0: PrimalDualState, cfg: SolveConfig,
              method: str, require_uniform: bool) -> SolveResult:
    """The loop of :func:`prox_ama_run` and :func:`ama_run`.

    An iteration streams the matrices four times, A B B A on the
    prox-friendly branch: the update's A x+, B* of the z-step and B z+,
    then A* y+ for the x-residual, which the next x-step reuses along with
    B z+; the feasibility residual is the norm of the update's r. The
    z-residual (one more B* y+, before A* y+, and a prox of g) is computed
    only where it can decide the run: on recorded iterates (the
    last one included) and on iterates whose x-residual and feasibility
    residual both pass their tolerances or are not both finite. Anywhere
    else one of the two is finite and above its tolerance, so the iterate
    can neither converge nor be found diverged by them. The one case this
    reports later than a full residual would: a non-finite value that shows
    first in rz alone, on an iterate that is not recorded. The run then stops
    as ``diverged`` once it reaches rx or the feasibility residual (through
    the next z-step, typically one iterate later) or at the next recorded
    iterate, whichever comes first. A squared residual past the float range
    is an infinite residual, without numpy's overflow warning.
    """
    s = p.state(s0.x, s0.z, s0.y)
    At, Bt = p.mat_At, p.mat_Bt
    x, z, y = s.x, s.z, s.y
    rec = _Recorder((p.dim_x, p.dim_z, p.dim_y), False)
    feas, rx, rz, aty, bz = _sample(p, x, z, y)
    rec.add(0.0, x, z, y, feas, rx, rz)
    stop = _stop(cfg, 0, feas, rx, rz)
    status, message = stop or ("max_iters", "")
    used = last = 0 if stop else cfg.max_iters
    every, tol_kkt, tol_feas = cfg.record_every, cfg.tol_kkt, cfg.tol_feas
    coupling = None
    for k in range(last):
        mu1, K, c, tau = snapshot(float(k))
        try:
            up = alternating_update(p, mu1, K, c, tau, x, z, y, require_uniform,
                                    aty, bz, coupling)
        except (ConvergenceError, ConditionError) as exc:
            status, message, used = "error", str(exc), k
            break
        x, z, y, bz, coupling = up.x, up.z, y + up.w, up.bz, up.coupling
        t = float(k + 1)
        if (k + 1) % every == 0 or k + 1 == last:
            feas, rx, rz, aty, _ = _sample(p, x, z, y, bz, up.r)
            rec.add(t, x, z, y, feas, rx, rz)
            stop = _stop(cfg, k + 1, feas, rx, rz)
        else:
            aty = At.dot(y)
            rx = p._x_residual(x, aty)
            feas = math.sqrt(up.r.dot(up.r))
            if ((rx > tol_kkt or feas > tol_feas)
                    and math.isfinite(rx) and math.isfinite(feas)):
                continue
            rz = p._z_residual(z, Bt.dot(y))
            stop = _stop(cfg, k + 1, feas, rx, rz)
            if stop is not None:
                rec.add(t, x, z, y, feas, rx, rz)
        if stop is not None:
            (status, message), used = stop, k + 1
            break

    if status == "error" and rec.rows[rec.m - 1, 0] != used:
        rec.add(float(used), x, z, y, *_sample(p, x, z, y)[:3])
    traj = rec.trajectory(method, 1.0, float(used))
    return SolveResult(traj.final.state, traj, status, used, message)


def _stop(cfg: SolveConfig, k: int, feas: float, rx: float, rz: float) -> Optional[tuple]:
    """``(status, message)`` when the residuals of iterate ``k`` end the run:
    all within tolerance, or one not finite."""
    if rx <= cfg.tol_kkt and rz <= cfg.tol_kkt and feas <= cfg.tol_feas:
        return "converged", ""
    if not (math.isfinite(rx) and math.isfinite(rz) and math.isfinite(feas)):
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
    return _run_loop(p, _snapshot(sched), s0, cfg, "prox-ama", require_uniform=True)


def ama_run(p: TwoBlockProblem, c_schedule: ScalarSchedule, s0: PrimalDualState,
            cfg: SolveConfig) -> SolveResult:
    """The classic alternating scheme: no metrics, no smooth couplings.

    Requires h1 = h2 = 0. The z-subproblem is only required to be attained
    here, not strongly convex, so the uniform-positivity gate is relaxed.
    Statuses are those of :func:`prox_ama_run`.
    """
    if p.h1.kind != "zero" or p.h2.kind != "zero":
        raise CapabilityError("the plain alternating scheme requires h1 = h2 = 0")
    c_at = c_schedule.value_at
    return _run_loop(p, lambda t: (0.0, None, c_at(t), None), s0, cfg, "ama",
                     require_uniform=False)
