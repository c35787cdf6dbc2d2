"""Alternating-minimization iterations as standalone solvers.

Both solvers are the unit-step explicit Euler discretization of the
continuous system in :mod:`amaflow.dynamics`; they run its unit Euler step in
the same loop as :func:`~amaflow.dynamics.integrate`, so a trajectory from
``integrate(..., method="euler", h=1)`` and a solver run with the same
schedules agree exactly. Schedules are sampled at t = k for iteration k.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import CapabilityError
from .dynamics import _euler_step, _m1_factor, _metric_matrix, _snapshot, alternating_update
from .problem import PrimalDualState, TwoBlockProblem
from .schedules import ParameterSchedule, ScalarSchedule
from .trajectory import Trajectory, _run

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


def _solve(p: TwoBlockProblem, step, s0: PrimalDualState, cfg: SolveConfig,
           method: str) -> SolveResult:
    """Run the unit ``step`` under ``cfg`` and report how the run ended."""
    status, used, rec, exc = _run(p, s0, step, 1.0, cfg.max_iters, cfg.record_every,
                                  (cfg.tol_kkt, cfg.tol_feas))
    message = "" if exc is None else str(exc)
    if status == "diverged":
        message = f"residual not finite at iteration {used}"
    traj = rec.trajectory(method, 1.0, float(used))
    return SolveResult(traj.final.state, traj, status, used, message)


def prox_ama_run(p: TwoBlockProblem, sched: ParameterSchedule, s0: PrimalDualState,
                 cfg: SolveConfig) -> SolveResult:
    """Iterate the proximal alternating scheme until the residuals pass.

    The run stops as ``converged`` when they pass, as ``diverged`` at the first
    iterate with a residual that is not finite, as ``error`` when a subproblem
    fails, and otherwise as ``max_iters``. The dimensions of ``s0`` are checked
    once, before the first update.
    """
    return _solve(p, _euler_step(p, _snapshot(p, sched), 1.0), s0, cfg, "prox-ama")


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
    step = _euler_step(p, lambda t: (0.0, None, c_at(t), None), 1.0, require_uniform=False)
    return _solve(p, step, s0, cfg, "ama")
