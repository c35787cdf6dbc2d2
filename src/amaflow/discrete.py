"""Alternating-minimization iterations as standalone solvers.

Both solvers are the unit-step explicit Euler discretization of the
continuous system in :mod:`amaflow.dynamics`; they run its unit Euler step in
the same loop as :func:`~amaflow.dynamics.integrate`, so a trajectory from
``integrate(..., method="euler", h=1)`` and a solver run with the same
schedules agree exactly. Schedules are sampled at t = k for iteration k.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import CapabilityError
from .dynamics import _snapshot, _step, alternating_update
from .linop import as_square
from .problem import PrimalDualState, SolveConfig, TwoBlockProblem
from .schedules import ParameterSchedule, ScalarSchedule, ZeroMetric
from .trajectory import DIVERGED_ABOVE, Trajectory, _run

__all__ = ["SolveConfig", "SolveResult", "prox_ama_step", "prox_ama_run", "ama_run"]


class SolveResult:
    """The final state, the recorded iterates and how the run ended:
    ``status`` is converged, max_iters, diverged or error."""

    __slots__ = ("final", "iterates", "status", "iterations_used", "message")

    def __init__(self, final: PrimalDualState, iterates: Trajectory, status: str,
                 iterations_used: int, message: str = ""):
        self.final, self.iterates, self.status = final, iterates, status
        self.iterations_used, self.message = iterations_used, message


@np.errstate(over="ignore", invalid="ignore")
def prox_ama_step(p: TwoBlockProblem, mu1: float, K: Optional[np.ndarray], c_k: float,
                  s_k: PrimalDualState, tau_k: Optional[float] = None) -> PrimalDualState:
    """One iteration: x-argmin, z-argmin with the fresh x, multiplier ascent,
    for M1 = mu1 Id and either the prox step ``tau_k`` of a prox-friendly M2
    or M2 as the (n, n) array ``K`` (None for M2 = 0; a K of another size
    raises :class:`~amaflow.errors.DimensionMismatchError`)."""
    s = p.state(s_k.x, s_k.z, s_k.y)
    if K is not None and tau_k is None:
        K = as_square(K, p.dim_z, "M2")
    x, z, w = alternating_update(p, mu1, K, c_k, tau_k, s.x, s.z, s.y)[:3]
    return PrimalDualState(x, z, s.y + w, s_k.t + 1)


def _solve(p: TwoBlockProblem, step, s0: PrimalDualState, cfg: SolveConfig,
           method: str) -> SolveResult:
    """Run the unit ``step`` under ``cfg`` and report how the run ended."""
    status, used, rec, exc = _run(p, s0, step, 1.0, cfg.max_iters, cfg.record_every,
                                  (cfg.tol_kkt, cfg.tol_feas))
    message = "" if exc is None else str(exc)
    if status == "diverged":
        message = f"residual NaN or past {DIVERGED_ABOVE:g} at iteration {used}"
    traj = rec.trajectory(method, 1.0, float(used), status, message)
    return SolveResult(traj.final.state, traj, status, used, message)


def prox_ama_run(p: TwoBlockProblem, sched: ParameterSchedule, s0: PrimalDualState,
                 cfg: SolveConfig) -> SolveResult:
    """Iterate the proximal alternating scheme until the residuals pass.

    The run stops as ``converged`` when they pass, as ``diverged`` at the first
    iterate with a residual the stop rule reads that is NaN or past
    :data:`~amaflow.trajectory.DIVERGED_ABOVE`, whatever ``record_every`` is,
    as ``error`` when a subproblem fails, and otherwise as ``max_iters``. The
    dimensions of ``s0`` are checked once, before the first update.
    """
    return _solve(p, _step(p, _snapshot(p, sched), 1.0), s0, cfg, "prox-ama")


def ama_run(p: TwoBlockProblem, c_schedule: ScalarSchedule, s0: PrimalDualState,
            cfg: SolveConfig) -> SolveResult:
    """The classic alternating scheme: no metrics, no smooth couplings.

    Requires h1 = h2 = 0. The z-subproblem is only required to be attained
    here, not strongly convex, so the uniform-positivity gate is relaxed.
    Statuses are those of :func:`prox_ama_run`.
    """
    if p.h1.kind != "zero" or p.h2.kind != "zero":
        raise CapabilityError("the plain alternating scheme requires h1 = h2 = 0")
    sched = ParameterSchedule(c_schedule, ZeroMetric(p.dim_x), ZeroMetric(p.dim_z))
    step = _step(p, _snapshot(p, sched), 1.0, require_uniform=False)
    return _solve(p, step, s0, cfg, "ama")
