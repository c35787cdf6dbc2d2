"""Lyapunov energy, monotonicity checking, and run summaries.

The energy of a state s = (x, z, y) against a reference saddle point
s* = (x*, z*, y*) at time t is

    E = (2 sigma c(t) - c(t)^2 |A|^2) |x - x*|^2
      + c(t) |x - x*|^2_{M1(t)}
      + |z - z*|^2_{c(t) M2(t) + c(t)^2 B*B}
      + |y - y*|^2

which is nonincreasing along exact solutions of the continuous system for
validated schedules. Discrete trajectories satisfy it up to integrator error,
which the monotonicity check absorbs with a small per-step slack.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .dynamics import Trajectory, _snapshot
from .problem import PrimalDualState, TwoBlockProblem
from .schedules import ParameterSchedule, ValidationReport

__all__ = [
    "EnergySample",
    "check_reference",
    "energy",
    "trajectory_energies",
    "check_energy_monotone",
    "SummaryReport",
    "report",
]

REF_KKT_TOL = 1e-6


class EnergySample:
    """The energy at time ``t`` and its four terms
    ``(x-term, x-metric-term, z-metric-term, y-term)``."""

    __slots__ = ("t", "energy", "components")

    def __init__(self, t: float, energy: float, components: tuple):
        self.t, self.energy, self.components = t, energy, components


def check_reference(p: TwoBlockProblem, ref: PrimalDualState) -> None:
    """Raise ``ValueError`` unless ``ref`` is a saddle point to ``REF_KKT_TOL``."""
    res = p.kkt_residual(ref)
    if res.max > REF_KKT_TOL:
        raise ValueError(
            f"reference state is not a verified saddle point: max residual {res.max:.3e}"
        )


def energy(p: TwoBlockProblem, sched: ParameterSchedule, t: float,
           s: PrimalDualState, ref: PrimalDualState,
           ref_checked: bool = False) -> EnergySample:
    """Evaluate the energy of ``s`` against a verified reference saddle.

    The reference is verified on every call unless the caller has already
    passed it through :func:`check_reference` (``ref_checked``). M1 must be
    zero or a scaled identity, as for the solvers. With a prox-friendly
    M2 = (1/tau) Id - c B*B, which shares the run's c and the problem's B,
    the z-metric c M2 + c^2 B*B is (c/tau) Id, so the z-term needs no matrix.
    The first call on a fresh problem carries the SVD behind ``||A||``.
    """
    if not ref_checked:
        check_reference(p, ref)
    return _energy(p, _snapshot(sched)(t), t, s, ref)


def _energy(p: TwoBlockProblem, params: tuple, t: float, s: PrimalDualState,
            ref: PrimalDualState) -> EnergySample:
    """:func:`energy` for the schedule snapshot ``params = (mu1, K, c, tau)``."""
    mu1, K, c, tau = params
    dx = s.x - ref.x
    dz = s.z - ref.z
    dy = s.y - ref.y
    sigma = p.f.strong_convexity
    x_term = (2.0 * sigma * c - c * c * p.norm_A**2) * float(dx.dot(dx))
    x_metric = c * float(dx.dot(dx * mu1))
    if tau is not None:
        z_metric = c / tau * float(dz.dot(dz))
    else:
        bdz = p.mat_B.dot(dz)
        m2_term = 0.0 if K is None else float(dz.dot(K.dot(dz)))
        z_metric = c * m2_term + c * c * float(bdz.dot(bdz))
    y_term = float(dy.dot(dy))
    total = x_term + x_metric + z_metric + y_term
    return EnergySample(t, total, (x_term, x_metric, z_metric, y_term))


def trajectory_energies(traj: Trajectory, p: TwoBlockProblem,
                        sched: ParameterSchedule, ref: PrimalDualState) -> list:
    """The energy of every recorded row, with the reference checked once."""
    check_reference(p, ref)
    snap = _snapshot(sched)
    return [_energy(p, snap(s.t), s.t, s, ref).energy for s in traj._states()]


def _monotone(values) -> tuple:
    worst = 0.0
    for e_prev, e_next in zip(values, values[1:]):
        slack = 1e-6 * (1.0 + e_prev)
        worst = max(worst, e_next - e_prev - slack)
    return worst <= 0.0, max(0.0, worst)


def check_energy_monotone(traj: Trajectory, ref: Optional[PrimalDualState] = None,
                          p: Optional[TwoBlockProblem] = None,
                          sched: Optional[ParameterSchedule] = None):
    """Verify nonincrease of the energy along a recorded trajectory.

    Uses the energies recorded on the samples when present; otherwise all of
    ``ref``, ``p`` and ``sched`` must be supplied so the energies can be
    recomputed. Each step is allowed slack 1e-6 * (1 + E_i) for integrator
    error. Returns ``(passed, max_violation)``.
    """
    if len(traj.table) < 2:
        raise ValueError("monotonicity check needs at least two samples")
    values = traj.energies()
    if any(v is None for v in values):
        if p is None or sched is None or ref is None:
            raise ValueError(
                "trajectory has no recorded energies; supply p, sched and ref"
            )
        values = trajectory_energies(traj, p, sched, ref)
    return _monotone(values)


class SummaryReport:
    """Structured outcome of a run, ready for serialization; ``kind`` is
    ``discrete`` or ``continuous``.

    :func:`report` fills in the energy section and ``time_to_tolerance``
    where they can be computed; they are None otherwise.
    """

    def __init__(self, status: str, kind: str, iterations: Optional[int],
                 horizon: Optional[float], final_t: Optional[float],
                 final_feas: Optional[float], final_kkt_rx: Optional[float],
                 final_kkt_rz: Optional[float],
                 validation: Optional[ValidationReport] = None, message: str = ""):
        self.status, self.kind, self.iterations = status, kind, iterations
        self.horizon, self.final_t, self.final_feas = horizon, final_t, final_feas
        self.final_kkt_rx, self.final_kkt_rz = final_kkt_rx, final_kkt_rz
        self.validation, self.message = validation, message
        self.energy_start: Optional[float] = None
        self.energy_end: Optional[float] = None
        self.energy_monotone: Optional[bool] = None
        self.energy_max_violation: Optional[float] = None
        self.time_to_tolerance: Optional[float] = None

    def as_dict(self) -> dict:
        out = {
            "status": self.status,
            "kind": self.kind,
            "iterations": self.iterations,
            "horizon": self.horizon,
            "final_t": self.final_t,
            "final_feas": self.final_feas,
            "final_kkt_rx": self.final_kkt_rx,
            "final_kkt_rz": self.final_kkt_rz,
        }
        if self.energy_start is not None:
            out.update({
                "energy_start": self.energy_start,
                "energy_end": self.energy_end,
                "energy_monotone": self.energy_monotone,
                "energy_max_violation": self.energy_max_violation,
            })
        if self.time_to_tolerance is not None:
            out["time_to_tolerance"] = self.time_to_tolerance
        if self.validation is not None:
            out["validation_mode"] = self.validation.mode
            out["validation_passed"] = self.validation.passed
            failed = self.validation.failed_rules()
            if failed:
                out["validation_failed_rules"] = ",".join(failed)
        if self.message:
            out["message"] = self.message
        return out


def _first_time_within(traj: Trajectory, tol: float) -> Optional[float]:
    c = 1 + sum(traj.dims)
    hits = np.flatnonzero((traj.table[:, c:c + 3] <= tol).all(axis=1))
    return float(traj.table[hits[0], 0]) if hits.size else None


def report(result_or_traj, p: TwoBlockProblem,
           ref: Optional[PrimalDualState] = None,
           sched: Optional[ParameterSchedule] = None,
           validation: Optional[ValidationReport] = None,
           tol: float = 1e-6, energies: Optional[list] = None) -> SummaryReport:
    """Summarize a solver result or a raw trajectory.

    The energy section appears only when it can be computed: ``energies`` of
    the samples from the caller, energies recorded on the trajectory, or a
    reference plus schedules to compute them. ``time_to_tolerance`` reports
    when all residuals first dropped below ``tol`` among the recorded samples.
    """
    if isinstance(result_or_traj, Trajectory):
        traj, status, message, iterations = result_or_traj, "ok", "", None
        kind = "discrete" if traj.method in ("prox-ama", "ama") else "continuous"
    else:
        res = result_or_traj
        traj, status, message = res.iterates, res.status, res.message
        iterations, kind = res.iterations_used, "discrete"

    if not len(traj.table):
        return SummaryReport("error", kind, iterations, None, None, None, None, None,
                             validation=validation, message=message or "empty trajectory")

    c = 1 + sum(traj.dims)  # the first residual column
    t, feas, rx, rz = traj.table[-1, [0, c, c + 1, c + 2]].tolist()
    rep = SummaryReport(status, kind, iterations, traj.horizon, t, feas, rx, rz,
                        validation=validation, message=message)
    rep.time_to_tolerance = _first_time_within(traj, tol)

    if energies is None:
        energies = traj.energies()
    have_recorded = len(energies) >= 2 and None not in energies
    can_recompute = ref is not None and sched is not None and len(energies) >= 2
    if have_recorded or can_recompute:
        if not have_recorded:
            energies = trajectory_energies(traj, p, sched, ref)
        rep.energy_start = float(energies[0])
        rep.energy_end = float(energies[-1])
        rep.energy_monotone, rep.energy_max_violation = _monotone(energies)
    return rep
