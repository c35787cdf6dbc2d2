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

import math
from typing import Optional

import numpy as np

from .dynamics import Trajectory, _snapshot
from .linop import _blas_layout
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
REPORT_TOL = 1e-6  # the residual level whose first recorded time a report gives


class EnergySample:
    """The energy at time ``t`` and its four terms
    ``(x-term, x-metric-term, z-metric-term, y-term)``."""

    __slots__ = ("t", "energy", "components")

    def __init__(self, t: float, energy: float, components: tuple):
        self.t, self.energy, self.components = t, energy, components


def check_reference(p: TwoBlockProblem, ref: PrimalDualState) -> None:
    """Raise ``ValueError`` unless ``ref`` is a saddle point to ``REF_KKT_TOL``;
    a residual that is not a number fails."""
    res = p.kkt_residual(ref)
    if not res.max <= REF_KKT_TOL:
        raise ValueError(
            f"reference state is not a verified saddle point: max residual {res.max:.3e}"
        )


def energy(p: TwoBlockProblem, sched: ParameterSchedule, t: float,
           s: PrimalDualState, ref: PrimalDualState) -> EnergySample:
    """Evaluate the energy of ``s`` against a verified reference saddle.

    The dimensions of ``s`` are checked, and the reference is verified, on
    every call. The metrics pass the solvers' checks (those of
    :func:`~amaflow.dynamics._snapshot`). Where its c is the run's,
    M2 = (1/tau) Id - c B*B makes the z-metric c M2 + c^2 B*B equal
    (c/tau) Id: no matrix is needed. The first call on a fresh problem
    carries the SVD behind ``||A||``.
    """
    s = p.state(s.x, s.z, s.y)
    check_reference(p, ref)
    total, terms = _terms(p, [_snapshot(p, sched)(t)], s.x[None] - ref.x,
                          s.z[None] - ref.z, s.y[None] - ref.y)
    return EnergySample(t, float(total[0]), tuple(float(v[0]) for v in terms))


_BLOCK = 256  # rows per stacked energy pass


@np.errstate(over="ignore", invalid="ignore")
def _terms(p: TwoBlockProblem, params: list, dx: np.ndarray, dz: np.ndarray,
           dy: np.ndarray) -> tuple:
    """The energy and its four terms, an array each, for a block of rows: row i
    of ``dx``, ``dz``, ``dy`` is a state's distance to the reference, and
    ``params[i]`` the snapshot ``(mu1, K, c, tau)`` at its time.

    The products are stacked, and each is the row's own BLAS call:
    ``np.vecdot(u, v)[i]`` is ``u[i].dot(v[i])`` and ``np.matvec(M, u)[i]`` is
    ``M.dot(u[i])``, bit for bit. So every term is the one the formula gives
    row by row. A term past the float range is inf (or NaN against an opposite
    inf), without numpy's warnings. Where tau is known, the z-metric
    c M2 + c^2 B*B is (c/tau) Id; other rows multiply by B and, in groups
    sharing one matrix, by K.
    """
    mu1 = np.array([q[0] for q in params])
    c = np.array([q[2] for q in params])
    tau = np.array([np.nan if q[3] is None else q[3] for q in params])
    x_term = (2.0 * p.f.strong_convexity * c - c * c * p.norm_A**2) * np.vecdot(dx, dx)
    x_metric = c * np.vecdot(dx, dx * mu1[:, None])
    z_metric = c / tau * np.vecdot(dz, dz)
    dense = np.flatnonzero(np.isnan(tau))
    if dense.size:
        dzd, cd = dz[dense], c[dense]
        bdz = np.matvec(_blas_layout(p.B), dzd)
        m2 = np.zeros(dense.size)
        groups = {}
        for j, i in enumerate(dense.tolist()):
            K = params[i][1]
            if K is not None:
                groups.setdefault(id(K), (K, []))[1].append(j)
        for K, rows in groups.values():
            m2[rows] = np.vecdot(dzd[rows], np.matvec(_blas_layout(K), dzd[rows]))
        z_metric[dense] = cd * m2 + cd * cd * np.vecdot(bdz, bdz)
    y_term = np.vecdot(dy, dy)
    return x_term + x_metric + z_metric + y_term, (x_term, x_metric, z_metric, y_term)


def _energy_column(p: TwoBlockProblem, snap, traj: Trajectory,
                   ref: PrimalDualState) -> np.ndarray:
    """The energy of each row of a run's table, a block of rows at a time,
    with the schedules read through ``snap`` at each row's time."""
    table, (a, b, c) = traj.table, traj.cuts
    out = np.empty(len(table))
    for i in range(0, len(table), _BLOCK):
        rows = table[i:i + _BLOCK]
        params = [snap(t) for t in rows[:, 0].tolist()]
        out[i:i + _BLOCK] = _terms(p, params, rows[:, 1:a] - ref.x, rows[:, a:b] - ref.z,
                                   rows[:, b:c] - ref.y)[0]
    return out


def trajectory_energies(traj: Trajectory, p: TwoBlockProblem,
                        sched: ParameterSchedule, ref: PrimalDualState) -> list:
    """The energy of every recorded row, with the reference checked once."""
    check_reference(p, ref)
    return _energy_column(p, _snapshot(p, sched), traj, ref).tolist()


def check_energy_monotone(energies) -> tuple:
    """Verify nonincrease of a run's energies (see :func:`trajectory_energies`).

    Each step is allowed slack 1e-6 * (1 + E_i) for integrator error; a step
    whose increase is not a number (a NaN energy, or inf after inf) is a
    violation of size inf. Returns ``(passed, max_violation)``.
    """
    if len(energies) < 2:
        raise ValueError("monotonicity check needs at least two samples")
    worst = 0.0
    for e_prev, e_next in zip(energies, energies[1:]):
        excess = e_next - e_prev - 1e-6 * (1.0 + e_prev)
        if math.isnan(excess):
            return False, math.inf
        worst = max(worst, excess)
    return worst <= 0.0, worst


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


def report(result_or_traj, validation: Optional[ValidationReport] = None,
           energies: Optional[list] = None) -> SummaryReport:
    """Summarize a solver result or a trajectory from its trajectory alone:
    the status and message of its run and, for a solver run, its iterations,
    the trajectory's horizon.

    The energy section appears only for two or more ``energies`` of the rows
    (see :func:`trajectory_energies`), checked by
    :func:`check_energy_monotone`. ``time_to_tolerance`` reports when all
    residuals first dropped below ``REPORT_TOL`` among the recorded rows.
    """
    traj = getattr(result_or_traj, "iterates", result_or_traj)
    status, message = traj.status, traj.message
    kind = "discrete" if traj.method in ("prox-ama", "ama") else "continuous"
    iterations = int(traj.horizon) if kind == "discrete" else None

    if not len(traj.table):
        return SummaryReport("error", kind, iterations, None, None, None, None, None,
                             validation=validation, message=message or "empty trajectory")

    c = traj.cuts[2]  # the first residual column
    t, feas, rx, rz = traj.table[-1, [0, c, c + 1, c + 2]].tolist()
    rep = SummaryReport(status, kind, iterations, traj.horizon, t, feas, rx, rz,
                        validation=validation, message=message)
    hits = np.flatnonzero((traj.table[:, c:c + 3] <= REPORT_TOL).all(axis=1))
    rep.time_to_tolerance = float(traj.table[hits[0], 0]) if hits.size else None

    if energies is not None and len(energies) >= 2:
        rep.energy_start = float(energies[0])
        rep.energy_end = float(energies[-1])
        rep.energy_monotone, rep.energy_max_violation = check_energy_monotone(energies)
    return rep
