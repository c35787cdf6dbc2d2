"""A run's recorded iterates as one float64 table, a row per iterate, with the
columns of the CLI's CSV: t, x, z, y, the feasibility, x- and z-residuals and,
when the run had a reference saddle, the energy; and the one loop that runs
the solvers and the integrators and records them."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import CapabilityError, ConditionError, ConvergenceError
from .problem import KKTResidual, PrimalDualState, TwoBlockProblem

__all__ = ["TrajectorySample", "Trajectory"]


class TrajectorySample:
    """One recorded state with its residuals and, given a reference, its energy."""

    __slots__ = ("t", "state", "feas", "kkt", "energy")

    def __init__(self, t: float, state: PrimalDualState, feas: float, kkt: KKTResidual,
                 energy: Optional[float] = None):
        self.t, self.state, self.feas, self.kkt, self.energy = t, state, feas, kkt, energy


class Trajectory:
    """The recorded iterates of one run plus the configuration that produced it.

    ``table`` is the read-only table, ``dims`` the lengths of x, z and y.
    ``samples`` is a list built from the rows on first use, with states that
    view them; ``final``, its last entry, is built alone. ``samples`` may be
    given as a list of :class:`TrajectorySample`, which is packed into a
    table, or, with ``dims``, as the table itself.
    """

    def __init__(self, samples, method: str, step: float, horizon: float, dims=None):
        if dims is None:
            st = samples[0].state if samples else PrimalDualState([], [], [])
            rec = _Recorder((st.x.size, st.z.size, st.y.size),
                            all(s.energy is not None for s in samples))
            for s in samples:
                rec.add(s.t, s.state.x, s.state.z, s.state.y, s.feas, *s.kkt[:2], s.energy)
            samples, dims = rec.finish(), rec.dims
        self.table, self.dims = samples, dims
        self.method, self.step, self.horizon = method, step, horizon
        self._samples = self._final = None

    def _states(self, rows: slice = slice(None)):
        """The states of ``rows``, as views of them, stamped with their times."""
        nx, nz, ny = self.dims
        tab = self.table[rows]
        return map(PrimalDualState, tab[:, 1:1 + nx], tab[:, 1 + nx:1 + nx + nz],
                   tab[:, 1 + nx + nz:1 + nx + nz + ny], map(float, tab[:, 0]))

    def _samples_of(self, rows: slice) -> list:
        residuals = self.table[rows, 1 + sum(self.dims):].tolist()
        return [TrajectorySample(st.t, st, feas, KKTResidual(rx, rz, feas), *energy)
                for st, (feas, rx, rz, *energy) in zip(self._states(rows), residuals)]

    @property
    def samples(self) -> list:
        if self._samples is None:
            self._samples = self._samples_of(slice(-1)) + [self.final] if len(self.table) else []
        return self._samples

    @property
    def final(self) -> TrajectorySample:
        if not len(self.table):
            raise ValueError("trajectory is empty")
        if self._final is None:
            self._final = self._samples_of(slice(-1, None))[0]
        return self._final

    def times(self) -> np.ndarray:
        return self.table[:, 0]

    def energies(self) -> list:
        """The energy column, or None for each row of a table without one."""
        has_energy = self.table.shape[1] > 4 + sum(self.dims)
        return self.table[:, -1].tolist() if has_energy else [None] * len(self.table)


class _Recorder:
    """Appends the rows of a run's table. The buffer grows by blocks of at
    least 64 KiB, or an eighth of its rows, and is trimmed once, at the end."""

    def __init__(self, dims: tuple, energy: bool):
        self.dims, self.m = dims, 0
        self.cuts = (1 + dims[0], 1 + dims[0] + dims[1], 1 + sum(dims))
        self.width = self.cuts[2] + 3 + energy
        self.block = max(1, 8192 // self.width)
        self.rows = np.empty((self.block, self.width))

    def add(self, t, x, z, y, feas, rx, rz, energy=None) -> None:
        if self.m == len(self.rows):
            # No view of the buffer exists before finish, so it may move.
            self.rows.resize((self.m + max(self.block, self.m // 8), self.width),
                             refcheck=False)
        a, b, c = self.cuts
        row = self.rows[self.m]
        row[0], row[1:a], row[a:b], row[b:c], row[c:c + 3] = t, x, z, y, (feas, rx, rz)
        if energy is not None:
            row[c + 3] = energy
        self.m += 1

    def finish(self) -> np.ndarray:
        self.rows.resize((self.m, self.width), refcheck=False)
        self.rows.flags.writeable = False
        return self.rows

    def trajectory(self, method: str, step: float, horizon: float) -> Trajectory:
        return Trajectory(self.finish(), method, step, horizon, self.dims)


def _sample(p: TwoBlockProblem, x: np.ndarray, z: np.ndarray, y: np.ndarray,
            bz=None, r=None) -> tuple:
    """``(feas, rx, rz, A* y, B z)``: the three residuals of the state (x, z, y)
    and the products the caller hands to the next update.

    ``bz = B z`` and the constraint residual ``r = A x + B z - b`` are used
    when the caller has them (``r`` only with ``bz``). B* y is formed before
    A* y.
    """
    bty = p.mat_Bt.dot(y)
    aty = p.mat_At.dot(y)
    if r is None:
        ax = p.mat_A.dot(x)
        bz = p.mat_B.dot(z) if bz is None else bz
        r = ax + bz - p.b
    return math.sqrt(r.dot(r)), p._x_residual(x, aty), p._z_residual(z, bty), aty, bz


def _stop(feas: float, rx: float, rz: float, tol: Optional[tuple]) -> Optional[str]:
    """``converged`` when ``tol = (tol_kkt, tol_feas)`` is given and the
    residuals pass it, ``diverged`` when one is not finite, else None."""
    if tol is not None and rx <= tol[0] and rz <= tol[0] and feas <= tol[1]:
        return "converged"
    if not (math.isfinite(rx) and math.isfinite(rz) and math.isfinite(feas)):
        return "diverged"
    return None


@np.errstate(over="ignore")
def _run(p: TwoBlockProblem, s0: PrimalDualState, step, h: float, steps: int,
         every: int, tol: Optional[tuple] = None, energy=None) -> tuple:
    """The one loop of the solvers and the integrators: at most ``steps``
    steps of size ``h`` from ``s0``, whose dimensions it checks, recording
    the state at t = 0, every ``every``-th one and the last.

    ``step(t, x, z, y, aty, bz, coupling)`` advances the state at time t,
    given its ``A* y``, its ``B z`` when known (else None) and the last
    step's coupling. It returns an :class:`~amaflow.dynamics.Update` with the
    new x and z, the step w of y, and the new ``bz`` and ``r = A x + B z - b``
    when it knows them (the unit step does; else None).
    ``energy(t, x, z, y)``, when given, fills the table's energy column.

    A recorded state with a residual that is not finite stops the run as
    ``diverged``; given ``tol = (tol_kkt, tol_feas)``, one whose residuals
    all pass stops it as ``converged``. A step whose subproblem fails stops
    it as ``error``, with a row for the state it started from. Returns
    ``(status, k, recorder, exc)``: the run stopped at state k, as
    ``max_iters`` if it took every step; ``exc`` is the subproblem's error.

    A unit step streams the matrices four times, A B B A on the prox-friendly
    branch: the update's A x+, B* and B z+, then A* y+ for the next x-step.
    Given ``tol``, an unrecorded state also gets its x-residual and, from r,
    its feasibility residual; its z-residual (one more B* y+ and a prox of g)
    only where those two pass or are not both finite, as elsewhere the state
    can neither converge nor be found diverged. So a non-finite value that
    shows first in rz alone, on an unrecorded state, stops the run once it
    reaches rx or the feasibility residual (through the next z-step,
    typically one state later) or at the next recorded state. A squared
    residual past the float range is an infinite residual, without numpy's
    overflow warning.
    """
    s = p.state(s0.x, s0.z, s0.y)
    x, z, y = s.x, s.z, s.y
    At, Bt = p.mat_At, p.mat_Bt
    rec = _Recorder((p.dim_x, p.dim_z, p.dim_y), energy is not None)

    def add(t, x, z, y, feas, rx, rz):
        rec.add(t, x, z, y, feas, rx, rz, None if energy is None else energy(t, x, z, y))

    feas, rx, rz, aty, bz = _sample(p, x, z, y)
    add(0.0, x, z, y, feas, rx, rz)
    status = _stop(feas, rx, rz, tol)
    if status is not None:
        return status, 0, rec, None
    tol_kkt, tol_feas = tol or (None, None)
    coupling = None
    for k in range(steps):
        try:
            up = step(k * h, x, z, y, aty, bz, coupling)
        except (ConvergenceError, ConditionError, CapabilityError) as exc:
            if k % every:
                add(k * h, x, z, y, *_sample(p, x, z, y)[:3])
            return "error", k, rec, exc
        x, z, y, bz, coupling = up.x, up.z, y + up.w, up.bz, up.coupling
        if (k + 1) % every and k + 1 < steps:
            aty = At.dot(y)
            if tol is None:
                continue
            rx = p._x_residual(x, aty)
            feas = math.sqrt(up.r.dot(up.r))
            if ((rx > tol_kkt or feas > tol_feas)
                    and math.isfinite(rx) and math.isfinite(feas)):
                continue
            rz = p._z_residual(z, Bt.dot(y))
            status = _stop(feas, rx, rz, tol)
            if status is None:
                continue
        else:
            feas, rx, rz, aty, bz = _sample(p, x, z, y, bz, up.r)
            status = _stop(feas, rx, rz, tol)
        add((k + 1) * h, x, z, y, feas, rx, rz)
        if status is not None:
            return status, k + 1, rec, None
    return "max_iters", steps, rec, None
