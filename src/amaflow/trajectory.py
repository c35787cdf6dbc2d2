"""A run's recorded iterates as one float64 table, a row per iterate, with the
columns of the CLI's CSV up to its energy: t, x, z, y, the feasibility, x- and
z-residuals; and the one loop that runs the solvers and the integrators and
records them."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import CapabilityError, ConditionError, ConvergenceError
from .problem import KKTResidual, PrimalDualState, TwoBlockProblem

__all__ = ["TrajectorySample", "Trajectory"]


class TrajectorySample:
    """One recorded state with its residuals."""

    __slots__ = ("t", "state", "feas", "kkt")

    def __init__(self, t: float, state: PrimalDualState, feas: float, kkt: KKTResidual):
        self.t, self.state, self.feas, self.kkt = t, state, feas, kkt


class Trajectory:
    """The recorded iterates of one run, the configuration that produced it
    and how it ended.

    ``table`` is the read-only table, ``dims`` the lengths of x, z and y and
    ``cuts`` the first columns of z, y and the residuals. ``horizon`` is an
    integration's T, or the iterations a solver run used. ``status`` and
    ``message`` are the run's: a solver's status, or for an integration
    ``ok``, ``diverged`` or ``error``; ``ok`` and no message unless given.
    ``samples``, built on first use, holds views of the rows;
    ``final``, its last entry, is built alone.
    """

    def __init__(self, table: np.ndarray, method: str, step: float, horizon: float,
                 dims: tuple, status: str = "ok", message: str = ""):
        self.table, self.dims, self.cuts = table, dims, _cuts(dims)
        self.method, self.step, self.horizon = method, step, horizon
        self.status, self.message = status, message
        self._samples = self._final = None

    def _states(self, rows: slice = slice(None)):
        """The states of ``rows``, as views of them, stamped with their times."""
        a, b, c = self.cuts
        tab = self.table[rows]
        return map(PrimalDualState, tab[:, 1:a], tab[:, a:b], tab[:, b:c],
                   map(float, tab[:, 0]))

    def _samples_of(self, rows: slice) -> list:
        residuals = self.table[rows, self.cuts[2]:].tolist()
        return [TrajectorySample(st.t, st, feas, KKTResidual(rx, rz, feas))
                for st, (feas, rx, rz) in zip(self._states(rows), residuals)]

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


def _cuts(dims: tuple) -> tuple:
    """The first columns of z, y and the residuals in a table of ``dims``."""
    return 1 + dims[0], 1 + dims[0] + dims[1], 1 + sum(dims)


class _Recorder:
    """Appends the rows of a run's table but their z-residuals (:meth:`fill_rz`).
    The buffer grows by blocks of at least 64 KiB, or an eighth of its rows,
    and is trimmed once, at the end."""

    def __init__(self, dims: tuple):
        self.dims, self.cuts, self.m = dims, _cuts(dims), 0
        self.width = self.cuts[2] + 3
        self.block = max(1, 8192 // self.width)
        self.rows = np.empty((self.block, self.width))

    def add(self, t, x, z, y, feas, rx) -> None:
        if self.m == len(self.rows):
            # No view of the buffer exists before finish, so it may move.
            self.rows.resize((self.m + max(self.block, self.m // 8), self.width),
                             refcheck=False)
        a, b, c = self.cuts
        row = self.rows[self.m]
        row[0], row[1:a], row[a:b], row[b:c] = t, x, z, y
        row[c], row[c + 1] = feas, rx
        self.m += 1

    def fill_rz(self, p: TwoBlockProblem) -> None:
        """Write the z-residual column, a block of rows at a time."""
        a, b, c = self.cuts
        for i in range(0, self.m, self.block):
            rows = self.rows[i:min(i + self.block, self.m)]
            rows[:, c + 2] = p._z_residuals(rows[:, a:b], rows[:, b:c])

    def finish(self) -> np.ndarray:
        self.rows.resize((self.m, self.width), refcheck=False)
        self.rows.flags.writeable = False
        return self.rows

    def trajectory(self, method: str, step: float, horizon: float, status: str,
                   message: str) -> Trajectory:
        return Trajectory(self.finish(), method, step, horizon, self.dims, status, message)


# A residual past this bound, or NaN, stops a run as diverged: well before a
# squared norm leaves the float range, near 1.3e154.
DIVERGED_ABOVE = 1e150


def _stop(feas: float, rx: float, rz: float, tol: Optional[tuple]) -> Optional[str]:
    """The stop rule of every state a run forms residuals for. ``diverged``
    when ``feas`` or ``rx`` is NaN or past :data:`DIVERGED_ABOVE`; else, only
    where ``tol = (tol_kkt, tol_feas)`` is given and both pass it, ``rz`` is
    read: ``converged`` when it passes too, ``diverged`` when it is NaN or
    past the bound. Else None."""
    if not (feas <= DIVERGED_ABOVE and rx <= DIVERGED_ABOVE):
        return "diverged"
    if tol is None or rx > tol[0] or feas > tol[1]:
        return None
    if rz <= tol[0]:
        return "converged"
    return None if rz <= DIVERGED_ABOVE else "diverged"


@np.errstate(over="ignore", invalid="ignore")
def _run(p: TwoBlockProblem, s0: PrimalDualState, step, h: float, steps: int,
         every: int, tol: Optional[tuple] = None) -> tuple:
    """The one loop of the solvers and the integrators: at most ``steps``
    steps of size ``h`` from ``s0``, whose dimensions it checks, recording
    the state at t = 0, every ``every``-th one and the last.

    ``step(t, x, z, y, aty, bz, s)`` advances the state at time t, given its
    ``A* y``, its ``B z`` when known (else None) and the state stacked as one
    (x, z, y) array when the last step made it (else None). It returns
    ``(x, z, w, bz, r, s)``: the unit step, the update of
    :func:`~amaflow.dynamics._kernel`, gives the new x and z, the step w of
    y, and the new ``bz`` and ``r = A x + B z - b``; a fractional step gives
    the new stacked state ``s``, with x and z as views of it, its last block
    the new y, and no w or products.

    One block forms, records and judges by :func:`_stop` every state, the
    start state first (stopping there, it takes no step): a recorded one,
    and given ``tol = (tol_kkt, tol_feas)`` every one. A step whose
    subproblem fails stops the run as ``error``, with a row for the state it
    started from. Returns ``(status, k, recorder, exc)``: the run stopped at
    state k, as ``max_iters`` if it took every step; ``exc`` is the
    subproblem's error.

    A unit step streams the matrices four times, A B B A on the prox-friendly
    branch: the update's A x+, B* and B z+, then A* y+ for the next x-step.
    A judged state gets its x-residual and its feasibility residual; its
    z-residual (one more B* y and a prox of g) only where the rule reads it,
    where those two pass. Whatever the rule read, every recorded row's
    z-residual is written after the loop by the same formula, a recorder
    block of rows at a time; it is a record only. Past the float range a
    squared residual is an infinite residual: neither overflow nor an
    invalid operation raises numpy's warning in the loop.
    """
    s = p.state(s0.x, s0.z, s0.y)
    x, z, y = s.x, s.z, s.y
    A, B, At = p.A, p.B, p.At
    rec = _Recorder((p.dim_x, p.dim_z, p.dim_y))
    # Without tol no state passes, and no z-residual is read.
    tol_kkt, tol_feas = tol or (-math.inf, -math.inf)
    aty, bz, r = At.dot(y), B.dot(z), None
    status, stop, stacked, exc = "max_iters", steps, None, None
    cut = p.dim_x + p.dim_z  # where y starts in a stacked state
    for k in range(steps + 1):
        recorded = not k % every or k == steps
        if recorded or tol is not None:
            if r is None and bz is None:  # a fractional step's state
                bz = B.dot(z)
            feas = math.sqrt(r.dot(r)) if r is not None else p._feas(A.dot(x), bz)
            rx = p._x_residual(x, aty)
            rz = p._z_residuals(z, y) if rx <= tol_kkt and feas <= tol_feas else math.nan
            verdict = _stop(feas, rx, rz, tol)
            if recorded or verdict is not None:
                rec.add(k * h, x, z, y, feas, rx)
            if verdict is not None:
                status, stop = verdict, k
                break
        if k == steps:
            break
        try:
            x, z, w, bz, r, stacked = step(k * h, x, z, y, aty, bz, stacked)
        except (ConvergenceError, ConditionError, CapabilityError) as err:
            if not recorded:
                rec.add(k * h, x, z, y, p._feas(A.dot(x), B.dot(z)), p._x_residual(x, aty))
            status, stop, exc = "error", k, err
            break
        y = y + w if stacked is None else stacked[cut:]
        aty = At.dot(y)
    rec.fill_rz(p)
    return status, stop, rec, exc
