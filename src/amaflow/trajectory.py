"""A run's recorded iterates as one float64 table, a row per iterate, with the
columns of the CLI's CSV: t, x, z, y, the feasibility, x- and z-residuals and,
when the run had a reference saddle, the energy."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .problem import KKTResidual, PrimalDualState

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
