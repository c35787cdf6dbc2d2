"""Calibration tasks: fixed work that does not touch amaflow.

Usage: python bench/calib.py        (one process calibration, then exit)

The reference machine is a shared VM whose speed drifts by a third or more,
in phases that last from seconds to minutes. Every timed operation of the
benchmark is therefore measured next to a calibration task of the same kind
and reported as

    seconds * REF_S / (calibration time),

that is, in seconds of the reference machine at its usual speed. A change
to amaflow moves the operation and not the calibration, so it shows in
full; a change in the machine's speed moves both, and cancels.

- The process calibration is this file run as a fresh interpreter: start-up,
  ``import numpy`` and a loop of small-array numpy calls, as a CLI call at
  n = 2 spends its time. One runs before every CLI call and set-up probe
  and after the last; the calibration time of a call is the mean of the two
  on either side of it.
- The dense calibration is :func:`dense`, called in the dense-prox client
  process before its first operation and after each one: 400 x 400
  matrix-vector products, a fresh 400 x 400 matrix per step and vector
  arithmetic, as a prox-AMA update at n = 400 spends its time. The
  calibration time of every operation of a round is the median over the
  round.

The reference times are each task's time on the reference machine as it was
measured while the benchmark was built: 0.21-0.24 s and 0.031-0.036 s
in different phases. They set the unit only; a scaled time compares with
other scaled times (see README.md, "Calibration").
"""

from __future__ import annotations

PROCESS_REF_S = 0.24
DENSE_REF_S = 0.036

DENSE_N = 400
DENSE_STEPS = 160
PROCESS_STEPS = 6000


def dense_operands():
    """Fixed operands for :func:`dense`, made once per process, untimed."""
    import numpy as np

    M = np.random.default_rng(0).standard_normal((DENSE_N, DENSE_N))
    M *= DENSE_N ** -0.5
    return M, np.ones(DENSE_N)


def dense(operands) -> float:
    import numpy as np

    M, v = operands
    for _ in range(DENSE_STEPS):
        u = M.T @ (M @ v)
        K = 0.5 * M  # a fresh n x n matrix per step, as ProxFriendlyMetric.at makes
        v = u / np.linalg.norm(u) + 1e-9 * K[0]
    return float(v[0])


def process() -> float:
    import numpy as np

    a = np.array([[1.0, 0.5], [0.2, 1.0]])
    v = np.ones(2)
    s = 0.0
    for _ in range(PROCESS_STEPS):
        v = a @ v
        v = v / np.linalg.norm(v)
        s += float(v[0])
    return s


if __name__ == "__main__":
    process()
