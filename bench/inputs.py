"""Seeded input generator for the two benchmark workloads.

Usage: python bench/inputs.py WORKLOAD SEED OUTDIR

Writes the inputs a workload hands to amaflow into OUTDIR, and nothing else:
the program never sees the generator, only these files. The same seed always
gives byte-identical files.

- example-cli: ``example.json``, the README example problem file with a
  seeded starting point (each entry uniform in [-10, 10]), and
  ``example-general.json``, the same problem and start with the constant
  dense M2 ``EXAMPLE_GENERAL_M2`` in place of the prox-friendly one.
- dense-prox: ``prox-<i>.npz`` for i < DENSE_PROX_COUNT, square A and B of
  size DENSE_PROX_N with singular values evenly spaced from 1 down to
  DENSE_PROX_SMIN, plus ``degenerate.npz``, whose A has top singular values 1
  and 1 - 1e-4. The degenerate input is drawn from a fixed seed, not from
  SEED, so it fails or builds the same way on every run.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

# Shared by the generator, the dense-prox client and the checker.
DENSE_PROX_N = 400
DENSE_PROX_COUNT = 3
DENSE_PROX_SMIN = 0.2
DENSE_PROX_L1 = 0.5
DENSE_PROX_C = 1.0
DENSE_PROX_TAU_C = 0.99
DEGENERATE_SEED = 4
DEGENERATE_GAP = 1e-4

# The README's example problem; only the starting point is drawn from the seed.
EXAMPLE_DOC = {
    "functions": {
        "f": {"kind": "quadratic_distance", "d": [1.0, 0.0], "weight": 1.0},
        "h1": {"kind": "zero", "dim": 2},
        "g": {"kind": "l1", "dim": 2, "weight": 1.0},
        "h2": {"kind": "zero", "dim": 2},
    },
    "operators": {
        "A": [[0.7071067811865475, 0.35355339059327373],
              [-0.7071067811865475, 0.35355339059327373]],
        "B": [[-0.6, 0.0], [0.8, 0.0]],
    },
    "b": [0.0, 0.0],
    "schedules": {
        "c": {"kind": "constant", "value": 0.25},
        "tau": {"kind": "coupled_reciprocal", "numerator": 0.99, "of": "c"},
        "M1": {"kind": "zero"},
        "M2": {"kind": "prox_friendly"},
    },
    "initial": {"x": [-10.0, 10.0], "z": [-10.0, 10.0], "y": [-10.0, 10.0]},
    "solver": {"max_iters": 20000, "tol_kkt": 1e-6, "tol_feas": 1e-6},
}
# Positive definite, so the validator's convergence condition holds although
# B^T B is singular.
EXAMPLE_GENERAL_M2 = [[0.6, 0.1], [0.1, 0.4]]


def orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Haar-distributed orthogonal matrix (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def with_spectrum(rng: np.random.Generator, sv: np.ndarray) -> np.ndarray:
    """U diag(sv) V^T with independent random orthogonal U and V."""
    n = sv.shape[0]
    return (orthogonal(rng, n) * sv) @ orthogonal(rng, n).T


def even_spectrum(n: int, smin: float) -> np.ndarray:
    return np.linspace(1.0, smin, n)


def _dense_prox(seed: int, outdir: str) -> None:
    n = DENSE_PROX_N
    for i in range(DENSE_PROX_COUNT):
        rng = np.random.default_rng([seed, i])
        A = with_spectrum(rng, even_spectrum(n, DENSE_PROX_SMIN))
        B = with_spectrum(rng, even_spectrum(n, DENSE_PROX_SMIN))
        np.savez(os.path.join(outdir, f"prox-{i}.npz"), A=A, B=B,
                 d=rng.standard_normal(n), b=0.5 * rng.standard_normal(n),
                 x0=rng.standard_normal(n), z0=rng.standard_normal(n),
                 y0=rng.standard_normal(n))
    rng = np.random.default_rng(DEGENERATE_SEED)
    sv = even_spectrum(n, DENSE_PROX_SMIN)
    sv[1] = 1.0 - DEGENERATE_GAP
    A = with_spectrum(rng, sv)
    B = with_spectrum(rng, even_spectrum(n, DENSE_PROX_SMIN))
    np.savez(os.path.join(outdir, "degenerate.npz"), A=A, B=B,
             d=rng.standard_normal(n), b=0.5 * rng.standard_normal(n))


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def generate(workload: str, seed: int, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    if workload == "example-cli":
        rng = np.random.default_rng(seed)
        doc = json.loads(json.dumps(EXAMPLE_DOC))
        for key in ("x", "z", "y"):
            doc["initial"][key] = rng.uniform(-10.0, 10.0, 2).tolist()
        _write_json(os.path.join(outdir, "example.json"), doc)
        del doc["schedules"]["tau"]
        doc["schedules"]["M2"] = {"kind": "constant_dense", "matrix": EXAMPLE_GENERAL_M2}
        _write_json(os.path.join(outdir, "example-general.json"), doc)
    elif workload == "dense-prox":
        _dense_prox(seed, outdir)
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit("usage: inputs.py WORKLOAD SEED OUTDIR")
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
