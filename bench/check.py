"""Correctness checks for one benchmark run, made apart from amaflow.

Usage: python bench/check.py WORKLOAD WORKDIR ROUNDDIR...

Every check compares the program's outputs with a computation made here in
plain numpy, or with a property the method must have; none compares with a
stored copy of earlier output. The first round is checked in full and every
later round (traced ones included) must reproduce it byte for byte. Prints
one JSON line: {"failures": [...], "notes": {...}}.

Independent saddle point: with A invertible, x = A^-1 (b - B z), so the
problem reduces to the l1-regularized least squares
    min_z  (w/2) |C z - e|^2 + lam |z|_1,   C = A^-1 B,  e = A^-1 b - d,
solved here by FISTA with adaptive restart; then x* = A^-1 (b - B z*) and
y* = A^-T w (x* - d) from stationarity in x.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

import client
import inputs
import workloads

EXAMPLE_SADDLE_TOL_XZ = 1e-4
EXAMPLE_SADDLE_TOL_Y = 1e-3
EXAMPLE_OBJECTIVE_TOL = 1e-3
ENERGY_SLACK = 1e-6  # per step, times (1 + E), as the package's monotone check
NORM_RTOL = 1e-9
BETA_RTOL = 1e-9
PROX_STATE_TOL = 1e-5  # solver tolerance 1e-8 on the KKT residuals


def soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def saddle(A, B, b, d, w, lam):
    """Independent (x*, z*, y*) for f = (w/2)|x - d|^2, g = lam |z|_1."""
    C = np.linalg.solve(A, B)
    e = np.linalg.solve(A, b) - d
    step = 1.0 / (w * np.linalg.norm(C, 2) ** 2)
    z = np.zeros(B.shape[1])
    v, t = z.copy(), 1.0
    for _ in range(200000):
        z_new = soft(v - step * w * (C.T @ (C @ v - e)), step * lam)
        if float((z_new - z) @ (v - z_new)) > 0.0:  # restart the momentum
            v, t = z_new, 1.0
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            v = z_new + ((t - 1.0) / t_new) * (z_new - z)
            t = t_new
        delta = float(np.max(np.abs(z_new - z)))
        z = z_new
        if delta <= 1e-15 * (1.0 + float(np.max(np.abs(z)))):
            break
    x = np.linalg.solve(A, b - B @ z)
    y = np.linalg.solve(A.T, w * (x - d))
    # Optimality in z, checked directly: z = prox_{lam|.|_1}(z + B^T y).
    resid = float(np.max(np.abs(z - soft(z + B.T @ y, lam))))
    if resid > 1e-10:
        raise RuntimeError(f"reference saddle not reached: z residual {resid:.3e}")
    return x, z, y


class Checker:
    def __init__(self):
        self.failures = []
        self.notes = {}

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
        return ok

    def worst(self, key, value):
        self.notes[key] = max(self.notes.get(key, 0.0), float(value))


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


def columns(header, rows, prefix):
    idx = [i for i, h in enumerate(header) if h[0] == prefix and h[1:].isdigit()]
    return rows[:, idx]


def read_report(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.rstrip("\n").partition(": ")
            out[key] = value
    return out


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def output_files(op):
    if op.writes:
        return [f"{op.id}.csv", f"{op.id}.report.txt"]
    return [f"{op.id}.out"]


def same_across_rounds(chk, ops, rounds):
    for op in ops:
        for name in output_files(op):
            with open(os.path.join(rounds[0], name), "rb") as fh:
                first = fh.read()
            for other in rounds[1:]:
                with open(os.path.join(other, name), "rb") as fh:
                    chk.expect(fh.read() == first,
                               f"{name}: {other} differs from {rounds[0]}")


def energy_monotone(chk, name, energies):
    steps = np.diff(energies) - ENERGY_SLACK * (1.0 + energies[:-1])
    worst = float(np.max(steps)) if steps.size else 0.0
    chk.worst("energy_worst_excess", worst)
    chk.expect(worst <= 0.0, f"{name}: energy increases by {worst:.3e} beyond slack")


def printed_value(text, key):
    for line in text.splitlines():
        if line.startswith(key):
            return line[len(key):].strip()
    return None


def check_validate_output(chk, name, text, c, BtB, M2):
    """Validator passes, and beta equals one eigvalsh of c B^T B + M2."""
    chk.expect(printed_value(text, "passed:") == "true", f"{name}: validation not passed")
    beta = float(printed_value(text, "beta:"))
    expect = float(np.linalg.eigvalsh(c * BtB + M2)[0])
    err = abs(beta - expect) / max(1.0, abs(expect))
    chk.worst("beta_rel_err", err)
    chk.expect(err <= BETA_RTOL, f"{name}: beta {beta!r} vs eigvalsh {expect!r}")


def check_example(chk, workdir, rounds):
    ops = workloads.example_ops()
    with open(os.path.join(workdir, "example.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    A = np.array(doc["operators"]["A"])
    B = np.array(doc["operators"]["B"])
    d = np.array(doc["functions"]["f"]["d"])
    c = doc["schedules"]["c"]["value"]
    tau = doc["schedules"]["tau"]["numerator"] / c
    BtB = B.T @ B
    M2 = np.eye(2) / tau - c * BtB  # the prox-friendly metric
    first = rounds[0]
    for op in ops:
        if op.writes:
            header, rows = read_csv(os.path.join(first, f"{op.id}.csv"))
            if "energy" in header:
                energy_monotone(chk, op.id, rows[:, header.index("energy")])
            if op.tol:
                rep = read_report(os.path.join(first, f"{op.id}.report.txt"))
                chk.expect(rep.get("status") == "converged", f"{op.id}: not converged")
                x, z, y = (columns(header, rows, k)[-1] for k in "xzy")
                dxz = max(float(np.max(np.abs(x))), float(np.max(np.abs(z))))
                dy = float(np.max(np.abs(np.abs(y) - 1.0 / math.sqrt(2.0))))
                obj = 0.5 * float((x - d) @ (x - d)) + float(np.sum(np.abs(z)))
                chk.worst("example_xz_err", dxz)
                chk.worst("example_y_err", dy)
                chk.worst("example_objective_err", abs(obj - 0.5))
                chk.expect(dxz <= EXAMPLE_SADDLE_TOL_XZ, f"{op.id}: x, z {dxz:.3e} from 0")
                chk.expect(dy <= EXAMPLE_SADDLE_TOL_Y, f"{op.id}: |y| {dy:.3e} from 1/sqrt2")
                chk.expect(abs(obj - 0.5) <= EXAMPLE_OBJECTIVE_TOL,
                           f"{op.id}: objective {obj!r} is not 0.5")
        elif op.category == "validate":
            check_validate_output(chk, op.id, read_text(os.path.join(first, f"{op.id}.out")),
                                  c, BtB, M2)
        elif op.category == "norm":
            text = read_text(os.path.join(first, f"{op.id}.out"))
            for key, mat in (("A ", A), ("B ", B)):
                got = float(printed_value(text, key))
                expect = float(np.linalg.svd(mat, compute_uv=False)[0])
                err = abs(got - expect) / expect
                chk.worst("norm_rel_err", err)
                chk.expect(err <= NORM_RTOL, f"{op.id}: norm {key}{got!r} vs SVD {expect!r}")
    same_across_rounds(chk, ops, rounds)


def prox_energy(states, ref, n, c, tau_c):
    """E = (2 sigma c - c^2 |A|^2)|dx|^2 + (c/tau)|dz|^2 + |dy|^2, sigma = |A| = 1.

    With M1 = 0 and the prox-friendly M2 = I/tau - c B^T B, the z-metric
    c M2 + c^2 B^T B of the energy is (c/tau) I = (c^2/tau_c) I.
    """
    dx = states[:, :n] - ref[0]
    dz = states[:, n:2 * n] - ref[1]
    dy = states[:, 2 * n:] - ref[2]
    sq = lambda v: np.sum(v * v, axis=1)  # noqa: E731
    return (2.0 * c - c * c) * sq(dx) + (c * c / tau_c) * sq(dz) + sq(dy)


def check_dense_prox(chk, workdir, rounds):
    results = [dict(np.load(os.path.join(r, "results.npz"))) for r in rounds]
    first = results[0]
    n, c, tau_c = inputs.DENSE_PROX_N, inputs.DENSE_PROX_C, inputs.DENSE_PROX_TAU_C
    for i in range(inputs.DENSE_PROX_COUNT):
        with np.load(os.path.join(workdir, f"prox-{i}.npz")) as data:
            ref = saddle(data["A"], data["B"], data["b"], data["d"], 1.0,
                         inputs.DENSE_PROX_L1)
        name = f"problem {i}"
        if not chk.expect(f"tol{i}" in first and f"fixed{i}" in first
                          and f"euler{i}" in first and f"validate{i}_beta" in first,
                          f"{name}: results missing"):
            continue
        chk.expect(bool(first[f"tol{i}_converged"]), f"{name}: tolerance run not converged")
        tol_state = first[f"tol{i}"]
        err = max(float(np.max(np.abs(tol_state[k * n:(k + 1) * n] - ref[k])))
                  for k in range(3))
        chk.worst("state_err", err)
        chk.expect(err <= PROX_STATE_TOL, f"{name}: final iterate {err:.3e} from the saddle")
        chk.expect(int(first[f"fixed{i}_iters"]) == client.FIXED_COUNT,
                   f"{name}: fixed-count run made {int(first[f'fixed{i}_iters'])} updates")
        fixed, euler = first[f"fixed{i}"], first[f"euler{i}"]
        chk.expect(fixed.shape == euler.shape and np.array_equal(fixed, euler),
                   f"{name}: unit-step Euler differs from prox_ama_run")
        energies = prox_energy(euler, ref, n, c, tau_c)
        energy_monotone(chk, name, energies)
        chk.expect(bool(first[f"validate{i}_passed"]), f"{name}: validation not passed")
        beta = float(first[f"validate{i}_beta"])
        berr = abs(beta - c / tau_c) / (c / tau_c)
        chk.worst("beta_rel_err", berr)
        chk.expect(berr <= BETA_RTOL, f"{name}: beta {beta!r} is not c/tau_c")
    for k, other in enumerate(results[1:], start=1):
        same = other.keys() == first.keys() and all(
            np.array_equal(other[key], first[key]) for key in first)
        chk.expect(same, f"round {k} results differ from round 0")


def main(argv):
    if len(argv) < 3:
        raise SystemExit(__doc__)
    workload, workdir, rounds = argv[0], argv[1], argv[2:]
    chk = Checker()
    try:
        {"example-cli": check_example,
         "dense-prox": check_dense_prox}[workload](chk, workdir, rounds)
    except (OSError, ValueError, TypeError, KeyError, IndexError, RuntimeError) as exc:
        chk.failures.append(f"check aborted: {type(exc).__name__}: {exc}")
    print(json.dumps({"failures": chk.failures, "notes": chk.notes}))


if __name__ == "__main__":
    main(sys.argv[1:])
