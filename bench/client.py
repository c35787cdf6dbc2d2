"""In-process client: set-up probes for every workload, rounds of dense-prox.

Usage:
  python bench/client.py setup WORKLOAD WORKDIR
  python bench/client.py round WORKDIR RESULTS [--trace SPANFILE]

``setup`` is one fresh interpreter that imports ``amaflow.cli`` and builds or
parses every problem the workload uses, then exits; its lifetime is the
workload's set-up time. ``round`` runs one round of dense-prox through the
public API: for each seeded problem a build, a tolerance-stopped
``prox_ama_run`` (three times), a fixed-count ``prox_ama_run``, the same count as
unit-step Euler ``integrate(h=1)`` and a ``validate_corollary`` (three times);
then the near-degenerate build. The results of the last of each are saved. A dense calibration (calib.dense) runs before the
first operation and after each one. It saves the iterates to RESULTS (.npz)
and prints one JSON line with the time and outcome of each operation and
every calibration time.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

import calib
import inputs

FIXED_COUNT = 200
RECORD_EVERY = 10
TOL = 1e-8
VALIDATE_GRID = 11  # t = 0, 1, ..., 10
# Calls per problem and round. The short tolerance and validation calls run
# more than once, so that their medians rest on more samples.
REPEATS = {"tol": 3, "fixed": 1, "euler": 1, "validate": 3}


def build_problem(af, data):
    n = data["A"].shape[0]
    return af.TwoBlockProblem(
        f=af.QuadraticDistance(data["d"], 1.0), h1=af.ZeroFunction(n),
        g=af.L1Norm(n, inputs.DENSE_PROX_L1), h2=af.ZeroFunction(n),
        A=af.DenseMap(data["A"]), B=af.DenseMap(data["B"]), b=data["b"])


def prox_schedule(af, p):
    c = af.ConstantSchedule(inputs.DENSE_PROX_C)
    tau = af.CoupledReciprocal(inputs.DENSE_PROX_TAU_C, c)
    return af.ParameterSchedule(c=c, M1=af.ZeroMetric(p.dim_x),
                                M2=af.ProxFriendlyMetric(tau, c, p.B)), c, tau


def setup(workload: str, workdir: str) -> None:
    import numpy as np

    import amaflow.cli  # noqa: F401  (the import a CLI user pays)
    import amaflow as af

    if workload == "example-cli":
        af.example_problem()
        for name in ("example.json", "example-general.json"):
            af.load_problem_file(os.path.join(workdir, name))
    elif workload == "dense-prox":
        for i in range(inputs.DENSE_PROX_COUNT):
            with np.load(os.path.join(workdir, f"prox-{i}.npz")) as data:
                build_problem(af, dict(data))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def _states(traj, np):
    return np.stack([np.concatenate([s.state.x, s.state.z, s.state.y])
                     for s in traj.samples])


def run_round(workdir: str, results: str, spanfile: str | None) -> None:
    import numpy as np

    import amaflow as af

    tracer = None
    if spanfile:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    ops = []
    saved = {}
    operands = calib.dense_operands()
    cal = []

    def calibrate():
        t0 = time.perf_counter()
        calib.dense(operands)
        cal.append(time.perf_counter() - t0)

    def op(key, fn, expect_failure=False):
        t0 = time.perf_counter()
        try:
            out = fn()
            ok = True
        except Exception:  # every failure is counted, none stops the round
            out = None
            ok = False
            if not expect_failure:
                traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        calibrate()
        ops.append({"key": key, "s": seconds, "ok": ok})
        return out

    calibrate()
    for i in range(inputs.DENSE_PROX_COUNT):
        with np.load(os.path.join(workdir, f"prox-{i}.npz")) as npz:
            data = dict(npz)
        p = op(f"build-{i}", lambda: build_problem(af, data))
        if p is None:
            for kind, count in REPEATS.items():
                ops += [{"key": f"{kind}-{i}", "s": 0.0, "ok": False}] * count
            continue
        sched, c, tau = prox_schedule(af, p)
        s0 = p.state(data["x0"], data["z0"], data["y0"])
        tol_cfg = af.SolveConfig(max_iters=20000, tol_kkt=TOL, tol_feas=TOL,
                                 record_every=20000)
        for _ in range(REPEATS["tol"]):
            res = op(f"tol-{i}", lambda: af.prox_ama_run(p, sched, s0, tol_cfg))
        if res is not None:
            saved[f"tol{i}"] = np.concatenate([res.final.x, res.final.z, res.final.y])
            saved[f"tol{i}_iters"] = np.array(res.iterations_used)
            saved[f"tol{i}_converged"] = np.array(res.status == "converged")
        # Tolerances no iterate reaches, so the run makes exactly FIXED_COUNT updates.
        fixed_cfg = af.SolveConfig(max_iters=FIXED_COUNT, tol_kkt=1e-300, tol_feas=1e-300,
                                   record_every=RECORD_EVERY)
        res = op(f"fixed-{i}", lambda: af.prox_ama_run(p, sched, s0, fixed_cfg))
        if res is not None:
            saved[f"fixed{i}"] = _states(res.iterates, np)
            saved[f"fixed{i}_iters"] = np.array(res.iterations_used)
        traj = op(f"euler-{i}", lambda: af.integrate(p, sched, s0, method="euler", h=1.0,
                                                 T=float(FIXED_COUNT),
                                                 record_every=RECORD_EVERY))
        if traj is not None:
            saved[f"euler{i}"] = _states(traj, np)
            saved[f"euler{i}_t"] = traj.times()
        grid = np.arange(float(VALIDATE_GRID))
        for _ in range(REPEATS["validate"]):
            rep = op(f"validate-{i}", lambda: af.validate_corollary(p, c, tau, 0.005, grid))
        if rep is not None:
            saved[f"validate{i}_beta"] = np.array(rep.beta)
            saved[f"validate{i}_passed"] = np.array(rep.passed)

    with np.load(os.path.join(workdir, "degenerate.npz")) as npz:
        data = dict(npz)
    op("degenerate-build", lambda: build_problem(af, data), expect_failure=True)

    np.savez(results, **saved)
    if tracer is not None:
        tracer.dump(spanfile, {})
    print(json.dumps({"ops": ops, "fixed_count": FIXED_COUNT, "calibration": cal}))


def main(argv) -> None:
    if len(argv) == 3 and argv[0] == "setup":
        setup(argv[1], argv[2])
    elif len(argv) in (3, 5) and argv[0] == "round":
        spanfile = argv[4] if len(argv) == 5 and argv[3] == "--trace" else None
        if len(argv) == 5 and spanfile is None:
            raise SystemExit(__doc__)
        run_round(argv[1], argv[2], spanfile)
    else:
        raise SystemExit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
