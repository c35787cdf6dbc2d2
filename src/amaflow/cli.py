"""Command-line front end.

Subcommands: ``validate`` (schedule hypothesis checks on a problem file),
``solve`` (run one of the four solver modes on a problem file),
``paper-example`` (the bundled worked example with its named parameter
variants), and ``norm`` (operator norms of A and B). Exit codes: 0 ok,
1 validation or capability failure, 2 parse error, 3 solver error or
divergence.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .diagnostics import SummaryReport, report, trajectory_energies
from .discrete import SolveConfig, ama_run, prox_ama_run
from .dynamics import Trajectory, integrate
from .errors import (
    CapabilityError,
    ConditionError,
    ConvergenceError,
    ParseError,
    TrajectoryError,
)
from .example import (
    C_VARIANTS,
    TAU_C_VARIANTS,
    example_problem,
    example_reference,
    example_schedule,
    example_start,
)
from .probfile import ProblemFileData, load_problem_file
from .schedules import default_grid, validate, validate_corollary

MODES = ("continuous-euler", "continuous-rk4", "prox-ama", "ama")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _parse_grid(text: str | None):
    if text is None:
        return default_grid()
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"bad grid argument {text!r}; expected comma-separated numbers")
    if not values:
        raise ValueError("grid argument is empty")
    return np.array(values)


def _print_validation(rep) -> None:
    print(f"mode: {rep.mode}")
    print(f"passed: {_fmt(rep.passed)}")
    print(f"grid-points: {len(rep.grid)}")
    print(f"grid-min: {_fmt(float(rep.grid[0]))}")
    print(f"grid-max: {_fmt(float(rep.grid[-1]))}")
    print(f"beta: {_fmt(rep.beta)}")
    print(f"cweak: {_fmt(rep.cweak)}")
    print(f"cstrong: {_fmt(rep.cstrong)}")
    for ch in rep.checks:
        print(f"check: rule={ch.rule} passed={_fmt(ch.passed)} "
              f"witness={_fmt(ch.witness)} threshold={_fmt(ch.threshold)}")


def cmd_validate(args) -> int:
    data = load_problem_file(args.file)
    grid = _parse_grid(args.grid)
    if args.corollary:
        if data.tau is None:
            print("error: the file has no tau schedule; corollary checks need one",
                  file=sys.stderr)
            return 1
        rep = validate_corollary(data.problem, data.sched.c, data.tau, args.eps, grid)
    else:
        rep = validate(data.problem, data.sched.c, data.sched.M1, data.sched.M2,
                       args.eps, grid)
    _print_validation(rep)
    return 0 if rep.passed else 1


def _row_format(ncols: int) -> str:
    """A CSV row of ``ncols`` floats for one ``%`` operation.

    ``"%.17g" % v`` writes the same bytes as ``f"{v:.17g}"`` for every float,
    numpy's float64 included.
    """
    return ",".join(["%.17g"] * ncols) + "\n"


def _write_csv(path: str, traj: Trajectory, time_label: str, dims,
               energies=None) -> None:
    nx, nz, ny = dims
    cols = [time_label]
    cols += [f"x{i}" for i in range(nx)]
    cols += [f"z{i}" for i in range(nz)]
    cols += [f"y{i}" for i in range(ny)]
    cols += ["feas_residual", "kkt_rx", "kkt_rz"]
    if energies is None:
        energies = traj.energies()
    with_energy = all(e is not None for e in energies) and len(energies) > 0
    if with_energy:
        cols.append("energy")
    row = _row_format(len(cols))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for smp, e in zip(traj.samples, energies):
            st, kkt = smp.state, smp.kkt
            values = (smp.t, *st.x.tolist(), *st.z.tolist(), *st.y.tolist(),
                      smp.feas, kkt.rx, kkt.rz)
            fh.write(row % (values + (e,) if with_energy else values))


def _write_report(path: str, rep: SummaryReport, forced: bool = False) -> None:
    lines = [f"{key}: {_fmt(val)}" for key, val in rep.as_dict().items() if val is not None]
    if forced:
        lines.append("warning: schedule validation failed; run was forced")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _run_mode(data: ProblemFileData, mode: str, args, reference=None):
    """Dispatch one solve; returns (trajectory, summary-source, exit_code)."""
    p, sched, s0 = data.problem, data.sched, data.initial
    cfg = data.config
    overrides = {}
    if args.max_iters is not None:
        overrides["max_iters"] = args.max_iters
    if args.tol is not None:
        overrides["tol_kkt"] = args.tol
        overrides["tol_feas"] = args.tol
    if args.record_every is not None:
        overrides["record_every"] = args.record_every
    if overrides:
        cfg = SolveConfig(
            max_iters=overrides.get("max_iters", cfg.max_iters),
            tol_kkt=overrides.get("tol_kkt", cfg.tol_kkt),
            tol_feas=overrides.get("tol_feas", cfg.tol_feas),
            record_every=overrides.get("record_every", cfg.record_every),
        )

    if mode in ("prox-ama", "ama"):
        if mode == "prox-ama":
            result = prox_ama_run(p, sched, s0, cfg)
        else:
            result = ama_run(p, sched.c, s0, cfg)
        code = 3 if result.status in ("error", "diverged") else 0
        return result.iterates, result, code

    h = args.step if args.step is not None else 0.01
    T = args.horizon if args.horizon is not None else 10.0
    rec = args.record_every if args.record_every is not None else 1
    method = "euler" if mode == "continuous-euler" else "rk4"
    try:
        traj = integrate(p, sched, s0, method=method, h=h, T=T,
                         record_every=rec, reference=reference)
    except TrajectoryError as exc:
        return exc.trajectory, exc, 3
    return traj, traj, 0


def _emit(data: ProblemFileData, traj, summary_source, prefix: str, mode: str,
          validation=None, forced=False, reference=None, exit_code=0) -> int:
    p = data.problem
    time_label = "k" if mode in ("prox-ama", "ama") else "t"
    energies = None
    if reference is not None and traj is not None and traj.samples:
        energies = traj.energies()
        if any(e is None for e in energies):
            energies = trajectory_energies(traj, p, data.sched, reference)
    if traj is not None:
        _write_csv(f"{prefix}.csv", traj, time_label, (p.dim_x, p.dim_z, p.dim_y),
                   energies)
    if isinstance(summary_source, TrajectoryError):
        rep = report(traj, p, validation=validation, energies=energies)
        rep.status = "error"
        rep.message = str(summary_source)
    else:
        rep = report(summary_source, p, validation=validation, energies=energies)
    _write_report(f"{prefix}.report.txt", rep, forced)
    print(f"status: {rep.status}")
    print(f"wrote: {prefix}.csv")
    print(f"wrote: {prefix}.report.txt")
    return exit_code


def cmd_solve(args) -> int:
    data = load_problem_file(args.file)
    vr = validate(data.problem, data.sched.c, data.sched.M1, data.sched.M2,
                  args.eps, default_grid())
    forced = False
    if not vr.passed:
        if not args.force:
            print("schedule validation failed; failed rules: "
                  + ", ".join(vr.failed_rules()), file=sys.stderr)
            print("rerun with --force to solve anyway", file=sys.stderr)
            return 1
        forced = True
    prefix = args.out_prefix or f"{_stem(args.file)}-{args.mode}"
    traj, source, code = _run_mode(data, args.mode, args)
    return _emit(data, traj, source, prefix, args.mode, validation=vr,
                 forced=forced, exit_code=code)


def cmd_paper_example(args) -> int:
    p = example_problem()
    sched = example_schedule(args.c_schedule, TAU_C_VARIANTS[args.tau_c], p)
    cfg = SolveConfig()
    data = ProblemFileData(p, sched, example_start(), cfg, sched.tau)
    ref = example_reference()
    prefix = args.out_prefix or f"example-{args.c_schedule}-{args.tau_c}-{args.mode}"
    traj, source, code = _run_mode(data, args.mode, args, reference=ref)
    return _emit(data, traj, source, prefix, args.mode, reference=ref,
                 exit_code=code)


def cmd_norm(args) -> int:
    data = load_problem_file(args.file)
    print(f"A {data.problem.norm_A:.12g}")
    print(f"B {data.problem.norm_B:.12g}")
    return 0


def _stem(path: str) -> str:
    import os

    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] if "." in base else base


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="amaflow",
                                 description="Two-block separable solver toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check schedule hypotheses for a problem file")
    v.add_argument("file")
    v.add_argument("--eps", type=float, default=0.005)
    v.add_argument("--grid", default=None,
                   help="comma-separated time grid (default: dense 0..100 plus log tail)")
    v.add_argument("--corollary", action="store_true",
                   help="check the prox-friendly (c, tau) conditions instead")
    v.set_defaults(func=cmd_validate)

    s = sub.add_parser("solve", help="solve a problem file")
    s.add_argument("file")
    s.add_argument("--mode", choices=MODES, default="prox-ama")
    s.add_argument("--step", type=float, default=None, help="integrator step size")
    s.add_argument("--horizon", type=float, default=None, help="integration horizon T")
    s.add_argument("--max-iters", type=int, default=None)
    s.add_argument("--tol", type=float, default=None,
                   help="sets both the KKT and feasibility tolerances")
    s.add_argument("--record-every", type=int, default=None)
    s.add_argument("--eps", type=float, default=0.005)
    s.add_argument("--out-prefix", default=None)
    s.add_argument("--force", action="store_true",
                   help="run even if schedule validation fails")
    s.set_defaults(func=cmd_solve)

    e = sub.add_parser("paper-example", help="run the bundled worked example")
    e.add_argument("--c-schedule", choices=C_VARIANTS, default="c025")
    e.add_argument("--tau-c", choices=sorted(TAU_C_VARIANTS), default="tc099")
    e.add_argument("--mode", choices=MODES, default="prox-ama")
    e.add_argument("--step", type=float, default=None)
    e.add_argument("--horizon", type=float, default=None)
    e.add_argument("--max-iters", type=int, default=None)
    e.add_argument("--tol", type=float, default=None)
    e.add_argument("--record-every", type=int, default=None)
    e.add_argument("--out-prefix", default=None)
    e.set_defaults(func=cmd_paper_example)

    n = sub.add_parser("norm", help="print the operator norms of A and B")
    n.add_argument("file")
    n.set_defaults(func=cmd_norm)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (CapabilityError, ConditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
