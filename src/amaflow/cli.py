"""Command-line front end.

Subcommands: ``validate`` (schedule hypothesis checks on a problem file),
``solve`` (run one of the four solver modes on a problem file),
``paper-example`` (the bundled worked example with its named parameter
variants), and ``norm`` (operator norms of A and B). Exit codes: 0 ok,
1 validation or capability failure, 2 parse error, 3 solver error or
divergence.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # Run as ``python -m amaflow.cli``: the imports below build the heap that
    # entry() freezes, so the collector stays off until then.
    gc.disable()

import argparse
import atexit
import os
import sys
from typing import NoReturn

import numpy as np

from .errors import (
    CapabilityError,
    ConditionError,
    ConvergenceError,
    ParseError,
    TrajectoryError,
)
from .problem import SolveConfig
from .schedules import C_VARIANTS, TAU_C_VARIANTS, default_grid, validate, validate_corollary

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


def _load(path: str):
    """The problem file at ``path``, as :class:`~amaflow.probfile.ProblemFileData`."""
    from .probfile import load_problem_file

    return load_problem_file(path)


def cmd_validate(args) -> int:
    data = _load(args.file)
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


def _csv_chunks(traj, time_label: str, energies=None):
    """The CSV of the trajectory's table, a block of rows per chunk, with
    ``energies`` as one more column when given."""
    cols = [time_label, *(f"{v}{i}" for v, n in zip("xzy", traj.dims) for i in range(n)),
            "feas_residual", "kkt_rx", "kkt_rz"]
    table = traj.table
    if energies is not None:
        cols.append("energy")
    row = _row_format(len(cols))
    yield ",".join(cols) + "\n"
    for i in range(0, len(table), 64):
        block = table[i:i + 64]
        if energies is not None:
            block = np.column_stack((block, energies[i:i + 64]))
        yield row * len(block) % tuple(block.ravel().tolist())


def _report_text(rep, forced: bool = False) -> str:
    lines = [f"{key}: {_fmt(val)}" for key, val in rep.as_dict().items() if val is not None]
    if forced:
        lines.append("warning: schedule validation failed; run was forced")
    return "\n".join(lines) + "\n"


def _write_all(outputs) -> None:
    """Write each ``(path, chunks)`` in turn. A write that fails removes the
    files this call opened before it raises, so no output is left half made."""
    opened = []
    try:
        for path, chunks in outputs:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                opened.append(path)
                fh.writelines(chunks)
    except OSError:
        for path in opened:
            os.remove(path)
        raise


def _check_run_options(args) -> None:
    """Refuse ``--step`` and ``--horizon`` in a discrete mode, ``--max-iters``
    and ``--tol`` in a continuous one: the options the mode does not read;
    and an empty ``--out-prefix``."""
    if args.out_prefix == "":
        raise ValueError("--out-prefix must not be empty")
    discrete = args.mode in ("prox-ama", "ama")
    for flag in ("step", "horizon") if discrete else ("max_iters", "tol"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to --mode {args.mode}")


def _run_mode(p, sched, s0, config: SolveConfig, mode: str, args):
    """Dispatch one solve of ``p`` under ``sched`` from ``s0``, with the run
    options of ``args`` over ``config``; returns (trajectory, report-source)."""
    if mode in ("prox-ama", "ama"):
        from .discrete import ama_run, prox_ama_run

        flags = {"max_iters": args.max_iters, "tol_kkt": args.tol, "tol_feas": args.tol,
                 "record_every": args.record_every}
        cfg = SolveConfig(**{key: getattr(config, key) if flag is None else flag
                             for key, flag in flags.items()})
        if mode == "prox-ama":
            result = prox_ama_run(p, sched, s0, cfg)
        else:
            result = ama_run(p, sched.c, s0, cfg)
        return result.iterates, result

    from .dynamics import integrate

    given = {key: val for key, val in (("h", args.step), ("T", args.horizon),
                                       ("record_every", args.record_every))
             if val is not None}
    method = "euler" if mode == "continuous-euler" else "rk4"
    try:
        traj = integrate(p, sched, s0, method=method, **given)
    except TrajectoryError as exc:
        return exc.trajectory, exc
    return traj, traj


def _emit(p, sched, traj, summary_source, prefix: str, mode: str,
          validation=None, forced=False, reference=None) -> int:
    """Write the run's CSV and report, both or neither, and print its status;
    returns the exit code, 3 for a run that ended ``error`` or ``diverged``,
    else 0."""
    from .diagnostics import report, trajectory_energies

    time_label = "k" if mode in ("prox-ama", "ama") else "t"
    energies = None if reference is None else trajectory_energies(traj, p, sched, reference)
    failed = isinstance(summary_source, TrajectoryError)
    rep = report(traj if failed else summary_source, validation, energies)
    if failed:
        rep.status, rep.message = summary_source.status, str(summary_source)
    _write_all(((f"{prefix}.csv", _csv_chunks(traj, time_label, energies)),
                (f"{prefix}.report.txt", [_report_text(rep, forced)])))
    print(f"status: {rep.status}")
    print(f"wrote: {prefix}.csv")
    print(f"wrote: {prefix}.report.txt")
    return 3 if rep.status in ("error", "diverged") else 0


def cmd_solve(args) -> int:
    _check_run_options(args)
    data = _load(args.file)
    p, sched = data.problem, data.sched
    vr = validate(p, sched.c, sched.M1, sched.M2, args.eps, default_grid())
    forced = False
    if not vr.passed:
        if not args.force:
            print("schedule validation failed; failed rules: "
                  + ", ".join(vr.failed_rules()), file=sys.stderr)
            print("rerun with --force to solve anyway", file=sys.stderr)
            return 1
        forced = True
    prefix = args.out_prefix or f"{_stem(args.file)}-{args.mode}"
    traj, source = _run_mode(p, sched, data.initial, data.config, args.mode, args)
    return _emit(p, sched, traj, source, prefix, args.mode, validation=vr, forced=forced)


def cmd_paper_example(args) -> int:
    _check_run_options(args)
    from .example import example_problem, example_reference, example_schedule, example_start

    p = example_problem()
    sched = example_schedule(args.c_schedule, TAU_C_VARIANTS[args.tau_c], p)
    ref = example_reference()
    prefix = args.out_prefix or f"example-{args.c_schedule}-{args.tau_c}-{args.mode}"
    traj, source = _run_mode(p, sched, example_start(), SolveConfig(), args.mode, args)
    return _emit(p, sched, traj, source, prefix, args.mode, reference=ref)


def cmd_norm(args) -> int:
    data = _load(args.file)
    print(f"A {data.problem.norm_A:.12g}")
    print(f"B {data.problem.norm_B:.12g}")
    return 0


def _stem(path: str) -> str:
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
    e = sub.add_parser("paper-example", help="run the bundled worked example")
    e.add_argument("--c-schedule", choices=C_VARIANTS, default="c025")
    e.add_argument("--tau-c", choices=sorted(TAU_C_VARIANTS), default="tc099")
    for run in (s, e):  # the run options both share
        run.add_argument("--mode", choices=MODES, default="prox-ama")
        run.add_argument("--step", type=float, default=None, help="integrator step size")
        run.add_argument("--horizon", type=float, default=None,
                         help="integration horizon T")
        run.add_argument("--max-iters", type=int, default=None)
        run.add_argument("--tol", type=float, default=None,
                         help="sets both the KKT and feasibility tolerances")
        run.add_argument("--record-every", type=int, default=None)
        run.add_argument("--out-prefix", default=None)
    s.add_argument("--eps", type=float, default=0.005)
    s.add_argument("--force", action="store_true",
                   help="run even if schedule validation fails")
    s.set_defaults(func=cmd_solve)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> NoReturn:
    """Process entry of ``python -m amaflow.cli`` and the ``amaflow`` script.

    Moves every object the imports created into the collector's permanent
    generation (``gc.freeze()``), so no later collection walks them again,
    then switches the collector back on (run as ``__main__``, the module
    imported with it off) and calls :func:`main`. :func:`main` never
    freezes: a library call leaves its caller's collector as it found it.

    Once :func:`main` returns, every file it wrote is closed. The entry runs
    the atexit callbacks, flushes stdout and stderr and ends the process with
    ``os._exit`` and :func:`main`'s code, without tearing the modules down.
    A flush that raises leaves through ``sys.exit`` instead, so the
    interpreter reports the lost output, and exits, as it would have; so does
    an exception out of :func:`main`.
    """
    gc.freeze()
    gc.enable()
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
