"""Command-line front end.

Subcommands: ``validate`` (schedule hypothesis checks on a problem file),
``solve`` (run one of the four solver modes on a problem file),
``paper-example`` (the bundled worked example with its named parameter
variants), and ``norm`` (operator norms of A and B). Exit codes: 0 ok,
1 validation or capability failure, 2 parse error or usage error (an unknown
option, or a value of the wrong type or outside the choices), 3 solver error
or divergence. Options take ``--opt value`` or ``--opt=value``, and any
unique prefix of their names; ``-h`` lists a command's options.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # Run as ``python -m amaflow.cli``: the imports below build the heap that
    # entry() freezes, so the collector stays off until then.
    gc.disable()

import atexit
import os
import sys
from types import SimpleNamespace
from typing import NoReturn

import numpy as np

from .errors import ParseError
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
    options of ``args`` over ``config``; returns the run's trajectory, which
    carries how it ended."""
    if mode in ("prox-ama", "ama"):
        from .discrete import ama_run, prox_ama_run

        flags = {"max_iters": args.max_iters, "tol_kkt": args.tol, "tol_feas": args.tol,
                 "record_every": args.record_every}
        cfg = SolveConfig(**{key: getattr(config, key) if flag is None else flag
                             for key, flag in flags.items()})
        if mode == "prox-ama":
            return prox_ama_run(p, sched, s0, cfg).iterates
        return ama_run(p, sched.c, s0, cfg).iterates

    from .dynamics import integrate

    given = {key: val for key, val in (("h", args.step), ("T", args.horizon),
                                       ("record_every", args.record_every))
             if val is not None}
    method = "euler" if mode == "continuous-euler" else "rk4"
    return integrate(p, sched, s0, method=method, **given)


def _emit(p, sched, traj, prefix: str, mode: str, validation=None, forced=False,
          reference=None) -> int:
    """Write the CSV and report of the trajectory ``traj``, both or neither,
    and print its run's status; returns the exit code, 3 for a run that
    ended ``error`` or ``diverged``, else 0."""
    from .diagnostics import report, trajectory_energies

    time_label = "k" if mode in ("prox-ama", "ama") else "t"
    energies = None if reference is None else trajectory_energies(traj, p, sched, reference)
    rep = report(traj, validation, energies)
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
    traj = _run_mode(p, sched, data.initial, data.config, args.mode, args)
    return _emit(p, sched, traj, prefix, args.mode, validation=vr, forced=forced)


def cmd_paper_example(args) -> int:
    _check_run_options(args)
    from .example import example_problem, example_reference, example_schedule, example_start

    p = example_problem()
    sched = example_schedule(args.c_schedule, TAU_C_VARIANTS[args.tau_c], p)
    ref = example_reference()
    prefix = args.out_prefix or f"example-{args.c_schedule}-{args.tau_c}-{args.mode}"
    traj = _run_mode(p, sched, example_start(), SolveConfig(), args.mode, args)
    return _emit(p, sched, traj, prefix, args.mode, reference=ref)


def cmd_norm(args) -> int:
    data = _load(args.file)
    print(f"A {data.problem.norm_A:.12g}")
    print(f"B {data.problem.norm_B:.12g}")
    return 0


def _stem(path: str) -> str:
    base = os.path.basename(path)
    return base.rsplit(".", 1)[0] if "." in base else base


_HELP = ("-h", "--help")


class _Parser:
    """The command line, read by the rules of argparse for the forms these
    commands take: ``--opt value`` or ``--opt=value``, a unique prefix of an
    option's name, a token like ``-3`` as a value, FILE anywhere among the
    options or after ``--``, and the last of a repeated option.

    ``commands`` maps each subcommand to its handler, whether it takes FILE,
    its line of help and its options, each ``(name, kind, default, help)``:
    a kind is a type, a tuple of choices, or None for a flag.
    """

    def __init__(self, commands: dict):
        self.commands = commands

    def parse_args(self, argv=None) -> SimpleNamespace:
        """The namespace of ``argv`` (``sys.argv[1:]`` when None): ``command``,
        ``func`` (the handler), ``file`` where the command takes one, and each
        option by its name in snake case. ``-h`` prints the help and raises
        ``SystemExit(0)``; a usage error prints the usage and the error to
        stderr and raises ``SystemExit(2)``."""
        argv = sys.argv[1:] if argv is None else list(argv)
        if not argv:
            self._error(None, "the following arguments are required: command")
        command = argv[0]
        if command in _HELP or (len(command) > 2 and "--help".startswith(command)):
            self._help(None)
        if command not in self.commands:
            choices = ", ".join(map(repr, self.commands))
            self._error(None, f"argument command: invalid choice: {command!r} "
                              f"(choose from {choices})")
        return self._parse(command, argv[1:])

    def _parse(self, command: str, tokens: list) -> SimpleNamespace:
        func, takes_file, _, options = self.commands[command]
        kinds = {name: kind for name, kind, _, _ in options}
        ns = SimpleNamespace(command=command, func=func,
                             **{_dest(name): default for name, _, default, _ in options})
        rest, i = [], 0  # (token, whether it is an unknown option)
        while i < len(tokens):
            tok = tokens[i]
            i += 1
            if tok == "--":  # the tokens after it are positionals
                rest += ((tok, False) for tok in tokens[i:])
                break
            option = self._option(command, tok)
            if option is None:
                rest.append((tok, False))
                continue
            name, value = option
            if name is None:
                rest.append((tok, True))
            elif name in _HELP:
                self._help(command)
            elif kinds[name] is None:
                if value is not None:
                    self._error(command, f"argument {name}: ignored explicit argument {value!r}")
                setattr(ns, _dest(name), True)
            else:
                if value is None:
                    if i == len(tokens) or tokens[i] == "--" \
                            or self._option(command, tokens[i]) is not None:
                        self._error(command, f"argument {name}: expected one argument")
                    value = tokens[i]
                    i += 1
                setattr(ns, _dest(name), self._convert(command, name, kinds[name], value))
        if takes_file:
            first = next((k for k, (_, unknown) in enumerate(rest) if not unknown), None)
            if first is None:
                self._error(command, "the following arguments are required: FILE")
            ns.file = rest.pop(first)[0]
        if rest:
            self._error(command, f"unrecognized arguments: {' '.join(tok for tok, _ in rest)}")
        return ns

    def _option(self, command: str, tok: str):
        """None where ``tok`` is a positional; else the option it names (None
        for an unknown one) and the value given after ``=`` (None if none).
        A prefix of more than one option's name is a usage error."""
        if tok[:1] != "-" or len(tok) == 1:
            return None
        names = [*_HELP, *(name for name, _, _, _ in self.commands[command][3])]
        flag, eq, value = tok.partition("=")
        if flag in names:
            return flag, value if eq else None
        if tok.startswith("--"):
            matches = [name for name in names if name.startswith(flag)]
            if len(matches) > 1:
                self._error(command, f"ambiguous option: {tok} could match "
                                     f"{', '.join(matches)}")
            if matches:
                return matches[0], value if eq else None
        return None if _is_value(tok) else (None, None)

    def _convert(self, command: str, name: str, kind, value: str):
        if isinstance(kind, tuple):
            if value not in kind:
                self._error(command, f"argument {name}: invalid choice: {value!r} "
                                     f"(choose from {', '.join(map(repr, kind))})")
            return value
        try:
            return kind(value)
        except ValueError:
            self._error(command, f"argument {name}: invalid {kind.__name__} value: {value!r}")

    def _usage(self, command) -> str:
        if command is None:
            return f"usage: amaflow [-h] {{{','.join(self.commands)}}} ..."
        _, takes_file, _, options = self.commands[command]
        parts = ["usage: amaflow", command, "[-h]"]
        parts += (f"[{_metavar(name, kind)}]" for name, kind, _, _ in options)
        return " ".join(parts + ["FILE"] * takes_file)

    def _help(self, command) -> NoReturn:
        if command is None:
            about = "Two-block separable solver toolkit"
            rows = [(name, entry[2]) for name, entry in self.commands.items()]
            rows.append(("-h, --help", "show this help message and exit"))
        else:
            _, takes_file, about, options = self.commands[command]
            rows = [("FILE", "the problem file")] * takes_file
            rows.append(("-h, --help", "show this help message and exit"))
            for name, kind, default, text in options:
                if default is not None and kind is not None:
                    text = f"{text or ''} (default: {default})".lstrip()
                rows.append((_metavar(name, kind), text or ""))
        print(self._usage(command), "", about, "", sep="\n")
        print("\n".join(f"  {left:<22}  {right}".rstrip() for left, right in rows))
        raise SystemExit(0)

    def _error(self, command, message: str) -> NoReturn:
        prog = "amaflow" if command is None else f"amaflow {command}"
        print(self._usage(command), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
        raise SystemExit(2)


def _is_value(tok: str) -> bool:
    """Whether ``tok``, which starts with ``-`` and names no option, is a
    value all the same: a number, a comma list of numbers, or a token with a
    space."""
    try:
        for part in tok.split(","):
            float(part)
    except ValueError:
        return " " in tok
    return True


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _metavar(name: str, kind) -> str:
    if kind is None:
        return name
    if isinstance(kind, tuple):
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {_dest(name).upper()}"


def build_parser() -> _Parser:
    """The parser of amaflow's command line, from its one table of commands.

    The table is built on each call, so each handler is the module's
    attribute of that moment.
    """
    eps = ("--eps", float, 0.005, None)
    run = [("--mode", MODES, "prox-ama", None),  # the run options of both runs
           ("--step", float, None, "integrator step size"),
           ("--horizon", float, None, "integration horizon T"),
           ("--max-iters", int, None, None),
           ("--tol", float, None, "sets both the KKT and feasibility tolerances"),
           ("--record-every", int, None, None),
           ("--out-prefix", str, None, None)]
    return _Parser({
        "validate": (cmd_validate, True, "check schedule hypotheses for a problem file", [
            eps,
            ("--grid", str, None,
             "comma-separated time grid (default: dense 0..100 plus log tail)"),
            ("--corollary", None, False,
             "check the prox-friendly (c, tau) conditions instead")]),
        "solve": (cmd_solve, True, "solve a problem file", [
            *run, eps, ("--force", None, False, "run even if schedule validation fails")]),
        "paper-example": (cmd_paper_example, False, "run the bundled worked example", [
            ("--c-schedule", C_VARIANTS, "c025", None),
            ("--tau-c", tuple(sorted(TAU_C_VARIANTS)), "tc099", None), *run]),
        "norm": (cmd_norm, True, "print the operator norms of A and B", []),
    })


def main(argv=None) -> int:
    # Refusals are ValueErrors; a failing subproblem ends its run with status error.
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
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
