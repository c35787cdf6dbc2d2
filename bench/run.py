"""amaflow benchmark runner.

Usage:
  python3 bench/run.py --workload {example-cli,dense-prox,all}
                       [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout (it imports ``src/amaflow``, never an
installed copy). One closed-loop client runs the workload's operations one
after another, in whole rounds, until ``--seconds`` have passed (at least two
rounds, so that every output is produced twice and compared). Before the
rounds, seven fresh interpreters measure set-up; after them, bench/check.py
checks the outputs against independent computations.

Every timed operation is scaled by calibration tasks run next to it
(bench/calib.py) and reported in seconds of the reference machine; each
timing is the median of that operation over the run's untraced rounds.

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate
and the metrics are the per-layer ones plus the tracing overhead. The exit
code is 1 if a correctness check fails, 2 on a usage or checkout error.

This process imports only the standard library: on Linux a child's peak
resident set (``ru_maxrss``) starts from its parent's, so a small runner
keeps the children's readings their own. Everything that needs numpy runs
in a child (bench/inputs.py, bench/client.py, bench/check.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple

import calib
import tracer as tracing
import workloads

WORKLOADS = ("example-cli", "dense-prox")
SETUP_PROBES = 7
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120.0
ROUND_BUDGET_S = 140.0  # start no round after this much of the run
RATE_KINDS = ("fixed", "euler")  # dense-prox operations behind updates_per_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "solve_wall_s": "s",
    "validate_wall_s": "s", "time_to_tol_s": "s", "updates_per_s": "1/s",
}


class Proc(NamedTuple):
    """Outcome of one child process: lifetime, peak RSS, exit code."""

    seconds: float
    rss_mb: float
    code: int


class Round(NamedTuple):
    rdir: str
    traced: bool
    wall: float  # sum of the CLI lifetimes, or the dense-prox client's lifetime
    scaled_wall: float  # the same, calibration time left out, in reference seconds
    times: dict  # operation key -> list of seconds, one per call
    scaled: dict  # operation key -> list of reference seconds (see calib.py)
    updates: int  # alternating updates of the operations timed for updates_per_s
    layer: dict  # summed tracer totals (traced rounds only)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, cwd, out_path, env) -> Proc:
    """Run one child to its end; time it from spawn to reaping."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child and reap it first
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(seconds, usage.ru_maxrss / 1024.0, proc.returncode)


def scale(seconds, ref, before, after) -> float:
    """``seconds`` in reference seconds, from the calibrations on either side."""
    return seconds * ref / (0.5 * (before + after))


def middle(rounds) -> dict:
    """Operation key -> the median of its scaled times over all calls in ``rounds``."""
    return {k: statistics.median(t for r in rounds for t in r.scaled[k])
            for k in rounds[0].scaled}


def round_wall(rounds) -> float:
    """A round's scaled wall from medians: every call at its key's median, plus
    the median of the rest of the round (the dense-prox client's start-up,
    imports and input loading; nothing for example-cli)."""
    best = middle(rounds)
    calls = sum(best[k] * len(ts) for k, ts in rounds[0].scaled.items())
    rest = statistics.median(r.scaled_wall - sum(t for ts in r.scaled.values() for t in ts)
                             for r in rounds)
    return calls + rest


def by_key(ops, field) -> dict:
    out = {}
    for op in ops:
        out.setdefault(op["key"], []).append(op[field])
    return out


def last_json(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def read_report(path) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.rstrip("\n").partition(": ")
                out[key] = value
    except OSError:
        pass
    return out


class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.env = child_env()
        base = os.path.join(ROOT, ".bench_work")
        self.workdir = os.path.join(base, f"{workload}-s{seed}-{os.getpid()}")
        self.trace_dir = os.path.join(base, "traces", workload)
        self.py = sys.executable
        self.rounds = []
        self.procs = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    # -- helpers ---------------------------------------------------------

    def helper(self, script, *args):
        out = os.path.join(self.workdir, f"{script}.log")
        proc = spawn([self.py, os.path.join(HERE, script), *args], ROOT, out, self.env)
        if proc.code != 0:
            with open(out + ".err", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"{script} exited with {proc.code}: {tail}")
        return last_json(out)

    def calibrate(self) -> float:
        """Lifetime of one process calibration (bench/calib.py)."""
        proc = spawn([self.py, os.path.join(HERE, "calib.py")], self.workdir,
                     os.path.join(self.workdir, "calib.out"), self.env)
        if proc.code != 0:
            raise RuntimeError(f"calibration exited with {proc.code}")
        return proc.seconds

    def setup_time(self) -> float:
        times = []
        before = self.calibrate()
        for k in range(SETUP_PROBES):
            proc = spawn([self.py, os.path.join(HERE, "client.py"), "setup", self.workload,
                          self.workdir], self.workdir,
                         os.path.join(self.workdir, f"setup-{k}.out"), self.env)
            if proc.code != 0:
                raise RuntimeError(f"set-up probe exited with {proc.code}")
            self.procs.append(proc)
            after = self.calibrate()
            times.append(scale(proc.seconds, calib.PROCESS_REF_S, before, after))
            before = after
        return statistics.median(times)

    # -- rounds ----------------------------------------------------------

    def cli_round(self, rdir, traced):
        """One round of CLI invocations, each bracketed by process calibrations."""
        times, scaled, updates, layer = {}, {}, 0, {}
        before = self.calibrate()
        for op in (op for op in workloads.example_ops() for _ in range(op.calls)):
            span = os.path.join(rdir, f"{op.id}.trace.json")
            cmd = ([self.py, os.path.join(HERE, "traced_cli.py"), span] if traced
                   else [self.py, "-m", "amaflow.cli"])
            out = os.path.join(rdir, f"{op.id}.out")
            proc = spawn(cmd + op.argv(self.workdir, rdir), rdir, out, self.env)
            self.procs.append(proc)
            self.attempted += 1
            report = read_report(os.path.join(rdir, f"{op.id}.report.txt"))
            if proc.code != 0 or (op.tol and report.get("status") != "converged"):
                self.failed += 1
                self.errors.append(f"{op.id}: exit {proc.code}, status {report.get('status')}")
            times.setdefault(op.id, []).append(proc.seconds)
            after = self.calibrate()
            scaled.setdefault(op.id, []).append(
                scale(proc.seconds, calib.PROCESS_REF_S, before, after))
            before = after
            if op.category == "solve":
                updates += op.updates or int(report.get("iterations", 0))
            if traced and os.path.exists(span):
                with open(span, encoding="utf-8") as fh:
                    tracing.add_totals(layer, json.load(fh)["totals"])
                written = os.path.getsize(out)
                if op.writes:
                    written += sum(os.path.getsize(os.path.join(rdir, f"{op.id}{ext}"))
                                   for ext in (".csv", ".report.txt"))
                tracing.add_totals(layer, {"cli_bytes_written": written})
        return (sum(t for ts in times.values() for t in ts),
                sum(t for ts in scaled.values() for t in ts), times, scaled, updates, layer)

    def prox_round(self, rdir, traced):
        """One dense-prox client process, scaled by its median dense calibration."""
        span = os.path.join(rdir, "client.trace.json")
        cmd = [self.py, os.path.join(HERE, "client.py"), "round", self.workdir,
               os.path.join(rdir, "results.npz")]
        if traced:
            cmd += ["--trace", span]
        out = os.path.join(rdir, "client.out")
        proc = spawn(cmd, rdir, out, self.env)
        self.procs.append(proc)
        if proc.code != 0:
            raise RuntimeError(f"dense-prox client exited with {proc.code}")
        result = last_json(out)
        ops = result["ops"]
        self.attempted += len(ops)
        self.failed += sum(not op["ok"] for op in ops)
        self.errors += [f"{op['key']} failed" for op in ops
                        if not op["ok"] and op["key"] != "degenerate-build"]
        times = by_key(ops, "s")
        cal = result["calibration"]
        factor = calib.DENSE_REF_S / statistics.median(cal)
        scaled = {k: [t * factor for t in ts] for k, ts in times.items()}
        scaled_wall = (proc.seconds - sum(cal)) * factor
        updates = result["fixed_count"] * sum(op["key"].split("-")[0] in RATE_KINDS
                                              for op in ops)
        layer = {}
        if traced:
            with open(span, encoding="utf-8") as fh:
                layer = json.load(fh)["totals"]
        return proc.seconds, scaled_wall, times, scaled, updates, layer

    def one_round(self, traced):
        rdir = os.path.join(self.workdir, f"round-{len(self.rounds)}")
        os.makedirs(rdir)
        fn = self.prox_round if self.workload == "dense-prox" else self.cli_round
        wall, scaled_wall, times, scaled, updates, layer = fn(rdir, traced)
        self.rounds.append(Round(rdir, traced, wall, scaled_wall, times, scaled, updates, layer))
        self.log(f"round {len(self.rounds) - 1}{' traced' if traced else ''}: wall "
                 f"{wall:.4g} s measured, {scaled_wall:.4g} s scaled, updates {updates}")

    def log(self, text):
        print(f"[{self.workload}] {text}", file=sys.stderr)

    def flags(self) -> dict:
        """Operation key -> the end-to-end sums its time belongs to."""
        if self.workload == "dense-prox":
            keys = self.rounds[0].times
            return {k: {"solve": k.split("-")[0] in ("tol",) + RATE_KINDS,
                        "validate": k.startswith("validate-"),
                        "tol": k.startswith("tol-"),
                        "rate": k.split("-")[0] in RATE_KINDS} for k in keys}
        return {op.id: {"solve": op.category == "solve", "validate": op.category == "validate",
                        "tol": op.tol, "rate": op.category == "solve"}
                for op in workloads.example_ops()}

    def end_to_end(self, setup_s) -> dict:
        """Each operation's median scaled time over the untraced rounds, summed by kind."""
        plain = [r for r in self.rounds if not r.traced]
        best = middle(plain)
        flags = self.flags()
        total = lambda flag: sum(best[k] for k in best if flags[k][flag])  # noqa: E731
        metrics = {
            "setup_s": setup_s,
            "wall_s": round_wall(plain),
            "peak_rss_mb": max(p.rss_mb for p in self.procs),
            "solve_wall_s": total("solve"),
            "validate_wall_s": total("validate"),
            "time_to_tol_s": total("tol"),
            "updates_per_s": plain[0].updates / total("rate"),
        }
        return {k: (v, END_TO_END[k]) for k, v in metrics.items()}

    # -- the run ---------------------------------------------------------

    def execute(self) -> dict:
        os.makedirs(self.workdir)
        subprocess.run([self.py, "-m", "compileall", "-q", os.path.join(ROOT, "src", "amaflow")],
                       check=True, stdout=subprocess.DEVNULL, env=self.env)
        self.helper("inputs.py", self.workload, str(self.seed), self.workdir)
        t0 = time.perf_counter()
        setup_s = self.setup_time()
        started = time.perf_counter()
        self.log(f"set-up probes {started - t0:.1f} s")

        while True:
            elapsed = time.perf_counter() - started
            if len(self.rounds) >= MIN_ROUNDS and (
                    elapsed >= self.seconds or elapsed >= ROUND_BUDGET_S):
                break
            self.one_round(traced=False)
            if self.trace:
                self.one_round(traced=True)

        t0 = time.perf_counter()
        self.log(f"rounds {t0 - started:.1f} s")
        verdict = self.helper("check.py", self.workload, self.workdir,
                              *[r.rdir for r in self.rounds])
        self.log(f"checks {time.perf_counter() - t0:.1f} s")
        self.errors += verdict["failures"]
        metrics = self.layer_metrics() if self.trace else self.end_to_end(setup_s)
        return {
            "correct": not verdict["failures"],
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "notes": verdict["notes"],
        }

    def layer_metrics(self) -> dict:
        traced = [r for r in self.rounds if r.traced]
        plain = [r for r in self.rounds if not r.traced]
        per_round = [tracing.per_layer(r.layer) for r in traced]
        metrics = {k: (statistics.median(pr[k][0] for pr in per_round), per_round[0][k][1])
                   for k in per_round[0]}
        metrics["trace.overhead_s"] = (round_wall(traced) - round_wall(plain), "s")
        # Keep the spans of the last traced round.
        shutil.rmtree(self.trace_dir, ignore_errors=True)
        os.makedirs(os.path.dirname(self.trace_dir), exist_ok=True)
        shutil.copytree(traced[-1].rdir, self.trace_dir,
                        ignore=lambda d, names: [n for n in names if ".trace.json" not in n])
        return metrics

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def run_one(workload, seed, seconds, trace) -> dict:
    run = Run(workload, seed, seconds, trace)
    try:
        result = run.execute()
    finally:
        run.cleanup()
    for err in run.errors:
        print(f"[{workload}] {err}", file=sys.stderr)
    return result


def print_result(workload, result):
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload} attempted = {result['attempted']} failed = {result['failed']} "
          f"correct = {str(result['correct']).lower()}")
    margins = ", ".join(f"{k} {v:.3g}" for k, v in sorted(result["notes"].items()))
    print(f"{workload} check margins: {margins}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind as on an error: the running child is killed and
    # reaped, and the run's directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "amaflow", "cli.py")):
        print(f"error: no amaflow sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
