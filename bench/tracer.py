"""Spans and counters around amaflow's public functions, installed from outside.

:func:`install` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers. A function is replaced in every amaflow
module that bound it by name at import (``cli`` binds ``prox_ama_run``,
``integrate``, ``energy`` and ``validate`` that way), so a call through any
binding is seen. Spans (name, start, end, parent) live in flat arrays in
memory; :meth:`Tracer.dump` writes them out once, at the end of the process.

:func:`totals` reduces one process's spans to additive sums (seconds and
counts), and :func:`per_layer` turns the sums of several processes into the
per-layer metrics. This module imports nothing outside the standard library
at module level, so the benchmark's runner can use :func:`per_layer` without
loading numpy.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

# module -> public functions and methods that get a span. Methods are wrapped
# only on the classes that define them.
TARGETS = {
    "linop": ["DenseMap.apply", "DenseMap.adjoint_apply", "operator_norm",
              "min_eigenvalue_sym"],
    "functions": [f"{cls}.{meth}"
                  for cls in ("SeparableFunction", "QuadraticDistance", "L1Norm",
                              "BoxIndicator", "ZeroFunction", "QuadraticForm")
                  for meth in ("prox", "grad", "conj_grad")],
    "problem": ["TwoBlockProblem.__init__", "TwoBlockProblem.state",
                "TwoBlockProblem.primal_objective", "TwoBlockProblem.lagrangian",
                "TwoBlockProblem.dual_objective", "TwoBlockProblem.feasibility_residual",
                "TwoBlockProblem.kkt_residual"],
    "schedules": [f"{cls}.{meth}"
                  for cls in ("ZeroMetric", "ScaledIdentityMetric", "ProxFriendlyMetric",
                              "ConstantDenseMetric")
                  for meth in ("at", "derivative_at")]
                 + ["validate", "validate_corollary", "default_grid"],
    "dynamics": ["regularized_argmin", "solve_x_subproblem", "solve_z_subproblem",
                 "alternating_update", "gamma", "integrate"],
    "discrete": ["prox_ama_step", "prox_ama_run", "ama_run"],
    "diagnostics": ["energy", "check_energy_monotone", "report"],
    "probfile": ["parse_problem_text", "load_problem_file", "serialize_problem"],
    "example": ["example_problem", "example_c_schedule", "example_schedule",
                "example_start", "example_reference"],
    "cli": ["main", "build_parser", "cmd_validate", "cmd_solve", "cmd_paper_example",
            "cmd_norm"],
}

EIGVALSH = "numpy.linalg.eigvalsh"


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.counters: dict = {}

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, span_name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(tracer, result)`` runs on return."""
        nid = self._ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, out)
            return out

        return traced

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans (``path``.bin) and names, counters, totals (``path``)."""
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        doc = {"names": self.names, "spans": len(self.name),
               "layout": "int32 name[], int32 parent[], float64 start[], float64 end[]",
               "counters": self.counters, "totals": totals(self, extra)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _metric_bytes(tracer: Tracer, out) -> None:
    mat = getattr(out, "matrix", None)
    if mat is not None:
        tracer.count("metric_bytes", int(mat.nbytes))


def _solver_iters(tracer: Tracer, out) -> None:
    if out.status == "converged":
        tracer.count("discrete_iters", out.iterations_used)


AFTER = {"at": _metric_bytes, "prox_ama_run": _solver_iters, "ama_run": _solver_iters}


def install(tracer: Tracer) -> None:
    """Wrap every target in ``TARGETS`` (and numpy's eigvalsh) with spans."""
    import importlib

    import numpy as np

    modules = [importlib.import_module(f"amaflow.{m}") for m in TARGETS]
    modules.append(importlib.import_module("amaflow"))
    for mod_name, targets in TARGETS.items():
        mod = importlib.import_module(f"amaflow.{mod_name}")
        for target in targets:
            owner_name, _, attr = target.rpartition(".")
            after = AFTER.get(attr)
            if owner_name:
                cls = getattr(mod, owner_name)
                if attr in cls.__dict__:
                    setattr(cls, attr, tracer.wrap(f"{mod_name}.{target}",
                                                   cls.__dict__[attr], after))
                continue
            original = getattr(mod, attr)
            wrapped = tracer.wrap(f"{mod_name}.{attr}", original, after)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
    np.linalg.eigvalsh = tracer.wrap(EIGVALSH, np.linalg.eigvalsh)


# Span groups. A group's time counts each span of the group that has no
# ancestor in the same group, so recursion and nesting are not counted twice.
def _groups(names: list) -> dict:
    def pick(pred):
        return {i for i, n in enumerate(names) if pred(n)}

    return {
        "norm": pick(lambda n: n == "linop.operator_norm"),
        "min_eig": pick(lambda n: n == "linop.min_eigenvalue_sym"),
        "matvec": pick(lambda n: n in ("linop.DenseMap.apply",
                                       "linop.DenseMap.adjoint_apply")),
        "prox": pick(lambda n: n.startswith("functions.") and n.endswith(".prox")),
        "build": pick(lambda n: n == "problem.TwoBlockProblem.__init__"),
        "residual": pick(lambda n: n in ("problem.TwoBlockProblem.kkt_residual",
                                         "problem.TwoBlockProblem.feasibility_residual")),
        "metric_at": pick(lambda n: n.startswith("schedules.") and n.endswith(".at")),
        "validate": pick(lambda n: n in ("schedules.validate",
                                         "schedules.validate_corollary")),
        "eigvalsh": pick(lambda n: n == EIGVALSH),
        "x_sub": pick(lambda n: n == "dynamics.solve_x_subproblem"),
        "z_sub": pick(lambda n: n == "dynamics.solve_z_subproblem"),
        "argmin": pick(lambda n: n == "dynamics.regularized_argmin"),
        "update": pick(lambda n: n == "dynamics.alternating_update"),
        "discrete": pick(lambda n: n in ("discrete.prox_ama_run", "discrete.ama_run")),
        "energy": pick(lambda n: n == "diagnostics.energy"),
        "report": pick(lambda n: n == "diagnostics.report"),
        "parse": pick(lambda n: n in ("probfile.parse_problem_text",
                                      "probfile.load_problem_file")),
        "reference": pick(lambda n: n == "example.example_reference"),
        "cli": pick(lambda n: n.startswith("cli.")),
    }


def totals(tracer: Tracer, extra: dict) -> dict:
    """Additive per-process sums: group times, call counts and attributed counts."""
    groups = _groups(tracer.names)
    bit = {g: 1 << k for k, g in enumerate(groups)}
    mask = [0] * len(tracer.names)
    for g, ids in groups.items():
        for nid in ids:
            mask[nid] |= bit[g]

    n = len(tracer.name)
    names, parents, starts, ends = tracer.name, tracer.parent, tracer.start, tracer.end
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    anc = [0] * n
    inner = bytearray(n)  # regularized_argmin spans on the inner-loop branch
    top = dict.fromkeys(groups, 0.0)
    calls = dict.fromkeys(groups, 0)
    self_s = {"discrete": 0.0, "cli": 0.0}
    attributed = {"matvec_discrete": 0, "update_discrete": 0, "prox_discrete": 0,
                  "eigvalsh_validate": 0, "z_inner_iters": 0}
    b_disc, b_val = bit["discrete"], bit["validate"]
    for i in range(n):
        p = parents[i]
        m = mask[names[i]]
        if p >= 0:
            child[p] += dur[i]
            anc[i] = anc[p] | mask[names[p]]
        if not m:
            continue
        for g, b in bit.items():
            if m & b:
                calls[g] += 1
                if not anc[i] & b:
                    top[g] += dur[i]
        if m & bit["norm"] and p >= 0 and mask[names[p]] & bit["argmin"]:
            inner[p] = 1
        if m & bit["prox"] and p >= 0 and inner[p]:
            attributed["z_inner_iters"] += 1
        if anc[i] & b_disc:
            for g, key in (("matvec", "matvec_discrete"), ("update", "update_discrete"),
                           ("prox", "prox_discrete")):
                if m & bit[g]:
                    attributed[key] += 1
        if m & bit["eigvalsh"] and anc[i] & b_val:
            attributed["eigvalsh_validate"] += 1
    for i in range(n):
        m = mask[names[i]]
        for g in self_s:
            if m & bit[g]:
                self_s[g] += dur[i] - child[i]

    out = {f"{g}_s": v for g, v in top.items()}
    out.update({f"{g}_calls": v for g, v in calls.items()})
    out.update({f"{g}_self_s": v for g, v in self_s.items()})
    out.update(attributed)
    out["metric_bytes"] = tracer.counters.get("metric_bytes", 0)
    out["discrete_iters"] = tracer.counters.get("discrete_iters", 0)
    out["spans"] = n
    out.update(extra)
    return out


def add_totals(acc: dict, more: dict) -> dict:
    for key, value in more.items():
        acc[key] = acc.get(key, 0) + value
    return acc


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(t: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from summed :func:`totals`."""
    g = lambda key: t.get(key, 0)  # noqa: E731
    return {
        "linop.matvecs_per_update": (_ratio(g("matvec_discrete"), g("update_discrete")),
                                     "count"),
        "linop.norm_s": (g("norm_s"), "s"),
        "linop.norm_calls": (g("norm_calls"), "count"),
        "linop.min_eig_calls": (g("min_eig_calls"), "count"),
        "functions.prox_calls_per_update": (_ratio(g("prox_discrete"),
                                                   g("update_discrete")), "count"),
        "functions.prox_s": (g("prox_s"), "s"),
        "problem.build_s": (g("build_s"), "s"),
        "problem.residual_s": (g("residual_s"), "s"),
        "problem.residual_calls": (g("residual_calls"), "count"),
        "schedules.metric_at_s": (g("metric_at_s"), "s"),
        "schedules.metric_bytes": (g("metric_bytes"), "B"),
        "schedules.validate_s": (g("validate_s"), "s"),
        "schedules.eigvalsh_calls": (g("eigvalsh_validate"), "count"),
        "dynamics.x_subproblem_s": (g("x_sub_s"), "s"),
        "dynamics.z_subproblem_s": (g("z_sub_s"), "s"),
        "dynamics.z_inner_iters_per_update": (_ratio(g("z_inner_iters"),
                                                     g("update_calls")), "count"),
        "dynamics.update_us": (1e6 * _ratio(g("update_s"), g("update_calls")), "us"),
        "dynamics.updates": (g("update_calls"), "count"),
        "discrete.iters": (g("discrete_iters"), "count"),
        "discrete.loop_self_s": (g("discrete_self_s"), "s"),
        "diagnostics.energy_s": (g("energy_s"), "s"),
        "diagnostics.energy_calls": (g("energy_calls"), "count"),
        "diagnostics.report_s": (g("report_s"), "s"),
        "probfile.parse_s": (g("parse_s"), "s"),
        "example.reference_s": (g("reference_s"), "s"),
        "cli.import_s": (g("cli_import_s"), "s"),
        "cli.self_s": (g("cli_self_s"), "s"),
        "cli.bytes_written": (g("cli_bytes_written"), "B"),
        "trace.spans": (g("spans"), "count"),
    }
