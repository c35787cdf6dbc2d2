"""Problem files: a JSON document describing one solve end to end.

Top-level sections: ``functions`` (f, h1, g, h2), ``operators`` (dense
row-major A, B), ``b``, ``schedules`` (c, optional tau, M1, M2), ``initial``
(x, z, y) and optional ``solver`` overrides. Unknown keys anywhere are
rejected with the offending location in the error. Parsing and serialization
round-trip exactly for every supported kind.
"""

from __future__ import annotations

import json

import numpy as np

from .discrete import SolveConfig
from .errors import ParseError
from .functions import (
    BoxIndicator,
    L1Norm,
    QuadraticDistance,
    QuadraticForm,
    SeparableFunction,
    ZeroFunction,
)
from .linop import DenseMap, LinearMap
from .problem import PrimalDualState, TwoBlockProblem
from .schedules import (
    ConstantSchedule,
    ConstantDenseMetric,
    CoupledReciprocal,
    MetricSchedule,
    ParameterSchedule,
    ProxFriendlyMetric,
    ReciprocalQuadratic,
    ReciprocalSqrt,
    ScalarSchedule,
    ScaledIdentityMetric,
    ZeroMetric,
)

__all__ = ["ProblemFileData", "parse_problem_text", "load_problem_file",
           "serialize_problem"]


class ProblemFileData:
    """What a problem file describes: the problem, its schedules, the start
    state, the solver settings and the tau schedule (None without one)."""

    def __init__(self, problem: TwoBlockProblem, sched: ParameterSchedule,
                 initial: PrimalDualState, config: SolveConfig | None = None,
                 tau: ScalarSchedule | None = None):
        self.problem, self.sched, self.initial = problem, sched, initial
        self.config = SolveConfig() if config is None else config
        self.tau = tau


def _expect_object(doc, loc: str, required: set, optional: set = frozenset()) -> dict:
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object, got {type(doc).__name__}", loc)
    unknown = set(doc) - required - set(optional)
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r}", loc)
    missing = required - set(doc)
    if missing:
        raise ParseError(f"missing key {sorted(missing)[0]!r}", loc)
    return doc


def _vector(doc, loc: str) -> np.ndarray:
    ok = isinstance(doc, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc
    )
    if not ok:
        raise ParseError("expected a list of numbers", loc)
    if not doc:
        raise ParseError("vector must be nonempty", loc)
    return np.array(doc, dtype=float)


def _matrix(doc, loc: str) -> np.ndarray:
    if not isinstance(doc, list) or not doc:
        raise ParseError("expected a nonempty list of rows", loc)
    rows = [_vector(r, f"{loc}[{i}]") for i, r in enumerate(doc)]
    width = rows[0].shape[0]
    for i, r in enumerate(rows):
        if r.shape[0] != width:
            raise ParseError(
                f"row {i} has length {r.shape[0]}, expected {width}", loc)
    return np.vstack(rows)


def _number(doc, loc: str, kind=float):
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise ParseError("expected a number", loc)
    return kind(doc)


def _build(ctor, loc: str, *args, **kwargs):
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), loc) from exc


def _parse_function(doc, loc: str) -> SeparableFunction:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("expected an object with a 'kind' key", loc)
    kind = doc["kind"]
    if kind == "quadratic_distance":
        _expect_object(doc, loc, {"kind", "d"}, {"weight"})
        return _build(QuadraticDistance, loc, _vector(doc["d"], f"{loc}.d"),
                      _number(doc.get("weight", 1.0), f"{loc}.weight"))
    if kind == "l1":
        _expect_object(doc, loc, {"kind", "dim"}, {"weight"})
        return _build(L1Norm, loc, _number(doc["dim"], f"{loc}.dim", int),
                      _number(doc.get("weight", 1.0), f"{loc}.weight"))
    if kind == "box_indicator":
        _expect_object(doc, loc, {"kind", "lo", "hi"})
        return _build(BoxIndicator, loc, _vector(doc["lo"], f"{loc}.lo"),
                      _vector(doc["hi"], f"{loc}.hi"))
    if kind == "zero":
        _expect_object(doc, loc, {"kind", "dim"})
        return _build(ZeroFunction, loc, _number(doc["dim"], f"{loc}.dim", int))
    if kind == "quadratic_form":
        _expect_object(doc, loc, {"kind", "Q", "q"})
        return _build(QuadraticForm, loc, DenseMap(_matrix(doc["Q"], f"{loc}.Q")),
                      _vector(doc["q"], f"{loc}.q"))
    raise ParseError(f"unknown function kind {kind!r}", loc)


def _parse_scalar(doc, loc: str, c: ScalarSchedule | None = None) -> ScalarSchedule:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("expected an object with a 'kind' key", loc)
    kind = doc["kind"]
    if kind == "constant":
        _expect_object(doc, loc, {"kind", "value"})
        return _build(ConstantSchedule, loc, _number(doc["value"], f"{loc}.value"))
    if kind == "reciprocal_quadratic":
        _expect_object(doc, loc, {"kind", "a"}, {"offset"})
        return _build(ReciprocalQuadratic, loc, _number(doc["a"], f"{loc}.a"),
                      _number(doc.get("offset", 0.0), f"{loc}.offset"))
    if kind == "reciprocal_sqrt":
        _expect_object(doc, loc, {"kind", "a"}, {"offset"})
        return _build(ReciprocalSqrt, loc, _number(doc["a"], f"{loc}.a"),
                      _number(doc.get("offset", 0.0), f"{loc}.offset"))
    if kind == "coupled_reciprocal":
        _expect_object(doc, loc, {"kind", "numerator"}, {"of", "other"})
        num = _number(doc["numerator"], f"{loc}.numerator")
        if "of" in doc:
            if doc["of"] != "c" or c is None:
                raise ParseError("'of' may only reference the c schedule", f"{loc}.of")
            return _build(CoupledReciprocal, loc, num, c)
        if "other" in doc:
            return _build(CoupledReciprocal, loc, num,
                          _parse_scalar(doc["other"], f"{loc}.other", c))
        raise ParseError("coupled_reciprocal needs 'of' or 'other'", loc)
    raise ParseError(f"unknown schedule kind {kind!r}", loc)


def _parse_metric(doc, loc: str, dim: int, c: ScalarSchedule,
                  tau: ScalarSchedule | None, B: LinearMap,
                  allow_prox_friendly: bool) -> MetricSchedule:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("expected an object with a 'kind' key", loc)
    kind = doc["kind"]
    if kind == "zero":
        _expect_object(doc, loc, {"kind"})
        return ZeroMetric(dim)
    if kind == "scaled_identity":
        _expect_object(doc, loc, {"kind", "mu"})
        return ScaledIdentityMetric(_parse_scalar(doc["mu"], f"{loc}.mu", c), dim)
    if kind == "prox_friendly":
        if not allow_prox_friendly:
            raise ParseError("prox_friendly is only meaningful for M2", loc)
        _expect_object(doc, loc, {"kind"})
        if tau is None:
            raise ParseError("prox_friendly M2 requires a 'tau' schedule", loc)
        return ProxFriendlyMetric(tau, c, B)
    if kind == "constant_dense":
        _expect_object(doc, loc, {"kind", "matrix"})
        mat = _matrix(doc["matrix"], f"{loc}.matrix")
        if mat.shape != (dim, dim):
            raise ParseError(f"matrix must be {dim}x{dim}, got {mat.shape}", loc)
        return _build(ConstantDenseMetric, loc, DenseMap(mat))
    raise ParseError(f"unknown metric kind {kind!r}", loc)


def parse_problem_text(text: str) -> ProblemFileData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "document") from exc
    _expect_object(doc, "document",
                   {"functions", "operators", "b", "schedules", "initial"},
                   {"solver"})

    funs = _expect_object(doc["functions"], "functions", {"f", "h1", "g", "h2"})
    f = _parse_function(funs["f"], "functions.f")
    h1 = _parse_function(funs["h1"], "functions.h1")
    g = _parse_function(funs["g"], "functions.g")
    h2 = _parse_function(funs["h2"], "functions.h2")

    ops = _expect_object(doc["operators"], "operators", {"A", "B"})
    A = DenseMap(_matrix(ops["A"], "operators.A"))
    B = DenseMap(_matrix(ops["B"], "operators.B"))
    b = _vector(doc["b"], "b")

    try:
        problem = TwoBlockProblem(f=f, h1=h1, g=g, h2=h2, A=A, B=B, b=b)
    except ValueError as exc:
        raise ParseError(str(exc), "problem") from exc

    sch = _expect_object(doc["schedules"], "schedules", {"c", "M1", "M2"}, {"tau"})
    c = _parse_scalar(sch["c"], "schedules.c")
    tau = _parse_scalar(sch["tau"], "schedules.tau", c) if "tau" in sch else None
    M1 = _parse_metric(sch["M1"], "schedules.M1", problem.dim_x, c, tau, problem.B,
                       allow_prox_friendly=False)
    M2 = _parse_metric(sch["M2"], "schedules.M2", problem.dim_z, c, tau, problem.B,
                       allow_prox_friendly=True)
    sched = ParameterSchedule(c=c, M1=M1, M2=M2)

    init = _expect_object(doc["initial"], "initial", {"x", "z", "y"})
    try:
        initial = problem.state(_vector(init["x"], "initial.x"),
                                _vector(init["z"], "initial.z"),
                                _vector(init["y"], "initial.y"))
    except ValueError as exc:
        raise ParseError(str(exc), "initial") from exc

    config = SolveConfig()
    if "solver" in doc:
        sv = _expect_object(doc["solver"], "solver", set(),
                            {"max_iters", "tol_kkt", "tol_feas", "record_every"})
        try:
            config = SolveConfig(
                max_iters=_number(sv.get("max_iters", config.max_iters),
                                  "solver.max_iters", int),
                tol_kkt=_number(sv.get("tol_kkt", config.tol_kkt), "solver.tol_kkt"),
                tol_feas=_number(sv.get("tol_feas", config.tol_feas), "solver.tol_feas"),
                record_every=_number(sv.get("record_every", config.record_every),
                                     "solver.record_every", int),
            )
        except ValueError as exc:
            raise ParseError(str(exc), "solver") from exc

    return ProblemFileData(problem, sched, initial, config, tau)


def load_problem_file(path: str) -> ProblemFileData:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path) from exc
    return parse_problem_text(text)


def _function_doc(fun: SeparableFunction) -> dict:
    if isinstance(fun, QuadraticDistance):
        return {"kind": "quadratic_distance", "d": fun.d.tolist(), "weight": fun.weight}
    if isinstance(fun, L1Norm):
        return {"kind": "l1", "dim": fun.dim, "weight": fun.weight}
    if isinstance(fun, BoxIndicator):
        return {"kind": "box_indicator", "lo": fun.lo.tolist(), "hi": fun.hi.tolist()}
    if isinstance(fun, ZeroFunction):
        return {"kind": "zero", "dim": fun.dim}
    if isinstance(fun, QuadraticForm):
        return {"kind": "quadratic_form", "Q": fun.Q.as_matrix().tolist(),
                "q": fun.q.tolist()}
    raise ValueError(f"cannot serialize function kind {fun.kind!r}")


def _scalar_doc(s: ScalarSchedule, c: ScalarSchedule | None = None) -> dict:
    if isinstance(s, ConstantSchedule):
        return {"kind": "constant", "value": s.value}
    if isinstance(s, ReciprocalQuadratic):
        return {"kind": "reciprocal_quadratic", "a": s.a, "offset": s.offset}
    if isinstance(s, ReciprocalSqrt):
        return {"kind": "reciprocal_sqrt", "a": s.a, "offset": s.offset}
    if isinstance(s, CoupledReciprocal):
        doc = {"kind": "coupled_reciprocal", "numerator": s.numerator}
        if c is not None and s.other is c:
            doc["of"] = "c"
        else:
            doc["other"] = _scalar_doc(s.other, c)
        return doc
    raise ValueError(f"cannot serialize schedule kind {s.kind!r}")


def _metric_doc(m: MetricSchedule, c: ScalarSchedule) -> dict:
    if isinstance(m, ZeroMetric):
        return {"kind": "zero"}
    if isinstance(m, ScaledIdentityMetric):
        return {"kind": "scaled_identity", "mu": _scalar_doc(m.mu, c)}
    if isinstance(m, ProxFriendlyMetric):
        return {"kind": "prox_friendly"}
    if isinstance(m, ConstantDenseMetric):
        return {"kind": "constant_dense", "matrix": m.M.as_matrix().tolist()}
    raise ValueError(f"cannot serialize metric kind {m.kind!r}")


def serialize_problem(data: ProblemFileData) -> str:
    """Render back to the canonical JSON text (deterministic key order)."""
    p, sched = data.problem, data.sched
    tau = data.tau
    if tau is None and isinstance(sched.M2, ProxFriendlyMetric):
        tau = sched.M2.tau
    schedules = {"c": _scalar_doc(sched.c)}
    if tau is not None:
        schedules["tau"] = _scalar_doc(tau, sched.c)
    schedules["M1"] = _metric_doc(sched.M1, sched.c)
    schedules["M2"] = _metric_doc(sched.M2, sched.c)
    doc = {
        "functions": {"f": _function_doc(p.f), "h1": _function_doc(p.h1),
                      "g": _function_doc(p.g), "h2": _function_doc(p.h2)},
        "operators": {"A": p.A.as_matrix().tolist(), "B": p.B.as_matrix().tolist()},
        "b": p.b.tolist(),
        "schedules": schedules,
        "initial": {"x": data.initial.x.tolist(), "z": data.initial.z.tolist(),
                    "y": data.initial.y.tolist()},
        "solver": {"max_iters": data.config.max_iters, "tol_kkt": data.config.tol_kkt,
                   "tol_feas": data.config.tol_feas,
                   "record_every": data.config.record_every},
    }
    return json.dumps(doc, indent=2) + "\n"
