"""Problem files: a JSON document describing one solve end to end.

Top-level sections: ``functions`` (f, h1, g, h2), ``operators`` (dense
row-major A, B), ``b``, ``schedules`` (c, optional tau, M1, M2), ``initial``
(x, z, y) and optional ``solver`` overrides. Unknown keys anywhere are
rejected with the offending location in the error. The parser and the
serializer read each plain kind's fields from one table (``_FUNCTIONS``,
``_SCALARS``), so the two round-trip exactly for every supported kind.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np

from .errors import ParseError
from .functions import (
    BoxIndicator,
    L1Norm,
    QuadraticDistance,
    QuadraticForm,
    SeparableFunction,
    ZeroFunction,
)
from .problem import PrimalDualState, SolveConfig, TwoBlockProblem
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
                 initial: PrimalDualState, config: SolveConfig,
                 tau: ScalarSchedule | None):
        self.problem, self.sched, self.initial = problem, sched, initial
        self.config, self.tau = config, tau


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
    # json.loads gives each entry an exact type, and bool is not int
    if not (isinstance(doc, list) and set(map(type, doc)) <= {int, float}):
        raise ParseError("expected a list of numbers", loc)
    if not doc:
        raise ParseError("vector must be nonempty", loc)
    try:
        return np.array(doc, dtype=float)
    except OverflowError:  # an integer literal past the float range
        raise ParseError("number too large for a float", loc) from None


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


def _finite(arr: np.ndarray, loc: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ParseError("must have finite entries", loc)
    return arr


def _number(doc, loc: str, kind=float):
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise ParseError("expected a number", loc)
    try:
        value = kind(doc)
    except (OverflowError, ValueError):  # an integer field given NaN or Infinity
        raise ParseError("expected a finite number", loc) from None
    if kind is int and value != doc:  # int() would drop the fraction
        raise ParseError("expected an integer", loc)
    return value


def _build(ctor, loc: str, *args, **kwargs):
    try:
        return ctor(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc), loc) from exc


_integer = partial(_number, kind=int)

# The plain kinds: kind -> (class, fields). A field is (name, reader) or
# (name, reader, default), in constructor order, and named after the
# attribute the serializer reads back.
_FUNCTIONS = {
    "quadratic_distance": (QuadraticDistance, (("d", _vector), ("weight", _number, 1.0))),
    "l1": (L1Norm, (("dim", _integer), ("weight", _number, 1.0))),
    "box_indicator": (BoxIndicator, (("lo", _vector), ("hi", _vector))),
    "zero": (ZeroFunction, (("dim", _integer),)),
    "quadratic_form": (QuadraticForm, (("Q", _matrix), ("q", _vector))),
}
_SCALARS = {
    "constant": (ConstantSchedule, (("value", _number),)),
    "reciprocal_quadratic": (ReciprocalQuadratic, (("a", _number), ("offset", _number, 0.0))),
    "reciprocal_sqrt": (ReciprocalSqrt, (("a", _number), ("offset", _number, 0.0))),
}
_METRICS = ("zero", "scaled_identity", "prox_friendly", "constant_dense")
_SOLVER = {"max_iters": int, "tol_kkt": float, "tol_feas": float, "record_every": int}


def _kind(doc, loc: str, kinds, what: str) -> str:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ParseError("expected an object with a 'kind' key", loc)
    kind = doc["kind"]
    if not (isinstance(kind, str) and kind in kinds):  # a list or an object is no kind
        raise ParseError(f"unknown {what} kind {kind!r}", loc)
    return kind


def _plain(doc, loc: str, entry):
    cls, fields = entry
    _expect_object(doc, loc, {"kind", *(f[0] for f in fields if len(f) == 2)},
                   {f[0] for f in fields if len(f) == 3})
    return _build(cls, loc, *(read(doc.get(name, *default), f"{loc}.{name}")
                              for name, read, *default in fields))


def _parse_function(doc, loc: str) -> SeparableFunction:
    return _plain(doc, loc, _FUNCTIONS[_kind(doc, loc, _FUNCTIONS, "function")])


def _parse_scalar(doc, loc: str, c: ScalarSchedule | None = None) -> ScalarSchedule:
    kind = _kind(doc, loc, [*_SCALARS, "coupled_reciprocal"], "schedule")
    if kind in _SCALARS:
        return _plain(doc, loc, _SCALARS[kind])
    _expect_object(doc, loc, {"kind", "numerator"}, {"of", "other"})
    num = _number(doc["numerator"], f"{loc}.numerator")
    if "of" in doc and "other" in doc:
        raise ParseError("coupled_reciprocal takes 'of' or 'other', not both", loc)
    if "of" in doc:
        if doc["of"] != "c" or c is None:
            raise ParseError("'of' may only reference the c schedule", f"{loc}.of")
        return _build(CoupledReciprocal, loc, num, c)
    if "other" in doc:
        return _build(CoupledReciprocal, loc, num,
                      _parse_scalar(doc["other"], f"{loc}.other", c))
    raise ParseError("coupled_reciprocal needs 'of' or 'other'", loc)


def _parse_metric(doc, loc: str, dim: int, c: ScalarSchedule,
                  tau: ScalarSchedule | None, B: np.ndarray,
                  allow_prox_friendly: bool) -> MetricSchedule:
    kind = _kind(doc, loc, _METRICS, "metric")
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
    _expect_object(doc, loc, {"kind", "matrix"})
    mat = _finite(_matrix(doc["matrix"], f"{loc}.matrix"), f"{loc}.matrix")
    if mat.shape != (dim, dim):
        raise ParseError(f"matrix must be {dim}x{dim}, got {mat.shape}", loc)
    return _build(ConstantDenseMetric, loc, mat)


def parse_problem_text(text: str) -> ProblemFileData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "document") from exc
    except RecursionError:
        raise ParseError("nested deeper than the interpreter allows", "document") from None
    _expect_object(doc, "document",
                   {"functions", "operators", "b", "schedules", "initial"},
                   {"solver"})

    funs = _expect_object(doc["functions"], "functions", {"f", "h1", "g", "h2"})
    f = _parse_function(funs["f"], "functions.f")
    h1 = _parse_function(funs["h1"], "functions.h1")
    g = _parse_function(funs["g"], "functions.g")
    h2 = _parse_function(funs["h2"], "functions.h2")

    ops = _expect_object(doc["operators"], "operators", {"A", "B"})
    A = _matrix(ops["A"], "operators.A")
    B = _matrix(ops["B"], "operators.B")
    b = _vector(doc["b"], "b")
    problem = _build(TwoBlockProblem, "problem", f=f, h1=h1, g=g, h2=h2, A=A, B=B, b=b)

    sch = _expect_object(doc["schedules"], "schedules", {"c", "M1", "M2"}, {"tau"})
    c = _parse_scalar(sch["c"], "schedules.c")
    tau = _parse_scalar(sch["tau"], "schedules.tau", c) if "tau" in sch else None
    M1 = _parse_metric(sch["M1"], "schedules.M1", problem.dim_x, c, tau, problem.B,
                       allow_prox_friendly=False)
    M2 = _parse_metric(sch["M2"], "schedules.M2", problem.dim_z, c, tau, problem.B,
                       allow_prox_friendly=True)
    sched = ParameterSchedule(c=c, M1=M1, M2=M2)

    init = _expect_object(doc["initial"], "initial", set("xzy"))
    xzy = [_finite(_vector(init[k], f"initial.{k}"), f"initial.{k}") for k in "xzy"]
    initial = _build(problem.state, "initial", *xzy)

    config = SolveConfig()
    if "solver" in doc:
        sv = _expect_object(doc["solver"], "solver", set(), set(_SOLVER))
        config = _build(SolveConfig, "solver", **{
            key: _number(sv.get(key, getattr(config, key)), f"solver.{key}", kind)
            for key, kind in _SOLVER.items()})

    return ProblemFileData(problem, sched, initial, config, tau)


def load_problem_file(path: str) -> ProblemFileData:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc), path) from exc
    return parse_problem_text(text)


def _doc(obj, table, what: str) -> dict:
    for kind, (cls, fields) in table.items():
        if isinstance(obj, cls):
            doc = {"kind": kind}
            for name, *_ in fields:
                value = getattr(obj, name)
                doc[name] = value.tolist() if isinstance(value, np.ndarray) else value
            return doc
    raise ValueError(f"cannot serialize {what} kind {obj.kind!r}")


def _scalar_doc(s: ScalarSchedule, c: ScalarSchedule | None = None) -> dict:
    if not isinstance(s, CoupledReciprocal):
        return _doc(s, _SCALARS, "schedule")
    doc = {"kind": "coupled_reciprocal", "numerator": s.numerator}
    if c is not None and s.other is c:
        doc["of"] = "c"
    else:
        doc["other"] = _scalar_doc(s.other, c)
    return doc


def _metric_doc(m: MetricSchedule, c: ScalarSchedule) -> dict:
    if isinstance(m, ScaledIdentityMetric):
        return {"kind": "scaled_identity", "mu": _scalar_doc(m.mu, c)}
    if isinstance(m, ConstantDenseMetric):
        return {"kind": "constant_dense", "matrix": m.M.tolist()}
    return _doc(m, {"zero": (ZeroMetric, ()), "prox_friendly": (ProxFriendlyMetric, ())},
                "metric")


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
        "functions": {name: _doc(getattr(p, name), _FUNCTIONS, "function")
                      for name in ("f", "h1", "g", "h2")},
        "operators": {"A": p.A.tolist(), "B": p.B.tolist()},
        "b": p.b.tolist(),
        "schedules": schedules,
        "initial": {k: getattr(data.initial, k).tolist() for k in "xzy"},
        "solver": {key: getattr(data.config, key) for key in _SOLVER},
    }
    return json.dumps(doc, indent=2) + "\n"
