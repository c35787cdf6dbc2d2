import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amaflow import ParseError, ProxFriendlyMetric, ReciprocalSqrt
from amaflow.probfile import (
    _FUNCTIONS,
    _SCALARS,
    ProblemFileData,
    load_problem_file,
    parse_problem_text,
    serialize_problem,
)

ROOT8 = float(np.sqrt(8.0))

BASE = {
    "functions": {
        "f": {"kind": "quadratic_distance", "d": [1.0, 0.0], "weight": 1.0},
        "h1": {"kind": "zero", "dim": 2},
        "g": {"kind": "l1", "dim": 2, "weight": 1.0},
        "h2": {"kind": "zero", "dim": 2},
    },
    "operators": {
        "A": [[2.0 / ROOT8, 1.0 / ROOT8], [-2.0 / ROOT8, 1.0 / ROOT8]],
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
}


def doc(**edits):
    d = copy.deepcopy(BASE)
    for dotted, value in edits.items():
        keys = dotted.split("__")
        node = d
        for k in keys[:-1]:
            node = node[k]
        if value is ...:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    return json.dumps(d)


class TestParse:
    def test_example_document(self):
        data = parse_problem_text(doc())
        assert data.problem.dim_x == 2
        assert data.problem.f.kind == "quadratic_distance"
        assert data.sched.c.value_at(0.0) == 0.25
        assert isinstance(data.sched.M2, ProxFriendlyMetric)
        assert data.tau is not None
        assert data.tau.value_at(0.0) == pytest.approx(3.96)
        assert data.initial.x == pytest.approx([-10.0, 10.0])
        assert data.config.max_iters == 20000

    def test_coupled_tau_shares_the_c_object(self):
        data = parse_problem_text(doc())
        assert data.tau.other is data.sched.c
        assert data.sched.M2.tau is data.tau

    def test_solver_overrides_merge_with_defaults(self):
        data = parse_problem_text(doc(solver={"max_iters": 50}))
        assert data.config.max_iters == 50
        assert data.config.tol_kkt == 1e-6
        assert data.config.record_every == 1

    def test_inline_other_schedule(self):
        tau = {"kind": "coupled_reciprocal", "numerator": 0.5,
               "other": {"kind": "reciprocal_sqrt", "a": 1.1, "offset": 0.01}}
        data = parse_problem_text(doc(schedules__tau=tau))
        assert data.tau.value_at(0.0) == pytest.approx(
            0.5 / (1.0 / np.sqrt(1.1) + 0.01))


class TestParseErrors:
    def check(self, text, location, fragment=""):
        with pytest.raises(ParseError) as err:
            parse_problem_text(text)
        assert err.value.location == location
        if fragment:
            assert fragment in str(err.value)

    def test_invalid_json(self):
        self.check("{not json", "document", "invalid JSON")

    def test_a_document_nested_too_deeply(self):
        # json.loads raises RecursionError past the interpreter's limit
        depth = 100_000
        deep_b = doc().replace('"b": [0.0, 0.0]', '"b": ' + "[" * depth + "]" * depth)
        self.check(deep_b, "document", "nested deeper than the interpreter allows")
        tau = json.dumps(BASE["schedules"]["tau"])
        nested = ('{"kind": "coupled_reciprocal", "numerator": 1.0, "other": ' * depth
                  + tau + "}" * depth)
        deep_tau = doc().replace(tau, nested)
        self.check(deep_tau, "document", "nested deeper than the interpreter allows")

    def test_unknown_top_level_key(self):
        d = json.loads(doc())
        d["extra"] = 1
        self.check(json.dumps(d), "document", "unknown key 'extra'")

    def test_missing_function(self):
        self.check(doc(functions__f=...), "functions", "missing key 'f'")

    def test_ragged_operator_rows(self):
        self.check(doc(operators__A=[[1.0, 2.0], [3.0]]), "operators.A",
                   "row 1 has length 1")

    @pytest.mark.parametrize("edit, location, fragment", [
        ({"b": [True, False]}, "b", "list of numbers"),
        ({"b": []}, "b", "vector must be nonempty"),
        ({"operators__A": []}, "operators.A", "expected a nonempty list of rows"),
        ({"functions": [1, 2]}, "functions", "expected an object, got list"),
        ({"schedules__c__value": "0.25"}, "schedules.c.value", "expected a number"),
    ], ids=["booleans", "empty-vector", "empty-matrix", "section-not-an-object",
            "scalar-not-a-number"])
    def test_a_value_of_the_wrong_type_or_size(self, edit, location, fragment):
        self.check(doc(**edit), location, fragment)

    @pytest.mark.parametrize("bad", ["1.0", None, [1.0]], ids=["string", "null", "list"])
    def test_a_matrix_row_with_a_non_number_fails_at_that_row(self, bad):
        self.check(doc(operators__A=[[1.0, 0.0], [0.0, bad]]), "operators.A[1]",
                   "expected a list of numbers")

    def test_negative_weight(self):
        self.check(doc(functions__g={"kind": "l1", "dim": 2, "weight": -1.0}),
                   "functions.g", "weight")

    @pytest.mark.parametrize("edit, location, fragment", [
        ({"functions__g": {"kind": "huber", "dim": 2}}, "functions.g",
         "unknown function kind 'huber'"),
        ({"schedules__c": {"kind": "exponential", "a": 1.0}}, "schedules.c",
         "unknown schedule kind 'exponential'"),
        ({"schedules__M2": {"kind": "diagonal"}}, "schedules.M2",
         "unknown metric kind 'diagonal'"),
        ({"functions__g": {"dim": 2}}, "functions.g", "expected an object with a 'kind' key"),
        ({"schedules__c": {"value": 0.25}}, "schedules.c",
         "expected an object with a 'kind' key"),
        ({"schedules__M1": "zero"}, "schedules.M1", "expected an object with a 'kind' key"),
        ({"schedules__tau": {"kind": "coupled_reciprocal", "numerator": 0.99}},
         "schedules.tau", "coupled_reciprocal needs 'of' or 'other'"),
        # a kind that is not a string is unknown, and is never hashed
        ({"functions__g": {"kind": ["l1"], "dim": 2}}, "functions.g",
         "unknown function kind ['l1']"),
        ({"functions__g": {"kind": {"kind": "l1"}, "dim": 2}}, "functions.g",
         "unknown function kind {'kind': 'l1'}"),
        ({"schedules__c": {"kind": ["constant"], "value": 0.25}}, "schedules.c",
         "unknown schedule kind ['constant']"),
        ({"schedules__c": {"kind": {"kind": "constant"}, "value": 0.25}}, "schedules.c",
         "unknown schedule kind {'kind': 'constant'}"),
        ({"schedules__tau": {"kind": "coupled_reciprocal", "numerator": 0.99,
                             "other": {"kind": ["constant"], "value": 1.0}}},
         "schedules.tau.other", "unknown schedule kind ['constant']"),
        ({"schedules__tau": {"kind": "coupled_reciprocal", "numerator": 0.99,
                             "other": {"kind": {}, "value": 1.0}}},
         "schedules.tau.other", "unknown schedule kind {}"),
        ({"schedules__M1": {"kind": "scaled_identity",
                            "mu": {"kind": ["constant"], "value": 0.5}}},
         "schedules.M1.mu", "unknown schedule kind ['constant']"),
        ({"schedules__M1": {"kind": "scaled_identity",
                            "mu": {"kind": {"kind": "constant"}, "value": 0.5}}},
         "schedules.M1.mu", "unknown schedule kind {'kind': 'constant'}"),
    ], ids=["function", "schedule", "metric", "kind-less-function", "kind-less-schedule",
            "kind-less-metric", "coupling-with-no-target", "list-function", "object-function",
            "list-schedule", "object-schedule", "list-other", "object-other", "list-mu",
            "object-mu"])
    def test_unknown_or_missing_kind(self, edit, location, fragment):
        self.check(doc(**edit), location, fragment)

    def test_incompatible_shapes(self):
        self.check(doc(b=[0.0, 0.0, 0.0]), "problem")

    def test_initial_dimension(self):
        self.check(doc(initial__x=[1.0]), "initial", "expected dimension 2")

    def test_solver_value(self):
        self.check(doc(solver={"max_iters": 0}), "solver", "max_iters")

    def test_solver_unknown_key(self):
        self.check(doc(solver={"iterations": 5}), "solver", "unknown key")

    def test_coupling_target_restricted(self):
        tau = {"kind": "coupled_reciprocal", "numerator": 1.0, "of": "tau"}
        self.check(doc(schedules__tau=tau), "schedules.tau.of")

    def test_coupling_takes_of_or_other_not_both(self):
        tau = {"kind": "coupled_reciprocal", "numerator": 0.99, "of": "c",
               "other": {"kind": "constant", "value": 2.0}}
        self.check(doc(schedules__tau=tau), "schedules.tau",
                   "coupled_reciprocal takes 'of' or 'other', not both")
        nested = {"kind": "coupled_reciprocal", "numerator": 0.5, "other": tau}
        self.check(doc(schedules__tau=nested), "schedules.tau.other", "not both")

    def test_prox_friendly_needs_tau(self):
        self.check(doc(schedules__tau=...), "schedules.M2", "requires a 'tau'")

    def test_prox_friendly_rejected_for_m1(self):
        self.check(doc(schedules__M1={"kind": "prox_friendly"}), "schedules.M1",
                   "only meaningful for M2")

    def test_metric_extra_key(self):
        self.check(doc(schedules__M1={"kind": "zero", "dim": 2}), "schedules.M1",
                   "unknown key 'dim'")

    @pytest.mark.parametrize("edit, location, fragment", [
        ({"functions__f__d": [math.nan, 0.0]}, "functions.f", "finite entries"),
        ({"functions__g__weight": math.nan}, "functions.g", "nonnegative and finite"),
        ({"functions__g": {"kind": "box_indicator", "lo": [math.nan, 0.0],
                           "hi": [1.0, 1.0]}}, "functions.g", "must not be NaN"),
        ({"functions__g__dim": math.inf}, "functions.g.dim", "expected a finite number"),
        ({"schedules__c__value": math.inf}, "schedules.c", "positive and finite"),
        ({"schedules__tau__numerator": math.nan}, "schedules.tau", "positive and finite"),
        ({"schedules__M1": {"kind": "constant_dense",
                            "matrix": [[1.0, 0.0], [0.0, math.nan]]}},
         "schedules.M1.matrix", "must have finite entries"),
        ({"initial__x": [math.nan, 10.0]}, "initial.x", "must have finite entries"),
        ({"initial__y": [-10.0, -math.inf]}, "initial.y", "must have finite entries"),
        ({"solver": {"tol_kkt": math.nan}}, "solver", "positive and finite"),
        ({"solver": {"tol_feas": math.inf}}, "solver", "positive and finite"),
        ({"solver": {"max_iters": math.inf}}, "solver.max_iters", "finite number"),
        ({"solver": {"record_every": math.nan}}, "solver.record_every", "finite number"),
    ], ids=["f.d", "l1-weight", "box-lo", "dim", "c-value", "tau-numerator",
            "M1-matrix", "initial.x", "initial.y", "tol_kkt", "tol_feas", "max_iters",
            "record_every"])
    def test_non_finite_numbers_are_parse_errors(self, edit, location, fragment):
        self.check(doc(**edit), location, fragment)

    @pytest.mark.parametrize("edit, location", [
        ({"solver": {"max_iters": 2.5}}, "solver.max_iters"),
        ({"solver": {"record_every": 7.9}}, "solver.record_every"),
        ({"solver": {"max_iters": -0.5}}, "solver.max_iters"),
        ({"functions__g__dim": 2.5}, "functions.g.dim"),
    ], ids=["max_iters", "record_every", "negative", "dim"])
    def test_non_integral_integers_are_parse_errors(self, edit, location):
        self.check(doc(**edit), location, "expected an integer")

    @pytest.mark.parametrize("edit, location", [
        ({"b": [0.0, 10**400]}, "b"),
        ({"initial__x": [10**400, 10.0]}, "initial.x"),
        ({"operators__A": [[10**400, 0.0], [0.0, 1.0]]}, "operators.A[0]"),
        ({"functions__f__d": [-10**400, 0.0]}, "functions.f.d"),
        ({"schedules__M1": {"kind": "constant_dense",
                            "matrix": [[1.0, 0.0], [0.0, 10**400]]}},
         "schedules.M1.matrix[1]"),
    ], ids=["b", "initial.x", "A", "f.d", "M1-matrix"])
    def test_integers_past_the_float_range_are_parse_errors(self, edit, location):
        self.check(doc(**edit), location, "number too large for a float")

    def test_an_integer_field_takes_any_int(self):
        data = parse_problem_text(doc(solver={"max_iters": 10**400}))
        assert data.config.max_iters == 10**400

    def test_integral_floats_are_integers(self):
        data = parse_problem_text(doc(solver={"max_iters": 20000.0, "record_every": 7.0},
                                      functions__g__dim=2.0))
        assert data.config.max_iters == 20000 and type(data.config.max_iters) is int
        assert data.config.record_every == 7 and type(data.config.record_every) is int
        assert data.problem.g.dim == 2

    def test_infinite_box_bounds_parse(self):
        g = {"kind": "box_indicator", "lo": [-math.inf, 0.0], "hi": [1.0, math.inf]}
        assert parse_problem_text(doc(functions__g=g)).problem.g.kind == "box_indicator"

    def test_dense_metric_shape(self):
        self.check(doc(schedules__M1={"kind": "constant_dense",
                                      "matrix": [[1.0]]}),
                   "schedules.M1", "must be 2x2")


class TestRoundTrip:
    def test_serialize_parse_is_stable(self):
        once = serialize_problem(parse_problem_text(doc()))
        twice = serialize_problem(parse_problem_text(once))
        assert once == twice
        assert once.endswith("\n")

    def test_round_trip_preserves_semantics(self):
        data = parse_problem_text(doc(solver={"max_iters": 123, "tol_kkt": 1e-9}))
        back = parse_problem_text(serialize_problem(data))
        assert back.config.max_iters == 123
        assert back.config.tol_kkt == 1e-9
        assert np.allclose(back.problem.A,
                           data.problem.A)
        assert back.sched.c.value_at(3.0) == data.sched.c.value_at(3.0)
        assert back.tau.other is back.sched.c

    def test_a_prox_friendly_m2_writes_its_own_tau(self):
        data = parse_problem_text(doc())
        no_tau = ProblemFileData(data.problem, data.sched, data.initial, data.config, None)
        text = serialize_problem(no_tau)
        assert json.loads(text)["schedules"]["tau"] == BASE["schedules"]["tau"]
        assert text == serialize_problem(data)
        back = parse_problem_text(text)
        assert back.tau.other is back.sched.c and back.tau.numerator == 0.99

    def test_all_kinds_round_trip(self):
        d = json.loads(doc())
        d["functions"]["g"] = {"kind": "box_indicator", "lo": [-1.0, -1.0],
                               "hi": [1.0, 1.0]}
        d["functions"]["f"] = {"kind": "quadratic_form",
                               "Q": [[2.0, 0.5], [0.5, 1.0]], "q": [0.1, -0.2]}
        d["schedules"] = {
            "c": {"kind": "reciprocal_quadratic", "a": 1.1, "offset": 0.01},
            "M1": {"kind": "scaled_identity",
                   "mu": {"kind": "constant", "value": 0.5}},
            "M2": {"kind": "constant_dense", "matrix": [[0.6, 0.1], [0.1, 0.8]]},
            # a nested other, two levels down to a reciprocal_sqrt
            "tau": {"kind": "coupled_reciprocal", "numerator": 0.5,
                    "other": {"kind": "coupled_reciprocal", "numerator": 2.0,
                              "other": {"kind": "reciprocal_sqrt", "a": 1.1,
                                        "offset": 0.01}}},
        }
        text = json.dumps(d)
        once = serialize_problem(parse_problem_text(text))
        assert serialize_problem(parse_problem_text(once)) == once
        written = json.loads(once)["schedules"]
        for name in ("c", "tau", "M1", "M2"):
            assert written[name] == d["schedules"][name]
        assert type(parse_problem_text(once).tau.other.other) is ReciprocalSqrt


    # One document per plain kind, every field given, in the slot it fills.
    PLAIN = {
        "quadratic_distance": ("functions__f", {"kind": "quadratic_distance",
                                                "d": [1.0, -0.5], "weight": 2.0}),
        "l1": ("functions__g", {"kind": "l1", "dim": 2, "weight": 0.5}),
        "box_indicator": ("functions__g", {"kind": "box_indicator", "lo": [-1.0, -math.inf],
                                           "hi": [1.0, 2.0]}),
        "zero": ("functions__h1", {"kind": "zero", "dim": 2}),
        "quadratic_form": ("functions__h2", {"kind": "quadratic_form",
                                             "Q": [[2.0, 0.5], [0.5, 1.0]], "q": [0.1, -0.2]}),
        "constant": ("schedules__c", {"kind": "constant", "value": 0.125}),
        "reciprocal_quadratic": ("schedules__c", {"kind": "reciprocal_quadratic", "a": 1.1,
                                                  "offset": 0.01}),
        "reciprocal_sqrt": ("schedules__c", {"kind": "reciprocal_sqrt", "a": 4.0,
                                             "offset": 0.0}),
    }

    @pytest.mark.parametrize("kind", [*_FUNCTIONS, *_SCALARS])
    def test_every_plain_kind_is_written_as_it_was_read(self, kind):
        slot, given = self.PLAIN[kind]
        once = serialize_problem(parse_problem_text(doc(**{slot: given})))
        assert _at(json.loads(once), slot.split("__")) == given
        assert serialize_problem(parse_problem_text(once)) == once


# The README's example file
README = json.loads(doc(solver={"max_iters": 20000, "tol_kkt": 1e-6, "tol_feas": 1e-6}))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _paths(node, path=()):
    """The path of every value inside ``node``, ``node`` itself excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


PATHS = list(_paths(README))
# Half the draws replace a whole section, function or schedule, and half the
# values are objects, so a kind object lands in a kind's slot often.
SLOTS = st.one_of(st.sampled_from(PATHS),
                  st.sampled_from([path for path in PATHS
                                   if isinstance(_at(README, path), dict)]))
VALUES = st.one_of(
    st.sampled_from([None, True, False, 10**400, 1e308, -1e308, 0, 2.5, "c", [], [1.0, 2.0],
                     [[1e308, -1e308], [1e308, 1.0]], [[1e308, 0.0], [0.0, 1.0]],
                     *_FUNCTIONS, *_SCALARS, "coupled_reciprocal", "scaled_identity",
                     "prox_friendly", "constant_dense"]),
    st.sampled_from([{}, {"kind": ["constant"]}, {"kind": {"kind": "zero"}},
                     {"kind": "zero", "dim": 2}, {"kind": "constant", "value": 1e308},
                     {"kind": "quadratic_form", "Q": [[1e308, 0.0], [0.0, 1.0]],
                      "q": [0.0, 0.0]},
                     {"kind": "constant_dense", "matrix": [[1e308, -1e308], [1e308, 1.0]]}]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(SLOTS, VALUES), min_size=1, max_size=3,
                unique_by=lambda edit: edit[0]))
def test_any_value_anywhere_parses_or_is_a_parse_error(edits):
    d = copy.deepcopy(README)
    for path, value in sorted(edits, key=lambda edit: -len(edit[0])):  # deepest first
        _at(d, path[:-1])[path[-1]] = copy.deepcopy(value)
    try:
        parse_problem_text(json.dumps(d))
    except ParseError:
        pass


class TestLoad:
    def test_from_file(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_text(doc(), encoding="utf-8")
        data = load_problem_file(str(path))
        assert isinstance(data, ProblemFileData)
        assert data.problem.dim_z == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_problem_file(str(tmp_path / "nope.json"))
        assert "nope.json" in err.value.location

    def test_a_file_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "prob.json"
        path.write_bytes(b"\xff\xfe" + doc().encode("utf-16-le"))
        with pytest.raises(ParseError) as err:
            load_problem_file(str(path))
        assert err.value.location == str(path)
        assert "'utf-8' codec can't decode byte 0xff" in str(err.value)
