"""The package namespace: lazy, and the same names and objects as an eager one.

``import amaflow`` loads no submodule; each public name is imported from the
module that defines it on first use and then kept in the package.
"""

import importlib
import json
import os
import subprocess
import sys

import amaflow

# The public names of the package, by the module that defines each one.
DEFINED_IN = {
    "diagnostics": ["EnergySample", "SummaryReport", "check_energy_monotone", "energy",
                    "report"],
    "discrete": ["SolveResult", "ama_run", "prox_ama_run", "prox_ama_step"],
    "dynamics": ["GammaOutput", "gamma", "integrate", "regularized_argmin",
                 "solve_x_subproblem", "solve_z_subproblem"],
    "errors": ["CapabilityError", "ConditionError", "ConvergenceError",
               "DimensionMismatchError", "ParseError"],
    "example": ["example_c_schedule", "example_problem", "example_reference",
                "example_schedule", "example_start"],
    "functions": ["BoxIndicator", "L1Norm", "QuadraticDistance", "QuadraticForm",
                  "SeparableFunction", "ZeroFunction"],
    "linop": ["DenseMap", "min_eigenvalue_sym", "operator_norm"],
    "probfile": ["ProblemFileData", "load_problem_file", "parse_problem_text",
                 "serialize_problem"],
    "problem": ["KKTResidual", "PrimalDualState", "SolveConfig", "TwoBlockProblem"],
    "schedules": ["C_VARIANTS", "TAU_C_VARIANTS", "ConstantDenseMetric", "ConstantSchedule",
                  "CoupledReciprocal",
                  "MetricSchedule", "ParameterSchedule", "ProxFriendlyMetric",
                  "ReciprocalQuadratic", "ReciprocalSqrt", "ScalarSchedule",
                  "ScaledIdentityMetric", "ValidationReport", "ZeroMetric", "default_grid",
                  "validate", "validate_corollary"],
    "trajectory": ["Trajectory", "TrajectorySample"],
}
SUBMODULES = sorted(DEFINED_IN)
PUBLIC = sorted(SUBMODULES + [n for names in DEFINED_IN.values() for n in names])


def expected(name):
    if name in DEFINED_IN:
        return importlib.import_module(f"amaflow.{name}")
    module = next(m for m, names in DEFINED_IN.items() if name in names)
    return getattr(importlib.import_module(f"amaflow.{module}"), name)


def fresh_python(script):
    """Run ``script`` in a new interpreter with this amaflow on the path; the
    JSON document it prints last."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(amaflow.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout.decode().splitlines()[-1])


def test_there_are_72_public_names():
    assert len(PUBLIC) == 72 and len(SUBMODULES) == 11


def test_every_public_name_is_its_defining_modules_object():
    for name in PUBLIC:
        assert getattr(amaflow, name) is expected(name), name
    assert amaflow.__version__ == "0.1.0"


def test_all_lists_the_public_names():
    assert sorted(amaflow.__all__) == PUBLIC


def test_star_import_binds_the_public_names():
    scope = {}
    exec("from amaflow import *", scope)
    assert sorted(n for n in scope if n != "__builtins__") == PUBLIC
    for name in PUBLIC:
        assert scope[name] is expected(name), name


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(amaflow, "no_such_name")


def test_import_loads_nothing_and_a_name_loads_its_module_once():
    out = fresh_python(
        "import json, sys\n"
        "import amaflow\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('amaflow.'))\n"
        "listed = [n for n in dir(amaflow) if not n.startswith('_')]\n"
        "first = amaflow.TwoBlockProblem\n"
        "cached = 'TwoBlockProblem' in vars(amaflow)\n"
        "same = all(getattr(amaflow, n) is getattr(amaflow, n) for n in listed)\n"
        "print(json.dumps({'loaded': loaded, 'listed': listed, 'cached': cached, 'same': same,\n"
        "                  'problem': first is sys.modules['amaflow.problem'].TwoBlockProblem,\n"
        "                  'cli': 'amaflow.cli' in sys.modules}))\n")
    assert out == {"loaded": [], "listed": PUBLIC, "cached": True, "same": True,
                   "problem": True, "cli": False}


def test_star_import_in_a_fresh_interpreter_never_imports_the_cli():
    out = fresh_python(
        "import json, sys\n"
        "from amaflow import *\n"
        "print(json.dumps({'cli': 'amaflow.cli' in sys.modules,\n"
        "                  'bound': sorted(n for n in dir() if not n.startswith('_')\n"
        "                                  and n not in ('json', 'sys'))}))\n")
    assert out == {"cli": False, "bound": PUBLIC}
