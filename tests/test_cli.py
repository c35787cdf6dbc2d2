import gc
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import amaflow
from amaflow import (
    SolveConfig,
    ama_run,
    cli,
    example_problem,
    example_reference,
    example_schedule,
    example_start,
    integrate,
    prox_ama_run,
)
from amaflow.cli import MODES, _row_format, main
from amaflow.diagnostics import trajectory_energies
from amaflow.trajectory import DIVERGED_ABOVE

from test_probfile import doc


def write(tmp_path, text, name="prob.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


# The exit code of a run by its mode and the status it ended with: 3 for a run
# that failed or diverged, else 0.
EXIT_CODES = {
    ("prox-ama", "converged"): 0,
    ("prox-ama", "max_iters"): 0,
    ("prox-ama", "diverged"): 3,
    ("prox-ama", "error"): 3,
    ("continuous-euler", "ok"): 0,
    ("continuous-euler", "diverged"): 3,
    ("continuous-euler", "error"): 3,
    ("continuous-rk4", "diverged"): 3,
    ("continuous-rk4", "error"): 3,
}


def check_outcome(rc, out, prefix, mode, status):
    """Check a run's printed status, its report's status line and its exit code
    against :data:`EXIT_CODES`; returns the report."""
    report = prefix.with_name(prefix.name + ".report.txt").read_text()
    assert out.splitlines()[0] == f"status: {status}"
    assert report.splitlines()[0] == f"status: {status}"
    assert rc == EXIT_CODES[mode, status]
    return report


# tau = 2/(1e-300/c) at c = 1e30: the inner value underflows to 0.
HUGE_C = {"schedules__c": {"kind": "constant", "value": 1e30},
          "schedules__tau": {"kind": "coupled_reciprocal", "numerator": 2.0,
                             "other": {"kind": "coupled_reciprocal", "numerator": 1e-300,
                                       "of": "c"}}}

# h2 = (1/2)<z, Qz> with L2 = 1e308: Q + Q.T is past the float range.
HUGE_H2 = {"functions__h2": {"kind": "quadratic_form", "Q": [[1e308, 0.0], [0.0, 1.0]],
                             "q": [0.0, 0.0]}}


class TestValidate:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("edit, line", [
        ({}, "c-range passed=true"),
        # a + a.T overflows, where 0.5 a + 0.5 a.T does not
        ({"schedules__M2": {"kind": "constant_dense", "matrix": [[1e308, 0.0], [0.0, 1.0]]}},
         "m2-lower-bound passed=true witness=1 threshold=0"),
    ], ids=["example", "dense-m2-near-the-float-range"])
    def test_passing_file(self, edit, line, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, doc(**edit))])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode: theorem-constant-c" in out
        assert "passed: true" in out
        assert f"check: rule={line}" in out

    def test_failure_names_the_rule(self, tmp_path, capsys):
        bad = doc(schedules__c={"kind": "constant", "value": 3.0})
        rc = main(["validate", write(tmp_path, bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "passed: false" in out
        assert "rule=c-range passed=false" in out

    @pytest.mark.parametrize("edit", [
        HUGE_C, {"schedules__c": {"kind": "reciprocal_quadratic", "a": 1e300}},
    ], ids=["tau-underflowing-denominator", "c-square-underflows"])
    def test_a_schedule_past_the_float_range_is_a_failed_check(self, edit, tmp_path, capsys):
        # tau = 2/(1e-300/c) at c = 1e30 divides by an inner value that
        # underflows to 0: tau is inf. tau = 0.99/c with c = 1/(t^2 + 1e300)
        # has a derivative whose c^2 underflows: it reads 0, not NaN. The
        # only warnings are numpy's on the true overflows of 1e300^2.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["validate", write(tmp_path, doc(**edit))])
        out = capsys.readouterr().out
        assert rc == 1
        assert "check: rule=c-range passed=false" in out
        assert "witness=nan" not in out
        assert all(str(w.message).startswith("overflow") for w in caught)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_decaying_c_whose_square_underflows_is_decreasing(self, tmp_path, capsys):
        # c = 1/(t^2 + 1e-200): (t^2 + a)^2 underflows to 0 at t = 0, where
        # c' is 0, not 0/0; c is past its range there, and decreasing.
        edit = {"schedules__c": {"kind": "reciprocal_quadratic", "a": 1e-200, "offset": 0}}
        rc = main(["validate", write(tmp_path, doc(**edit))])
        out = capsys.readouterr().out
        assert rc == 1
        assert "witness=nan" not in out
        assert "check: rule=c-range passed=false" in out
        for rule in ("c-decreasing", "c-lipschitz", "m2-derivative-bounded"):
            assert f"check: rule={rule} passed=true" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_infinite_tau_with_l2_zero_has_finite_corollary_witnesses(self, tmp_path,
                                                                        capsys):
        # tau L2 / 4 is 0 where L2 = 0, not inf * 0 = NaN.
        rc = main(["validate", write(tmp_path, doc(**HUGE_C)), "--corollary"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert "check: rule=coupling-inequality passed=false witness=inf threshold=0" in out
        assert "check: rule=convergence-condition passed=false witness=0 threshold=1e-10" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_tau_l2_past_the_float_range_fails_the_coupling(self, tmp_path, capsys):
        # tau L2 / 4 = 3.96e308 / 4 is inf, and so is the coupling excess.
        rc = main(["validate", write(tmp_path, doc(**HUGE_H2)), "--corollary"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert "check: rule=coupling-inequality passed=false witness=inf threshold=0" in out
        assert "check: rule=convergence-condition passed=false witness=0 threshold=1e-10" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c, tau, args, lines", [
        # c = 1/(t^2 + 1e-4) is 0 at t = 1e200, so tau = 0.99/c is inf there:
        # tau' is read as rising (c' = 0), not 0/0, and c tau ||B||^2 is
        # 0.99 ||B||^2, not 0 * inf.
        ({"kind": "reciprocal_quadratic", "a": 1e-4, "offset": 0}, None,
         ["--corollary", "--grid", "0,1e200"],
         ["tau-increasing passed=true", "coupling-inequality passed=true",
          "convergence-condition passed=true"]),
        # c = 1/sqrt(t + 1e-300): c'(0) is -inf, and tau = 0.99/c makes
        # M2' = c' (Id/0.99 - B*B): unbounded, and the derivative coupling
        # c' (1/0.99 - ||B||^2) holds, neither read as inf - inf or inf * 0.
        ({"kind": "reciprocal_sqrt", "a": 1e-300, "offset": 0}, None, [],
         ["m2-derivative-bounded passed=false witness=inf threshold=inf"]),
        ({"kind": "reciprocal_sqrt", "a": 1e-300, "offset": 0}, None, ["--corollary"],
         ["derivative-coupling passed=true witness=-5.0505050505050685e-09 threshold=0"]),
        # tau = 2/(1e-300/c) = 2e300 c with c = 1/(t^2 + 1): tau' is 2e300 c',
        # not inf/inf where the inner value is inf at t = 1e200.
        ({"kind": "reciprocal_quadratic", "a": 1.0, "offset": 0},
         {"kind": "coupled_reciprocal", "numerator": 2.0,
          "other": {"kind": "coupled_reciprocal", "numerator": 1e-300, "of": "c"}},
         ["--corollary", "--grid", "0,1e200"],
         ["tau-increasing passed=true witness=-0 threshold=0"]),
        # tau = 3/(2/c) = 1.5 c with c = 1/(t^2 + 1e-200): c tau ||B||^2 is past
        # the float range at t = 0, and reads inf.
        ({"kind": "reciprocal_quadratic", "a": 1e-200, "offset": 0},
         {"kind": "coupled_reciprocal", "numerator": 3.0,
          "other": {"kind": "coupled_reciprocal", "numerator": 2.0, "of": "c"}},
         ["--corollary"], ["coupling-inequality passed=false witness=inf threshold=0"]),
        # tau = 0.5/o, o = 1/sqrt(t + 1e-300) + 1: c' and tau'/tau^2 are both
        # past the float range at t = 0, so the derivative coupling is
        # unbounded there, not inf - inf.
        ({"kind": "reciprocal_sqrt", "a": 1e-300, "offset": 0},
         {"kind": "coupled_reciprocal", "numerator": 0.5,
          "other": {"kind": "reciprocal_sqrt", "a": 1e-300, "offset": 1}},
         ["--corollary"], ["derivative-coupling passed=false witness=inf threshold=0"]),
    ], ids=["c-underflows", "c-derivative-overflows", "c-derivative-overflows-corollary",
            "nested-tau-over-an-underflowed-c", "c-tau-overflows",
            "c-and-tau-derivatives-overflow"])
    def test_a_tau_over_a_c_past_the_float_range_has_no_nan_witness(
            self, c, tau, args, lines, tmp_path, capsys):
        edit = {"schedules__c": c} if tau is None else {"schedules__c": c, "schedules__tau": tau}
        rc = main(["validate", write(tmp_path, doc(**edit)), *args])
        out = capsys.readouterr().out
        assert rc == 1
        assert "witness=nan" not in out
        assert "check: rule=c-range passed=false" in out
        for line in lines:
            assert f"check: rule={line}" in out

    def test_corollary_mode(self, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, doc()), "--corollary"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode: corollary-prox-friendly" in out
        assert "rule=coupling-inequality passed=true" in out

    def test_corollary_needs_tau(self, tmp_path, capsys):
        no_tau = doc(schedules__tau=..., schedules__M2={"kind": "zero"})
        rc = main(["validate", write(tmp_path, no_tau), "--corollary"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "tau" in err

    def test_explicit_grid(self, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, doc()), "--grid", "0,1,2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "grid-points: 3" in out

    @pytest.mark.parametrize("edit, message", [
        ({"functions__h1": {"kind": "zero", "dim": 3}},
         "x block (h1): expected dimension 2, got 3"),
        ({"functions__h2": {"kind": "zero", "dim": 3}},
         "z block (h2): expected dimension 2, got 3"),
        ({"operators__B": [[-0.6, 0.0], [0.8, 0.0], [0.0, 1.0]]},
         "constraint rows (B): expected dimension 2, got 3"),
        ({"functions__h1": {"kind": "zero", "dim": 10**400}},
         f"x block (h1): expected dimension 2, got {10**400}"),
        ({"b": [0.0, 0.0, 0.0]}, "constraint rows: expected dimension 3, got 2"),
    ], ids=["h1", "h2", "B-rows", "h1-huge", "b"])
    def test_mismatched_sizes_are_named(self, edit, message, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["solve", write(tmp_path, doc(**edit))])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"parse error: problem: {message}\n"
        assert captured.out == "" and not list(tmp_path.glob("*.csv"))

    def test_parse_error_exit_code(self, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, "{broken")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "parse error" in err

    @pytest.mark.parametrize("metric", ["M1", "M2"])
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_asymmetric_dense_metric_is_a_parse_error(self, metric, command, tmp_path,
                                                      capsys):
        bad = doc(**{f"schedules__{metric}": {"kind": "constant_dense",
                                              "matrix": [[0.6, 0.3], [0.1, 0.4]]}})
        args = [command, write(tmp_path, bad)]
        if command == "solve":
            args += ["--out-prefix", str(tmp_path / "out")]
        rc = main(args)
        err = capsys.readouterr().err
        assert rc == 2
        assert f"parse error: schedules.{metric}: map is not symmetric" in err

    def test_bad_grid_argument(self, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, doc()), "--grid", "0,oops"])
        assert rc == 1
        assert "grid" in capsys.readouterr().err

    def test_an_empty_grid_argument(self, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, doc()), "--grid", ","])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: grid argument is empty\n")

    @pytest.mark.parametrize("grid", ["0,1,nan,2", "0,inf"])
    def test_non_finite_grid_is_refused(self, grid, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, doc()), "--grid", grid])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("error: time grid must be finite, nonnegative and "
                                "strictly increasing\n")
        assert captured.out == ""


class TestNorm:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("edit", [{}, HUGE_H2],
                             ids=["example", "h2-form-near-the-float-range"])
    def test_example_norms(self, edit, tmp_path, capsys):
        rc = main(["norm", write(tmp_path, doc(**edit))])
        out = capsys.readouterr().out.strip().split("\n")
        assert rc == 0
        assert out[0].startswith("A ")
        assert out[1].startswith("B ")
        assert float(out[0][2:]) == pytest.approx(1.0, abs=1e-9)
        assert float(out[1][2:]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("edit", [
        {"operators__A": [[math.inf, 0.35], [-0.7, 0.35]]},
        {"operators__B": [[-0.6, 0.0], [math.nan, 0.0]]},
        {"b": [0.0, math.nan]},
    ], ids=["A", "B", "b"])
    @pytest.mark.parametrize("command", ["norm", "validate", "solve"])
    def test_non_finite_data_is_a_parse_error(self, edit, command, tmp_path, capsys):
        name = next(iter(edit)).split("__")[-1]
        args = [command, write(tmp_path, doc(**edit))]
        if command == "solve":
            args += ["--out-prefix", str(tmp_path / "out")]
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == 2
        assert f"parse error: problem: {name} must have finite entries" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("edit, message", [
        ({"b": [0.0, 10**400]}, "b: number too large for a float"),
        ({"operators__A": [[10**400, 0.35], [-0.7, 0.35]]},
         "operators.A[0]: number too large for a float"),
        ({"functions__f__d": [math.nan, 0.0]},
         "functions.f: anchor d must be a vector with finite entries"),
        ({"schedules__c__value": math.inf},
         "schedules.c: schedule value must be positive and finite, got inf"),
        ({"initial__x": [math.nan, 10.0]}, "initial.x: must have finite entries"),
        ({"solver": {"tol_kkt": math.nan}},
         "solver: tolerances must be positive and finite"),
        ({"schedules__c": {"kind": ["constant"], "value": 0.25}},
         "schedules.c: unknown schedule kind ['constant']"),
    ], ids=["big-b", "big-A", "f.d", "c-value", "initial.x", "tol_kkt", "list-kind"])
    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_numbers_are_parse_errors(self, edit, message, command, tmp_path,
                                                 capsys):
        args = [command, write(tmp_path, doc(**edit))]
        if command == "solve":
            args += ["--out-prefix", str(tmp_path / "out")]
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"parse error: {message}\n"
        assert captured.out == ""
        assert not (tmp_path / "out.csv").exists()


class TestSolve:
    def test_discrete_run_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["solve", write(tmp_path, doc()), "--record-every", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: converged" in out
        header, rows = read_csv(tmp_path / "prob-prox-ama.csv")
        assert header == ["k", "x0", "x1", "z0", "z1", "y0", "y1",
                          "feas_residual", "kkt_rx", "kkt_rz"]
        assert len(rows) > 2
        assert all(len(r) == len(header) for r in rows)
        assert rows[0][0] == "0"
        report = (tmp_path / "prob-prox-ama.report.txt").read_text()
        assert "status: converged" in report
        assert "kind: discrete" in report

    def test_unit_step_euler_matches_discrete_solver_exactly(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        f = write(tmp_path, doc())
        assert main(["solve", f, "--mode", "continuous-euler", "--step", "1.0",
                     "--horizon", "30", "--record-every", "1",
                     "--out-prefix", "cont"]) == 0
        assert main(["solve", f, "--mode", "prox-ama", "--max-iters", "30",
                     "--tol", "1e-15", "--record-every", "1",
                     "--out-prefix", "disc"]) == 0
        capsys.readouterr()
        h1, rows1 = read_csv(tmp_path / "cont.csv")
        h2, rows2 = read_csv(tmp_path / "disc.csv")
        assert h1[0] == "t" and h2[0] == "k"
        assert len(rows1) == len(rows2) == 31
        for r1, r2 in zip(rows1, rows2):
            # state columns are required to agree to the last bit
            assert r1[1:7] == r2[1:7]

    def test_validation_gate_blocks_bad_schedules(self, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        bad = doc(schedules__c={"kind": "constant", "value": 3.0})
        rc = main(["solve", write(tmp_path, bad)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "c-range" in err
        assert "--force" in err
        assert not (tmp_path / "prob-prox-ama.csv").exists()

    def test_force_runs_and_flags_the_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        bad = doc(schedules__c={"kind": "constant", "value": 3.0})
        rc = main(["solve", write(tmp_path, bad), "--force", "--max-iters", "50"])
        capsys.readouterr()
        assert rc == 0
        report = (tmp_path / "prob-prox-ama.report.txt").read_text()
        assert "warning: schedule validation failed; run was forced" in report

    @pytest.mark.parametrize("mode", ["prox-ama", "continuous-euler", "continuous-rk4"])
    def test_forced_ill_posed_solve_exits_3(self, mode, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        no_metric = doc(schedules__tau=..., schedules__M2={"kind": "zero"})
        rc = main(["solve", write(tmp_path, no_metric), "--force", "--mode", mode])
        report = check_outcome(rc, capsys.readouterr().out, tmp_path / f"prob-{mode}",
                               mode, "error")
        if mode != "prox-ama":
            assert "aborted" in report

    def test_an_infinite_tau_is_refused_and_diverges_when_forced(self, tmp_path,
                                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = write(tmp_path, doc(**HUGE_C))
        rc = main(["solve", path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.endswith("rerun with --force to solve anyway\n")
        assert not list(tmp_path.glob("*.csv"))
        rc = main(["solve", path, "--force", "--max-iters", "5"])
        report = check_outcome(rc, capsys.readouterr().out, tmp_path / "prob-prox-ama",
                               "prox-ama", "diverged")
        assert "message: residual NaN or past 1e+150 at iteration 1" in report

    @pytest.mark.parametrize("c, max_iters, status", [
        (50.0, "300", "diverged"), (0.25, "300", "converged"), (0.25, "5", "max_iters"),
        (1e-163, "50", "diverged"),
    ])
    def test_forced_diverging_solve_exits_3(self, c, max_iters, status, tmp_path,
                                            monkeypatch, capsys):
        # c = 1e-163: c(t)^2 underflows to 0 and tau = 0.99/c is past 1e160;
        # validation reads it without dividing by zero, and the first step's
        # feasibility residual is past the divergence bound.
        monkeypatch.chdir(tmp_path)
        run = doc(schedules__c={"kind": "constant", "value": c})
        rc = main(["solve", write(tmp_path, run), "--force", "--max-iters", max_iters])
        report = check_outcome(rc, capsys.readouterr().out, tmp_path / "prob-prox-ama",
                               "prox-ama", status)
        if status != "diverged":
            return
        stop = 138 if c == 50.0 else 1
        assert f"message: residual NaN or past 1e+150 at iteration {stop}" in report
        _, rows = read_csv(tmp_path / "prob-prox-ama.csv")
        assert not max(map(float, rows[-1][7:9])) <= DIVERGED_ABOVE
        assert int(float(rows[-1][0])) == stop

    @pytest.mark.parametrize("c, status", [(50.0, "diverged"), (0.25, "ok")])
    def test_forced_diverging_integration_exits_3(self, c, status, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        run = doc(schedules__c={"kind": "constant", "value": c})
        rc = main(["solve", write(tmp_path, run), "--force", "--mode",
                   "continuous-euler", "--step", "1", "--horizon", "3000",
                   "--record-every", "10"])
        report = check_outcome(rc, capsys.readouterr().out,
                               tmp_path / "prob-continuous-euler", "continuous-euler", status)
        _, rows = read_csv(tmp_path / "prob-continuous-euler.csv")
        if status != "diverged":
            assert float(rows[-1][0]) == 3000.0
            return
        assert "message: integration diverged at t=140: residual NaN or past 1e+150" in report
        assert not max(map(float, rows[-1][7:9])) <= DIVERGED_ABOVE
        assert all(float(v) <= DIVERGED_ABOVE for row in rows[:-1] for v in row[7:9])
        assert all(v not in ("inf", "nan") for row in rows[:-1] for v in row[7:])
        assert float(rows[-1][0]) == 140.0

    def test_forced_diverging_rk4_integration_reports_diverged(self, tmp_path,
                                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        huge_c = doc(schedules__c={"kind": "constant", "value": 50.0})
        rc = main(["solve", write(tmp_path, huge_c), "--force", "--mode",
                   "continuous-rk4", "--step", "1", "--horizon", "3000",
                   "--record-every", "10"])
        report = check_outcome(rc, capsys.readouterr().out,
                               tmp_path / "prob-continuous-rk4", "continuous-rk4",
                               "diverged")
        assert "kind: continuous" in report
        assert "residual NaN or past 1e+150" in report

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    @pytest.mark.parametrize("mode", ["continuous-euler", "continuous-rk4"])
    def test_non_finite_horizon_is_refused(self, mode, horizon, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["solve", write(tmp_path, doc()), "--mode", mode, "--step", "0.5",
                   "--horizon", horizon, "--out-prefix", "out"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: horizon must be finite, got {horizon}\n"
        assert captured.out == ""
        assert not (tmp_path / "out.csv").exists()

    def test_ama_needs_zero_couplings(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        smooth_h1 = doc(
            functions__h1={"kind": "quadratic_distance", "d": [0.0, 0.0],
                           "weight": 1.0})
        rc = main(["solve", write(tmp_path, smooth_h1), "--mode", "ama",
                   "--force"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "h1 = h2 = 0" in err


class TestPaperExample:
    def test_default_run_converges_to_the_known_point(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["paper-example", "--record-every", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status: converged" in out
        header, rows = read_csv(tmp_path / "example-c025-tc099-prox-ama.csv")
        assert header[-1] == "energy"
        last = [float(v) for v in rows[-1]]
        x = last[1:3]
        z = last[3:5]
        y = last[5:7]
        assert np.linalg.norm(x) <= 1e-3
        assert np.linalg.norm(z) <= 1e-3
        assert abs(abs(y[0]) - 0.7071) <= 2e-3
        assert abs(abs(y[1]) - 0.7071) <= 2e-3
        energies = [float(r[-1]) for r in rows]
        assert energies[-1] < energies[0]

    def test_continuous_mode(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["paper-example", "--mode", "continuous-rk4", "--horizon", "5",
                   "--record-every", "10", "--out-prefix", "flow"])
        capsys.readouterr()
        assert rc == 0
        header, rows = read_csv(tmp_path / "flow.csv")
        assert header[0] == "t"
        assert header[-1] == "energy"
        report = (tmp_path / "flow.report.txt").read_text()
        assert "kind: continuous" in report
        assert "energy_monotone: true" in report

    @pytest.mark.parametrize("mode", MODES)
    def test_energy_column_is_the_runs_trajectory_energies(self, mode, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        own = (["--max-iters", "60", "--tol", "1e-300"] if mode in ("prox-ama", "ama")
               else ["--step", "0.5", "--horizon", "30"])
        assert main(["paper-example", "--mode", mode, *own, "--record-every", "7",
                     "--out-prefix", "run"]) == 0
        capsys.readouterr()
        header, rows = read_csv(tmp_path / "run.csv")
        assert header[-1] == "energy" and len(rows) > 2
        written = np.array([float(r[-1]) for r in rows])

        p, ref, s0 = example_problem(), example_reference(), example_start()
        sched = example_schedule("c025", 0.99, p)
        if mode in ("prox-ama", "ama"):
            cfg = SolveConfig(max_iters=60, tol_kkt=1e-300, tol_feas=1e-300, record_every=7)
            run = prox_ama_run(p, sched, s0, cfg) if mode == "prox-ama" else \
                ama_run(p, sched.c, s0, cfg)
            traj = run.iterates
        else:
            traj = integrate(p, sched, s0, method=mode.removeprefix("continuous-"), h=0.5,
                             T=30.0, record_every=7)
        assert written.tobytes() == np.array(trajectory_energies(traj, p, sched, ref)).tobytes()

    def test_variant_flags(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = main(["paper-example", "--c-schedule", "c199", "--tau-c", "tc025",
                   "--max-iters", "4000"])
        capsys.readouterr()
        assert rc == 0
        assert (tmp_path / "example-c199-tc025-prox-ama.csv").exists()

    def test_deterministic_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        args = ["paper-example", "--max-iters", "50", "--tol", "1e-12"]
        assert main(args + ["--out-prefix", "one"]) == 0
        assert main(args + ["--out-prefix", "two"]) == 0
        capsys.readouterr()
        assert (tmp_path / "one.csv").read_bytes() == \
            (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.report.txt").read_bytes() == \
            (tmp_path / "two.report.txt").read_bytes()


class TestCsvRows:
    def test_row_format_writes_the_bytes_of_the_f_string(self):
        values = (-0.0, 5.0, 1e-300, 2.0**53 + 1, math.inf, -math.inf, math.nan,
                  np.float64(0.1), np.float64(-3.5e17), np.float64(-0.0), 1.0 / 3.0,
                  5e-324, 1.7976931348623157e308, 123456789012345678.0)
        expected = ",".join(f"{v:.17g}" for v in values) + "\n"
        assert _row_format(len(values)) % values == expected
        for v in values:
            assert _row_format(1) % (v,) == f"{v:.17g}\n"


class TestRunOptions:
    """A mode takes only the run options it reads. The refusal comes before
    the problem file is read, and it writes nothing."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("command", ["solve", "paper-example"])
    def test_a_foreign_option_is_refused(self, command, mode, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(tmp_path)
        # a file that does not exist: reading it would be a parse error, exit 2
        head = [command] + ([str(tmp_path / "missing.json")] if command == "solve" else [])
        if mode in ("prox-ama", "ama"):
            own = ["--max-iters", "40", "--tol", "1e-9"]
            foreign = [("--step", "5"), ("--horizon", "-3")]
        else:
            own = ["--step", "0.5", "--horizon", "40"]
            foreign = [("--max-iters", "0"), ("--tol", "1e-9")]
        for flag, value in foreign:
            assert main(head + ["--mode", mode, *own, flag, value]) == 1
            assert capsys.readouterr() == ("", f"error: {flag} does not apply to --mode {mode}\n")
        # every foreign option at once, the last first: the first in the order
        # step, horizon, max-iters, tol is named
        given = [tok for pair in reversed(foreign) for tok in pair]
        assert main(head + ["--mode", mode, *given, *own]) == 1
        assert capsys.readouterr().err == \
            f"error: {foreign[0][0]} does not apply to --mode {mode}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_continuous_mode_ignores_the_files_solver_block(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.chdir(tmp_path)
        f = write(tmp_path, doc(solver={"max_iters": 1, "tol_kkt": 1e-300}))
        assert main(["solve", f, "--mode", "continuous-euler", "--step", "1",
                     "--horizon", "20", "--out-prefix", "run"]) == 0
        capsys.readouterr()
        assert len(read_csv(tmp_path / "run.csv")[1]) == 21


# The namespace of each subcommand with no option given, FILE "f" where it takes
# one: the attributes main and the cmd_* handlers read.
RUN_DEFAULTS = {"mode": "prox-ama", "step": None, "horizon": None, "max_iters": None,
                "tol": None, "record_every": None, "out_prefix": None}
DEFAULT_NAMESPACES = {
    "validate": {"command": "validate", "func": cli.cmd_validate, "file": "f",
                 "eps": 0.005, "grid": None, "corollary": False},
    "solve": {"command": "solve", "func": cli.cmd_solve, "file": "f", **RUN_DEFAULTS,
              "eps": 0.005, "force": False},
    "paper-example": {"command": "paper-example", "func": cli.cmd_paper_example,
                      "c_schedule": "c025", "tau_c": "tc099", **RUN_DEFAULTS},
    "norm": {"command": "norm", "func": cli.cmd_norm, "file": "f"},
}


def parse(*argv):
    return vars(cli.build_parser().parse_args(list(argv)))


class TestArgv:
    """The command line as argparse read it: each form these commands take,
    and a usage error or help as a ``SystemExit``."""

    @pytest.mark.parametrize("command", sorted(DEFAULT_NAMESPACES))
    def test_the_defaults(self, command):
        head = [command] + (["f"] if "file" in DEFAULT_NAMESPACES[command] else [])
        assert parse(*head) == DEFAULT_NAMESPACES[command]

    @pytest.mark.parametrize("head, flag, value, dest", [
        (["validate", "f"], "--eps", "1e-3", 1e-3),
        (["validate", "f"], "--grid", "0,1", "0,1"),
        (["solve", "f"], "--mode", "ama", "ama"),
        (["solve", "f"], "--max-iters", "7", 7),
        (["paper-example"], "--horizon", "-3", -3.0),
        (["paper-example"], "--out-prefix", "run", "run"),
    ])
    def test_a_value_follows_the_option_or_an_equals_sign(self, head, flag, value, dest):
        spaced = parse(*head, flag, value)
        assert spaced == parse(*head, f"{flag}={value}")
        assert spaced[flag[2:].replace("-", "_")] == dest

    @pytest.mark.parametrize("command", ["solve", "paper-example"])
    def test_an_empty_out_prefix_after_an_equals_sign_is_refused(self, command, tmp_path,
                                                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        head = [command] + (["missing.json"] if command == "solve" else [])
        assert parse(*head, "--out-prefix=")["out_prefix"] == ""
        assert main(head + ["--out-prefix="]) == 1
        assert capsys.readouterr() == ("", "error: --out-prefix must not be empty\n")

    def test_a_negative_value_reaches_the_run_option_check(self, capsys):
        assert main(["paper-example", "--horizon", "-3"]) == 1
        assert capsys.readouterr() == ("", "error: --horizon does not apply to --mode "
                                           "prox-ama\n")

    @pytest.mark.parametrize("head, flag, value, dest", [
        (["paper-example"], "--horizon", "-1e3", -1e3),
        (["paper-example"], "--horizon", "-.5e-2", -5e-3),
        (["paper-example"], "--horizon", "-inf", -math.inf),
        (["validate", "f"], "--grid", "-1,2", "-1,2"),
        (["validate", "f"], "--grid", "-1e-3,-2.5,3", "-1e-3,-2.5,3"),
        (["validate", "f"], "--eps", "-1E3", -1e3),
    ])
    def test_any_number_after_a_space_is_a_value(self, head, flag, value, dest):
        spaced = parse(*head, flag, value)
        assert spaced == parse(*head, f"{flag}={value}")
        assert spaced[flag[2:]] == dest

    @pytest.mark.parametrize("argv, error", [
        (["paper-example", "--mode", "continuous-euler", "--horizon", "-1e3"],
         "error: horizon -1000.0 shorter than one step 0.01"),
        (["validate", "FILE", "--grid", "-1,2"],
         "error: time grid must be finite, nonnegative and strictly increasing"),
    ])
    def test_a_negative_number_reaches_its_check(self, argv, error, tmp_path, capsys):
        argv = [write(tmp_path, doc()) if tok == "FILE" else tok for tok in argv]
        for form in (argv, argv[:-2] + [f"{argv[-2]}={argv[-1]}"]):
            assert main(form) == 1
            assert capsys.readouterr() == ("", error + "\n")

    def test_file_goes_before_or_after_the_options(self):
        options = ["--mode", "ama", "--force", "--eps", "0.1"]
        assert parse("solve", "f", *options) == parse("solve", *options, "f") \
            == parse("solve", "--mode", "ama", "f", "--force", "--eps", "0.1") \
            == dict(DEFAULT_NAMESPACES["solve"], mode="ama", force=True, eps=0.1)

    def test_a_token_after_a_double_dash_is_the_file(self):
        assert parse("validate", "--eps", "0.1", "--", "-f") == \
            dict(DEFAULT_NAMESPACES["validate"], eps=0.1, file="-f")

    def test_a_unique_prefix_names_its_option(self):
        assert parse("paper-example", "--c-sch", "c199", "--tau=tc025") == \
            dict(DEFAULT_NAMESPACES["paper-example"], c_schedule="c199", tau_c="tc025")

    def test_the_last_of_a_repeated_option_wins(self):
        assert parse("paper-example", "--max-iters", "3", "--max-iters=5")["max_iters"] == 5
        assert parse("validate", "f", "--corollary", "--corollary")["corollary"] is True

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"],
                                      *([command, "-h"] for command in DEFAULT_NAMESPACES),
                                      *([command, "--help"] for command in DEFAULT_NAMESPACES)],
                             ids="_".join)
    def test_help_lists_the_options_and_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.err == ""
        assert captured.out.startswith("usage: amaflow")
        names = (DEFAULT_NAMESPACES if len(argv) == 1 else
                 [f"--{key.replace('_', '-')}" for key in DEFAULT_NAMESPACES[argv[0]]
                  if key not in ("command", "func", "file")])
        assert all(name in captured.out for name in names)

    @pytest.mark.parametrize("argv, error", [
        ([], "amaflow: error: the following arguments are required: command"),
        (["bogus"], "amaflow: error: argument command: invalid choice: 'bogus' "
                    "(choose from 'validate', 'solve', 'paper-example', 'norm')"),
        (["norm", "f", "--bogus"], "amaflow norm: error: unrecognized arguments: --bogus"),
        (["paper-example", "--t", "1"],
         "amaflow paper-example: error: ambiguous option: --t could match --tau-c, --tol"),
        (["solve", "f", "--max-iters"],
         "amaflow solve: error: argument --max-iters: expected one argument"),
        (["validate"], "amaflow validate: error: the following arguments are required: FILE"),
        (["norm", "f", "g"], "amaflow norm: error: unrecognized arguments: g"),
        (["solve", "f", "--max-iters", "2.5"],
         "amaflow solve: error: argument --max-iters: invalid int value: '2.5'"),
        (["validate", "f", "--eps", "x"],
         "amaflow validate: error: argument --eps: invalid float value: 'x'"),
        (["paper-example", "--mode", "bogus"],
         "amaflow paper-example: error: argument --mode: invalid choice: 'bogus' (choose "
         "from 'continuous-euler', 'continuous-rk4', 'prox-ama', 'ama')"),
        (["solve", "f", "--force=1"],
         "amaflow solve: error: argument --force: ignored explicit argument '1'"),
        (["paper-example", "--horizon", "--tol", "1"],
         "amaflow paper-example: error: argument --horizon: expected one argument"),
        (["paper-example", "--horizon", "-h"],
         "amaflow paper-example: error: argument --horizon: expected one argument"),
        (["validate", "f", "--grid", "-1,x"],
         "amaflow validate: error: argument --grid: expected one argument"),
    ], ids=["no-command", "unknown-command", "unknown-option", "ambiguous-prefix",
            "missing-value", "missing-file", "extra-positional", "int", "float", "choice",
            "flag-value", "option-after-option", "help-after-option", "not-numbers"])
    def test_a_usage_error_prints_the_usage_and_exits_2(self, argv, error, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        usage, message = captured.err.splitlines()
        assert usage.startswith("usage: amaflow")
        assert message == error


class TestFileErrors:
    @pytest.mark.parametrize("command", ["solve", "paper-example"])
    def test_an_output_that_cannot_be_written_is_an_error_line(self, command, tmp_path,
                                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        head = [command] + ([write(tmp_path, doc())] if command == "solve" else [])
        prefix = tmp_path / "missing" / "run"
        assert main(head + ["--max-iters", "5", "--out-prefix", str(prefix)]) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: '{prefix}.csv'\n")

    @pytest.mark.parametrize("command", ["solve", "paper-example"])
    @pytest.mark.parametrize("blocked", [".csv", ".report.txt"])
    def test_a_failed_write_leaves_neither_file(self, command, blocked, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        head = [command] + ([write(tmp_path, doc())] if command == "solve" else [])
        (tmp_path / f"run{blocked}").mkdir()
        assert main(head + ["--max-iters", "5", "--out-prefix", "run"]) == 1
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: 'run{blocked}'\n")
        assert not (tmp_path / "run.csv").is_file()
        assert not (tmp_path / "run.report.txt").is_file()
        assert (tmp_path / f"run{blocked}").is_dir()

    @pytest.mark.parametrize("command", ["solve", "paper-example"])
    def test_an_empty_out_prefix_is_refused_before_the_file_is_read(self, command, tmp_path,
                                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        head = [command] + (["missing.json"] if command == "solve" else [])
        assert main(head + ["--out-prefix", ""]) == 1
        assert capsys.readouterr() == ("", "error: --out-prefix must not be empty\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "solve", "norm"])
    def test_a_file_that_is_not_utf8_is_a_parse_error(self, command, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "prob.json"
        path.write_bytes(b"\xff\xfe" + doc().encode("utf-16-le"))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"parse error: {path}: 'utf-8' codec can't "
                                           "decode byte 0xff in position 0: invalid start byte\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["prob.json"]


# One case per exit code: the problem-file edit and the arguments after the file.
ENTRY_CASES = {
    0: ({}, ["solve", "--max-iters", "60", "--out-prefix", "out"]),
    1: ({"schedules__c": {"kind": "constant", "value": 3.0}}, ["validate"]),
    2: (None, ["norm"]),
    3: ({"schedules__c": {"kind": "constant", "value": 50.0}},
        ["solve", "--force", "--max-iters", "300", "--out-prefix", "out"]),
}


def _run_process(args, cwd, extra_env=None, stdout=subprocess.PIPE):
    """``python ARGS`` in ``cwd`` with this amaflow on the path, stderr and,
    unless ``stdout`` is given, stdout captured. A variable that ``extra_env``
    sets to None is removed."""
    env = {key: value for key, value in dict(os.environ, **(extra_env or {})).items()
           if value is not None}
    src = os.path.dirname(os.path.dirname(os.path.abspath(amaflow.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


def _exits_in_process(monkeypatch, calls):
    """Record the entry's atexit run and its ``os._exit(code)`` in ``calls``
    instead of making them, so the entry returns to the test."""
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: calls.append("exitfuncs"))
    monkeypatch.setattr(cli.os, "_exit", lambda code: calls.append(("_exit", code)))


# Run the module as ``python -m`` does (runpy.run_module with alter_sys), with
# the process's exit code printed by a wrapped os._exit; an exception out of
# main never reaches it.
RUN_MODULE = ("import os, runpy, sys\n"
              "_exit = os._exit\n"
              "def reported_exit(code):\n"
              "    print('exit', code, *report(), flush=True)\n"
              "    _exit(code)\n"
              "os._exit = reported_exit\n"
              "sys.argv = ['amaflow', *sys.argv[1:]]\n"
              "runpy.run_module('amaflow.cli', run_name='__main__', alter_sys=True)\n")


class TestEntry:
    """The process entry (``python -m amaflow.cli`` and the ``amaflow`` script)
    against the in-process :func:`main`."""

    @pytest.mark.parametrize("code", sorted(ENTRY_CASES))
    def test_a_process_writes_what_main_writes(self, code, tmp_path, monkeypatch, capsys):
        edit, (command, *rest) = ENTRY_CASES[code]
        text = "{broken" if edit is None else doc(**edit)
        args = [command, write(tmp_path, text), *rest]
        runs = {side: tmp_path / side for side in ("main", "process")}
        for d in runs.values():
            d.mkdir()

        monkeypatch.chdir(runs["main"])
        frozen = gc.get_freeze_count()
        rc = main(args)
        captured = capsys.readouterr()
        assert gc.get_freeze_count() == frozen  # main never freezes
        proc = _run_process(["-m", "amaflow.cli", *args], runs["process"])

        assert rc == proc.returncode == code
        assert proc.stdout.decode() == captured.out
        assert proc.stderr.decode() == captured.err
        files = {side: sorted(p.name for p in d.iterdir()) for side, d in runs.items()}
        assert files["main"] == files["process"]
        assert bool(files["main"]) == (command == "solve")
        for name in files["main"]:
            assert (runs["main"] / name).read_bytes() == (runs["process"] / name).read_bytes()

    def test_running_the_module_freezes_the_import_heap(self, tmp_path):
        # runpy.run_module with alter_sys is what ``python -m`` does.
        script = ("import atexit, gc, runpy, sys\n"
                  "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                  "sys.argv = ['amaflow', 'norm', sys.argv[1]]\n"
                  "runpy.run_module('amaflow.cli', run_name='__main__', alter_sys=True)\n")
        proc = _run_process(["-c", script, write(tmp_path, doc())], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.decode().endswith("frozen True\n")

    def test_the_entry_freezes_then_exits_with_the_code_of_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
        _exits_in_process(monkeypatch, calls)
        cli.entry()
        assert calls == ["freeze", "main", "exitfuncs", ("_exit", 3)]

    def test_running_the_module_collects_nothing_before_the_freeze(self, tmp_path):
        # With the modules' bytecode cached, as an installed package or the
        # benchmark has it, so the compiler builds no objects on the way. A
        # probe installed before python -m's run_module counts the collections
        # that start while nothing is frozen yet: about 33 with the package
        # importing every module before cli.py runs.
        env = {"PYTHONPYCACHEPREFIX": str(tmp_path / "pycache")}
        src = os.path.dirname(os.path.abspath(cli.__file__))
        compiled = _run_process(["-c", "import compileall, sys; "
                                 "sys.exit(not compileall.compile_dir(sys.argv[1], quiet=1))",
                                 src], tmp_path, env)
        assert compiled.returncode == 0
        # The count is printed by an atexit callback, which the entry runs
        # after main and before its os._exit.
        script = ("import atexit, gc, runpy, sys\n"
                  "starts = []\n"
                  "gc.callbacks.append(lambda phase, info: phase == 'start'\n"
                  "                    and not gc.get_freeze_count() and starts.append(1))\n"
                  "atexit.register(lambda: print('collections', len(starts),\n"
                  "                              'enabled', gc.isenabled()))\n"
                  "sys.argv = ['amaflow', 'norm', sys.argv[1]]\n"
                  "runpy.run_module('amaflow.cli', run_name='__main__', alter_sys=True)\n")
        proc = _run_process(["-c", script, write(tmp_path, doc())], tmp_path, env)
        assert proc.returncode == 0
        assert proc.stdout.decode().endswith("collections 0 enabled True\n")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_importing_the_module_leaves_the_collector_as_it_was(self, tmp_path, enabled):
        script = ("import gc\n"
                  f"{'gc.enable()' if enabled else 'gc.disable()'}\n"
                  "before = gc.isenabled(), gc.get_freeze_count()\n"
                  "import amaflow.cli\n"
                  "print(before == (gc.isenabled(), gc.get_freeze_count()), before[0])\n")
        proc = _run_process(["-c", script], tmp_path)
        assert proc.returncode == 0
        assert proc.stdout.decode() == f"True {enabled}\n"

    def test_the_entry_switches_the_collector_on_after_the_freeze(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(gc, "enable", lambda: calls.append("enable"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 0)
        _exits_in_process(monkeypatch, calls)
        cli.entry()
        assert calls == ["freeze", "enable", "main", "exitfuncs", ("_exit", 0)]

    @pytest.mark.parametrize("stream", ["stdout", "stderr"])
    def test_a_flush_that_raises_exits_through_the_interpreter(self, stream, monkeypatch):
        class Full:
            def flush(self):
                calls.append(f"flush {stream}")
                raise OSError(28, "No space left on device")
        calls = []
        monkeypatch.setattr(cli, "main", lambda: 1)
        monkeypatch.setattr(sys, stream, Full())
        _exits_in_process(monkeypatch, calls)
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 1
        assert calls == ["exitfuncs", f"flush {stream}"]

    def test_a_main_that_raises_exits_through_the_interpreter(self, tmp_path):
        # The traceback and exit 1 of an uncaught exception; the atexit
        # callback runs once, at the interpreter's exit, and os._exit never.
        script = ("import atexit, amaflow.probfile\n"
                  "def boom(path):\n"
                  "    raise RuntimeError('boom')\n"
                  "amaflow.probfile.load_problem_file = boom\n"
                  "report = lambda: ()\n"
                  "atexit.register(print, 'atexit callback')\n" + RUN_MODULE)
        proc = _run_process(["-c", script, "norm", write(tmp_path, doc())], tmp_path)
        assert proc.returncode == 1
        assert proc.stdout.decode() == "atexit callback\n"
        err = proc.stderr.decode()
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("\nRuntimeError: boom\n")

    @pytest.mark.parametrize("full", [False, True], ids=["stdout", "dev-full"])
    def test_an_atexit_callback_runs_once(self, full, tmp_path):
        # Registered before run_module; the entry runs it, and the interpreter
        # does not run it again, also when a failed flush sends the process
        # out through sys.exit.
        script = ("import atexit, runpy, sys\n"
                  "atexit.register(lambda: sys.stderr.write('atexit callback\\n'))\n"
                  "sys.argv = ['amaflow', 'norm', sys.argv[1]]\n"
                  "runpy.run_module('amaflow.cli', run_name='__main__', alter_sys=True)\n")
        with open(os.devnull if not full else "/dev/full", "w") as out:
            proc = _run_process(["-c", script, write(tmp_path, doc())], tmp_path,
                                {"PYTHONUNBUFFERED": None}, stdout=out)
        assert proc.returncode == (120 if full else 0)
        assert proc.stderr.decode().count("atexit callback\n") == 1
        assert proc.stderr.decode().startswith("atexit callback\n")

    @pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
    def test_output_lost_on_a_full_device_is_reported(self, unbuffered, tmp_path):
        # Buffered, the lines reach the device only at the exit's flush,
        # which fails: the interpreter reports it and exits 120, as it does
        # for sys.exit(main()). Unbuffered, the first print fails in main.
        path = write(tmp_path, doc())
        env = {"PYTHONUNBUFFERED": unbuffered}
        runs = {}
        for side, args in {"entry": ["-m", "amaflow.cli", "norm", path],
                           "sys.exit": ["-c", "import sys; from amaflow.cli import main; "
                                        "sys.exit(main())", "norm", path]}.items():
            with open("/dev/full", "w") as full:
                proc = _run_process(args, tmp_path, env, stdout=full)
            runs[side] = proc.returncode, proc.stderr.decode()
        assert runs["entry"] == runs["sys.exit"]
        code, err = runs["entry"]
        if unbuffered:
            assert (code, err) == (1, "error: [Errno 28] No space left on device\n")
            return
        assert code == 120
        first, second = err.splitlines()
        assert first.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>' ")
        assert second == "OSError: [Errno 28] No space left on device"
        assert "Traceback" not in err


# The package modules each subcommand imports, run as ``python -m amaflow.cli``,
# and whether it imports json: the file readers need the parser, and only the
# runs need the solvers.
READERS = ["errors", "functions", "linop", "probfile", "problem", "schedules"]
SOLVERS = ["diagnostics", "discrete", "dynamics", "trajectory"]
SUBCOMMAND_IMPORTS = {
    "validate": (READERS, True),
    "norm": (READERS, True),
    "solve": (sorted(READERS + SOLVERS), True),
    "paper-example": (sorted(set(READERS + SOLVERS + ["example"]) - {"probfile"}), False),
}


class TestImports:
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_IMPORTS))
    def test_a_subcommand_imports_what_it_runs(self, command, tmp_path):
        args = {"validate": [write(tmp_path, doc())], "norm": [write(tmp_path, doc())],
                "solve": [write(tmp_path, doc()), "--max-iters", "3"],
                "paper-example": ["--max-iters", "3"]}[command]
        # argparse (with gettext and, on a parse, locale) is not loaded: the
        # command line is read by cli's own parser.
        script = ("import sys\n"
                  "def report():\n"
                  "    return ('json' in sys.modules,\n"
                  "            any(m in sys.modules for m in ('argparse', 'gettext', 'locale')),\n"
                  "            *sorted(m[8:] for m in sys.modules if m.startswith('amaflow.')))\n"
                  + RUN_MODULE)
        proc = _run_process(["-c", script, command, *args], tmp_path)
        modules, json_loaded = SUBCOMMAND_IMPORTS[command]
        exit_, code, loads_json, loads_argparse, *loaded = \
            proc.stdout.decode().splitlines()[-1].split()
        assert exit_ == "exit"
        assert code == "0"
        assert loaded == modules
        assert loads_json == str(json_loaded)
        assert loads_argparse == "False"
