import math

import numpy as np
import pytest

from amaflow.cli import _row_format, main

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


class TestValidate:
    def test_passing_file(self, tmp_path, capsys):
        rc = main(["validate", write(tmp_path, doc())])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode: theorem-constant-c" in out
        assert "passed: true" in out
        assert "check: rule=c-range passed=true" in out

    def test_failure_names_the_rule(self, tmp_path, capsys):
        bad = doc(schedules__c={"kind": "constant", "value": 3.0})
        rc = main(["validate", write(tmp_path, bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "passed: false" in out
        assert "rule=c-range passed=false" in out

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


class TestNorm:
    def test_example_norms(self, tmp_path, capsys):
        rc = main(["norm", write(tmp_path, doc())])
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

    def test_forced_ill_posed_solve_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        no_metric = doc(schedules__tau=..., schedules__M2={"kind": "zero"})
        f = write(tmp_path, no_metric)
        rc = main(["solve", f, "--force"])
        capsys.readouterr()
        assert rc == 3
        report = (tmp_path / "prob-prox-ama.report.txt").read_text()
        assert "status: error" in report

        rc = main(["solve", f, "--force", "--mode", "continuous-rk4"])
        capsys.readouterr()
        assert rc == 3
        report = (tmp_path / "prob-continuous-rk4.report.txt").read_text()
        assert "status: error" in report
        assert "aborted" in report

    def test_forced_diverging_solve_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        huge_c = doc(schedules__c={"kind": "constant", "value": 50.0})
        rc = main(["solve", write(tmp_path, huge_c), "--force", "--max-iters", "300"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "status: diverged" in out
        report = (tmp_path / "prob-prox-ama.report.txt").read_text()
        assert "status: diverged" in report
        assert "message: residual not finite at iteration" in report
        _, rows = read_csv(tmp_path / "prob-prox-ama.csv")
        assert any(v in ("inf", "nan") for v in rows[-1][7:])
        assert int(float(rows[-1][0])) < 300

    def test_forced_diverging_integration_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        huge_c = doc(schedules__c={"kind": "constant", "value": 50.0})
        rc = main(["solve", write(tmp_path, huge_c), "--force", "--mode",
                   "continuous-euler", "--step", "1", "--horizon", "3000",
                   "--record-every", "10"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "status: diverged" in out
        report = (tmp_path / "prob-continuous-euler.report.txt").read_text()
        assert "status: diverged" in report
        assert "message: integration diverged at t=150: residual not finite" in report
        _, rows = read_csv(tmp_path / "prob-continuous-euler.csv")
        assert any(v in ("inf", "nan") for v in rows[-1][7:])
        assert all(v not in ("inf", "nan") for row in rows[:-1] for v in row[7:])
        assert float(rows[-1][0]) < 3000.0

    def test_forced_diverging_rk4_integration_reports_diverged(self, tmp_path,
                                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        huge_c = doc(schedules__c={"kind": "constant", "value": 50.0})
        rc = main(["solve", write(tmp_path, huge_c), "--force", "--mode",
                   "continuous-rk4", "--step", "1", "--horizon", "3000",
                   "--record-every", "10"])
        out = capsys.readouterr().out
        assert rc == 3
        assert "status: diverged" in out
        report = (tmp_path / "prob-continuous-rk4.report.txt").read_text()
        assert "status: diverged" in report
        assert "kind: continuous" in report
        assert "residual not finite" in report

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
