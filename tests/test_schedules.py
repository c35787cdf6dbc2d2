import numpy as np
import pytest

from amaflow import (
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    DenseMap,
    ParameterSchedule,
    ProxFriendlyMetric,
    ReciprocalQuadratic,
    ReciprocalSqrt,
    ScaledIdentityMetric,
    ZeroMetric,
    default_grid,
    example_c_schedule,
    example_problem,
    example_schedule,
    validate,
    validate_corollary,
)

from oracles import finite_difference

GRID = np.concatenate([[0.0], np.linspace(0.05, 50.0, 48)])
EPS = 0.005


class TestScalarValues:
    def test_constant(self):
        c = ConstantSchedule(0.25)
        assert c.value_at(0.0) == 0.25
        assert c.value_at(123.0) == 0.25
        assert c.derivative_at(7.0) == 0.0

    def test_reciprocal_quadratic_at_zero(self):
        c = ReciprocalQuadratic(1.1, 0.01)
        assert c.value_at(0.0) == pytest.approx(1.0 / 1.1 + 0.01)
        assert c.derivative_at(0.0) == 0.0

    def test_reciprocal_sqrt_at_zero(self):
        c = ReciprocalSqrt(1.1, 0.01)
        assert c.value_at(0.0) == pytest.approx(1.0 / np.sqrt(1.1) + 0.01)
        assert c.derivative_at(0.0) == pytest.approx(-0.5 * 1.1**-1.5)

    def test_coupled_reciprocal(self):
        tau = CoupledReciprocal(0.99, ConstantSchedule(0.25))
        assert tau.value_at(5.0) == pytest.approx(3.96)
        assert tau.derivative_at(5.0) == 0.0

    def test_call_is_value_at(self):
        c = ReciprocalQuadratic(2.0)
        assert c(3.0) == c.value_at(3.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0.0)
        with pytest.raises(ValueError):
            ReciprocalQuadratic(-1.0)
        with pytest.raises(ValueError):
            ReciprocalSqrt(1.0, -0.2)
        with pytest.raises(ValueError):
            CoupledReciprocal(0.0, ConstantSchedule(1.0))


class TestScalarDerivatives:
    SCHEDULES = [
        ConstantSchedule(0.7),
        ReciprocalQuadratic(1.1, 0.01),
        ReciprocalQuadratic(3.0),
        ReciprocalSqrt(1.1, 0.01),
        ReciprocalSqrt(0.5),
        CoupledReciprocal(0.99, ReciprocalQuadratic(1.1, 0.01)),
        CoupledReciprocal(0.25, ReciprocalSqrt(1.1, 0.01)),
    ]

    @pytest.mark.parametrize("sched", SCHEDULES, ids=lambda s: type(s).__name__)
    def test_against_central_difference(self, sched):
        for t in np.linspace(0.05, 40.0, 50):
            fd = finite_difference(sched.value_at, float(t))
            assert sched.derivative_at(float(t)) == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestMetricValues:
    def test_zero(self):
        m = ZeroMetric(2)
        assert np.allclose(m.at(3.0).as_matrix(), 0.0)
        assert np.allclose(m.derivative_at(3.0).as_matrix(), 0.0)

    def test_scaled_identity(self):
        m = ScaledIdentityMetric(ConstantSchedule(2.5), 3)
        assert np.allclose(m.at(1.0).as_matrix(), 2.5 * np.eye(3))

    def test_prox_friendly_example(self):
        p = example_problem()
        m = ProxFriendlyMetric(ConstantSchedule(1.0), ConstantSchedule(0.25), p.B)
        eigs = np.linalg.eigvalsh(m.at(0.0).as_matrix())
        assert eigs[0] == pytest.approx(0.75)
        assert eigs[1] == pytest.approx(1.0)

    def test_prox_friendly_psd_along_grid(self):
        p = example_problem()
        for variant in ("c025", "c199", "c1-decay", "c2-decay"):
            sched = example_schedule(variant, 0.99, p)
            for t in GRID:
                w = float(np.linalg.eigvalsh(sched.M2.at(float(t)).as_matrix())[0])
                assert w >= -1e-12

    def test_constant_dense(self):
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = ConstantDenseMetric(DenseMap(mat))
        assert np.allclose(m.at(9.0).as_matrix(), mat)
        assert np.allclose(m.derivative_at(9.0).as_matrix(), 0.0)


class TestMetricDerivatives:
    def test_prox_friendly_against_central_difference(self):
        p = example_problem()
        c = ReciprocalSqrt(1.1, 0.01)
        m = ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B)
        for t in np.linspace(0.1, 30.0, 25):
            fd = finite_difference(lambda u: m.at(u).as_matrix(), float(t))
            assert np.allclose(m.derivative_at(float(t)).as_matrix(), fd,
                               rtol=1e-5, atol=1e-8)

    def test_scaled_identity_against_central_difference(self):
        m = ScaledIdentityMetric(ReciprocalQuadratic(2.0), 3)
        for t in np.linspace(0.1, 10.0, 10):
            fd = finite_difference(lambda u: m.at(u).as_matrix(), float(t))
            assert np.allclose(m.derivative_at(float(t)).as_matrix(), fd,
                               rtol=1e-5, atol=1e-8)


class TestParameterSchedule:
    def test_tau_exposed_for_prox_friendly(self):
        sched = example_schedule("c025", 0.99)
        assert sched.tau is not None
        assert sched.tau.value_at(0.0) == pytest.approx(0.99 / 0.25)

    def test_tau_absent_otherwise(self):
        sched = ParameterSchedule(ConstantSchedule(0.25), ZeroMetric(2), ZeroMetric(2))
        assert sched.tau is None

    def test_example_schedule_gate(self):
        with pytest.raises(ValueError):
            example_schedule("c025", 1.1)
        with pytest.raises(ValueError):
            example_schedule("no-such-variant", 0.99)


class TestValidateAccepts:
    @pytest.mark.parametrize("variant", ["c025", "c199", "c1-decay", "c2-decay"])
    def test_example_configurations(self, variant):
        p = example_problem()
        sched = example_schedule(variant, 0.99, p)
        report = validate(p, sched.c, sched.M1, sched.M2, EPS, default_grid())
        assert report.passed, report.failed_rules()
        expected = "theorem-constant-c" if variant in ("c025", "c199") \
            else "theorem-variable-c"
        assert report.mode == expected
        assert report.cstrong
        assert report.beta > 0.0

    def test_constant_c_gets_wider_range(self):
        # 1.99 passes only through the doubled upper bound reserved for
        # constant schedules
        p = example_problem()
        sched_const = example_schedule("c199", 0.99, p)
        assert validate(p, sched_const.c, sched_const.M1, sched_const.M2,
                        EPS, GRID).passed
        c_var = ReciprocalQuadratic(1e6, 1.99)  # numerically constant, typed variable
        tau = CoupledReciprocal(0.99, c_var)
        m2 = ProxFriendlyMetric(tau, c_var, p.B)
        report = validate(p, c_var, ZeroMetric(2), m2, EPS, GRID)
        assert not report.passed
        assert "c-range" in report.failed_rules()


class TestValidateRejects:
    def test_offset_pushes_c_out_of_range(self):
        p = example_problem()
        c = ReciprocalQuadratic(1.1, 1.2)
        tau = CoupledReciprocal(0.99, c)
        m2 = ProxFriendlyMetric(tau, c, p.B)
        report = validate(p, c, ZeroMetric(2), m2, EPS, GRID)
        assert not report.passed
        assert "c-range" in report.failed_rules()

    def test_overlong_step_breaks_metric_bound(self):
        p = example_problem()
        c = ConstantSchedule(0.25)
        m2 = ProxFriendlyMetric(ConstantSchedule(4.4), c, p.B)
        report = validate(p, c, ZeroMetric(2), m2, EPS, GRID)
        assert not report.passed
        assert "m2-lower-bound" in report.failed_rules()

    def test_increasing_c_rejected(self):
        p = example_problem()

        class Growing(ConstantSchedule):
            def value_at(self, t):
                return 0.1 + 0.001 * t

            def derivative_at(self, t):
                return 0.001

        c = Growing(0.1)
        tau = CoupledReciprocal(0.099, c)
        report = validate(p, c, ZeroMetric(2), ProxFriendlyMetric(tau, c, p.B),
                          EPS, GRID)
        assert "c-decreasing" in report.failed_rules()

    def test_singular_coupling_without_metric(self):
        # zero M2 over a rank-deficient second operator: neither branch of
        # the convergence condition holds
        p = example_problem()
        report = validate(p, ConstantSchedule(0.25), ZeroMetric(2), ZeroMetric(2),
                          EPS, GRID)
        assert not report.passed
        assert report.failed_rules() == ["convergence-condition"]
        assert report.beta == pytest.approx(0.0, abs=1e-12)
        assert not report.cweak
        assert not report.cstrong


class TestValidateCorollary:
    def test_unit_constant_step(self):
        p = example_problem()
        report = validate_corollary(p, ConstantSchedule(0.25), ConstantSchedule(1.0),
                                    EPS, GRID)
        assert report.passed, report.failed_rules()
        assert report.mode == "corollary-prox-friendly"

    def test_coupled_decay(self):
        p = example_problem()
        c = example_c_schedule("c2-decay")
        tau = CoupledReciprocal(0.99, c)
        report = validate_corollary(p, c, tau, EPS, default_grid())
        assert report.passed, report.failed_rules()

    def test_overlong_step_breaks_coupling(self):
        p = example_problem()
        report = validate_corollary(p, ConstantSchedule(0.25), ConstantSchedule(4.4),
                                    EPS, GRID)
        assert not report.passed
        assert "coupling-inequality" in report.failed_rules()

    def test_shrinking_step_rejected(self):
        p = example_problem()
        tau = ReciprocalSqrt(1.0, 0.1)  # decreasing
        report = validate_corollary(p, ConstantSchedule(0.25), tau, EPS, GRID)
        assert "tau-increasing" in report.failed_rules()


class TestValidationPreconditions:
    def test_eps_range(self):
        p = example_problem()
        sched = example_schedule("c025", 0.99, p)
        # the upper limit is computed from the numerical operator norm, so
        # probe safely past it rather than at the exact boundary
        for bad in (0.0, -0.1, 0.500001, 0.7):
            with pytest.raises(ValueError):
                validate(p, sched.c, sched.M1, sched.M2, bad, GRID)

    def test_grid_shape(self):
        p = example_problem()
        sched = example_schedule("c025", 0.99, p)
        for bad in ([], [1.0, 1.0], [2.0, 1.0], [-1.0, 0.0]):
            with pytest.raises(ValueError):
                validate(p, sched.c, sched.M1, sched.M2, EPS, bad)
        with pytest.raises(ValueError):
            validate_corollary(p, sched.c, sched.tau, EPS, [])

    def test_report_records_grid(self):
        p = example_problem()
        sched = example_schedule("c025", 0.99, p)
        report = validate(p, sched.c, sched.M1, sched.M2, EPS, [0.0, 1.0, 2.0])
        assert report.grid == (0.0, 1.0, 2.0)


class TestDefaultGrid:
    def test_shape(self):
        g = default_grid()
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(1e4)
        assert np.all(np.diff(g) > 0.0)
        assert g.size > 1000
