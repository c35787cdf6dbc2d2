import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amaflow import schedules
from amaflow import (
    ConstantDenseMetric,
    ConstantSchedule,
    CoupledReciprocal,
    ParameterSchedule,
    ProxFriendlyMetric,
    ReciprocalQuadratic,
    ReciprocalSqrt,
    ScalarSchedule,
    ScaledIdentityMetric,
    TwoBlockProblem,
    ZeroMetric,
    default_grid,
    example_c_schedule,
    example_problem,
    example_schedule,
    validate,
    validate_corollary,
)

from oracles import finite_difference, metric_derivative, metric_matrix

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

    @pytest.mark.parametrize("t", [0.0, 3.0])
    def test_a_coupled_reciprocal_whose_square_underflows(self, t):
        # inner(t) = 1e-300 sqrt(t + 1): its square underflows to 0, so the
        # derivative divides by it twice
        tau = CoupledReciprocal(0.99, CoupledReciprocal(1e-300, ReciprocalSqrt(1.0)))
        want = -0.5 * 0.99 * 1e300 * (t + 1.0) ** -1.5
        assert tau.derivative_at(t) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("slope, want", [(-0.0, math.inf), (0.0, math.inf),
                                             (-1.0, math.inf), (1.0, -math.inf)])
    def test_a_coupled_reciprocal_over_an_underflowed_value(self, slope, want):
        # other's value is 0, so tau is inf, and tau' = -k other'/0 is
        # infinite: falling only where other rises, not 0/0 where other' = 0.
        class Flat(ScalarSchedule):
            def value_at(self, t):
                return np.float64(0.0)

            def derivative_at(self, t):
                return np.float64(slope)

        tau = CoupledReciprocal(0.99, Flat())
        assert tau.value_at(1.0) == math.inf
        assert tau.derivative_at(1.0) == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t, want", [
        (0.0, 0.0), (np.float64(0.0), 0.0), (1e-101, -2e-101 / 1.01e-200 / 1.01e-200),
        (np.float64(1e-101), -2e-101 / 1.01e-200 / 1.01e-200), (1e80, 0.0), (1e200, 0.0)],
        ids=["zero", "numpy-zero", "tiny", "numpy-tiny", "1e80", "1e200"])
    def test_a_reciprocal_quadratic_whose_square_underflows(self, t, want):
        # (t^2 + 1e-200)^2 underflows to 0 at t = 0 and 1e-101, so the
        # derivative divides by the base twice, not 0/0 or -2t/0; past the
        # float range the square is inf, so a Python float does not raise.
        c = ReciprocalQuadratic(1e-200)
        with np.errstate(over="ignore"):
            assert c.derivative_at(t) == want

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", [0.0, np.float64(0.0)], ids=["zero", "numpy-zero"])
    def test_a_reciprocal_sqrt_derivative_past_the_float_range(self, t):
        # (t + 1e-300) ** -1.5 is past the float range at t = 0: -inf, where
        # a Python float's power raised OverflowError.
        with np.errstate(over="ignore"):
            assert ReciprocalSqrt(1e-300).derivative_at(t) == -math.inf

    def test_a_reciprocal_quadratic_derivative_keeps_its_bits_on_a_grid(self):
        # A numpy float's ** 2 is C pow, which is one ulp off the product at
        # some points (an array's ** 2 is the product): the derivative keeps
        # it, so the validators' values, read a numpy float at a time, do not
        # move wherever the square neither underflows nor overflows.
        t = np.random.default_rng(3).uniform(0.0, 1.0, 4000) * np.logspace(-60, 60, 4000)
        for a in (1e-4, 1.0, 1e-100):
            c = ReciprocalQuadratic(a)
            got = np.array([c.derivative_at(ti) for ti in t])
            want = np.array([-2.0 * ti / (ti * ti + a) ** 2 for ti in t])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("zero", [0.0, np.float64(0.0), -0.0],
                             ids=["zero", "numpy-zero", "minus-zero"])
    def test_a_coupled_reciprocal_of_zero_is_inf(self, zero):
        assert CoupledReciprocal(0.99, ConstantSchedule(1.0)).of(zero) == math.inf

    def test_call_is_value_at(self):
        c = ReciprocalQuadratic(2.0)
        assert c(3.0) == c.value_at(3.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: ConstantSchedule(0.0), "value must be positive"),
        (lambda: ReciprocalQuadratic(-1.0), "parameter a must be positive"),
        (lambda: ReciprocalSqrt(1.0, -0.2), "offset must be nonnegative"),
        (lambda: CoupledReciprocal(0.0, ConstantSchedule(1.0)), "numerator must be positive"),
        (lambda: ZeroMetric(0), "dimension must be positive, got 0"),
        (lambda: ScaledIdentityMetric(ConstantSchedule(1.0), -1),
         "dimension must be positive, got -1"),
        (lambda: ConstantDenseMetric(np.ones((2, 3))), "metric operator must be square"),
    ], ids=["constant", "reciprocal-a", "reciprocal-offset", "coupled-numerator",
            "zero-metric-dim", "scaled-identity-dim", "dense-not-square"])
    def test_parameter_validation(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_are_rejected(self, bad):
        for make in (lambda: ConstantSchedule(bad),
                     lambda: ReciprocalQuadratic(bad),
                     lambda: ReciprocalQuadratic(1.0, bad),
                     lambda: ReciprocalSqrt(bad),
                     lambda: ReciprocalSqrt(1.0, bad),
                     lambda: CoupledReciprocal(bad, ConstantSchedule(1.0))):
            with pytest.raises(ValueError, match="and finite, got"):
                make()


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
        assert np.allclose(metric_matrix(m, 3.0, None), 0.0)
        assert np.allclose(metric_derivative(m, 3.0, None), 0.0)

    def test_scaled_identity(self):
        m = ScaledIdentityMetric(ConstantSchedule(2.5), 3)
        assert np.allclose(metric_matrix(m, 1.0, None), 2.5 * np.eye(3))

    def test_prox_friendly_example(self):
        p = example_problem()
        m = ProxFriendlyMetric(ConstantSchedule(1.0), ConstantSchedule(0.25), p.B)
        eigs = np.linalg.eigvalsh(metric_matrix(m, 0.0, p.B))
        assert eigs[0] == pytest.approx(0.75)
        assert eigs[1] == pytest.approx(1.0)

    def test_prox_friendly_psd_along_grid(self):
        p = example_problem()
        for variant in ("c025", "c199", "c1-decay", "c2-decay"):
            sched = example_schedule(variant, 0.99, p)
            for t in GRID:
                w = float(np.linalg.eigvalsh(metric_matrix(sched.M2, float(t), p.B))[0])
                assert w >= -1e-12

    def test_constant_dense(self):
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        m = ConstantDenseMetric(mat)
        assert np.allclose(metric_matrix(m, 9.0, None), mat)
        assert np.allclose(metric_derivative(m, 9.0, None), 0.0)

    def test_metrics_keep_the_matrices_they_are_given(self):
        p = example_problem()
        c = ConstantSchedule(0.25)
        assert ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B).B is p.B
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert ConstantDenseMetric(mat).M is mat
        listed = ConstantDenseMetric(mat.tolist()).M
        assert listed.dtype == np.float64 and np.array_equal(listed, mat)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 0)])
    def test_constant_dense_non_finite_refused(self, bad, where):
        # A NaN asymmetry compared as passing, and validate then read the
        # metric's lower bound as 0; inf - inf warned on the way.
        mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        mat[where] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ConstantDenseMetric(mat)


class TestMetricDerivatives:
    def test_prox_friendly_against_central_difference(self):
        p = example_problem()
        c = ReciprocalSqrt(1.1, 0.01)
        m = ProxFriendlyMetric(CoupledReciprocal(0.99, c), c, p.B)
        for t in np.linspace(0.1, 30.0, 25):
            fd = finite_difference(lambda u: metric_matrix(m, u, p.B), float(t))
            assert np.allclose(metric_derivative(m, float(t), p.B), fd,
                               rtol=1e-5, atol=1e-8)

    def test_scaled_identity_against_central_difference(self):
        m = ScaledIdentityMetric(ReciprocalQuadratic(2.0), 3)
        for t in np.linspace(0.1, 10.0, 10):
            fd = finite_difference(lambda u: metric_matrix(m, u, None), float(t))
            assert np.allclose(metric_derivative(m, float(t), None), fd,
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

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_an_overflowing_coupling_reads_beta_nan(self):
        # B*B = 1e308 in its corner, so c B*B + M2 at c = 2 has an inf entry:
        # beta is NaN, read without an eigenvalue, and the report is made.
        ex = example_problem()
        p = TwoBlockProblem(ex.f, ex.h1, ex.g, ex.h2, ex.A, ex.B * 1e154, ex.b)
        m2 = ConstantDenseMetric([[0.6, 0.1], [0.1, 0.4]])
        report = validate(p, ConstantSchedule(2.0), ZeroMetric(2), m2, EPS, GRID)
        assert math.isnan(report.beta) and not (report.cweak or report.cstrong)
        assert report.failed_rules() == ["c-range"]

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

    @pytest.mark.parametrize("grid", [[0.0, 1.0, math.nan, 2.0], [0.0, math.inf],
                                      [math.nan], [0.0, 1.0, math.nan]])
    def test_non_finite_grid_points_are_refused(self, grid):
        p = example_problem()
        sched = example_schedule("c025", 0.99, p)
        with pytest.raises(ValueError, match="finite"):
            validate(p, sched.c, sched.M1, sched.M2, EPS, grid)
        with pytest.raises(ValueError, match="finite"):
            validate_corollary(p, sched.c, sched.tau, EPS, grid)

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


class Stretched(ReciprocalQuadratic):
    """A kind not shipped: a subclass whose values only its own methods know."""

    def value_at(self, t):
        return super().value_at(2.0 * t)

    def derivative_at(self, t):
        return 2.0 * super().derivative_at(2.0 * t)


positive = st.floats(1e-6, 1e6)
scalar_kinds = st.recursive(
    st.one_of(st.builds(ConstantSchedule, positive),
              st.builds(ReciprocalQuadratic, positive, st.floats(0.0, 10.0)),
              st.builds(ReciprocalSqrt, positive, st.floats(0.0, 10.0)),
              st.builds(Stretched, positive, st.floats(0.0, 10.0))),
    lambda inner: st.builds(CoupledReciprocal, positive, inner), max_leaves=4)
grids = st.one_of(
    st.just(default_grid()),
    st.lists(st.floats(0.0, 1e7), min_size=1, max_size=128, unique=True)
    .map(lambda ts: np.array(sorted(ts))))


def per_point(s, grid):
    return (np.array([s.value_at(t) for t in grid]),
            np.array([s.derivative_at(t) for t in grid]))


class TestGridPasses:
    """The validators' pass over the grid reads a schedule that does not depend
    on t once, and any other at every point: bit for bit the per-point values."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(scalar_kinds, grids)
    def test_a_pass_is_the_per_point_reading(self, s, grid):
        with np.errstate(all="ignore"):
            want = per_point(s, grid)
        got = schedules._on_grid(s, grid)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("s", [
        ConstantSchedule(0.25), ReciprocalQuadratic(1.1, 0.01), ReciprocalSqrt(1.1, 0.01),
        ReciprocalQuadratic(1e-4), CoupledReciprocal(0.99, ReciprocalQuadratic(1.1, 0.01)),
        CoupledReciprocal(0.99, ReciprocalSqrt(1.1, 0.01)),
        CoupledReciprocal(2.0, CoupledReciprocal(0.5, ReciprocalSqrt(1e-3))),
        Stretched(1.1), CoupledReciprocal(0.99, Stretched(1.1))])
    def test_the_default_grid(self, s):
        grid = default_grid()
        for a, b in zip(schedules._on_grid(s, grid), per_point(s, grid)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind, a, couplings, every_point", [
        (ConstantSchedule, 0.25, 0, False), (ConstantSchedule, 0.25, 1, False),
        (ConstantSchedule, 0.25, 2, False), (ReciprocalQuadratic, 1.1, 0, True),
        (ReciprocalQuadratic, 1.1, 1, True), (Stretched, 1.1, 0, True),
        (Stretched, 1.1, 1, True)])
    def test_a_schedule_independent_of_t_is_read_once(self, monkeypatch, kind, a,
                                                       couplings, every_point):
        read = []
        value_at = kind.value_at
        monkeypatch.setattr(kind, "value_at", lambda self, t: read.append(t) or value_at(self, t))
        s = kind(a)
        for _ in range(couplings):
            s = CoupledReciprocal(0.9, s)
        counts = []
        for points in (1, default_grid().size):
            grid = default_grid()[:points]
            del read[:]
            got = schedules._on_grid(s, grid)
            assert len(got[0]) == len(got[1]) == points
            counts.append(len(read))
        if every_point:
            assert set(read) == set(grid)
        else:
            assert 0 < counts[0] == counts[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_point_past_the_float_range_warns_as_it_did(self):
        # (t + a) ** -1.5 overflows at t = 0 for a = 1e-300: the schedule is
        # read point by point, with numpy's scalar warning, as before.
        s = ReciprocalSqrt(1e-300, 1e300)
        with pytest.raises(RuntimeWarning):
            schedules._on_grid(CoupledReciprocal(0.5, s), default_grid())
