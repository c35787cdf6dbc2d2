import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amaflow import (
    BoxIndicator,
    CapabilityError,
    DimensionMismatchError,
    L1Norm,
    QuadraticDistance,
    QuadraticForm,
    SeparableFunction,
    TwoBlockProblem,
    ZeroFunction,
)

from oracles import bruteforce_prox_1d_separable, bruteforce_prox_2d, bruteforce_prox_box


def qd10():
    return QuadraticDistance(np.array([1.0, 0.0]), 1.0)


class TestEval:
    def test_quadratic_distance_value(self):
        assert qd10()(np.zeros(2)) == pytest.approx(0.5)

    def test_l1_value(self):
        assert L1Norm(2, 1.0)([-10.0, 10.0]) == pytest.approx(20.0)

    def test_box_outside_is_infinite(self):
        box = BoxIndicator([-1.0, -1.0], [1.0, 1.0])
        assert math.isinf(box([2.0, 0.0]))
        assert box([0.5, -1.0]) == 0.0

    def test_zero(self):
        assert ZeroFunction(3)([1.0, 2.0, 3.0]) == 0.0

    def test_quadratic_form_value(self):
        f = QuadraticForm(2.0 * np.eye(2), np.zeros(2))
        assert f([1.0, 1.0]) == pytest.approx(2.0)


class TestProx:
    def test_l1_soft_threshold(self):
        out = L1Norm(2, 1.0).prox(0.5, [1.2, -0.3])
        assert out == pytest.approx([0.7, 0.0])

    def test_quadratic_distance_fixed_point(self):
        f = qd10()
        for gamma in (0.1, 1.0, 7.5):
            assert f.prox(gamma, [1.0, 0.0]) == pytest.approx([1.0, 0.0])

    def test_l1_prox_equals_shrink_by_projection(self, rng):
        # x - tau * clip(x / tau, -1, 1) is the same map, written through the
        # projection onto the unit sup-norm ball.
        f = L1Norm(2, 1.0)
        for _ in range(200):
            tau = float(rng.uniform(0.05, 5.0))
            x = rng.uniform(-8.0, 8.0, size=2)
            via_projection = x - tau * np.clip(x / tau, -1.0, 1.0)
            assert f.prox(tau, x) == pytest.approx(via_projection, abs=1e-12)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            L1Norm(2, 1.0).prox(0.0, [1.0, 1.0])

    def test_firm_contraction_probes(self, rng):
        funs = [qd10(), L1Norm(2, 0.7), BoxIndicator([-1.0, -2.0], [2.0, 1.0]),
                ZeroFunction(2),
                QuadraticForm([[2.0, 0.5], [0.5, 1.0]], np.array([0.3, -0.1]))]
        for f in funs:
            for _ in range(50):
                gamma = float(rng.uniform(0.05, 4.0))
                x, y = rng.uniform(-6, 6, 2), rng.uniform(-6, 6, 2)
                lhs = np.linalg.norm(f.prox(gamma, x) - f.prox(gamma, y))
                assert lhs <= np.linalg.norm(x - y) + 1e-12


class TestGrad:
    def test_zero_gradient(self):
        assert ZeroFunction(2).grad([3.0, 4.0]) == pytest.approx([0.0, 0.0])

    def test_quadratic_distance_gradient(self):
        assert qd10().grad([0.0, 0.0]) == pytest.approx([-1.0, 0.0])

    def test_quadratic_form_gradient(self):
        f = QuadraticForm(np.eye(2), np.array([1.0, 1.0]))
        assert f.grad([2.0, 0.0]) == pytest.approx([3.0, 1.0])

    def test_nonsmooth_kinds_refuse(self):
        with pytest.raises(CapabilityError):
            L1Norm(2, 1.0).grad([0.0, 0.0])
        with pytest.raises(CapabilityError):
            BoxIndicator([-1.0], [1.0]).grad([0.0])


class TestConjGrad:
    def test_quadratic_distance_shift(self):
        assert qd10().conj_grad([0.0, 0.0]) == pytest.approx([1.0, 0.0])

    def test_quadratic_distance_weighted(self):
        f = QuadraticDistance(np.zeros(2), 2.0)
        assert f.conj_grad([4.0, -2.0]) == pytest.approx([2.0, -1.0])

    def test_quadratic_form_solve(self):
        f = QuadraticForm(2.0 * np.eye(2), np.zeros(2))
        assert f.conj_grad([1.0, 1.0]) == pytest.approx([0.5, 0.5])

    def test_sigma_zero_refuses(self):
        for f in (L1Norm(2, 1.0), ZeroFunction(2), BoxIndicator([-1.0], [1.0])):
            with pytest.raises(CapabilityError):
                f.conj_grad(np.zeros(f.dim))

    def test_base_kind_has_no_conjugate_gradient(self):
        # The public conj_grad lives on the base and dispatches to the kind's
        # trusted _conj_grad; a kind that defines none gets the base's refusal,
        # strongly convex or not.
        class Bare(SeparableFunction):
            kind, dim, strong_convexity = "bare", 2, 1.0

        with pytest.raises(CapabilityError, match="bare has no single-valued"):
            Bare().conj_grad(np.zeros(2))
        with pytest.raises(CapabilityError):
            SeparableFunction._conj_grad(qd10(), np.zeros(2))

    def test_fenchel_young_equality(self, rng):
        f = qd10()
        for _ in range(50):
            s = rng.uniform(-5, 5, 2)
            p = f.conj_grad(s)
            gap = f(p) + f.conj_eval(s) - float(np.dot(s, p))
            assert abs(gap) <= 1e-9


class TestConjEval:
    def test_l1_ball_indicator(self):
        f = L1Norm(2, 1.0)
        assert f.conj_eval([0.99, 0.0]) == 0.0
        assert math.isinf(f.conj_eval([1.01, 0.0]))

    def test_quadratic_distance_conjugate(self):
        assert qd10().conj_eval([-1.0, 0.0]) == pytest.approx(-0.5)

    def test_zero_conjugate_is_origin_indicator(self):
        f = ZeroFunction(2)
        assert f.conj_eval([0.0, 0.0]) == 0.0
        assert math.isinf(f.conj_eval([0.1, 0.0]))

    def test_box_support_function(self):
        box = BoxIndicator([-1.0, -2.0], [3.0, 4.0])
        assert box.conj_eval([1.0, -1.0]) == pytest.approx(3.0 + 2.0)

    def test_quadratic_form_has_no_closed_form(self):
        f = QuadraticForm(np.eye(2), np.zeros(2))
        with pytest.raises(CapabilityError):
            f.conj_eval([1.0, 0.0])


@st.composite
def psd_forms(draw):
    """A random PSD Q (n in 2..30, of rank 1..n, eigenvalues in [0.1, 10]
    or zero), a linear term, a prox step and a point."""
    n = draw(st.integers(2, 30))
    rank = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.concatenate([rng.uniform(0.1, 10.0, rank), np.zeros(n - rank)])
    Q = (V * lam) @ V.T
    gamma = draw(st.floats(0.05, 5.0))
    return 0.5 * (Q + Q.T), rng.standard_normal(n), rank, gamma, rng.standard_normal(n)


def _close(got, expect, rtol=1e-12):
    return np.linalg.norm(got - expect) <= rtol * np.linalg.norm(expect)


class TestQuadraticFormFactorization:
    """Q is decomposed once at build; every capability reads that eigh."""

    def test_build_makes_one_eigh(self, rng, decompositions):
        raw = rng.standard_normal((6, 6))
        QuadraticForm(raw @ raw.T, rng.standard_normal(6))
        assert decompositions == {"eigvalsh": 0, "eigh": 1, "svd": 0}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(psd_forms())
    def test_capabilities_match_dense_solves(self, case):
        Q, q, rank, gamma, x = case
        n = q.shape[0]
        f = QuadraticForm(Q, q)
        assert _close(f.prox(gamma, x), np.linalg.solve(np.eye(n) + gamma * Q, x - gamma * q))
        norm = np.linalg.svd(Q, compute_uv=False)[0]
        assert abs(f.grad_lipschitz - norm) <= 1e-12 * norm
        if rank == n:
            assert _close(f.conj_grad(x), np.linalg.solve(Q, x - q))

    def test_numerically_singular_forms_are_singular(self):
        # eigh returns about +-1e-16 for a zero eigenvalue; the relative floor
        # n * eps * max|lam| makes every such form singular.
        rng = np.random.default_rng(0)
        for _ in range(200):
            G = rng.standard_normal((6, 3))
            f = QuadraticForm(G @ G.T, np.zeros(6))
            assert f.strong_convexity == 0.0
            with pytest.raises(CapabilityError, match="singular"):
                f.conj_grad(np.ones(6))
            with pytest.raises(ValueError, match="strongly convex"):
                TwoBlockProblem(f, ZeroFunction(6), ZeroFunction(6), ZeroFunction(6),
                                np.eye(6), np.eye(6), np.zeros(6))

    def test_singular_form_has_no_conjugate_gradient(self):
        f = QuadraticForm([[4.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]],
                          np.zeros(3))
        assert f.strong_convexity == 0.0
        with pytest.raises(CapabilityError, match="singular"):
            f.conj_grad(np.ones(3))

    def test_q_is_kept_as_given_or_converted_once(self):
        Q = np.array([[3.0, 1.0], [1.0, 2.0]])
        assert QuadraticForm(Q, np.zeros(2)).Q is Q
        listed = QuadraticForm([[3, 1], [1, 2]], np.zeros(2)).Q
        assert listed.dtype == np.float64 and np.array_equal(listed, Q)

    def test_asymmetric_form_is_rejected_with_magnitude(self):
        with pytest.raises(ValueError, match="max asymmetry 3.000e-01"):
            QuadraticForm([[1.0, 0.3], [0.0, 1.0]], np.zeros(2))


class TestMoreauIdentity:
    def test_l1_against_box_conjugate(self, rng):
        w = 1.3
        f = L1Norm(2, w)
        conj_prox = BoxIndicator([-w, -w], [w, w])  # prox of f* is projection
        for _ in range(100):
            gamma = float(rng.uniform(0.1, 4.0))
            x = rng.uniform(-6, 6, 2)
            recomposed = f.prox(gamma, x) + gamma * conj_prox.prox(1.0, x / gamma)
            assert recomposed == pytest.approx(x, abs=1e-10)


class TestStrongMonotonicity:
    def test_gradient_probes(self, rng):
        for f in (QuadraticDistance(np.array([0.5, 0.5]), 2.0),
                  QuadraticForm([[3.0, 1.0], [1.0, 2.0]], np.zeros(2))):
            sigma = f.strong_convexity
            assert sigma > 0
            for _ in range(50):
                x, y = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
                inner = float(np.dot(f.grad(x) - f.grad(y), x - y))
                assert inner >= sigma * np.linalg.norm(x - y) ** 2 - 1e-9


class TestBruteForceProxOracle:
    N = 10  # the full 50-instance sweep runs in the acceptance suite

    def test_quadratic_distance(self, rng):
        for _ in range(self.N):
            d = rng.uniform(-3, 3, 2)
            w = float(rng.uniform(0.2, 3.0))
            f = QuadraticDistance(d, w)
            gamma = float(rng.uniform(0.1, 4.0))
            x = rng.uniform(-5, 5, 2)
            got = f.prox(gamma, x)
            ora = np.array([
                bruteforce_prox_1d_separable(
                    lambda t, dd=d[i]: 0.5 * w * (t - dd) ** 2, gamma, [x[i]])[0]
                for i in range(2)
            ])
            assert got == pytest.approx(ora, abs=1e-4)

    def test_l1(self, rng):
        for _ in range(self.N):
            w = float(rng.uniform(0.0, 2.0))
            f = L1Norm(2, w)
            gamma = float(rng.uniform(0.1, 4.0))
            x = rng.uniform(-5, 5, 2)
            ora = bruteforce_prox_1d_separable(lambda t: w * np.abs(t), gamma, x)
            assert f.prox(gamma, x) == pytest.approx(ora, abs=1e-4)

    def test_box(self, rng):
        for _ in range(self.N):
            lo = rng.uniform(-3, 0, 2)
            hi = rng.uniform(0.5, 3, 2)
            f = BoxIndicator(lo, hi)
            x = rng.uniform(-5, 5, 2)
            ora = bruteforce_prox_box(lo, hi, x)
            assert f.prox(float(rng.uniform(0.1, 4.0)), x) == pytest.approx(ora, abs=1e-4)

    def test_quadratic_form(self, rng):
        for _ in range(self.N):
            raw = rng.uniform(-1, 1, (2, 2))
            qmat = raw @ raw.T + 0.3 * np.eye(2)
            f = QuadraticForm(qmat, rng.uniform(-1, 1, 2))
            gamma = float(rng.uniform(0.1, 3.0))
            x = rng.uniform(-4, 4, 2)

            def objective(yv):
                return gamma * f(yv) + 0.5 * float(np.sum((yv - x) ** 2))

            assert f.prox(gamma, x) == pytest.approx(
                bruteforce_prox_2d(objective), abs=1e-4)


class TestEdgeCases:
    def test_l1_zero_weight_degenerates(self, rng):
        f = L1Norm(2, 0.0)
        x = rng.uniform(-5, 5, 2)
        assert f(x) == 0.0
        assert f.prox(1.0, x) == pytest.approx(x)
        assert f.conj_eval([0.0, 0.0]) == 0.0
        assert math.isinf(f.conj_eval([0.1, 0.0]))

    def test_quadratic_form_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadraticForm(-1.0 * np.eye(2), np.zeros(2))

    @pytest.mark.parametrize("make, message", [
        (lambda: BoxIndicator([1.0], [0.0]), "lo > hi"),
        (lambda: BoxIndicator([0.0], [1.0, 2.0]), "equal-length vectors"),
        (lambda: BoxIndicator([[0.0]], [[1.0]]), "equal-length vectors"),
        (lambda: L1Norm(0), "dimension must be positive, got 0"),
        (lambda: ZeroFunction(-1), "dimension must be positive, got -1"),
        (lambda: QuadraticForm(np.eye(2), np.zeros((2, 1))), "q must be a vector"),
        (lambda: QuadraticForm(np.eye(3), np.zeros(2)), "Q must be square and match"),
        (lambda: QuadraticForm(np.ones((2, 3)), np.zeros(2)), "Q must be square and match"),
    ], ids=["box-crossed", "box-lengths", "box-2-d", "l1-dim", "zero-dim", "form-q-2-d",
            "form-Q-size", "form-Q-not-square"])
    def test_constructors_refuse_bad_sizes_and_bounds(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            QuadraticDistance(np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            L1Norm(2, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_is_rejected(self, bad):
        with pytest.raises(ValueError, match="finite entries"):
            QuadraticDistance([bad, 0.0], 1.0)
        with pytest.raises(ValueError, match="weight must be positive and finite"):
            QuadraticDistance(np.zeros(2), bad)
        with pytest.raises(ValueError, match="weight must be nonnegative and finite"):
            L1Norm(2, bad)
        with pytest.raises(ValueError, match="Q and q must have finite entries"):
            QuadraticForm(np.array([[1.0, 0.0], [0.0, bad]]), np.zeros(2))
        with pytest.raises(ValueError, match="Q and q must have finite entries"):
            QuadraticForm(np.eye(2), [0.0, bad])

    def test_box_bounds_may_be_infinite_but_not_nan(self):
        box = BoxIndicator([-math.inf, 0.0], [1.0, math.inf])
        assert box.prox(1.0, [-5.0, 5.0]) == pytest.approx([-5.0, 5.0])
        for lo, hi in (([math.nan], [1.0]), ([0.0], [math.nan])):
            with pytest.raises(ValueError, match="must not be NaN"):
                BoxIndicator(lo, hi)


def _catalog(rng):
    """One instance of every shipped kind, the singular quadratic form included."""
    G = rng.standard_normal((3, 3))
    return [QuadraticDistance(rng.standard_normal(3), 1.7), L1Norm(3, 0.6),
            BoxIndicator([-1.0, -0.5, 0.0], [1.0, 0.5, 2.0]), ZeroFunction(3),
            QuadraticForm(G @ G.T + np.eye(3), rng.standard_normal(3)),
            QuadraticForm([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]],
                          np.ones(3))]


class TestCheckedBoundary:
    """The public prox/conj_grad check once and return the trusted method's bits."""

    def test_public_methods_equal_the_trusted_ones_bitwise(self, rng):
        for f in _catalog(rng):
            for _ in range(20):
                gamma = float(rng.uniform(0.05, 5.0))
                x = rng.standard_normal(3) * 3.0
                assert f.prox(gamma, x).tobytes() == f._prox(gamma, x).tobytes()
                assert f.prox(gamma, x.tolist()).tobytes() == f._prox(gamma, x).tobytes()
                if f.strong_convexity > 0.0:
                    assert f.conj_grad(x).tobytes() == f._conj_grad(x).tobytes()

    def test_public_prox_returns_a_new_array(self, rng):
        for f in _catalog(rng):
            x = rng.standard_normal(3)
            assert not np.shares_memory(f.prox(1.0, x), x)

    def test_bad_steps_and_lengths_still_raise(self, rng):
        for f in _catalog(rng):
            for gamma in (0.0, -1.0):
                with pytest.raises(ValueError, match="prox step must be positive"):
                    f.prox(gamma, np.zeros(3))
            with pytest.raises(DimensionMismatchError, match="prox input"):
                f.prox(1.0, np.zeros(4))
            if f.strong_convexity > 0.0:
                with pytest.raises(DimensionMismatchError, match="conj_grad input"):
                    f.conj_grad(np.zeros(2))
            else:
                with pytest.raises(CapabilityError):
                    f.conj_grad(np.zeros(2))
