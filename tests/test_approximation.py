import math

import numpy as np
import pytest

from bandlim.approximation import (MAX_COEFF_NODES, MAX_LEWITAN_K,
                                   TrigApproximant, evaluate_convolution,
                                   fourier_coefficients, lewitan)
from bandlim.analysis import exp_coefficients
from bandlim.functions import (DecayEnvelope, PMembership, TestFunction,
                               make_complex_exponential, make_fejer_square,
                               make_sinc)
from bandlim.quadrature import QuadratureNonConvergence, QuadratureSpec

QUAD = QuadratureSpec()


def closed_form_exp_coeff(tau, k):
    return (-1.0) ** k * math.sin(tau) / (tau - math.pi * k)


class TestFourierCoefficients:
    @pytest.mark.parametrize("tau", [2.5, 10.0])
    def test_exponential_closed_form(self, tau):
        f = make_complex_exponential(1.0)
        a = fourier_coefficients(f, tau, QUAD)
        for k in range(-a.N, a.N + 1):
            assert a.coefficient(k) == pytest.approx(
                closed_form_exp_coeff(tau, k), abs=1e-9)

    def test_exponential_at_tau_pi(self):
        f = make_complex_exponential(1.0)
        a = fourier_coefficients(f, math.pi, QUAD)
        assert a.coefficient(1) == pytest.approx(1.0, abs=1e-10)
        for k in (-1, 0):
            assert abs(a.coefficient(k)) <= 1e-10

    def test_sinc_c3_matches_simpson_oracle(self, oracle):
        ref = oracle["sinc1_tau10_c3"]
        a = fourier_coefficients(make_sinc(1.0), 10.0, QUAD)
        assert a.coefficient(3) == pytest.approx(
            complex(ref["re"], ref["im"]), abs=1e-9)

    def test_integer_part_contract(self):
        a = fourier_coefficients(make_sinc(1.0), 10.0, QUAD)
        assert a.N == math.floor(1.0 * 10.0 / math.pi)
        assert len(a.coefficients) == 2 * a.N + 1

    def test_conjugate_symmetry_for_real_source(self):
        a = fourier_coefficients(make_fejer_square(2.0), 10.0, QUAD)
        for k in range(1, a.N + 1):
            assert abs(a.coefficient(-k) - np.conj(a.coefficient(k))) \
                <= a.coeff_error

    def test_linearity(self):
        f = make_sinc(1.0)
        g = make_fejer_square(1.0)
        alpha, beta = 0.7, -1.3

        combined = TestFunction(
            id="combo", sigma=1.0,
            eval_real=lambda x: (alpha * np.asarray(f.eval_real(x))
                                 + beta * np.asarray(g.eval_real(x))),
            eval_complex=None, decay=f.decay, p_membership=f.p_membership)
        tau = 8.0
        ac = fourier_coefficients(combined, tau, QUAD)
        af = fourier_coefficients(f, tau, QUAD)
        ag = fourier_coefficients(g, tau, QUAD)
        expect = alpha * af.coefficients + beta * ag.coefficients
        assert np.max(np.abs(ac.coefficients - expect)) \
            <= 3.0 * QUAD.abs_tol * (1 + abs(alpha) + abs(beta))

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            fourier_coefficients(make_sinc(1.0), 0.0, QUAD)

    @pytest.mark.parametrize("tau", [320.4, 1280.3])
    def test_exponential_at_large_tau(self, tau):
        a = fourier_coefficients(make_complex_exponential(1.0), tau, QUAD)
        ref = exp_coefficients(tau)
        assert a.N == ref.N
        assert np.max(np.abs(a.coefficients - ref.coefficients)) \
            <= QUAD.abs_tol

    def test_discontinuity_stops_at_node_limit(self):
        largest = []

        def step(x):
            x = np.asarray(x, dtype=float)
            largest.append(x.size)
            return np.sign(x - 0.1234)

        base = make_sinc(1.0)
        f = TestFunction(id="step", sigma=1.0, eval_real=step,
                         eval_complex=None, decay=base.decay,
                         p_membership=base.p_membership)
        with pytest.raises(QuadratureNonConvergence, match="tau=10"):
            fourier_coefficients(f, 10.0, QUAD)
        assert max(largest) <= MAX_COEFF_NODES


def reference_sum(a: TrigApproximant, x):
    """Plain per-k sum, one term at a time."""
    theta = np.asarray(x, dtype=float) * (math.pi / a.tau)
    total = np.zeros(np.shape(theta), dtype=complex)
    for k in range(-a.N, a.N + 1):
        total = total + a.coefficients[k + a.N] * np.exp(1j * k * theta)
    return total


class TestEvaluate:
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 15, 16, 17, 2000])
    def test_matches_reference_sum(self, N):
        rng = np.random.default_rng(N)
        tau = 7.5
        coeffs = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
        a = TrigApproximant(tau=tau, sigma=math.pi * N / tau, N=N,
                            coefficients=coeffs, coeff_error=0.0)
        # The phase of term k is rounded differently (k theta against
        # aB theta + (b+1) theta), by a few ulps of |k theta| <= 3 pi N
        # for |x| <= 3 tau.
        tol = 4.0 * np.finfo(float).eps * 3.0 * math.pi * (N + 1) \
            * np.sum(np.abs(coeffs))
        scalar = a.evaluate(2.3)
        assert np.ndim(scalar) == 0
        assert abs(scalar - reference_sum(a, 2.3)) <= tol
        for x in (rng.uniform(-3 * tau, 3 * tau, 41),
                  rng.uniform(-3 * tau, 3 * tau, (5, 7))):
            got = np.asarray(a.evaluate(x))
            assert got.shape == x.shape
            assert np.max(np.abs(got - reference_sum(a, x))) <= tol

    def test_zero_coefficients(self):
        a = TrigApproximant(tau=5.0, sigma=1.0, N=1,
                            coefficients=np.zeros(3, dtype=complex),
                            coeff_error=0.0)
        assert a.evaluate(1.234) == 0.0

    def test_constant_term(self):
        a = TrigApproximant(tau=5.0, sigma=1.0, N=1,
                            coefficients=np.array([0.0, 1.0, 0.0], dtype=complex),
                            coeff_error=0.0)
        for x in (-3.0, 0.0, 4.9):
            assert a.evaluate(x) == pytest.approx(1.0, abs=1e-15)

    def test_counterexample_point_is_real(self):
        # at tau = pi/2 + 2 pi the sum collapses to a real number
        tau = math.pi / 2 + 2 * math.pi
        a = exp_coefficients(tau)
        assert abs(complex(a.evaluate(tau)).imag) < 1e-14

    def test_periodicity(self):
        a = fourier_coefficients(make_sinc(1.0), 10.0, QUAD)
        x = np.linspace(-9.0, 9.0, 37)
        v1 = np.asarray(a.evaluate(x))
        v2 = np.asarray(a.evaluate(x + 2 * a.tau))
        assert np.max(np.abs(v1 - v2)) <= 1e-10 * np.max(np.abs(v1))

    def test_imaginary_part_small_for_real_source(self):
        a = fourier_coefficients(make_fejer_square(2.0), 10.0, QUAD)
        x = np.linspace(-10.0, 10.0, 101)
        assert np.max(np.abs(np.asarray(a.evaluate(x)).imag)) <= a.coeff_error

    def test_coefficient_index_bounds(self):
        a = exp_coefficients(10.0)
        with pytest.raises(IndexError):
            a.coefficient(a.N + 1)


class TestTruncated:
    def test_boundary_included(self):
        a = exp_coefficients(10.0)
        assert a.truncated(10.0) == pytest.approx(a.evaluate(10.0))

    def test_outside_support(self):
        a = exp_coefficients(10.0)
        assert a.truncated(10.0 + 1e-9) == 0.0
        assert a.truncated(-10.0 - 1e-9) == 0.0

    def test_at_zero_is_coefficient_sum(self):
        a = exp_coefficients(10.0)
        assert a.truncated(0.0) == pytest.approx(
            complex(np.sum(a.coefficients)), abs=1e-14)


class TestConvolutionForm:
    def test_agrees_with_sum_form(self):
        f = make_sinc(1.0)
        tau = 10.0
        a = fourier_coefficients(f, tau, QUAD)
        rng = np.random.default_rng(7)
        for x in rng.uniform(-tau, tau, 20):
            conv, err = evaluate_convolution(f, tau, float(x), QUAD)
            combined = a.coeff_error * (2 * a.N + 1) + err + QUAD.abs_tol
            assert abs(complex(a.evaluate(float(x))) - conv) <= combined

    def test_zero_function(self):
        z = TestFunction(id="zero", sigma=1.0,
                         eval_real=lambda x: np.zeros_like(np.asarray(x, float)),
                         eval_complex=None,
                         decay=make_sinc(1.0).decay,
                         p_membership=make_sinc(1.0).p_membership)
        conv, err = evaluate_convolution(z, 5.0, 1.3, QUAD)
        assert conv == 0.0

    def test_exponential_reproduced_at_tau_pi(self):
        f = make_complex_exponential(1.0)
        conv, err = evaluate_convolution(f, math.pi, 0.0, QUAD)
        assert conv == pytest.approx(1.0, abs=1e-9)


class TestLewitan:
    def test_zero_function(self):
        z = TestFunction(id="zero", sigma=1.0,
                         eval_real=lambda x: np.zeros_like(np.asarray(x, float)),
                         eval_complex=None,
                         decay=make_fejer_square(2.0).decay,
                         p_membership=make_fejer_square(2.0).p_membership)
        for x in (0.0, 0.37, -4.2):
            value, tail = lewitan(z, 10.0, x, 50)
            assert value == 0.0

    def test_weight_one_at_zero(self):
        f = make_fejer_square(2.0)
        value, tail = lewitan(f, 25.0, 0.0)
        assert value == pytest.approx(f(0.0), abs=tail + 5e-4)

    def test_partial_sum_matches_long_oracle(self, oracle):
        ref = oracle["lewitan_sinc1_tau20"]
        value, tail = lewitan(make_sinc(1.0), ref["tau"], ref["x"], 10_000)
        assert value == pytest.approx(ref["value"], abs=1e-8)

    def test_auto_cutoff_meets_tail_target(self):
        value, tail = lewitan(make_sinc(1.0), 20.0, 0.37, 0)
        assert tail <= 1e-8

    def test_narrow_convergence_on_compact_grid(self):
        f = make_sinc(1.0)
        x = np.linspace(-5.0, 5.0, 81)
        sups = []
        for tau in (10.0, 20.0, 40.0, 80.0):
            errs = [abs(lewitan(f, tau, float(xi), 0)[0] - f(float(xi)))
                    for xi in x]
            sups.append(max(errs))
        assert sups[0] > sups[1] > sups[2] > sups[3]

    # On f = 1 with tau = 1 and x = u, the periodization sum is the sum of
    # the weights at offsets u + k, |k| <= K.
    ONE = TestFunction(id="one", sigma=0.0, eval_real=np.ones_like,
                       eval_complex=None, decay=DecayEnvelope(1.0, 0.0),
                       p_membership=PMembership(math.inf))

    def test_classical_weights_partition_of_unity(self):
        for u in (0.0, 0.3, -0.77, 0.499):
            total, tail = lewitan(self.ONE, 1.0, u, 20_000, "classical")
            assert total == pytest.approx(1.0, abs=1e-4)

    def test_verbatim_weights_are_not_partition(self):
        total, tail = lewitan(self.ONE, 1.0, 0.5, 20_000, "verbatim")
        assert abs(total - 1.0) > 0.1

    def test_rejects_bad_arguments(self):
        f = make_sinc(1.0)
        with pytest.raises(ValueError):
            lewitan(f, 0.0, 0.1)
        with pytest.raises(ValueError):
            lewitan(f, 10.0, 0.1, -1)
        with pytest.raises(ValueError):
            lewitan(f, 10.0, 0.1, 10, "other")
        with pytest.raises(ValueError, match="K must lie in"):
            lewitan(f, 10.0, 0.1, MAX_LEWITAN_K + 1)

    @pytest.mark.parametrize("tau, x", [(1e-10, 1.0), (1e-300, 1e300)])
    def test_rejects_abscissa_beyond_cutoff_limit(self, tau, x):
        with pytest.raises(ValueError, match=r"\|x\| / tau"):
            lewitan(make_sinc(1.0), tau, x, 5)


class TestJsonRoundTrip:
    def test_roundtrip(self, tmp_path):
        a = fourier_coefficients(make_sinc(1.0), 10.0, QUAD)
        path = tmp_path / "approx.json"
        a.save(path)
        b = TrigApproximant.load(path)
        assert b.tau == a.tau and b.sigma == a.sigma and b.N == a.N
        assert np.array_equal(b.coefficients, a.coefficients)
        assert b.coeff_error == a.coeff_error

    def test_length_validation(self):
        with pytest.raises(ValueError):
            TrigApproximant(tau=1.0, sigma=1.0, N=2,
                            coefficients=np.zeros(3, dtype=complex),
                            coeff_error=0.0)
