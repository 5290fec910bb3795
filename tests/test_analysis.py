import cmath
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandlim import analysis, approximation, quadrature
from bandlim.analysis import (DecompositionValues, check_nikolskii,
                              check_plancherel_polya, check_poly_nikolskii,
                              convergence_study, counterexample_run,
                              decomposition_F123, exp_coefficients,
                              lp_norm_interval, lp_norm_line,
                              sup_norm_certified)
from bandlim.approximation import (TrigApproximant, _first_level,
                                   _five_smooth, _level,
                                   evaluate_convolution, fourier_coefficients)
from bandlim.functions import (INF, TestFunction, from_id,
                               make_complex_exponential, make_fejer_square,
                               make_sinc, sinc_ratio)
from bandlim.kernels import kernel_gap_bound, n_terms
from bandlim.quadrature import QuadratureSpec

QUAD = QuadratureSpec()


def first_levels(g, a):
    """The :func:`_level` of g at the first panel count n of the
    coefficient ladder at a.tau, as the ladder passes it on to the
    interior rule where it accepts n."""
    n = _first_level(a.sigma, a.tau, "the test needs")
    return _level(g, a.tau, a.N, n)


def zero_function():
    base = make_fejer_square(2.0)
    return TestFunction(id="zero", sigma=2.0,
                        eval_real=lambda x: np.zeros_like(np.asarray(x, float)),
                        eval_complex=None, decay=base.decay,
                        p_membership=base.p_membership)


class TestLpNorms:
    def test_constant_one(self):
        for p in (1.0, 2.0, 3.5):
            est = lp_norm_interval(lambda x: np.ones_like(x), p, 0.0, 1.0)
            assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_cosine_l2_on_period(self):
        # integral of cos^2 over [0, 2 pi] is pi
        est = lp_norm_interval(np.cos, 2.0, 0.0, 2.0 * math.pi)
        assert est.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_riemann_cross_check(self):
        g = make_fejer_square(2.0).eval_real
        x = np.linspace(-30.0, 30.0, 2_000_001)
        riemann = (np.trapezoid(np.abs(np.asarray(g(x))) ** 2, x)) ** 0.5
        est = lp_norm_interval(g, 2.0, -30.0, 30.0, QUAD)
        assert est.value == pytest.approx(riemann, abs=1e-6)

    def test_monotone_in_interval(self):
        g = make_sinc(1.0).eval_real
        n1 = lp_norm_interval(g, 2.0, -10.0, 10.0).value
        n2 = lp_norm_interval(g, 2.0, -50.0, 50.0).value
        assert n2 > n1

    def test_line_norm_includes_tail_in_error(self):
        est = lp_norm_line(make_sinc(1.0), 2.0, QUAD)
        assert est.tail_bound > 0.0
        assert est.error_bound >= est.tail_bound

    def test_underflowing_tail_raises(self):
        # the envelope tail beyond the 1e4 window is about 6.7e-5 in L^100,
        # but its integral, about 1e-417, is below every float
        with pytest.raises(ValueError, match="underflows"):
            lp_norm_line(make_sinc(1.0), 100.0, QUAD)

    def test_overflowing_tail_budget_takes_the_window_floor(self):
        # abs_tol^4 = 1e400 overflowed as a Python float and raised
        # OverflowError; the window now drops to its floor of 50
        est = lp_norm_line(make_sinc(1.0), 4.0, QuadratureSpec(abs_tol=1e100))
        exact = (2.0 / (3.0 * math.pi ** 3)) ** 0.25
        assert math.isfinite(est.value) and math.isfinite(est.error_bound)
        assert abs(est.value - exact) <= est.error_bound

    def test_line_norm_rejects_nonmember(self):
        with pytest.raises(ValueError):
            lp_norm_line(make_sinc(1.0), 1.0, QUAD)
        with pytest.raises(ValueError):
            lp_norm_line(make_complex_exponential(1.0), 2.0, QUAD)

    def test_rejects_bad_p_and_interval(self):
        with pytest.raises(ValueError):
            lp_norm_interval(np.cos, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            lp_norm_interval(np.cos, 2.0, 1.0, 1.0)


def line_window(env, p, quad=QUAD):
    """Half-width X of the real-line window."""
    return max(50.0, min(analysis._X_MAX,
                         env.cutoff_for_tail(quad.abs_tol ** p, p)))


def sampling_nodes(env, p, sigma, quad=QUAD):
    """Node count 2M + 1 of the even-p sampling sum."""
    cutoff = line_window(env, p, quad)
    return 2 * (math.floor(cutoff * p * sigma / (2.0 * math.pi)) + 1) + 1


class TestLineNormSampling:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_sinc_p4_closed_form(self, sigma):
        # ||sinc||_4^4 = 2 sigma^3 / (3 pi^3) for sin(sigma x) / (pi x)
        exact = (2.0 * sigma ** 3 / (3.0 * math.pi ** 3)) ** 0.25
        est = lp_norm_line(make_sinc(sigma), 4.0, QUAD)
        assert abs(est.value - exact) <= est.error_bound
        # the truncated sum of positive terms sits below the whole line
        assert -1e-12 <= exact - est.value <= est.error_bound

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    def test_sinc_p6_closed_form(self, sigma):
        # ||sinc||_6^6 = 11 sigma^5 / (20 pi^5) for sin(sigma x) / (pi x)
        exact = (11.0 * sigma ** 5 / (20.0 * math.pi ** 5)) ** (1.0 / 6.0)
        est = lp_norm_line(make_sinc(sigma), 6.0, QUAD)
        assert -1e-12 <= exact - est.value <= est.error_bound

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("p", [1.0, 3.0, 4.0])
    def test_fejer_square_closed_form(self, p, sigma):
        # ||f||_p^p = (2 / sigma) int (sin u / u)^(2p) du for
        # f = (sin(sigma x / 2) / (sigma x / 2))^2: the adaptive window at
        # p = 1 and 3, the sampling sum at p = 4
        integral = {1.0: math.pi, 3.0: 11.0 * math.pi / 20.0,
                    4.0: 151.0 * math.pi / 315.0}[p]
        exact = (2.0 / sigma * integral) ** (1.0 / p)
        est = lp_norm_line(make_fejer_square(sigma), p, QUAD)
        assert abs(est.value - exact) <= est.error_bound

    # the settings of the soundness properties in test_properties.py
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(sigma=st.floats(min_value=0.3, max_value=3.0))
    @pytest.mark.parametrize("name, p", [
        ("sinc", 2.0), ("sinc", 4.0), ("sinc", 6.0),
        ("fejer_square", 1.0), ("fejer_square", 3.0), ("fejer_square", 4.0)])
    def test_closed_form_over_sigma(self, name, p, sigma):
        # ||f||_p^p = sigma^(p - 1) pi^-p I_p for f = sin(sigma x) / (pi x),
        # and (2 / sigma) I_2p for fejer_square, I_q = int |sin u / u|^q du
        integral = {2: math.pi, 4: 2.0 * math.pi / 3.0,
                    6: 11.0 * math.pi / 20.0, 8: 151.0 * math.pi / 315.0}
        if name == "sinc":
            f = make_sinc(sigma)
            power = sigma ** (p - 1.0) / math.pi ** p * integral[p]
        else:
            f, power = make_fejer_square(sigma), 2.0 / sigma * integral[2 * p]
        est = lp_norm_line(f, p, QUAD)
        assert abs(est.value - power ** (1.0 / p)) <= est.error_bound

    def test_fejer_real_line_matches_known_norm(self):
        f = make_fejer_square(2.0)
        chk = check_plancherel_polya(f, 0.0, 2.0, QUAD)
        assert abs(chk.lhs - f.known_norms[2.0]) <= chk.error_bound

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_one_call_on_all_nodes(self, p):
        f = make_sinc(1.0)
        sizes = []

        def g(x):
            sizes.append(np.size(x))
            return f.eval_real(x)

        analysis._lp_norm_envelope(g, f.decay, p, QUAD, f.sigma)
        assert sizes == [sampling_nodes(f.decay, p, f.sigma)]

    @pytest.mark.parametrize("check", ["plancherel_polya", "lp_norm_line"])
    def test_large_sum_in_passes(self, check, monkeypatch):
        # sinc of type 500 takes 1.6M (p = 2, along y = 0.5) and 3.2M
        # (p = 4) nodes, which in one call peaked at 97.1 and 124.5 MiB;
        # the passes' sum keeps to the rounding term of the one-call sum
        f = make_sinc(500.0)
        seen = []
        envelope = analysis._lp_norm_envelope

        def spy(*args):
            seen.append(envelope(*args))
            return seen[-1]

        def run():
            if check == "lp_norm_line":
                lp_norm_line(f, 4.0, QUAD)
            else:
                check_plancherel_polya(f, 0.5, 2.0, QUAD)

        monkeypatch.setattr(analysis, "_lp_norm_envelope", spy)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(analysis, "_SAMPLING_PASS", quadrature.MAX_NODES)
        run()
        got, ref = seen
        assert peak < 16 * 2 ** 20
        assert abs(got.value - ref.value) <= got.error_bound - got.tail_bound

    @pytest.mark.parametrize("f, p", [(make_sinc(1.0), 2.0),
                                      (make_sinc(1.0), 6.0),
                                      (make_fejer_square(2.0), 4.0)])
    def test_step_below_nyquist_with_nodes_on_window_edges(self, f, p):
        calls = []

        def g(x):
            calls.append(np.array(x))
            return f.eval_real(x)

        analysis._lp_norm_envelope(g, f.decay, p, QUAD, f.sigma)
        [x] = calls
        cutoff = line_window(f.decay, p)
        nyquist = 2.0 * math.pi / (p * f.sigma)
        mid = len(x) // 2
        assert x[mid] == 0.0
        assert 0.99 * nyquist <= x[mid + 1] < nyquist
        assert abs(x[-1] - cutoff) <= 4 * math.ulp(cutoff)
        assert abs(x[0] + cutoff) <= 4 * math.ulp(cutoff)
        assert np.array_equal(x, -x[::-1])

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_other_p_take_adaptive_quadrature(self, p, monkeypatch):
        calls = []

        def counting(g, a, b, quad, **kw):
            calls.append((a, b))
            return 1.0, 0.0

        monkeypatch.setattr(analysis, "integrate", counting)
        lp_norm_line(make_fejer_square(2.0), p, QUAD)
        assert len(calls) == 1

    @pytest.mark.parametrize("f, p", [(make_sinc(1.0), 2.0),
                                      (make_sinc(1.0), 4.0),
                                      (make_fejer_square(2.0), 2.0)])
    def test_tail_and_error_bounds(self, f, p):
        est = lp_norm_line(f, p, QUAD)
        assert est.tail_bound > 0.0
        assert est.error_bound >= est.tail_bound

    def test_sample_limit_checked_before_sampling(self, monkeypatch):
        f = make_sinc(1.0)
        monkeypatch.setattr(quadrature, "MAX_NODES",
                            sampling_nodes(f.decay, 2.0, f.sigma) - 1)

        def g(x):
            raise AssertionError("sampled past the limit")

        with pytest.raises(ValueError, match="above the limit"):
            analysis._lp_norm_envelope(g, f.decay, 2.0, QUAD, f.sigma)

    def test_sample_count_beyond_float_range_rejected(self):
        # p = 1e308 is an even integer, and its sample count overflows to inf
        def g(x):
            raise AssertionError("sampled past the limit")

        f = dataclasses.replace(make_sinc(1.0), eval_real=g)
        with pytest.raises(ValueError, match="above the limit"):
            lp_norm_line(f, 1e308)


def inner_error(est):
    """The part of a real-line error bound that is not the envelope tail:
    the rounding of a sampling sum, or the quadrature error."""
    return est.error_bound - est.tail_bound


def full_grid(f):
    """f without the abs_even flag, whose norms take the symmetric grid."""
    return dataclasses.replace(f, abs_even=False)


class TestHalfLineSum:
    CASES = [(make_sinc(1.0), 2.0), (make_sinc(1.0), 4.0),
             (make_sinc(1.0), 6.0), (make_fejer_square(2.0), 2.0),
             (make_fejer_square(2.0), 4.0)]

    @pytest.mark.parametrize("f, p", CASES + [(make_fejer_square(2.0), 1.5)])
    def test_matches_the_full_grid(self, f, p):
        half = lp_norm_line(f, p, QUAD)
        full = lp_norm_line(full_grid(f), p, QUAD)
        assert half.tail_bound == full.tail_bound
        assert abs(half.value - full.value) <= (inner_error(half)
                                                + inner_error(full))

    @pytest.mark.parametrize("f, p", CASES)
    @pytest.mark.parametrize("y", [0.5, 2.0])
    def test_plancherel_polya_matches_the_full_grid(self, f, p, y):
        half = check_plancherel_polya(f, y, p, QUAD)
        full = check_plancherel_polya(full_grid(f), y, p, QUAD)
        assert abs(half.lhs - full.lhs) <= half.error_bound
        assert half.margin >= 0.0

    @pytest.mark.parametrize("f, p, nodes", [(make_sinc(1.0), 2.0, 3185),
                                             (make_sinc(1.0), 6.0, 9551),
                                             (make_fejer_square(2.0), 4.0,
                                              12734)])
    def test_one_call_on_the_half_grid(self, f, p, nodes):
        calls = []

        def g(x):
            calls.append(np.array(x))
            return f.eval_real(x)

        lp_norm_line(dataclasses.replace(f, eval_real=g), p, QUAD)
        [x] = calls
        cutoff = line_window(f.decay, p)
        nyquist = 2.0 * math.pi / (p * f.sigma)
        assert len(x) == nodes
        assert 2 * nodes - 1 == sampling_nodes(f.decay, p, f.sigma)
        assert x[0] == 0.0
        assert 0.99 * nyquist <= x[1] < nyquist
        assert abs(x[-1] - cutoff) <= 4 * math.ulp(cutoff)

    def test_plancherel_polya_samples_the_half_line(self):
        f = make_sinc(1.0)
        calls = []

        def g(z):
            calls.append(np.array(z))
            return f.eval_complex(z)

        check_plancherel_polya(dataclasses.replace(f, eval_complex=g), 0.5,
                               2.0, QUAD)
        [z] = calls
        assert z[0].real == 0.0 and np.all(np.diff(z.real) > 0)
        assert np.all(z.imag == 0.5)

    @pytest.mark.parametrize("even", [True, False])
    def test_other_p_integrate_the_half_window_rooted_once(self, even,
                                                           monkeypatch):
        calls = []

        def fake(g, a, b, quad, **kw):
            calls.append((a, b))
            return 1.0, 0.25

        monkeypatch.setattr(analysis, "integrate", fake)
        f = make_fejer_square(2.0)
        est = lp_norm_line(f if even else full_grid(f), 1.5, QUAD)
        cutoff = line_window(f.decay, 1.5)
        assert calls == [(0.0 if even else -cutoff, cutoff)]
        scale = 2.0 if even else 1.0
        assert est.value == scale ** (1.0 / 1.5)
        assert inner_error(est) == pytest.approx(
            0.25 * scale / (1.5 * est.value ** 0.5), rel=1e-12)


class TestSupCertificate:
    def test_zero_function(self):
        cert = sup_norm_certified(lambda x: np.zeros_like(x), 1.0, -1.0, 1.0)
        assert cert.certified_bound == 0.0

    def test_exponential_spacing_and_bound(self):
        f = make_complex_exponential(1.0)
        cert = sup_norm_certified(f.eval_real, 1.0, 0.0, 2.0 * math.pi)
        # spacing is capped by 4 asin(0.05) ~ 0.20017
        assert cert.spacing <= 4.0 * math.asin(0.05) + 1e-15
        assert 1.0 <= cert.certified_bound <= 1.0 / 0.9 + 1e-12

    def test_sound_against_dense_grid(self):
        a = fourier_coefficients(make_sinc(1.0), 20.0, QUAD)

        def diff(x):
            return (np.asarray(make_sinc(1.0).eval_real(x))
                    - np.asarray(a.evaluate(x)))

        sigma_eff = max(1.0, math.pi * a.N / 20.0)
        cert = sup_norm_certified(diff, sigma_eff, -20.0, 20.0)
        dense = np.linspace(-20.0, 20.0, 200_001)
        dense_max = float(np.max(np.abs(np.asarray(diff(dense)))))
        assert cert.certified_bound >= dense_max
        assert cert.certified_bound <= 1.2 * dense_max

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sup_norm_certified(np.cos, 0.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            sup_norm_certified(np.cos, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("sigma_eff, a, b, text", [
        (math.inf, -1.0, 1.0, "positive and finite"),
        (math.nan, -1.0, 1.0, "positive and finite"),
        (1.0, -math.inf, 1.0, "finite a < b"),
        (1.0, -1.0, math.nan, "finite a < b"),
    ])
    def test_rejects_non_finite_arguments(self, sigma_eff, a, b, text):
        with pytest.raises(ValueError, match=text):
            sup_norm_certified(np.cos, sigma_eff, a, b)

    @pytest.mark.parametrize("name", ["exp10", "exp40", "sinc10", "random"])
    def test_cross_checks_the_panel_sup_of_f_tau(self, name):
        # f_tau is 2 tau-periodic, so its sup over the real line is its sup
        # over [-tau, tau], as the contraction grid requires; both
        # certificates bound the largest sample of the other
        a = POLY_APPROXIMANTS[name]()
        _, panel = analysis._interior_lp(
            0.0, a, 2.0, QUAD, first_levels(np.zeros_like, a),
            np.zeros_like)
        grid = sup_norm_certified(a.evaluate, math.pi * a.N / a.tau,
                                  -a.tau, a.tau)
        assert panel.certified_bound >= grid.grid_max
        assert grid.certified_bound >= panel.grid_max

    def test_grid_limit_checked_before_sampling(self, monkeypatch):
        def refuse(x):
            raise AssertionError("sampled past the grid limit")

        with pytest.raises(ValueError, match="above the limit"):
            sup_norm_certified(refuse, 1e12, -1.0, 1.0)
        monkeypatch.setattr(quadrature, "MAX_NODES", 100)
        h_max = 4.0 * math.asin(0.05)
        with pytest.raises(ValueError, match="101 nodes, above the limit"):
            sup_norm_certified(refuse, 1.0, 0.0, 99.5 * h_max)
        # 98.5 spacings take ceil(98.5) + 1 = 100 points, at the limit
        cert = sup_norm_certified(np.cos, 1.0, 0.0, 98.5 * h_max)
        assert cert.spacing == pytest.approx(98.5 * h_max / 99)


class TestPlancherelPolya:
    @pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
    def test_lhs_matches_analytic_oracle(self, oracle, y):
        ref = oracle["plancherel_sinc1_p2_lhs"][f"{y:g}"]
        chk = check_plancherel_polya(make_sinc(1.0), y, 2.0, QUAD)
        assert chk.lhs == pytest.approx(ref, abs=chk.error_bound + 1e-8)

    def test_holds_on_real_line(self):
        chk = check_plancherel_polya(make_sinc(1.0), 0.0, 2.0, QUAD)
        assert chk.holds
        # at y = 0 the two sides coincide up to quadrature error
        assert abs(chk.margin) <= chk.error_bound + 1e-8

    def test_requires_complex_evaluator(self):
        with pytest.raises(ValueError):
            check_plancherel_polya(zero_function(), 0.5, 2.0, QUAD)

    def test_tail_overflow_rejected_before_sampling(self):
        # e^700 C overflows the envelope tail; it must raise before |g|^p
        # is summed, so that numpy never warns about the power overflowing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                check_plancherel_polya(make_sinc(1.0), 700.0, 2.0, QUAD)

    def test_growth_overflow_rejected_before_sampling(self):
        base = make_sinc(1.0)

        def refuse(z):
            raise AssertionError("sampled an overflowing line")

        f = TestFunction(id="sinc", sigma=1.0, eval_real=refuse,
                         eval_complex=refuse, decay=base.decay,
                         p_membership=base.p_membership,
                         known_norms=base.known_norms)
        for y in (800.0, -800.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="overflows"):
                check_plancherel_polya(f, y, 2.0, QUAD)


class TestNikolskii:
    def test_equal_exponents_factor_two(self):
        chk = check_nikolskii(make_sinc(1.0), 2.0, 2.0, QUAD)
        assert chk.holds
        # rhs = 2 lhs exactly, so the margin equals the norm itself
        assert chk.margin == pytest.approx(chk.lhs, rel=1e-10)

    @pytest.mark.parametrize("r1, r2", [(2.0, 4.0), (2.0, INF)])
    def test_sinc_pairs_hold(self, r1, r2):
        chk = check_nikolskii(make_sinc(1.0), r1, r2, QUAD)
        assert chk.holds and chk.margin > 0.0

    @pytest.mark.parametrize("r1, r2", [(1.0, 2.0), (1.0, INF), (2.0, INF)])
    def test_fejer_pairs_hold(self, r1, r2):
        chk = check_nikolskii(make_fejer_square(2.0), r1, r2, QUAD)
        assert chk.holds and chk.margin > 0.0

    def test_rejects_decreasing_exponents(self):
        with pytest.raises(ValueError):
            check_nikolskii(make_sinc(1.0), 4.0, 2.0, QUAD)


def random_approximant():
    rng = np.random.default_rng(11)
    coeffs = (rng.standard_normal(11) + 1j * rng.standard_normal(11))
    return TrigApproximant(tau=5.0, sigma=math.pi, N=5,
                           coefficients=coeffs, coeff_error=0.0)


POLY_APPROXIMANTS = {
    "exp10": lambda: exp_coefficients(10.0),
    "exp40": lambda: exp_coefficients(40.0),
    "sinc10": lambda: fourier_coefficients(make_sinc(1.0), 10.0, QUAD),
    "random": random_approximant,
}


def poly_norm_by_adaptive_rule(a, p):
    """Oracle for the polynomial Nikolskii norm: ||u||_{L^p[-pi,pi]} of
    u(t) = f_tau(tau t / pi) by adaptive quadrature with evaluate on every
    node, on panels of width pi / (2N)."""
    def u(t):
        return a.evaluate(a.tau * np.asarray(t, dtype=float) / math.pi)

    return lp_norm_interval(u, p, -math.pi, math.pi, QUAD,
                            max_panel_width=math.pi / (2.0 * a.N))


class TestPolyNikolskii:
    def test_random_coefficients(self):
        rng = np.random.default_rng(11)
        coeffs = (rng.standard_normal(11) + 1j * rng.standard_normal(11))
        a = TrigApproximant(tau=5.0, sigma=math.pi, N=5,
                            coefficients=coeffs, coeff_error=0.0)
        chk = check_poly_nikolskii(a, 2.0, QUAD)
        assert chk.holds and chk.margin > 0.0

        # the certified sup really dominates a dense grid scan
        t = np.linspace(-math.pi, math.pi, 100_001)
        grid_max = float(np.max(np.abs(np.asarray(
            a.evaluate(a.tau * t / math.pi)))))
        assert grid_max <= chk.lhs <= 1.3 * grid_max

    def test_exponential_approximant(self):
        chk = check_poly_nikolskii(exp_coefficients(10.0), 2.0, QUAD)
        assert chk.holds

    def test_rejects_trivial_degree(self):
        a = TrigApproximant(tau=1.0, sigma=1.0, N=0,
                            coefficients=np.ones(1, dtype=complex),
                            coeff_error=0.0)
        with pytest.raises(ValueError):
            check_poly_nikolskii(a, 2.0, QUAD)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", list(POLY_APPROXIMANTS))
    def test_norm_matches_adaptive_oracle(self, name, p):
        a = POLY_APPROXIMANTS[name]()
        chk = check_poly_nikolskii(a, p, QUAD)
        factor = 2.0 * a.N ** (1.0 / p)
        ref = poly_norm_by_adaptive_rule(a, p)
        # as in TestInteriorRule: the f_tau values of both paths are rounded
        # to a few eps sum |c_k| at each node
        rounding = (16.0 * np.finfo(float).eps
                    * float(np.sum(np.abs(a.coefficients)))
                    * (2.0 * math.pi) ** (1.0 / p))
        assert abs(chk.rhs / factor - ref.value) \
            <= chk.error_bound / factor + ref.error_bound + rounding

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_even_p_takes_one_evaluate_call(self, p, monkeypatch):
        calls = []
        original = TrigApproximant.evaluate

        def counting(self, x):
            calls.append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(TrigApproximant, "evaluate", counting)
        check_poly_nikolskii(exp_coefficients(40.0), p, QUAD)
        sup_grid_calls = 0
        assert len(calls) == sup_grid_calls


class TestDecomposition:
    def test_zero_function(self):
        d = decomposition_F123(zero_function(), 10.0, 0.5, 1.0, QUAD)
        assert d.f1 == 0.0 and d.f2 == 0.0 and d.f3 == 0.0

    def test_identity_reproduces_truncation_error(self):
        f = make_fejer_square(2.0)
        tau, x = 20.0, 1.0
        a = fourier_coefficients(f, tau, QUAD)
        d = decomposition_F123(f, tau, 0.5, x, QUAD)
        direct = complex(np.asarray(f.eval_real(x))[()]) - complex(a.evaluate(x))
        assert abs((d.f1 + d.f2 - d.f3) - direct) <= 1e-7

    def test_f2_respects_kernel_gap_bound(self, oracle):
        f = make_fejer_square(2.0)
        d = decomposition_F123(f, 20.0, 0.5, 1.0, QUAD)
        l1 = oracle["fejer_square_sigma2_l1"]["exact"]
        assert abs(d.f2) <= kernel_gap_bound(2.0, 20.0, 0.5) * l1 * 1.001

    def test_rejects_bad_arguments(self):
        f = make_fejer_square(2.0)
        with pytest.raises(ValueError):
            decomposition_F123(f, 10.0, 1.0, 0.0, QUAD)
        with pytest.raises(ValueError):
            decomposition_F123(f, 10.0, 0.5, 11.0, QUAD)
        with pytest.raises(ValueError):
            decomposition_F123(make_sinc(1.0), 10.0, 0.5, 0.0, QUAD)


class TestCounterexample:
    @pytest.mark.parametrize("m", [1, 5])
    def test_gap_is_one(self, m):
        [(tau, gap)] = counterexample_run([m])
        assert tau == pytest.approx(math.pi / 2 + 2 * math.pi * m)
        assert gap == pytest.approx(1.0, abs=1e-9)

    def test_convolution_cross_check(self):
        f = make_complex_exponential(1.0)
        tau = math.pi / 2 + 2 * math.pi
        conv, err = evaluate_convolution(f, tau, tau, QUAD)
        assert abs(conv.imag) <= max(err, 1e-8)
        gap = (cmath.exp(1j * tau) - conv).imag
        assert gap == pytest.approx(1.0, abs=max(err, 1e-8))

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            counterexample_run([0])

    def test_coefficient_limit_checked_before_allocating(self, monkeypatch):
        # N = 31 at tau = 100, so 63 coefficients
        monkeypatch.setattr(quadrature, "MAX_NODES", 62)
        with pytest.raises(ValueError, match="63 coefficients, above the limit"):
            exp_coefficients(100.0)
        monkeypatch.setattr(quadrature, "MAX_NODES", 63)
        assert exp_coefficients(100.0).N == 31

    def test_huge_m_rejected(self):
        with pytest.raises(ValueError, match="above the limit"):
            counterexample_run([10 ** 8])

    @pytest.mark.parametrize("m_list, text", [
        ([1, 2, 10 ** 8], "above the limit"),
        ([1, 2, 0], "positive integers"),
        ([1, 2.5], "positive integers"),
        ([1, math.nan], "positive integers"),
        ([1, math.inf], "positive integers"),
        ([1, 10 ** 400], "beyond the float range"),
        (range(1, 100_001), "coefficients in all, above the limit"),
        # a count limit broken before a bad value wins, as one by one
        ([1, 10 ** 8, 0], "above the limit"),
        ([1, 10 ** 8, 10 ** 400], "above the limit"),
        ([*range(1, 100_001), 2.5], "coefficients in all, above the limit"),
        ([1, 10 ** 400, 10 ** 8], "beyond the float range"),
        ([1, -10 ** 400, 10 ** 400], "positive integers"),
    ])
    def test_every_m_checked_before_any_coefficients(self, m_list, text,
                                                     monkeypatch):
        built = []
        monkeypatch.setattr(analysis, "_half_harmonic",
                            lambda *args: built.append(args))
        with pytest.raises(ValueError, match=text):
            counterexample_run(m_list)
        assert built == []

    def test_total_coefficient_limit(self, monkeypatch):
        # N = 2 and 4 at m = 1 and 2: 5 + 9 coefficients
        monkeypatch.setattr(analysis, "MAX_COUNTEREXAMPLE_COEFFS", 13)
        with pytest.raises(ValueError, match="at least 14 coefficients"):
            counterexample_run([1, 2])
        monkeypatch.setattr(analysis, "MAX_COUNTEREXAMPLE_COEFFS", 14)
        assert len(counterexample_run([1, 2])) == 2

    def test_keeps_input_order(self):
        # unsorted, with m at all three rounded angles
        m_list = [1000, 1, 999, 2, *range(3, 40)]
        results = counterexample_run(m_list)
        assert len(results) == len(m_list)
        for m, (tau, gap) in zip(m_list, results):
            assert tau == 0.5 * math.pi + 2.0 * math.pi * m
            assert abs(gap - counterexample_reference(tau)) <= 1e-12, m

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double here")
    def test_gap_at_large_m_is_the_gap_at_the_rounded_angle(self):
        # At m = 250 000 the exact gap at the rounded theta is 1 + 2.69e-10:
        # the drift from 1 is the slope of f_tau times the rounding of
        # theta, which the computed value follows.  The long-double sum
        # (-1)^k sin(k theta) sin(u) / (u - pi k) is off by about 1e-14.
        [(tau, gap)] = counterexample_run([250_000])
        N = n_terms(1.0, tau)
        theta = np.longdouble(tau * (math.pi / tau))
        pi = 4 * np.arctan(np.longdouble(1))
        u = np.longdouble(tau)
        k = np.arange(-N, N + 1, dtype=np.longdouble)
        terms = np.sin(k * theta)
        terms[(N + 1) % 2::2] *= -1
        terms /= u - pi * k
        exact = float(np.sin(u) * (1 - np.sum(terms)))
        assert abs(exact - 1.0) > 1e-10
        assert abs(gap - exact) <= 1e-12


def counterexample_reference(tau):
    """Im(f - f_tau)(tau) for f = e^{ix} at 40 digits, at the theta = pi x
    / tau that TrigApproximant.evaluate rounds for x = tau."""
    import mpmath as mp

    N = n_terms(1.0, tau)
    theta = tau * (math.pi / tau)
    with mp.workdps(40):
        u, t = mp.mpf(tau), mp.mpf(theta)
        total = mp.fsum(mp.sin(u - mp.pi * k) / (u - mp.pi * k)
                        * mp.sin(k * t) for k in range(-N, N + 1))
        return float(mp.sin(u) - total)


def exp_coefficient_row_masked(u, N):
    """The boolean-mask form of analysis._exp_coefficient_row, kept as its
    reference."""
    k = np.arange(-N, N + 1)
    d = u - math.pi * k
    near = np.abs(d) < 1.0
    row = np.where(near, 1.0, d)
    row *= np.where(k % 2 == 0, 1.0, -1.0)
    np.divide(np.sin(u), row, out=row)
    row[near] = sinc_ratio(d[near])
    return row


class TestExpCoefficients:
    # Rows of each case: N = 0; negative u; u within 1e-7 of pi k on either
    # side; a near index k = rint(u / pi) beyond N (u = 100, N = 3; u = 20,
    # N = 2); the counterexample's u = tau_m
    @pytest.mark.parametrize("u, N", [
        ([0.0], [0]),
        ([0.4], [0]),
        ([-5 * math.pi - 0.2, -123.4], [6, 40]),
        ([7 * math.pi + 1e-8, 7 * math.pi - 9e-8, -3 * math.pi + 5e-8],
         [8, 9, 4]),
        ([100.0], [3]),
        ([20.0, 20.0, 3.0], [2, 8, 1]),
        ([0.5 * math.pi + 2.0 * math.pi * m for m in range(1, 41)],
         [2 * m for m in range(1, 41)]),
    ])
    def test_rows_match_masked_form(self, u, N):
        for u_r, N_r in zip(u, N):
            assert np.array_equal(analysis._exp_coefficient_row(u_r, N_r),
                                  exp_coefficient_row_masked(u_r, N_r))

    # (omega, tau): omega tau within 1e-6 of pi k, within 0.5 of pi k,
    # negative omega, and tau up to about 6000
    @pytest.mark.parametrize("omega, tau", [
        (1.0, 7 * math.pi + 1e-7),
        (1.0, 1000 * math.pi + 3e-7),
        (-1.0, 5 * math.pi + 1e-6),
        (1.0, 40 * math.pi + 0.5),
        (1.0, 40 * math.pi - 0.3),
        (-1.3, 123.4),
        (-0.7, 1900 * math.pi / 0.7 + 0.2),
        (1.0, 1234.57),
        (2.5, 2400.1),
        (1.0, 5999.37),
    ])
    def test_no_less_accurate_than_one_sine_per_term(self, omega, tau):
        import mpmath as mp

        a = exp_coefficients(tau, omega)
        k = np.arange(-a.N, a.N + 1)
        # the formula with a sine per coefficient, each at the computed
        # omega tau - pi k
        per_term = sinc_ratio(omega * tau - math.pi * k)
        with mp.workdps(40):
            u = mp.mpf(omega) * mp.mpf(tau)
            exact = np.array([float(mp.sin(u - mp.pi * j) / (u - mp.pi * j))
                              for j in k.tolist()])
        assert np.all(a.coefficients.imag == 0.0)
        err = np.max(np.abs(a.coefficients.real - exact))
        assert err <= np.max(np.abs(per_term - exact))
        assert err <= 1e-12


class TestConvergenceStudy:
    def test_totals_decrease(self):
        records = convergence_study(make_sinc(1.0), 2.0, [5.0, 10.0], QUAD)
        assert len(records) == 2
        assert records[1].total_error < records[0].total_error
        for r in records:
            assert r.sup_error is not None
            assert r.total_error >= r.interior_error.value

    def test_matches_threshold_fixture(self, thresholds):
        ref = thresholds["lp_decay"]["sinc:sigma=1|p=2"]["totals"][:2]
        records = convergence_study(make_sinc(1.0), 2.0, [10.0, 20.0], QUAD)
        for rec, expect in zip(records, ref):
            assert rec.total_error == pytest.approx(expect, rel=1e-6)

    def test_underflowing_interior_raises(self):
        # |f - f_tau| peaks at about 0.019 = 0.61 * 2^-5 at tau 10; the rule
        # scales it by 2^5, and 0.61^5000 is below every float
        with pytest.raises(ValueError, match="interior L.5000 integral at "
                                             "tau=10 underflows"):
            convergence_study(make_sinc(1.0), 5000.0, [10.0], QUAD)

    def test_rejects_unsorted_ladder(self):
        with pytest.raises(ValueError):
            convergence_study(make_sinc(1.0), 2.0, [10.0, 5.0], QUAD)
        with pytest.raises(ValueError):
            convergence_study(make_sinc(1.0), 1.0, [5.0, 10.0], QUAD)


def sinc_parseval(tau):
    """(||f - f_tau||_{L^2[-tau,tau]}, ||f||_{L^2[-tau,tau]}) for
    f = sin(x) / (pi x) by the Parseval identity
    ||f - f_tau||^2 = ||f||^2 - 2 tau sum |c_k|^2, with
    ||f||^2 = 2 (Si(2 tau) - sin^2(tau) / tau) / pi^2 and
    c_k = (Si((1 + w) tau) + Si((1 - w) tau)) / (2 pi tau), w = pi k / tau,
    at 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        t = mp.mpf(tau)
        norm2 = 2 * (mp.si(2 * t) - mp.sin(t) ** 2 / t) / mp.pi ** 2
        csum = mp.mpf(0)
        for k in range(n_terms(1.0, tau) + 1):
            w = mp.pi * k / t
            c = (mp.si((1 + w) * t) + mp.si((1 - w) * t)) / (2 * mp.pi * t)
            csum += c * c if k == 0 else 2 * c * c
        return float(mp.sqrt(norm2 - 2 * t * csum)), float(mp.sqrt(norm2))


def interior_by_adaptive_rule(f, a, p):
    """Oracle for the interior rule: ||f - f_tau||_{L^p[-tau,tau]} by
    adaptive quadrature with f_tau from evaluate on every node, on the
    rule's own first level of equal panels."""
    def diff(x):
        return np.asarray(f.eval_real(x)) - np.asarray(a.evaluate(x))

    # the fewest panels no wider than this are the rule's first level
    width = 2.0 * a.tau / (_first_level(a.sigma, a.tau, "") - 0.5)
    return lp_norm_interval(diff, p, -a.tau, a.tau, QUAD,
                            max_panel_width=width)


def interior_by_tight_rule(f, a, p):
    """Tight reference for the interior rule at any p: the adaptive rule of
    :func:`interior_by_adaptive_rule` at abs_tol = rel_tol = 1e-14 on
    panels at most 0.01 wide, so that a kink of |f - f_tau|^p is never
    more than 0.01 from a panel edge.  At sinc, p = 1.5, tau 80.3 it agrees
    with 0.05-wide panels to 1e-17."""
    def diff(x):
        return np.asarray(f.eval_real(x)) - np.asarray(a.evaluate(x))

    tight = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14)
    return lp_norm_interval(diff, p, -a.tau, a.tau, tight,
                            max_panel_width=0.01)


def rounding_term(a, p):
    """f_tau values are rounded to a few eps sum |c_k| at each node, which
    moves the L^p norm on [-tau, tau] by at most that much times
    (2 tau)^{1/p}."""
    return (16.0 * np.finfo(float).eps * float(np.sum(np.abs(a.coefficients)))
            * (2.0 * a.tau) ** (1.0 / p))


class TestInteriorRule:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("fn_id", ["fejer_square:sigma=2",
                                       "mollify:base=sinc,sigma=1,rho=0.1"])
    def test_matches_adaptive_oracle(self, fn_id, p):
        # at p not an even integer the adaptive rule on the interior rule's
        # panels misses kinks (1.8e-10 off for mollify at p = 1.5, tau
        # 12.3), so the reference is the tight rule there
        oracle = interior_by_tight_rule if p % 2 else interior_by_adaptive_rule
        f = from_id(fn_id)
        for tau in (12.3, 61.7):
            a = fourier_coefficients(f, tau, QUAD)
            got, _ = analysis._interior_lp(
                f.decay.C, a, p, QUAD, first_levels(f.eval_real, a),
            f.eval_real)
            ref = oracle(f, a, p)
            assert abs(got.value - ref.value) \
                <= got.error_bound + ref.error_bound + rounding_term(a, p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_takes_no_evaluate_call(self, p, monkeypatch):
        # F on the levels, the root pieces and the fallback comes from the
        # level values; p = 1.5 and 3 split at zeros
        calls = []
        original = TrigApproximant.evaluate

        def counting(self, x):
            calls.append(np.size(x))
            return original(self, x)

        monkeypatch.setattr(TrigApproximant, "evaluate", counting)
        convergence_study(make_fejer_square(2.0), p, [10.0, 40.0], QUAD)
        check_poly_nikolskii(exp_coefficients(40.0), p, QUAD)
        assert calls == []

    def test_node_limit_checked_before_sampling(self, monkeypatch):
        base = make_sinc(1.0)
        tau = 40.0
        a = fourier_coefficients(base, tau, QUAD)
        # first level: 54 panels, the 5-smooth count above 160 / pi, and
        # the level of 108 it is compared with
        fine_level = 2 * 54 * quadrature.ORDER
        monkeypatch.setattr(quadrature, "MAX_NODES", fine_level - 1)

        def refuse(x):
            raise AssertionError("sampled past the node limit")

        f = TestFunction(id="sinc", sigma=1.0, eval_real=refuse,
                         eval_complex=None, decay=base.decay,
                         p_membership=base.p_membership)
        with pytest.raises(ValueError, match="above the limit"):
            convergence_study(f, 2.0, [tau], QUAD)
        with pytest.raises(ValueError, match="above the limit"):
            analysis._interior_lp(
                f.decay.C, a, 2.0, QUAD, first_levels(f.eval_real, a),
            f.eval_real)
        monkeypatch.setattr(quadrature, "MAX_NODES", fine_level)
        (rec,) = convergence_study(base, 2.0, [tau], QUAD)
        assert rec.interior_error.value == pytest.approx(
            interior_by_adaptive_rule(base, a, 2.0).value, rel=1e-12)

    # frac(tau / pi) near 0.05, 0.5 and 0.95, around tau 80 and 1280
    @pytest.mark.parametrize("tau", [78.7, 80.11, 81.52,
                                     1278.79, 1280.2, 1281.61])
    def test_parseval_oracle(self, tau):
        (rec,) = convergence_study(make_sinc(1.0), 2.0, [tau], QUAD)
        interior, fnorm = sinc_parseval(tau)
        tol = (rec.interior_error.error_bound
               + 16.0 * np.finfo(float).eps * fnorm)
        assert abs(rec.interior_error.value - interior) <= tol


class TestOneLevel:
    """At even p the first panel level alone is the rule where its proved
    Gauss bound holds; elsewhere the ladder doubles and the interior rule
    compares two levels, as it did for every tau before."""

    def test_forced_fallback_is_the_two_level_rule(self, monkeypatch,
                                                   two_level_rows):
        # with no bound proved, every norm is the two-level rule's, bit for
        # bit, coefficients from the level of 2 P0 panels included; the sup
        # is the first level's whichever branch the interior rule takes (with
        # the ladder forced too, its coefficients and so its last bits move)
        def sups():
            rows = [convergence_study(from_id(case["fn"]), case["p"],
                                      [case["tau"]], QUAD)[0].sup_error
                    for case in two_level_rows["converge"]]
            return [repr(v) for v in rows] + [
                repr(check_poly_nikolskii(exp_coefficients(case["tau"]),
                                          case["p"], QUAD).lhs)
                for case in two_level_rows["poly_nikolskii"]]

        unforced = sups()
        monkeypatch.setattr(analysis, "_gauss_bound", lambda *args: math.inf)
        assert sups() == unforced
        monkeypatch.setattr(approximation, "_gauss_bound",
                            lambda *args: math.inf)
        for case in two_level_rows["converge"]:
            (rec,) = convergence_study(from_id(case["fn"]), case["p"],
                                       [case["tau"]], QUAD)
            got = [rec.interior_error.value, rec.interior_error.error_bound,
                   rec.tail_error.value, rec.total_error]
            assert [repr(v) for v in got] == case["row"][:4], case
        for case in two_level_rows["poly_nikolskii"]:
            chk = check_poly_nikolskii(exp_coefficients(case["tau"]),
                                       case["p"], QUAD)
            got = [chk.rhs, chk.error_bound]
            assert [repr(v) for v in got] == case["row"][1:], case

    @pytest.mark.parametrize("fn_id, tau", [
        ("sinc:sigma=1", 40.3),
        # p = 4 takes two levels here
        ("fejer_square:sigma=2", 5120.3),
        # complex F
        ("mollify:base=expi,omega=1,rho=0.5", 40.3)])
    def test_sup_is_the_same_for_every_p(self, fn_id, tau):
        f = from_id(fn_id)
        sups = {repr(convergence_study(f, p, [tau], QUAD)[0].sup_error)
                for p in (1.5, 2.0, 3.0, 4.0)}
        assert len(sups) == 1

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("tau", [10.0, 40.3])
    def test_doubled_ladder_hands_over_its_coarser_level(self, tau, p):
        # C = 4.55e30 fails the first level's Gauss bound, and C = 4.55e28
        # its rounding term (about 3.5e14 at tau 10), so the ladder
        # doubles, and the interior rule takes the coarser level of the
        # pair that agreed and builds its own level of twice the panels
        for sigma in ("1e-14", "1e-13"):
            f = from_id(f"mollify:base=fejer_square,sigma={sigma},rho=0.5")
            a = fourier_coefficients(f, tau, QUAD)
            assert a.coeff_error == (2 * a.N + 1) * QUAD.abs_tol
            (rec,) = convergence_study(f, p, [tau], QUAD)
            got, ref = rec.interior_error, interior_by_tight_rule(f, a, p)
            assert abs(got.value - ref.value) \
                <= got.error_bound + ref.error_bound + rounding_term(a, p)

    def test_natural_fallback_at_p_4(self):
        # fejer_square at p = 4 and tau 5120.3: the bound sees
        # C + sum |c_k|, not the size of F, and exceeds the integral 7.6e7
        # times, so the rule samples 2 P0 and its error is a level difference
        base = make_fejer_square(2.0)
        calls = []

        def eval_real(x):
            calls.append(np.size(x))
            return base.eval_real(x)

        tau = 5120.3
        (rec,) = convergence_study(
            dataclasses.replace(base, eval_real=eval_real), 4.0, [tau], QUAD)
        n = _first_level(base.sigma, tau, "") * quadrature.ORDER
        assert calls == [n, 2 * n]
        est = rec.interior_error
        assert est.error_bound < 1e-6 * est.value

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_one_level_error_is_bound_plus_rounding(self, p):
        # sinc at tau 80.3: the interior error is the proved bound (below
        # 1e-16 of the value in the norm) plus the rounding of f_tau's
        # nodes, carried into the norm as (2 tau)^(1/p) delta, and of the
        # Gauss sums
        f, tau = make_sinc(1.0), 80.3
        (rec,) = convergence_study(f, p, [tau], QUAD)
        a = fourier_coefficients(f, tau, QUAD)
        P = _first_level(f.sigma, tau, "")
        stages = (P - 1).bit_length()
        eps = np.finfo(float).eps
        delta = (4 * stages + 8) * eps * np.abs(a.coefficients).sum()
        est = rec.interior_error
        floor = (2.0 * tau) ** (1.0 / p) * delta
        sums = (quadrature.ORDER + stages + 16) * eps * est.value / p
        assert floor <= est.error_bound <= floor + sums + 1e-16 * est.value

    def test_large_p_norm_lies_between_its_floor_and_the_sup(self):
        # p = 200: |F|^200 underflows unscaled; the rule scales F by a power
        # of two.  |F| >= m / 2 within m / (2 D) of its largest node value
        # m, D >= sup |F'|, and at least half of that interval lies in
        # [-tau, tau]; above, the norm is at most (2 tau)^(1/p) sup |F|
        f, tau, p = make_sinc(1.0), 40.3, 200.0
        (rec,) = convergence_study(f, p, [tau], QUAD)
        a = fourier_coefficients(f, tau, QUAD)
        m = rec.sup_error.grid_max
        D = (f.sigma * f.decay.C
             + math.pi * a.N / tau * np.abs(a.coefficients).sum())
        norm = rec.interior_error.value
        assert math.isfinite(norm) and math.isfinite(rec.total_error)
        assert (0.5 * m * (m / (2.0 * D)) ** (1.0 / p) <= norm
                <= (2.0 * tau) ** (1.0 / p) * rec.sup_error.certified_bound)


class TestSplitAtRoots:
    """At p not an even integer the interior rule cuts [-tau, tau] at the
    real zeros of f - f_tau near which |f - f_tau|^p has its kinks."""

    # cases where adaptive refinement at the kinks reported an error below
    # its distance from the tight rule
    @pytest.mark.parametrize("fn_id, tau", [
        ("sinc:sigma=1", 80.3), ("fejer_square:sigma=2", 20.0),
        ("mollify:base=sinc,sigma=1,rho=0.1", 12.3)])
    def test_within_its_estimate_of_the_tight_rule(self, fn_id, tau):
        f = from_id(fn_id)
        (rec,) = convergence_study(f, 1.5, [tau], QUAD)
        a = fourier_coefficients(f, tau, QUAD)
        ref = interior_by_tight_rule(f, a, 1.5)
        assert abs(rec.interior_error.value - ref.value) \
            <= rec.interior_error.error_bound + rounding_term(a, 1.5)

    def test_zero_search_stops_once_newton_converges(self, monkeypatch):
        # a converged root's next iterate lands on the end of its bracket,
        # where it stays instead of being bisected while others converge
        seen, calls = [], []
        roots = analysis._bracketed_roots
        monkeypatch.setattr(analysis, "_bracketed_roots",
                            lambda *args: seen.append(args) or roots(*args))
        convergence_study(make_sinc(1.0), 1.5, [320.3], QUAD)
        barycentric = quadrature._barycentric
        monkeypatch.setattr(quadrature, "_barycentric",
                            lambda *args, **kw: calls.append(1)
                            or barycentric(*args, **kw))
        ((values, X, brackets),) = seen
        found = roots(values, X, brackets)
        assert len(found) == len(brackets) > 100
        assert len(calls) <= 6

    def test_pieces_take_no_evaluate_call(self, monkeypatch):
        # F on the pieces comes from one _interpolate call per tau, and
        # none from evaluate
        f = make_sinc(1.0)
        calls, seen = [], []
        interpolate, pieces = analysis._interpolate, analysis._pieces

        def refuse(self, x):
            raise AssertionError("evaluate called")

        def counting(values, X, x):
            calls.append(np.size(x))
            return interpolate(values, X, x)

        def spy(edges, held, roots):
            seen.append((held, roots))
            return pieces(edges, held, roots)

        monkeypatch.setattr(TrigApproximant, "evaluate", refuse)
        monkeypatch.setattr(analysis, "_interpolate", counting)
        monkeypatch.setattr(analysis, "_pieces", spy)
        taus = [80.3, 320.3]
        convergence_study(f, 1.5, taus, QUAD)
        monkeypatch.undo()
        expected = []
        for tau, (held, roots) in zip(taus, seen):
            # the zeros are the sign changes of f - f_tau on a dense grid
            a = fourier_coefficients(f, tau, QUAD)
            x = np.linspace(-tau, tau, int(200 * tau) + 1)
            F = (f.eval_real(x) - a.evaluate(x)).real
            change = np.flatnonzero(np.signbit(F[:-1]) != np.signbit(F[1:]))
            assert len(roots) == len(change)
            assert np.all((x[change] <= roots) & (roots <= x[change + 1]))
            # the held panels form runs, each cut at its zeros into parts
            # of two pieces of 3 ORDER nodes
            runs = np.count_nonzero(np.diff(np.concatenate(
                [[False], held, [False]]).astype(int)) == 1)
            expected.append(6 * quadrature.ORDER * (len(roots) + runs))
        assert calls == expected

    def test_matches_mpmath_reference(self):
        # |F|^1.5 integrated in mpmath at 30 digits between the zeros of F,
        # F = sinc - f_tau from the same float coefficients.  The rule leaves
        # the rounding of its node values out of its estimate (1.6e-16 off
        # here, against an estimate of 7.0e-17), hence the rounding term
        import mpmath as mp

        f, tau = make_sinc(1.0), 20.3
        a = fourier_coefficients(f, tau, QUAD)
        got, _ = analysis._interior_lp(
            f.decay.C, a, 1.5, QUAD, first_levels(f.eval_real, a),
            f.eval_real)
        x = np.linspace(-tau, tau, int(200 * tau) + 1)
        F = (f.eval_real(x) - a.evaluate(x)).real
        change = np.flatnonzero(np.signbit(F[:-1]) != np.signbit(F[1:]))
        with mp.workdps(30):
            coeffs = [mp.mpc(c.real, c.imag) for c in a.coefficients]
            k = range(-a.N, a.N + 1)

            def gap(t):
                f_tau = mp.fsum(c * mp.expj(j * mp.pi * t / tau)
                                for j, c in zip(k, coeffs))
                return mp.sinc(t) / mp.pi - f_tau.real

            zeros = [mp.findroot(gap, (x[i], x[i + 1]), solver="anderson")
                     for i in change]
            ref = mp.quad(lambda t: abs(gap(t)) ** 1.5,
                          [-tau] + zeros + [tau]) ** (1 / mp.mpf(1.5))
        assert len(zeros) == 14
        assert abs(got.value - float(ref)) \
            <= got.error_bound + rounding_term(a, 1.5)

    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_complex_f_takes_no_zeros(self, tol, monkeypatch):
        # mollify of expi is complex with no real zeros; at tol = 1e-13 two
        # panels miss their tolerance and go to integrate, which takes F
        # from the level values, not from evaluate
        f = from_id("mollify:base=expi,omega=1,rho=0.5")
        quad = QuadratureSpec(abs_tol=tol, rel_tol=tol)
        calls, zeros = [], []
        integrate, real_zeros = analysis.integrate, analysis._real_zeros

        def refuse(self, x):
            raise AssertionError("evaluate called")

        def counting(g, lo, hi, spec):
            calls.append((lo, hi))
            return integrate(g, lo, hi, spec)

        def spy(*args):
            held, roots = real_zeros(*args)
            zeros.append((held.any(), roots.size))
            return held, roots

        monkeypatch.setattr(TrigApproximant, "evaluate", refuse)
        monkeypatch.setattr(analysis, "integrate", counting)
        monkeypatch.setattr(analysis, "_real_zeros", spy)
        (rec,) = convergence_study(f, 1.5, [10.0], quad)
        assert zeros == [(False, 0)]
        assert len(calls) == (0 if tol == 1e-10 else 2)
        monkeypatch.undo()
        a = fourier_coefficients(f, 10.0, quad)
        ref = interior_by_tight_rule(f, a, 1.5)
        assert abs(rec.interior_error.value - ref.value) \
            <= rec.interior_error.error_bound + rounding_term(a, 1.5)


class TestSharedLadder:
    """One 5-smooth panel ladder per tau: the interior rule takes the
    coefficient ladder's level and its samples of f."""

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("fn_id", [
        "sinc:sigma=1", "fejer_square:sigma=2",
        "mollify:base=sinc,sigma=1,rho=0.1",
        "mollify:base=expi,omega=1,rho=0.5"])
    def test_f_sampled_once_per_node(self, fn_id, p):
        base = from_id(fn_id)
        calls = []

        def eval_real(x):
            calls.append(np.size(x))
            return base.eval_real(x)

        f = dataclasses.replace(base, eval_real=eval_real)
        for tau in [10.0, 40.1, 80.2, 160.3, 320.4]:
            calls.clear()
            convergence_study(f, p, [tau], QUAD)
            # level P0: its Gauss bounds accept it for the coefficients and,
            # at p = 2, for the interior rule, which samples nothing more;
            # at p = 4 the rule samples level 2 P0 where its bound fails
            n = _first_level(base.sigma, tau, "") * quadrature.ORDER
            assert calls in ([[n], [n, 2 * n]] if p == 4 else [[n]])

    def test_every_fft_length_is_five_smooth(self, monkeypatch):
        lengths = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            # irfft's length is its output's, n, not its input's
            def spy(a, *args, _fft=getattr(np.fft, name),
                    _inverse=name == "irfft", axis=-1, **kwargs):
                lengths.append(kwargs["n"] if _inverse
                               else np.shape(a)[axis])
                return _fft(a, *args, axis=axis, **kwargs)
            monkeypatch.setattr(np.fft, name, spy)
        taus = [40.1, 80.2, 160.3, 320.4]
        convergence_study(make_sinc(1.0), 2.0, taus, QUAD)
        check_poly_nikolskii(exp_coefficients(40.1), 2.0, QUAD)
        assert set(lengths) == {54, 108, 216, 432}
        # p = 1.5 takes the levels of 2 P0 panels too
        convergence_study(make_sinc(1.0), 1.5, taus, QUAD)
        assert set(lengths) == {54, 108, 216, 432, 864}
        for tau in (1280.3, 5120.3, 20480.3):
            lengths.clear()
            fourier_coefficients(make_sinc(1.0), tau, QUAD)
            assert len(lengths) == 1
            assert all(_five_smooth(n) == n for n in lengths)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_real_f_takes_only_real_ffts(self, monkeypatch, p):
        def refuse(*args, **kwargs):
            raise AssertionError("a complex FFT for a real f")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, refuse)
        convergence_study(make_sinc(1.0), p, [10.0, 80.3], QUAD)


def dense_max(F, tau):
    """max |F| on 400 points per unit length of [-tau, tau]."""
    x = np.linspace(-tau, tau, int(800 * tau) + 1)
    return max(float(np.max(np.abs(np.asarray(F(chunk)))))
               for chunk in np.array_split(x, 1 + x.size // 50_000))


class TestPanelSup:
    @pytest.mark.parametrize("tau", [10.0, 80.3, 320.4])
    @pytest.mark.parametrize("fn_id", [
        "sinc:sigma=1", "fejer_square:sigma=2",
        "mollify:base=sinc,sigma=1,rho=0.1",
        "mollify:base=expi,omega=1,rho=0.5"])
    def test_truncation_sup_within_5_percent(self, fn_id, tau):
        f = from_id(fn_id)
        (rec,) = convergence_study(f, 2.0, [tau], QUAD)
        a = fourier_coefficients(f, tau, QUAD)
        dense = dense_max(
            lambda x: np.asarray(f.eval_real(x)) - np.asarray(a.evaluate(x)),
            tau)
        cert = rec.sup_error
        assert dense <= cert.certified_bound <= 1.05 * dense
        assert cert.grid_max <= cert.certified_bound

    @pytest.mark.parametrize("name", list(POLY_APPROXIMANTS))
    def test_poly_nikolskii_lhs_within_5_percent(self, name):
        a = POLY_APPROXIMANTS[name]()
        chk = check_poly_nikolskii(a, 2.0, QUAD)
        dense = dense_max(a.evaluate, a.tau)
        assert dense <= chk.lhs <= 1.05 * dense

    @pytest.mark.parametrize("omega", [0.3, 1.0, 3.7])
    def test_exponential(self, omega):
        xq, _ = analysis._nodes(15)
        hw = 0.2
        mids = hw * (2.0 * np.arange(-20, 20) + 1.0)
        values = np.exp(1j * omega * (mids[:, None] + hw * xq))
        cert = analysis._panel_sup(values, hw, ((omega, 1.0),))
        assert 1.0 <= cert.certified_bound <= 1.0 + 1e-12
        assert cert.grid_max <= cert.certified_bound
        assert cert.spacing == 2.0 * hw

    def test_zero_values(self):
        cert = analysis._panel_sup(np.zeros((4, 15), dtype=complex), 0.1,
                                   ((1.0, 0.0), (1.0, 0.0)))
        assert cert.certified_bound == 0.0 and cert.grid_max == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("panel", [0, quadrature._SUP_PASS])
    def test_overflowing_pass_is_not_dropped(self, panel):
        # |F| = 1e200 overflows the squares of one pass, whose sum is NaN
        values = np.ones((quadrature._SUP_PASS + 1, 15))
        values[panel] = 1e200
        cert = analysis._panel_sup(values, 0.01, ((1.0, 1.0),))
        assert not cert.certified_bound < cert.grid_max

    def test_zero_approximant_has_zero_norm_at_large_p(self):
        a = TrigApproximant(tau=5.0, sigma=1.0, N=1,
                            coefficients=np.zeros(3, dtype=complex),
                            coeff_error=0.0)
        est, cert = analysis._interior_lp(
            0.0, a, 200.0, QUAD, first_levels(np.zeros_like, a),
            np.zeros_like)
        assert est.value == 0.0 and cert.certified_bound == 0.0

    @pytest.mark.parametrize("tau", [40.3, 320.3, 5120.3])
    @pytest.mark.parametrize("fn_id", [
        "sinc:sigma=1", "fejer_square:sigma=2",
        "mollify:base=expi,omega=1,rho=0.5"])
    def test_half_tiling_bounds_both_halves(self, fn_id, tau, monkeypatch):
        # abs_even f: the rule certifies the panels right of 0 and adds the
        # defect 2 sum |Im c_k|; the dense max runs over all of [-tau, tau],
        # on 2^20 points, with f_tau from one inverse FFT:
        # f_tau(-tau + 2 tau j / M) = sum_k c_k (-1)^k e^(2 pi i k j / M)
        f = from_id(fn_id)
        defects = []
        panel_sup = analysis._panel_sup
        monkeypatch.setattr(
            analysis, "_panel_sup", lambda values, hw, derivs, defect:
            defects.append(defect) or panel_sup(values, hw, derivs, defect))
        (rec,) = convergence_study(f, 2.0, [tau], QUAD)
        assert math.isfinite(defects[0])
        a = fourier_coefficients(f, tau, QUAD)
        M, k = 2 ** 20, np.arange(-a.N, a.N + 1)
        spectrum = np.zeros(M, dtype=complex)
        spectrum[k % M] = a.coefficients * np.where(k % 2, -M, M)
        x = -tau + (2.0 * tau / M) * np.arange(M)
        dense = np.max(np.abs(f.eval_real(x) - np.fft.ifft(spectrum)))
        slack = 64 * np.finfo(float).eps * (f.decay.C
                                             + np.abs(a.coefficients).sum())
        assert dense <= rec.sup_error.certified_bound + slack

    def test_rounded_nodes_term_at_large_tau(self, monkeypatch):
        # f is sampled at rounded nodes, up to about 1e-12 off at this tau
        f = make_sinc(1.0)
        tau = 5120.3
        seen = []
        panel_sup = analysis._panel_sup

        def spy(values, hw, derivs, defect):
            seen.append((values, hw, derivs, defect))
            return panel_sup(values, hw, derivs, defect)

        monkeypatch.setattr(analysis, "_panel_sup", spy)
        (rec,) = convergence_study(f, 2.0, [tau], QUAD)
        ((values, hw, derivs, defect),) = seen
        cert = rec.sup_error.certified_bound
        # sinc is abs_even: the right half of the panels is certified, with
        # the defect 2 sum |Im c_k| added and the node term of all of them
        P = len(values)
        chebyshev_part = panel_sup(values[P // 2:], hw, ()).certified_bound
        term = (3.0 * np.finfo(float).eps * P * hw
                * quadrature._lebesgue(values.shape[1])
                * sum(r * c for r, c in derivs))
        assert term > 1e-11
        assert 0 < defect < term
        assert cert - chebyshev_part == pytest.approx(term + defect,
                                                      rel=1e-6)
        a = fourier_coefficients(f, tau, QUAD)
        # |f - f_tau| is largest at the ends of the window
        for x in (np.linspace(-tau, 30.0 - tau, 20001),
                  np.linspace(tau - 30.0, tau, 20001)):
            dense = np.max(np.abs(f.eval_real(x) - a.evaluate(x)))
            assert dense <= cert


# The five real-line functions of the sup rule's comparison with the
# contraction grid of sup_norm_certified.
REAL_LINE_SUP_FUNCTIONS = [
    "fejer_square:sigma=2", "mollify:base=fejer_square,sigma=2,rho=0.5",
    "mollify:base=sinc,sigma=1,rho=0.1", "sinc:sigma=0.1",
    "mollify:base=expi,omega=1,rho=0.5"]

HALF_WINDOW_FUNCTIONS = [
    "fejer_square:sigma=2", "mollify:base=fejer_square,sigma=2,rho=0.5",
    "mollify:base=sinc,sigma=1,rho=0.1", "sinc:sigma=0.1"]


def assert_passes(calls, nodes):
    """The sizes of the F calls of _sampled_sups on one cell: full passes
    of 256 panels and a last one, ``nodes`` in all."""
    full = 256 * quadrature.ORDER
    assert sum(calls) == nodes
    assert calls[:-1] == [full] * (len(calls) - 1)
    assert 0 < calls[-1] <= full == 3840


class TestRealLineSup:
    @pytest.mark.parametrize("fn_id", REAL_LINE_SUP_FUNCTIONS)
    def test_between_dense_max_and_contraction_grid(self, fn_id):
        f = from_id(fn_id)
        if INF in f.known_norms:
            bound = analysis._sup_norm_line(f)
        else:
            bound = check_nikolskii(f, 2.0, INF, QUAD).lhs
        # 20 points per node spacing of panels of width 4 / sigma, on the
        # middle of the line, where |f| is largest
        step = 4.0 / f.sigma / 15 / 20
        x = step * np.arange(-round(100.0 / step), round(100.0 / step) + 1)
        dense = float(np.max(np.abs(np.asarray(f.eval_real(x)))))
        env = f.decay
        X = max(50.0, min(analysis._SUP_X_MAX, (
            env.C / analysis._SUP_ENVELOPE_FLOOR) ** (1.0 / env.alpha) - 1.0))
        grid = max(sup_norm_certified(f.eval_real, f.sigma, -X,
                                      X).certified_bound,
                   float(env.bound(X)))
        assert dense <= bound <= grid

    @pytest.mark.parametrize("fn_id", HALF_WINDOW_FUNCTIONS)
    def test_half_window(self, fn_id):
        # |f| even: the panels j >= P // 2 of the full window's tiling,
        # certified with the full window's node rounding
        f = from_id(fn_id)
        assert f.abs_even
        calls = []

        def eval_real(x):
            calls.append(np.size(x))
            return f.eval_real(x)

        bound = analysis._sup_norm_line(
            dataclasses.replace(f, eval_real=eval_real))
        env = f.decay
        X = max(50.0, min(analysis._SUP_X_MAX, (
            env.C / analysis._SUP_ENVELOPE_FLOOR) ** (1.0 / env.alpha) - 1.0))
        P = math.ceil(2.0 * X / (4.0 / f.sigma))
        assert_passes(calls, (P - P // 2) * quadrature.ORDER)
        ((full, _),) = quadrature._sampled_sups(
            lambda c, x: f.eval_real(x), [X], [P], [((f.sigma, env.C),)])
        full = max(full.certified_bound, float(env.bound(X)))
        assert bound == pytest.approx(full, rel=1e-12)
        # 20 points per node spacing on [-100, 100], where |f| is largest
        step = 4.0 / f.sigma / 15 / 20
        x = step * np.arange(-round(100.0 / step), round(100.0 / step) + 1)
        dense = float(np.max(np.abs(np.asarray(f.eval_real(x)))))
        assert dense <= bound <= 1.1 * dense

    @pytest.mark.parametrize("fn_id", HALF_WINDOW_FUNCTIONS)
    def test_full_window(self, fn_id):
        # without abs_even all P panels are sampled, in passes, and the
        # value is the half window's
        f = from_id(fn_id)
        calls = []

        def eval_real(x):
            calls.append(np.size(x))
            return f.eval_real(x)

        bound = analysis._sup_norm_line(
            dataclasses.replace(f, eval_real=eval_real, abs_even=False))
        env = f.decay
        X = max(50.0, min(analysis._SUP_X_MAX, (
            env.C / analysis._SUP_ENVELOPE_FLOOR) ** (1.0 / env.alpha) - 1.0))
        assert_passes(calls, math.ceil(2.0 * X / (4.0 / f.sigma))
                      * quadrature.ORDER)
        assert bound == pytest.approx(analysis._sup_norm_line(f), rel=1e-12)

    def test_node_limit_checked_before_sampling(self, monkeypatch):
        base = make_sinc(1.0)

        def refuse(x):
            raise AssertionError("sampled past the node limit")

        f = TestFunction(id="sinc", sigma=1.0, eval_real=refuse,
                         eval_complex=None, decay=base.decay,
                         p_membership=base.p_membership)
        # X = 2 / (pi 1e-6) - 1 = 636618.8, 318310 panels of width 4; the
        # limit counts the sampled panels, one value each per array
        monkeypatch.setattr(quadrature, "MAX_NODES", 318309)
        with pytest.raises(ValueError, match="real-line sup of sinc needs "
                           "318310 panels, above the limit of 318309"):
            analysis._sup_norm_line(f)

    def test_half_window_within_node_limit(self, monkeypatch):
        # sinc is abs_even: of its 318310 panels only the 159155 panels
        # j >= P // 2 are checked against the limit and sampled
        base = make_sinc(1.0)
        half = 159155
        calls = []

        def refuse(x):
            raise AssertionError("sampled past the node limit")

        def eval_real(x):
            calls.append(np.size(x))
            return base.eval_real(x)

        monkeypatch.setattr(quadrature, "MAX_NODES", half - 1)
        with pytest.raises(ValueError, match=f"needs {half} panels"):
            analysis._sup_norm_line(dataclasses.replace(base,
                                                        eval_real=refuse))
        monkeypatch.undo()
        bound = analysis._sup_norm_line(dataclasses.replace(
            base, eval_real=eval_real))
        assert_passes(calls, half * quadrature.ORDER)
        assert sum(calls) == 2387325
        assert 1.0 / math.pi <= bound <= 1.1 / math.pi

    def test_full_window_in_passes(self):
        # 318310 panels, 4774650 nodes: more nodes than MAX_NODES, but the
        # passes hold five values per panel and one pass of nodes
        f = make_sinc(1.0)
        tracemalloc.start()
        try:
            bound = analysis._sup_norm_line(
                dataclasses.replace(f, abs_even=False))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 318310 * quadrature.ORDER > quadrature.MAX_NODES
        assert peak < 16 * 2 ** 20
        assert bound == pytest.approx(analysis._sup_norm_line(f), rel=1e-12)

    def test_peak_memory(self):
        # the passes hold a few values per panel, not the window's
        # 2387325 nodes (72.9 MiB when sampled at once)
        tracemalloc.start()
        try:
            bound = analysis._sup_norm_line(make_sinc(1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert 1.0 / math.pi <= bound <= 1.1 / math.pi
