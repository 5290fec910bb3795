import dataclasses
import math

import numpy as np
import pytest

from bandlim import quadrature
from bandlim.approximation import (_LEWITAN_VALUES_PER_TERM, MAX_LEWITAN_K,
                                   TrigApproximant, _first_level,
                                   _five_smooth, _level,
                                   _panel_fft_coefficients, _trig_sums,
                                   evaluate_convolution,
                                   fourier_coefficients, lewitan)
from bandlim.analysis import exp_coefficients
from bandlim.functions import (DecayEnvelope, PMembership, TestFunction,
                               from_id, make_complex_exponential,
                               make_fejer_square, make_sinc, mollify,
                               sinc_ratio)
from bandlim.kernels import n_terms
from bandlim.quadrature import (MAX_NODES, ORDER, QuadratureNonConvergence,
                                QuadratureSpec, _nodes)

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
        assert max(largest) <= MAX_NODES

    @pytest.mark.parametrize("max_depth, cause", [
        # levels of 15 * 2^j panels: 245760 is the last that fits
        (40, "the next level needs 7372800 nodes, above the limit of "
             "4194304$"),
        (3, "all max_depth=3 doublings are used up$")],
        ids=["node-limit", "max-depth"])
    def test_stop_message_names_its_cause(self, max_depth, cause):
        base = make_sinc(1.0)
        f = TestFunction(id="step", sigma=1.0,
                         eval_real=lambda x: np.sign(np.asarray(x) - 0.1234),
                         eval_complex=None, decay=base.decay,
                         p_membership=base.p_membership)
        with pytest.raises(QuadratureNonConvergence, match=cause):
            fourier_coefficients(f, 10.0, QuadratureSpec(max_depth=max_depth))


def is_five_smooth(n):
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return n == 1


# Real catalog functions: their coefficients are exactly
# conjugate-symmetric.
REAL_FUNCTIONS = ["sinc:sigma=1", "fejer_square:sigma=2",
                  "mollify:base=sinc,sigma=1,rho=0.1"]


def fejer_coefficient(sigma, u, tau):
    """(1 / 2 tau) int_{-tau}^{tau} (sin(sigma t / 2) / (sigma t / 2))^2
    cos(u t) dt in mpmath, from 2 (1 - cos sigma t) / (sigma t)^2 and
    G(a) = int_0^tau (1 - cos a t) / t^2 dt = a Si(a tau) - (1 - cos a tau)
    / tau."""
    import mpmath as mp

    def G(a):
        a = abs(a)
        return a * mp.si(a * tau) - (1 - mp.cos(a * tau)) / tau

    return 2 * (G(sigma + u) / 2 + G(sigma - u) / 2 - G(u)) / (sigma ** 2
                                                               * tau)


def sinc_coefficient(tau, w):
    """(1 / 2 tau) int_{-tau}^{tau} sin(t) / (pi t) cos(w t) dt in mpmath."""
    import mpmath as mp

    return (mp.si((1 + w) * tau) + mp.si((1 - w) * tau)) / (2 * mp.pi * tau)


# c_k(tau, w = pi k / tau) of each function in mpmath, in closed form.
COEFFICIENT_CASES = {
    "sinc": (lambda: make_sinc(1.0), sinc_coefficient),
    "fejer_square": (lambda: make_fejer_square(2.0),
                     lambda tau, w: fejer_coefficient(2, w, tau)),
    # (sin(x / 2) / (x / 2))^2 e^(0.75 i x): a fejer_square of type 1
    # shifted in frequency
    "mollify_expi": (lambda: mollify(make_complex_exponential(1.0), 0.5),
                     lambda tau, w: fejer_coefficient(1, w - 0.75, tau)),
}


class TestCoefficientsAgainstMpmath:
    """Every c_k lies within the abs_error that coeffs prints for it,
    coeff_error / (2N + 1), of its value at 30 digits."""

    @pytest.mark.parametrize("tau", [5.0, 40.0, 120.0])
    @pytest.mark.parametrize("name", sorted(COEFFICIENT_CASES))
    def test_within_abs_error(self, name, tau):
        import mpmath as mp

        make, exact = COEFFICIENT_CASES[name]
        a = fourier_coefficients(make(), tau, QUAD)
        abs_error = a.coeff_error / (2 * a.N + 1)
        assert abs_error < 1e-12  # far below the nominal abs_tol
        with mp.workdps(30):
            t = mp.mpf(tau)
            for k, c in zip(range(-a.N, a.N + 1), a.coefficients):
                ref = complex(exact(t, mp.pi * k / t))
                assert abs(c - ref) <= abs_error, (k, c, ref)

    def test_expi_within_abs_error(self):
        # |fl(e^{i omega x})| = 1 + 2^-52 exceeds C = 1 at some node, so the
        # ladder doubles and prints the nominal abs_tol; on P0 alone e + r
        # would read 2.8e-14 against an error of 5.1e-14, as the rounding of
        # e^{i omega x}, about eps omega |x|, is not counted.  c_k is
        # sinc(u - pi k) at u = omega tau, the product of the two floats
        # (exp_coefficients' float u is itself 2.6e-14 off)
        import mpmath as mp

        omega, tau = 3.7, 320.3
        a = fourier_coefficients(make_complex_exponential(omega), tau, QUAD)
        abs_error = a.coeff_error / (2 * a.N + 1)
        with mp.workdps(40):
            u = mp.mpf(omega) * mp.mpf(tau)
            for k, c in zip(range(-a.N, a.N + 1), a.coefficients):
                ref = complex(mp.sinc(u - mp.pi * k))
                assert abs(c - ref) <= abs_error, (k, c, ref)

    @pytest.mark.parametrize("name", sorted(COEFFICIENT_CASES))
    def test_closed_forms_match_quadrature(self, name):
        # the closed forms against mpmath quadrature at tau 5
        import mpmath as mp

        make, exact = COEFFICIENT_CASES[name]
        f = make()
        N = n_terms(f.sigma, 5.0)
        with mp.workdps(30):
            # the mpmath formula is the catalog's function
            x = np.linspace(-5.0, 5.0, 7)
            assert np.allclose(f.eval_real(x), [complex(_mp_value(name, v))
                                                for v in x], rtol=1e-15)
            t = mp.mpf(5)
            for k in (-N, 0, N):
                w = mp.pi * k / t
                q = mp.quad(lambda v: _mp_value(name, v) * mp.expj(-w * v),
                            mp.linspace(-t, t, 9)) / (2 * t)
                assert abs(q - exact(t, w)) < 1e-25, (name, k)


def _mp_value(name, x):
    """The function of ``COEFFICIENT_CASES[name]`` at x in mpmath."""
    import mpmath as mp

    if name == "sinc":
        return mp.sinc(x) / mp.pi
    if name == "fejer_square":
        return mp.sinc(x) ** 2
    return mp.sinc(x / 2) ** 2 * mp.expj(0.75 * x)


class TestConjugateSymmetry:
    @pytest.mark.parametrize("tau", [3.0, 10.0, 40.1, 80.3, 320.4])
    @pytest.mark.parametrize("fn_id", REAL_FUNCTIONS)
    def test_real_f(self, fn_id, tau):
        c = fourier_coefficients(from_id(fn_id), tau, QUAD).coefficients
        assert np.array_equal(c[::-1], np.conj(c))

    def test_complex_f_is_not(self):
        c = fourier_coefficients(make_complex_exponential(1.0), 10.0,
                                 QUAD).coefficients
        assert not np.allclose(c[::-1], np.conj(c))


class TestWeightSum:
    """The Gauss-weight sum of the panel FFT takes the real and imaginary
    parts of its terms through two real products."""

    @pytest.mark.parametrize("tau", [5.0, 40.0, 120.0])
    @pytest.mark.parametrize("fn_id", ["sinc:sigma=1", "fejer_square:sigma=2",
                                       "mollify:base=expi,omega=1,rho=0.5"])
    def test_matches_complex_product(self, fn_id, tau):
        # Each part of a sum errs by at most gamma_Q = Q eps times its sum
        # of moduli on either path, so the two differ by at most 2 Q ulps
        # of that sum (3 measured).
        f = from_id(fn_id)
        N = n_terms(f.sigma, tau)
        panels = 2 * _first_level(f.sigma, tau, "")
        level = samples, (shift, phase) = _level(f.eval_real, tau, N, panels)
        coeffs = _panel_fft_coefficients(tau, level)
        wq = _nodes(ORDER)[1]
        scale = tau / panels / (2.0 * tau)
        want = bound = 0.0
        for unit, part in ((1.0, samples.real), (1j, samples.imag)):
            terms = np.fft.rfft(part, axis=0)[:N + 1] * phase
            half = scale * shift * (terms @ wq)
            moduli = scale * (np.abs(terms) @ wq)
            want = want + unit * np.concatenate([np.conj(half[:0:-1]),
                                                 half])
            bound = bound + np.concatenate([moduli[:0:-1], moduli])
        ulp = 2 * ORDER * np.spacing(bound)
        assert np.all(np.abs(coeffs.real - want.real) <= ulp)
        assert np.all(np.abs(coeffs.imag - want.imag) <= ulp)
        assert np.iscomplexobj(samples) == fn_id.startswith("mollify")


class TestFirstLevel:
    def test_five_smooth_is_the_next_one(self):
        smooth = [n for n in range(1, 3001) if is_five_smooth(n)]
        for n in range(1, 2701):
            assert _five_smooth(n) == next(m for m in smooth if m >= n)

    def test_benchmark_ladder(self):
        # panels at most pi / 2 wide, 5-smooth, and more than 2N
        taus = [40.1, 80.2, 160.3, 320.4]
        levels = [_first_level(1.0, tau, "") for tau in taus]
        assert levels == [54, 108, 216, 432]
        for tau, P in zip(taus, levels):
            assert 2.0 * tau / P <= math.pi / 2.0
            assert P > 2 * math.floor(tau / math.pi)

    @pytest.mark.parametrize("sigma, tau", [(1.0, 1e300), (math.inf, 1.0),
                                            (math.nan, 1.0)])
    def test_node_limit_checked_first(self, sigma, tau):
        with pytest.raises(ValueError, match="the test needs .* above the "
                                             "limit"):
            _first_level(sigma, tau, "the test needs")


def reference_sum(a: TrigApproximant, x):
    """Plain per-k sum, one term at a time."""
    theta = np.asarray(x, dtype=float) * (math.pi / a.tau)
    total = np.zeros(np.shape(theta), dtype=complex)
    for k in range(-a.N, a.N + 1):
        total = total + a.coefficients[k + a.N] * np.exp(1j * k * theta)
    return total


class TestOnPanels:
    @pytest.mark.parametrize("Q", [1, 15])
    @pytest.mark.parametrize("extra", ["2N+1", "2N+2", "4N+7"])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 16, 2000])
    def test_matches_evaluate(self, N, extra, Q):
        panels = {"2N+1": 2 * N + 1, "2N+2": 2 * N + 2,
                  "4N+7": 4 * N + 7}[extra]
        rng = np.random.default_rng(N)
        tau = 7.5
        coeffs = rng.normal(size=2 * N + 1) + 1j * rng.normal(size=2 * N + 1)
        a = TrigApproximant(tau=tau, sigma=math.pi * N / tau, N=N,
                            coefficients=coeffs, coeff_error=0.0)
        xq = _nodes(Q)[0] if Q > 1 else np.array([0.37])
        hw = tau / panels
        mids = -tau + hw * (2.0 * np.arange(panels) + 1.0)
        got = a.on_panels(panels, xq)
        assert got.shape == (panels, Q)
        expect = np.asarray(a.evaluate(mids[:, None] + hw * xq))
        # the rounding tolerance of test_matches_reference_sum
        tol = 4.0 * np.finfo(float).eps * 3.0 * math.pi * (N + 1) \
            * np.sum(np.abs(coeffs))
        assert np.max(np.abs(got - expect)) <= tol

    @staticmethod
    def assert_matches_evaluate(a, panels):
        """on_panels against evaluate at the same nodes, within the
        rounding tolerance of test_matches_evaluate."""
        xq = _nodes(15)[0]
        hw = a.tau / panels
        mids = -a.tau + hw * (2.0 * np.arange(panels) + 1.0)
        got = a.on_panels(panels, xq)
        expect = np.asarray(a.evaluate(mids[:, None] + hw * xq))
        tol = 4.0 * np.finfo(float).eps * 3.0 * math.pi * (a.N + 1) \
            * np.sum(np.abs(a.coefficients))
        assert np.max(np.abs(got - expect)) <= tol
        return got

    @pytest.mark.parametrize("tau", [10.0, 80.3])
    @pytest.mark.parametrize("fn_id", REAL_FUNCTIONS)
    def test_real_f_gives_a_real_array(self, fn_id, tau):
        a = fourier_coefficients(from_id(fn_id), tau, QUAD)
        for panels in (2 * a.N + 1, _first_level(a.sigma, tau, "")):
            got = self.assert_matches_evaluate(a, panels)
            assert got.dtype == float

    @pytest.mark.parametrize("fn_id", [
        "expi:omega=1", "mollify:base=expi,omega=1,rho=0.5"])
    def test_complex_f(self, fn_id):
        a = fourier_coefficients(from_id(fn_id), 40.1, QUAD)
        got = self.assert_matches_evaluate(a, _first_level(a.sigma, 40.1, ""))
        assert got.dtype == complex

    def test_coefficients_not_conjugate_symmetric(self):
        # a loaded approximant whose coefficients belong to no real f
        doc = fourier_coefficients(make_sinc(1.0), 40.1, QUAD).to_json_dict()
        doc["coefficients"][3][1] += 0.25
        doc["coefficients"][-2][0] -= 0.5
        a = TrigApproximant.from_json_dict(doc)
        got = self.assert_matches_evaluate(a, 2 * a.N + 3)
        assert got.dtype == complex
        assert np.max(np.abs(got.imag)) > 0.1

    @pytest.mark.parametrize("N", [0, 1, 16])
    def test_rejects_too_few_panels(self, N):
        a = TrigApproximant(tau=5.0, sigma=math.pi * N / 5.0, N=N,
                            coefficients=np.ones(2 * N + 1), coeff_error=0.0)
        for panels in (2 * N, N):
            with pytest.raises(ValueError, match="panels"):
                a.on_panels(panels, _nodes(15)[0])


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


def direct_sums(row, theta):
    """Plain per-k sum of the row at the angles, one term at a time."""
    N = len(row) // 2
    total = np.zeros(theta.shape, dtype=complex)
    for k in range(-N, N + 1):
        total = total + row[N + k] * np.exp(1j * k * theta)
    return total


class TestTrigSums:
    # |k theta| <= 90 here, so the rounded phases are off by a few ulps of
    # 90, well below 1e-13
    @staticmethod
    def assert_matches_direct_sums(row, theta):
        got = _trig_sums(row, theta)
        assert got.shape == theta.shape
        tol = 1e-13 * np.sum(np.abs(row))
        assert np.all(np.abs(got - direct_sums(row, theta)) <= tol)

    # N = 0, 1 and a few sizes whose B = isqrt(N) does not divide N, each
    # alone and zero-padded to the largest N
    @pytest.mark.parametrize("dtype", [complex, float])
    def test_rows_of_different_N(self, dtype):
        rng = np.random.default_rng(5)
        counts = [13, 0, 30, 1, 5]
        n = max(counts)
        for N in counts:
            re, im = rng.normal(size=(2, 2 * N + 1))
            row = re + 1j * im if dtype is complex else re
            theta = rng.uniform(-3.0, 3.0, 7)
            self.assert_matches_direct_sums(row, theta)
            self.assert_matches_direct_sums(np.pad(row, n - N), theta)

    def test_rows_of_one_term(self):
        for c in (2.0 - 1.0j, 0.5j, 0.0):
            got = _trig_sums(np.array([c]), np.ones(4))
            assert np.array_equal(got, np.full(4, c))

    # N = 100 takes B = A = 10, so a chunk of m angles holds m 6A values
    # in its temporaries: 30 angles at 1800 values, 50 at 3000
    @pytest.mark.parametrize("limit", [1800, 3000])
    def test_angle_chunks_stay_within_node_limit(self, limit, monkeypatch):
        rng = np.random.default_rng(7)
        row = rng.normal(size=201) + 1j * rng.normal(size=201)
        theta = rng.uniform(-3.0, 3.0, 1000)
        # at tau = pi, evaluate's theta = pi x / tau is x itself
        a = TrigApproximant(tau=math.pi, sigma=100.0, N=100,
                            coefficients=row, coeff_error=0.0)
        whole = _trig_sums(row, theta)
        at_x = np.asarray(a.evaluate(theta))
        assert np.array_equal(at_x, whole)

        shapes = []
        exp = np.exp

        def spy(x, *args, **kwargs):
            out = exp(x, *args, **kwargs)
            shapes.append(np.shape(out))
            return out

        monkeypatch.setattr(quadrature, "MAX_NODES", limit)
        monkeypatch.setattr(np, "exp", spy)
        chunked = _trig_sums(row, theta)
        chunked_at_x = np.asarray(a.evaluate(theta))
        monkeypatch.undo()
        # two exponential tables per chunk, for _trig_sums and for evaluate
        assert len(shapes) == 2 * 2 * math.ceil(1000 / (limit // 60))
        for m, _ in shapes:
            assert m * 6 * 10 <= limit
        assert np.array_equal(chunked, whole)
        assert np.array_equal(chunked_at_x, at_x)


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

    @pytest.mark.parametrize("K", [0, 5])
    def test_rejects_tau_whose_power_underflows(self, K):
        # tau ** alpha = 1e-400 underflows to 0 for fejer_square (alpha 2)
        with pytest.raises(ValueError, match="tau=1e-200 is too small"):
            lewitan(make_fejer_square(2.0), 1e-200, 0.0, K)

    def test_huge_tau_has_zero_tail(self):
        value, tail = lewitan(make_fejer_square(2.0), 1e300, 0.0)
        assert value == pytest.approx(1.0) and tail == 0.0

    @pytest.mark.parametrize("tau, x", [(1e-10, 1.0), (1e-300, 1e300)])
    def test_rejects_abscissa_beyond_cutoff_limit(self, tau, x):
        with pytest.raises(ValueError, match=r"\|x\| / tau"):
            lewitan(make_sinc(1.0), tau, x, 5)

    def test_terms_summed_in_chunks_within_the_node_limit(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_NODES",
                            10 * _LEWITAN_VALUES_PER_TERM)
        f = make_sinc(1.0)
        sizes = []

        def eval_real(x):
            sizes.append(np.size(x))
            return f.eval_real(x)

        tau, x, K = 1.0, 0.3, 104
        value, tail = lewitan(dataclasses.replace(f, eval_real=eval_real),
                              tau, x, K)
        # 209 terms: 20 chunks of 10 and one of 9
        assert max(sizes) == 10 and sum(sizes) == 2 * K + 1
        k = np.arange(-K, K + 1)
        terms = f.eval_real(x + k * tau) * sinc_ratio(x / tau + k) ** 2
        # Any order of summation whose tree puts each term under at most d
        # additions errs by at most d u sum |t| + O(u^2), u = eps / 2; here
        # d <= 9 + 20 inside and across chunks, and 2d u absorbs the O(u^2).
        depth = 9 + 20
        bound = depth * np.finfo(float).eps * math.fsum(np.abs(terms))
        assert abs(value - math.fsum(terms)) <= bound


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
