import math

import numpy as np
import pytest

from bandlim import kernels
from bandlim.kernels import (MAX_SCAN_POINTS, KernelGapReport, dirichlet,
                             kernel_gap, kernel_gap_bound, kernel_gap_scan,
                             n_terms, omega, sinc_kernel)


def scalar_golden_max(h, a, b, iters=70):
    """Oracle: the scalar golden-section search on one bracket, whose
    iterates the lockstep search must follow exactly."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    hc = h(c)
    hd = h(d)
    for _ in range(iters):
        if hc < hd:
            a, c, hc = c, d, hd
            d = a + invphi * (b - a)
            hd = h(d)
        else:
            b, d, hd = d, c, hc
            c = b - invphi * (b - a)
            hc = h(c)
    if hc >= hd:
        return c, hc
    return d, hd


def dirichlet_direct(N, xi):
    """Independent oracle: the raw complex exponential sum."""
    k = np.arange(-N, N + 1)
    return np.exp(1j * np.multiply.outer(np.asarray(xi, dtype=float), k)).sum(axis=-1)


class TestNTerms:
    @pytest.mark.parametrize("sigma, tau, expected", [
        (1.0, 10.0, 3),
        (math.pi, 1.0, 1),
        (math.pi, 5.0, 5),
        (2.0, 80.0, 50),
        (1.0, math.pi / 2 + 2 * math.pi, 2),
    ])
    def test_values(self, sigma, tau, expected):
        assert n_terms(sigma, tau) == expected

    @pytest.mark.parametrize("sigma, tau", [
        (math.inf, 1.0),
        (math.nan, 1.0),
        (1.0, math.inf),
        (1e300, 1e10),
    ])
    def test_rejects_non_finite_product(self, sigma, tau):
        with pytest.raises(ValueError):
            n_terms(sigma, tau)


class TestDirichlet:
    def test_at_zero(self):
        for N in (0, 1, 5, 40):
            assert dirichlet(N, 0.0) == pytest.approx(2 * N + 1, rel=1e-13)

    def test_three_terms_at_pi(self):
        assert dirichlet(1, math.pi) == pytest.approx(-1.0, abs=1e-13)

    def test_five_terms_at_half_pi(self):
        # oracle: 1 + 2 cos(pi/2) + 2 cos(pi) = -1
        assert dirichlet(2, math.pi / 2) == pytest.approx(
            dirichlet_direct(2, math.pi / 2).real, abs=1e-13)
        assert dirichlet(2, math.pi / 2) == pytest.approx(-1.0, abs=1e-13)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(42)
        xi = rng.uniform(-math.pi, math.pi, 1000)
        for N in (0, 1, 7, 50, 200):
            direct = dirichlet_direct(N, xi)
            assert np.max(np.abs(direct.imag)) < 1e-9
            assert np.max(np.abs(dirichlet(N, xi) - direct.real)) < 1e-10

    def test_periodicity(self):
        xi = np.linspace(-3.0, 3.0, 101)
        assert np.allclose(dirichlet(4, xi), dirichlet(4, xi + 2 * math.pi),
                           atol=1e-10)

    def test_bounded_by_term_count(self):
        xi = np.linspace(-10.0, 10.0, 20001)
        for N in (1, 6, 33):
            assert np.max(np.abs(dirichlet(N, xi))) <= 2 * N + 1 + 1e-9

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            dirichlet(-1, 0.0)


class TestSincKernel:
    def test_at_zero(self):
        assert sinc_kernel(2.5, 0.0) == pytest.approx(2.5 / math.pi, rel=1e-14)

    def test_zero_crossing(self):
        assert sinc_kernel(1.0, math.pi) == pytest.approx(0.0, abs=1e-16)

    def test_against_taylor_oracle(self):
        # 50-term Taylor series of sin(0.6)/(0.3 pi)
        u = 0.6
        acc = 0.0
        for j in range(50):
            acc += (-1.0) ** j * u ** (2 * j + 1) / math.factorial(2 * j + 1)
        assert sinc_kernel(2.0, 0.3) == pytest.approx(acc / (0.3 * math.pi),
                                                      rel=1e-14)


class TestOmega:
    def test_limit_at_zero(self):
        assert omega(0.0) == 0.0

    def test_half_pi(self):
        assert omega(math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_odd(self):
        for t in (0.7, 0.05, 2.9):
            assert omega(-t) == pytest.approx(-omega(t), rel=1e-14)

    def test_series_match(self):
        for t in np.linspace(-0.099, 0.099, 41):
            series = t / 3.0 + t ** 3 / 45.0 + 2.0 * t ** 5 / 945.0
            assert abs(omega(float(t)) - series) < 1e-12

    def test_increasing_on_0_pi(self):
        ts = np.linspace(0.01, 3.1, 200)
        vals = [omega(float(t)) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_pole(self):
        for t in (math.pi, -math.pi, 4.0):
            with pytest.raises(ValueError):
                omega(t)


class TestKernelGap:
    def test_at_zero(self):
        sigma, tau = 2.0, 7.0
        N = n_terms(sigma, tau)
        expected = sigma / math.pi - (2 * N + 1) / (2.0 * tau)
        assert kernel_gap(sigma, tau, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_pi_one_at_zero(self):
        assert kernel_gap(math.pi, 1.0, 0.0) == pytest.approx(-0.5, rel=1e-13)

    def test_high_precision_fixture(self, oracle):
        ref = oracle["kernel_gap_1_10_3.7"]
        assert kernel_gap(1.0, 10.0, 3.7) == pytest.approx(ref["value"],
                                                           rel=1e-13)


class TestKernelGapBound:
    def test_delta_zero(self):
        # omega(pi/2) = 2/pi
        expected = (3.0 + 2.0 / math.pi) / 20.0
        assert kernel_gap_bound(1.0, 10.0, 0.0) == pytest.approx(expected,
                                                                 rel=1e-13)
        assert expected == pytest.approx(0.18183098861837906, rel=1e-7)

    def test_independent_of_sigma(self):
        assert kernel_gap_bound(0.5, 3.0, 0.4) == kernel_gap_bound(50.0, 3.0, 0.4)

    def test_increasing_in_delta(self):
        deltas = np.linspace(0.0, 0.99, 50)
        vals = [kernel_gap_bound(1.0, 5.0, float(d)) for d in deltas]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_delta(self):
        for d in (-0.1, 1.0, 2.0):
            with pytest.raises(ValueError):
                kernel_gap_bound(1.0, 5.0, d)


class TestScan:
    @pytest.mark.parametrize("sigma, tau, delta", [
        (1.0, 10.0, 0.5),
        (math.pi, 5.0, 0.0),
        (2.5, 40.0, 0.9),
    ])
    def test_observed_below_bound(self, sigma, tau, delta):
        rep = kernel_gap_scan(sigma, tau, delta)
        assert isinstance(rep, KernelGapReport)
        assert rep.observed_max <= rep.bound * (1.0 - 1e-12)
        assert abs(rep.argmax) <= (1.0 + delta) * tau * (1.0 + 1e-12)
        assert rep.ratio < 1.0

    def test_grid_is_widened_for_fast_oscillation(self):
        rep = kernel_gap_scan(5.0, 40.0, 0.9)
        assert rep.n_points > 1000

    def test_refinement_does_not_lose_grid_max(self):
        rep = kernel_gap_scan(1.0, 10.0, 0.5, n_points=5000)
        v = np.linspace(-1.5 * 10.0, 1.5 * 10.0, 5000)
        assert rep.observed_max >= np.max(np.abs(kernel_gap(1.0, 10.0, v))) - 1e-15

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            kernel_gap_scan(1.0, 10.0, 0.5, n_points=999)

    @pytest.mark.parametrize("sigma, tau", [
        (1.0, 10.0), (math.pi, 5.0), (5.0, 40.0), (0.5, 1.0)])
    def test_lockstep_matches_scalar_golden(self, sigma, tau):
        rng = np.random.default_rng(7)
        lo = rng.uniform(-1.5 * tau, 1.5 * tau, 5)
        hi = lo + rng.uniform(1e-3, 0.5, 5)
        xs, ys = kernels._golden_max(
            lambda x: np.abs(kernel_gap(sigma, tau, x)), lo, hi)
        for i in range(5):
            x, y = scalar_golden_max(
                lambda t: abs(kernel_gap(sigma, tau, float(t))),
                float(lo[i]), float(hi[i]))
            assert (xs[i], ys[i]) == (x, y)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError, match="n_points must lie in"):
            kernel_gap_scan(1.0, 10.0, 0.5, n_points=MAX_SCAN_POINTS + 1)

    def test_rejects_oversized_automatic_grid(self):
        with pytest.raises(ValueError, match="more than"):
            kernel_gap_scan(1e6, 1e6, 0.0)
