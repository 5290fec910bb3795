import math
import tracemalloc

import numpy as np
import pytest

from bandlim import cli, kernels, quadrature
from bandlim.quadrature import MAX_NODES, ORDER
from bandlim.kernels import (MAX_SCAN_POINTS, KernelGapReport, dirichlet,
                             kernel_gap, kernel_gap_bound, kernel_gap_scan,
                             kernel_gap_scans, n_terms, omega, sinc_kernel)

DEFAULT_CELLS = [(s, t, d)
                 for s in cli._LEMMA2_DEFAULT_SIGMAS
                 for t in cli._LEMMA2_DEFAULT_TAUS
                 for d in cli._LEMMA2_DEFAULT_DELTAS]


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


def scan_reference(sigma, tau, delta, n_points=1000):
    """Oracle: one cell scanned on its own, a uniform grid by one
    kernel_gap call and each of its top 5 brackets refined by
    scalar_golden_max; returns the golden-refined (max |gap|, argmax)."""
    N = n_terms(sigma, tau)
    needed = (16.0 * (1.0 + delta) * tau
              * max(sigma, math.pi * N / tau + 1.0) / math.pi)
    n = max(n_points, math.ceil(needed))
    v = np.linspace(-(1.0 + delta) * tau, (1.0 + delta) * tau, n)
    vals = np.abs(kernel_gap(sigma, tau, v))
    order = np.argsort(vals)
    best, arg = float(vals[order[-1]]), float(v[order[-1]])
    for i in order[-5:]:
        x, y = scalar_golden_max(
            lambda t: abs(kernel_gap(sigma, tau, float(t))),
            float(v[max(i - 1, 0)]), float(v[min(i + 1, n - 1)]))
        if y > best:
            best, arg = float(y), float(x)
    return best, arg


def check_against_reference(rep, n_points=1000):
    """The node maximum lies at or below the golden-refined maximum, and
    the certificate at or above it, by at most 10%, and below the bound."""
    golden, _ = scan_reference(rep.sigma, rep.tau, rep.delta, n_points)
    assert rep.observed_max <= golden <= rep.certified_max, rep
    assert rep.certified_max <= 1.10 * golden, rep
    assert rep.certified_max < rep.bound, rep
    assert rep.ratio == rep.certified_max / rep.bound


def count_gap_calls(monkeypatch):
    """Wrap kernels._gap; returns the list of point counts it was called on."""
    calls = []
    gap = kernels._gap

    def counted(sigma, tau, N, v):
        calls.append(np.size(v))
        return gap(sigma, tau, N, v)

    monkeypatch.setattr(kernels, "_gap", counted)
    return calls


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
        # sigma tau / pi rounds to 10.999999999999998 and 4.999999999999999
        (1.0, 11 * math.pi, 11),
        (0.1, 5 * math.pi / 0.1, 5),
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

    @pytest.mark.parametrize("N", [3, 101, 2000])
    def test_full_accuracy_next_to_poles(self, N):
        import mpmath as mp

        offsets = np.concatenate([[0.0], np.logspace(-12, -5, 15)])
        xi = np.array([2.0 * math.pi * m + sign * d for m in range(-3, 4)
                       for d in offsets for sign in (1.0, -1.0)])
        with mp.workdps(50):
            ref = np.array([
                float(2 * N + 1 if x == 0
                      else mp.sin((N + mp.mpf(0.5)) * x) / mp.sin(x / 2))
                for x in map(mp.mpf, xi)])
        assert np.max(np.abs(dirichlet(N, xi) - ref)) <= 1e-13 * (2 * N + 1)


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

    def test_broadcast_formula_matches_scalar_calls(self):
        # Mixed cells with different N (N = 0, 3, 4, 31), each with points
        # at and within 1e-9 of 0, where D_N takes its direct cosine sum.
        cells = [(0.5, 1.0), (1.0, 10.0), (math.pi, 4.0), (5.0, 20.0)]
        offsets = [0.0, 1e-9, -3e-10, 0.37, -2.5, 7.1]
        sig, tau, N, v = (np.array(a) for a in zip(*[
            (s, t, n_terms(s, t), x) for s, t in cells for x in offsets]))
        assert len(set(N.tolist())) == len(cells)
        got = kernels._gap(sig, tau, N, v)
        for i in range(len(v)):
            assert got[i] == kernel_gap(float(sig[i]), float(tau[i]),
                                        float(v[i]))

    def test_even_in_v_bitwise(self):
        # The scan samples v >= 0 only: the gap must be even bit for bit,
        # also at 0, near it and at the poles of D_N (v = 2 m tau).
        rng = np.random.default_rng(7)
        for sigma, tau, _ in DEFAULT_CELLS + [(3.0, 1000.0, 0.5)]:
            N = n_terms(sigma, tau)
            v = np.concatenate([rng.uniform(0.0, 2.0 * tau, 2000),
                                tau * np.arange(5.0), [1e-300, 1e-9]])
            left = kernels._gap(sigma, tau, N, -v)
            right = kernels._gap(sigma, tau, N, v)
            assert np.array_equal(left.view(np.int64), right.view(np.int64))

    def test_array_matches_scalar_calls(self):
        v = np.array([[0.0, 1e-9], [-0.3, 12.5]])
        got = kernel_gap(2.0, 7.0, v)
        assert got.shape == v.shape
        for x, g in zip(v.ravel(), got.ravel()):
            assert g == kernel_gap(2.0, 7.0, float(x))


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
        # n_points is a node floor: 5000 asked, 334 panels of 15 nodes
        rep = kernel_gap_scan(1.0, 10.0, 0.5, n_points=5000)
        assert rep.n_points == 5010
        v = np.linspace(-1.5 * 10.0, 1.5 * 10.0, 5000)
        assert rep.certified_max >= np.max(np.abs(kernel_gap(1.0, 10.0, v)))

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            kernel_gap_scan(1.0, 10.0, 0.5, n_points=999)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError, match="n_points must lie in"):
            kernel_gap_scan(1.0, 10.0, 0.5, n_points=MAX_SCAN_POINTS + 1)

    def test_largest_n_points_within_node_limit(self):
        # n_points is rounded up to whole panels of ORDER nodes
        N, panels = kernels._scan_size(1.0, 10.0, 0.5, MAX_SCAN_POINTS)
        assert panels * ORDER <= MAX_NODES
        assert MAX_SCAN_POINTS == ORDER * (MAX_NODES // ORDER)

    def test_rejects_oversized_automatic_grid(self):
        with pytest.raises(ValueError, match="above the limit"):
            kernel_gap_scan(1e6, 1e6, 0.0)


class TestScans:
    def test_default_matrix_matches_per_cell_reference(self):
        reports = kernel_gap_scans(DEFAULT_CELLS)
        assert len(reports) == len(DEFAULT_CELLS)
        for rep, cell in zip(reports, DEFAULT_CELLS):
            assert (rep.sigma, rep.tau, rep.delta) == cell
            check_against_reference(rep)

    def test_single_cell_wrapper(self):
        rep = kernel_gap_scan(1.0, 10.0, 0.5, n_points=5000)
        assert rep == kernel_gap_scans([(1.0, 10.0, 0.5)], 5000)[0]
        check_against_reference(rep, n_points=5000)

    @pytest.mark.parametrize("bad", [
        (1.0, 10.0, 1.0), (-1.0, 10.0, 0.5), (1.0, 0.0, 0.5),
        (1e6, 1e6, 0.0)])
    def test_bad_last_cell_rejected_before_any_evaluation(self, bad,
                                                          monkeypatch):
        calls = count_gap_calls(monkeypatch)
        with pytest.raises(ValueError):
            kernel_gap_scans(DEFAULT_CELLS + [bad])
        assert calls == []

    def test_bad_n_points_rejected_before_any_evaluation(self, monkeypatch):
        calls = count_gap_calls(monkeypatch)
        with pytest.raises(ValueError, match="n_points must lie in"):
            kernel_gap_scans(DEFAULT_CELLS, n_points=999)
        assert calls == []

    def test_empty(self):
        assert kernel_gap_scans([]) == []

    def test_gap_calls_sample_half_of_each_grid_in_passes(self,
                                                          monkeypatch):
        # The panels j >= P // 2 of each cell's P, at most 256 panels of
        # ORDER nodes a call, while n_points still counts the full grids.
        calls = count_gap_calls(monkeypatch)
        reports = kernel_gap_scans(DEFAULT_CELLS)
        panels = [rep.n_points // ORDER for rep in reports]
        assert sum(calls) == sum(ORDER * (P - P // 2) for P in panels)
        assert sum(calls) == 42720
        assert max(calls) <= 256 * ORDER == 3840
        assert sum(rep.n_points for rep in reports) == 84585

    def test_half_grid_matches_full_grid(self):
        # Reference: each cell's full grid sampled and certified on its own,
        # as a one-cell _sampled_sups call with even=False.  The half grid's
        # nodes are bitwise those of the full grid's right half, whose
        # mirrors differ by rounding.
        for rep in kernel_gap_scans(DEFAULT_CELLS):
            sigma, tau = rep.sigma, rep.tau
            N = n_terms(sigma, tau)
            X = (1.0 + rep.delta) * tau
            P = rep.n_points // ORDER
            ((cert, arg),) = quadrature._sampled_sups(
                lambda c, v: kernels._gap(sigma, tau, N, v), [X], [P],
                [((sigma, sigma / math.pi),
                  (math.pi * N / tau, (2 * N + 1) / (2.0 * tau)))],
                even=False)
            assert rep.observed_max == pytest.approx(cert.grid_max, rel=1e-12)
            assert rep.certified_max == pytest.approx(cert.certified_bound,
                                                      rel=1e-12)
            assert abs(rep.argmax) == pytest.approx(abs(arg), rel=1e-12,
                                                    abs=1e-12 * X)
            assert -X / P <= rep.argmax <= X

    @pytest.mark.parametrize("cell, n_points, panels", [
        ((1.0, 10.0, 0.5), 1000, 67),
        ((1.0, 10.0, 0.5), 5000, 334),
        ((math.pi, 40.0, 0.9), 1000, 239),
        ((5.0, 40.0, 0.9), 1000, 380),
    ])
    def test_certificate_covers_both_halves(self, cell, n_points, panels):
        sigma, tau, delta = cell
        rep = kernel_gap_scan(sigma, tau, delta, n_points)
        assert rep.n_points == panels * ORDER
        X = (1.0 + delta) * tau
        v = np.linspace(-X, X, 20 * rep.n_points + 1)
        dense = np.abs(kernel_gap(sigma, tau, v))
        assert rep.certified_max >= dense[v <= 0.0].max()
        assert rep.certified_max >= dense[v >= 0.0].max()
        assert rep.argmax >= -X / panels

    def test_largest_grid_peak_memory(self):
        tracemalloc.start()
        try:
            rep = kernel_gap_scan(1.0, 10.0, 0.5, MAX_SCAN_POINTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.n_points == MAX_SCAN_POINTS
        assert peak < 64 * 2 ** 20
