import math

import numpy as np
import pytest

from bandlim import quadrature
from bandlim.quadrature import (MAX_INTEGRAND_POINTS, QuadratureNonConvergence,
                                QuadratureSpec, gauss_panel, integrate)


class TestSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10
        assert spec.panel_order == 15

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": 1e-15},
        {"rel_tol": 1e-16},
        {"max_depth": 0},
        {"max_depth": 61},
        {"panel_order": 1},
        {"abs_tol": math.nan},
        {"rel_tol": math.nan},
        {"abs_tol": math.inf},
        {"rel_tol": math.inf},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestPolynomialExactness:
    """A panel of order n must integrate degree <= 2n-1 exactly."""

    @pytest.mark.parametrize("order", [2, 5, 8, 15])
    @pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.3, 2.7), (-5.0, -1.5)])
    def test_single_panel(self, order, interval):
        a, b = interval
        rng = np.random.default_rng(order)
        deg = 2 * order - 1
        coeffs = rng.uniform(-1, 1, deg + 1)
        exact = sum(c / (j + 1) * (b ** (j + 1) - a ** (j + 1))
                    for j, c in enumerate(coeffs))
        got = gauss_panel(lambda x: np.polynomial.polynomial.polyval(x, coeffs),
                          a, b, order)
        assert got == pytest.approx(exact, rel=1e-13)

    def test_adaptive_matches_exact(self):
        coeffs = [1.0, -2.0, 0.5, 3.0, -0.25]
        exact = sum(c / (j + 1) * (2.0 ** (j + 1) - (-1.0) ** (j + 1))
                    for j, c in enumerate(coeffs))
        value, err = integrate(
            lambda x: np.polynomial.polynomial.polyval(x, coeffs), -1.0, 2.0)
        assert value == pytest.approx(exact, rel=1e-13)
        assert err < 1e-10


class TestAdaptive:
    def test_oscillatory(self):
        value, err = integrate(lambda x: np.sin(40.0 * x), 0.0, math.pi,
                               max_panel_width=0.1)
        exact = (1.0 - math.cos(40.0 * math.pi)) / 40.0
        assert abs(value - exact) <= max(err, 1e-12)

    def test_complex_integrand(self):
        value, err = integrate(lambda x: np.exp(1j * x), 0.0, math.pi)
        assert value == pytest.approx(2j, abs=1e-12)

    def test_kink_refines(self):
        value, err = integrate(lambda x: np.abs(x) ** 1.5, -1.0, 1.0)
        assert value == pytest.approx(0.8, rel=1e-9)

    def test_nonconvergence_raises(self):
        spec = QuadratureSpec(max_depth=3, abs_tol=1e-13, rel_tol=1e-14)
        with pytest.raises(QuadratureNonConvergence):
            integrate(lambda x: np.abs(x - 0.1234) ** 0.2, -1.0, 1.0, spec)

    def test_budget_stops_runaway_refinement(self, monkeypatch):
        # Every panel fails, so the open panel count doubles each pass.
        monkeypatch.setattr(quadrature, "MAX_INTEGRAND_POINTS", 10_000)
        calls = []

        def g(x):
            calls.append(x.size)
            return np.sin(1e9 * x)

        with pytest.raises(QuadratureNonConvergence,
                           match=r"over \[0, 1\] needs \d+ integrand points"
                                 r", more than the budget of 10000"):
            integrate(g, 0.0, 1.0)
        assert 0 < sum(calls) <= 10_000

    def test_budget_checked_before_first_pass(self):
        def g(x):
            raise AssertionError("integrand evaluated")

        with pytest.raises(QuadratureNonConvergence,
                           match=f"more than the budget of "
                                 f"{MAX_INTEGRAND_POINTS}"):
            integrate(g, 0.0, 1.0, max_panel_width=1e-12)

    @pytest.mark.parametrize("g", [np.cos, lambda x: np.abs(x - 0.3) ** 1.5],
                             ids=["smooth", "kink"])
    def test_first_pass_replaces_initial_sampling(self, g):
        sizes = []

        def counting(x):
            sizes.append(x.size)
            return g(x)

        edges = np.linspace(-1.0, 2.0, 13)
        first_pass = quadrature._panel_estimates(
            g, edges[:-1], edges[1:], *quadrature._nodes(15))

        ref = integrate(counting, -1.0, 2.0, max_panel_width=0.25)
        ref_sizes = list(sizes)
        sizes.clear()
        got = integrate(counting, -1.0, 2.0, max_panel_width=0.25,
                        first_pass=first_pass)
        assert got == ref
        # the 12 initial panels are not sampled; later passes are unchanged
        assert ref_sizes[0] == 12 * 3 * 15
        assert sizes == ref_sizes[1:]

    def test_first_pass_sets_panel_count(self):
        edges = np.linspace(-1.0, 2.0, 13)
        first_pass = quadrature._panel_estimates(
            np.cos, edges[:-1], edges[1:], *quadrature._nodes(15))
        sizes = []

        def counting(x):
            sizes.append(x.size)
            return np.cos(x)

        # without a width, n0 is the length of the first-pass estimates
        got = integrate(counting, -1.0, 2.0, first_pass=first_pass)
        assert got == integrate(np.cos, -1.0, 2.0, max_panel_width=0.25)
        assert sizes == []
        with pytest.raises(ValueError, match="must hold 6 panel estimates"):
            integrate(counting, -1.0, 2.0, max_panel_width=0.5,
                      first_pass=first_pass)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, math.inf)
