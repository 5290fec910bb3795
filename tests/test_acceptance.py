"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line so
the full gate can be audited from the pytest -s output.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from bandlim import analysis, approximation, functions, kernels
from bandlim.quadrature import QuadratureSpec, gauss_panel

QUAD = QuadratureSpec()

_LADDER = (10.0, 20.0, 40.0, 80.0)
_STUDY_CACHE = {}


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def study(fn_id, p):
    """Cached convergence records shared between the two desk-scale tests."""
    key = (fn_id, p)
    if key not in _STUDY_CACHE:
        f = functions.from_id(fn_id)
        _STUDY_CACHE[key] = analysis.convergence_study(
            f, p, list(_LADDER), QUAD)
    return _STUDY_CACHE[key]


def test_counterexample_identity():
    with criterion("counterexample identity"):
        start = time.monotonic()
        results = analysis.counterexample_run(range(1, 11))
        for tau, gap in results:
            assert abs(gap - 1.0) <= 1e-9, (tau, gap)
        assert time.monotonic() - start < 1.0


def test_counterexample_dense_sweep():
    # typically 0.03 s on a 2-core Xeon; the budget leaves room for a
    # loaded machine
    with criterion("counterexample identity, m = 1..2000"):
        start = time.monotonic()
        results = analysis.counterexample_run(range(1, 2001))
        assert len(results) == 2000
        for tau, gap in results:
            assert abs(gap - 1.0) <= 1e-9, (tau, gap)
        assert time.monotonic() - start < 5.0


def test_kernel_gap_scan_matrix():
    with criterion("kernel-gap scan matrix"):
        start = time.monotonic()
        for sigma in (0.5, 1.0, math.pi, 5.0):
            for tau in (1.0, 5.0, 10.0, 40.0):
                for delta in (0.0, 0.25, 0.5, 0.9):
                    rep = kernels.kernel_gap_scan(sigma, tau, delta)
                    assert rep.observed_max < rep.bound, \
                        (sigma, tau, delta, rep.observed_max, rep.bound)
                    assert rep.certified_max < rep.bound, \
                        (sigma, tau, delta, rep.certified_max, rep.bound)
        assert time.monotonic() - start < 30.0


def test_closed_form_coefficients():
    with criterion("closed-form exponential coefficients"):
        f = functions.make_complex_exponential(1.0)
        for tau in (2.5, 10.0, math.pi / 2 + 2 * math.pi):
            a = approximation.fourier_coefficients(f, tau, QUAD)
            for k in range(-a.N, a.N + 1):
                expect = (-1.0) ** k * math.sin(tau) / (tau - math.pi * k)
                assert abs(a.coefficient(k) - expect) <= 1e-9, (tau, k)
        a = approximation.fourier_coefficients(f, math.pi, QUAD)
        assert abs(a.coefficient(1) - 1.0) <= 1e-10
        for k in (-1, 0):
            assert abs(a.coefficient(k)) <= 1e-10


def test_two_form_equivalence():
    with criterion("sum/convolution form equivalence"):
        rng = np.random.default_rng(2024)
        for f in (functions.make_sinc(1.0), functions.make_fejer_square(2.0)):
            for tau in (10.0, 40.0):
                a = approximation.fourier_coefficients(f, tau, QUAD)
                for x in rng.uniform(-tau, tau, 100):
                    conv, err = approximation.evaluate_convolution(
                        f, tau, float(x), QUAD)
                    combined = a.coeff_error + err + QUAD.abs_tol
                    gap = abs(complex(a.evaluate(float(x))) - conv)
                    assert gap <= combined, (f.id, tau, x, gap, combined)


def test_lp_convergence(thresholds):
    with criterion("L^p truncation error decay"):
        start = time.monotonic()
        assert list(thresholds["tau_ladder"]) == list(_LADDER)
        for fn_id in ("sinc:sigma=1", "fejer_square:sigma=2",
                      "mollify:base=sinc,sigma=1,rho=0.1"):
            for p in (1.5, 2.0, 4.0):
                ref = thresholds["lp_decay"][f"{fn_id}|p={p:g}"]
                totals = [r.total_error for r in study(fn_id, p)]
                assert all(b < a for a, b in zip(totals, totals[1:])), \
                    (fn_id, p, totals)
                assert totals[-1] < ref["ratio_limit"] * totals[0], \
                    (fn_id, p, totals[-1] / totals[0], ref["ratio_limit"])
        assert time.monotonic() - start < 300.0


def test_sup_convergence(thresholds):
    with criterion("certified sup-norm decay"):
        for fn_id in ("sinc:sigma=1", "fejer_square:sigma=2",
                      "mollify:base=sinc,sigma=1,rho=0.1"):
            ref = thresholds["sup_decay"][fn_id]
            certs = [r.sup_error for r in study(fn_id, 2.0)]
            bounds = [c.certified_bound for c in certs]
            grid = [c.grid_max for c in certs]
            if ref["cert_monotone"]:
                assert all(b < a for a, b in zip(bounds, bounds[1:])), \
                    (fn_id, bounds)
            assert bounds[-1] < bounds[0], (fn_id, bounds)
            assert grid[-1] < ref["grid_ratio_limit"] * grid[0], \
                (fn_id, grid[-1] / grid[0], ref["grid_ratio_limit"])


def test_inequality_suite():
    with criterion("inequality suite"):
        sinc1 = functions.make_sinc(1.0)
        fejer2 = functions.make_fejer_square(2.0)
        for f in (sinc1, fejer2):
            for y in (0.0, 0.5, 1.0, 2.0):
                chk = analysis.check_plancherel_polya(f, y, 2.0, QUAD)
                assert chk.holds, (chk.name, f.id, y, chk.margin)
        for r1, r2 in ((2.0, 2.0), (2.0, 4.0), (2.0, math.inf)):
            chk = analysis.check_nikolskii(sinc1, r1, r2, QUAD)
            assert chk.holds, (chk.name, r1, r2, chk.margin)
        for r1, r2 in ((1.0, 1.0), (1.0, 2.0), (1.0, math.inf),
                       (2.0, math.inf)):
            chk = analysis.check_nikolskii(fejer2, r1, r2, QUAD)
            assert chk.holds, (chk.name, r1, r2, chk.margin)
        for tau in (10.0, 40.0):
            chk = analysis.check_poly_nikolskii(
                analysis.exp_coefficients(tau), 2.0, QUAD)
            assert chk.holds, (chk.name, tau, chk.margin)
        a = approximation.fourier_coefficients(sinc1, 10.0, QUAD)
        for p in (1.5, 2.0):
            chk = analysis.check_poly_nikolskii(a, p, QUAD)
            assert chk.holds, (chk.name, p, chk.margin)

        # certificate soundness against a 100x finer grid
        rng = np.random.default_rng(99)
        for _ in range(10):
            N = int(rng.integers(2, 12))
            tau = float(rng.uniform(2.0, 30.0))
            coeffs = (rng.standard_normal(2 * N + 1)
                      + 1j * rng.standard_normal(2 * N + 1))
            a = approximation.TrigApproximant(
                tau=tau, sigma=math.pi * N / tau, N=N,
                coefficients=coeffs, coeff_error=0.0)

            def F(x, _a=a):
                return np.abs(np.asarray(_a.evaluate(x)))

            cert = analysis.sup_norm_certified(F, math.pi * N / tau,
                                               -tau, tau)
            n_fine = 100 * math.ceil(2.0 * tau / cert.spacing) + 1
            fine_max = float(np.max(F(np.linspace(-tau, tau, n_fine))))
            assert cert.certified_bound >= fine_max, (N, tau)


def test_decomposition_identity():
    with criterion("three-part decomposition identity"):
        f = functions.make_fejer_square(2.0)
        rng = np.random.default_rng(7)
        for tau in (10.0, 40.0):
            a = approximation.fourier_coefficients(f, tau, QUAD)
            for x in rng.uniform(-tau, tau, 20):
                x = float(x)
                d = analysis.decomposition_F123(f, tau, 0.5, x, QUAD)
                direct = (complex(np.asarray(f.eval_real(x))[()])
                          - complex(a.evaluate(x)))
                combined = d.error_bound + a.coeff_error
                gap = abs((d.f1 + d.f2 - d.f3) - direct)
                assert gap <= combined, (tau, x, gap, combined)


def test_quadrature_engine():
    with criterion("quadrature engine contracts"):
        rng = np.random.default_rng(5)
        for order in (2, 5, 8, 15):
            deg = 2 * order - 1
            coeffs = rng.uniform(-1, 1, deg + 1)
            exact = sum(c / (j + 1) * (2.0 ** (j + 1) - (-1.0) ** (j + 1))
                        for j, c in enumerate(coeffs))
            got = gauss_panel(
                lambda x: np.polynomial.polynomial.polyval(x, coeffs),
                -1.0, 2.0, order)
            assert abs(got - exact) <= 1e-13 * abs(exact), order
        est = analysis.lp_norm_line(functions.make_sinc(1.0), 2.0, QUAD)
        assert abs(est.value - math.sqrt(1.0 / math.pi)) <= est.error_bound
