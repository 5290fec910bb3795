import dataclasses
import math

import numpy as np
import pytest

from bandlim import analysis, kernels, quadrature
from bandlim.analysis import exp_coefficients, lp_norm_line, sup_norm_certified
from bandlim.approximation import _first_level, fourier_coefficients
from bandlim.functions import make_fejer_square, make_sinc
from bandlim.quadrature import (MAX_INTEGRAND_POINTS, MAX_NODES,
                                QuadratureNonConvergence, QuadratureSpec,
                                _check_nodes, _count_panels, gauss_panel,
                                integrate)


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
        {"abs_tol": math.nan},
        {"rel_tol": math.nan},
        {"abs_tol": math.inf},
        {"rel_tol": math.inf},
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_panel_order_is_no_field(self):
        names = [field.name for field in dataclasses.fields(QuadratureSpec)]
        assert names == ["abs_tol", "rel_tol", "max_depth"]
        with pytest.raises(TypeError):
            QuadratureSpec(panel_order=7)
        assert QuadratureSpec().panel_order == quadrature.ORDER


class TestPanelNodes:
    """Every panel rule samples its evaluator on _panel_nodes, the nodes
    whose rounding _panel_sup bounds."""

    @staticmethod
    def assert_panel_nodes(x, X):
        panels = x.size // quadrature.ORDER
        hw, nodes = quadrature._panel_nodes(X, panels)
        assert nodes.shape == (panels, quadrature.ORDER)
        assert hw == X / panels
        assert x.tobytes() == nodes.ravel().tobytes()

    def recording_sinc(self, calls):
        base = make_sinc(1.0)

        def eval_real(x):
            calls.append(np.array(x, dtype=float))
            return base.eval_real(x)
        return dataclasses.replace(base, eval_real=eval_real)

    def test_coefficient_rule(self):
        calls = []
        tau = 80.3
        fourier_coefficients(self.recording_sinc(calls), tau)
        assert len(calls) == 1
        for x in calls:
            self.assert_panel_nodes(x, tau)

    def test_interior_levels(self):
        # at every p the interior rule samples nothing: it takes the
        # coefficient ladder's level alone
        tau = 80.3
        for p in (2.0, 1.5):
            calls = []
            analysis.convergence_study(self.recording_sinc(calls), p, [tau])
            (level,) = calls
            self.assert_panel_nodes(level, tau)

    def test_sampled_sup(self):
        # the passes of at most 256 panels, joined, are the panel nodes
        X = 1.5 * 10.3
        for panels in (37, 600):
            calls = []
            f = self.recording_sinc(calls)
            quadrature._sampled_sups(lambda c, x: f.eval_real(x), [X],
                                     [panels], [((1.0, 1.0),)])
            assert len(calls) == -(-panels // 256)
            assert max(x.size for x in calls) <= 256 * quadrature.ORDER
            x = np.concatenate(calls)
            assert x.size == panels * quadrature.ORDER
            self.assert_panel_nodes(x, X)

    def test_sampled_sups_cells_apart(self):
        # A pass that crosses from a NaN cell into the next leaves the next
        # cell's result that of its own call; the NaN cell's node is its
        # first NaN, as np.argmax takes it.
        def F(c, x):
            return np.where(c == 0, np.nan, np.exp(-(x - 5.0) ** 2))

        derivs = ((2.0, 1.0),)
        (nan, at), cell = quadrature._sampled_sups(
            F, [2.0, 10.0], [300, 400], [derivs, derivs])
        assert math.isnan(nan.grid_max) and math.isnan(nan.certified_bound)
        assert at == quadrature._panel_nodes(2.0, 300)[1][0, 0]
        assert cell == quadrature._sampled_sups(
            lambda c, x: F(c + 1, x), [10.0], [400], [derivs])[0]
        assert cell[1] == pytest.approx(5.0, abs=0.01)


def complex_cheb_sums(values):
    """_cheb_sums by one complex product, as numpy runs values @ A.T for
    complex values and a real A."""
    to_cheb, to_coeffs = quadrature._cheb_maps(values.shape[1], 2)[:2]
    u = (values @ to_cheb.T).reshape(-1, len(to_coeffs))
    w = u.real ** 2 + u.imag ** 2
    s = np.abs(w @ to_coeffs.T).sum(axis=1)
    return np.maximum(s[0::2], s[1::2])


def complex_blocks():
    """Complex (256, 15) blocks: normal noise, and e^(i omega x) scaled,
    at the panel nodes."""
    rng = np.random.default_rng(29)
    xq = quadrature._nodes(quadrature.ORDER)[0]
    for _ in range(10):
        yield (rng.standard_normal((256, 15))
               + 1j * rng.standard_normal((256, 15)))
        hw, omega = rng.uniform(0.05, 0.5), rng.uniform(0.1, 4.0)
        x = hw * (2.0 * np.arange(-128, 128) + 1.0)[:, None] + hw * xq
        yield rng.uniform(1e-3, 1e3) * np.exp(1j * omega * x)


def pairwise_cheb_sums(values, pieces):
    """_cheb_sums by contiguous copies of the parts and numpy's row sums
    of |a|, then a pairwise max over the pieces, for ``pieces`` a power
    of 2."""
    to_cheb, to_coeffs = quadrature._cheb_maps(values.shape[1], pieces)[:2]
    u = np.ascontiguousarray(values.real) @ to_cheb.T
    w = u * u
    if np.iscomplexobj(values):
        u = np.ascontiguousarray(values.imag) @ to_cheb.T
        w += u * u
    s = np.abs(w.reshape(-1, len(to_coeffs)) @ to_coeffs.T).sum(axis=1)
    while len(s) > len(values):
        s = np.maximum(s[0::2], s[1::2])
    return s


class TestChebSums:
    """Complex values reach the Chebyshev sums of the sup rule through two
    real products, one per part."""

    @pytest.mark.parametrize("pieces", [2, 4])
    def test_matches_pairwise_reference(self, pieces):
        # the same products; only the order of the sum over k differs, and
        # each sum has R = 29 nonnegative terms
        rng = np.random.default_rng(31)
        eps = np.finfo(float).eps
        for v in (rng.standard_normal((256, 15)), *complex_blocks()):
            want = pairwise_cheb_sums(v, pieces)
            got = quadrature._cheb_sums(v, pieces)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 2 * 15 * eps * want)
        v[7, 3] = np.nan
        got = quadrature._cheb_sums(v, pieces)
        assert np.isnan(got[7]) and not np.isnan(np.delete(got, 7)).any()

    @pytest.mark.parametrize("pieces", [2, 4])
    def test_block_size_moves_no_bit(self, pieces):
        # a panel's sums do not depend on the block around it, so that a
        # scan split into other passes certifies the same bits (lemma2's
        # matrix against its per-cell scans); one panel alone takes a
        # matrix-vector product, which rounds otherwise
        rng = np.random.default_rng(32)
        v = rng.standard_normal((256, 15))
        full = quadrature._cheb_sums(v, pieces)
        for start, stop in ((0, 1), (0, 2), (3, 40), (17, 210), (100, 256),
                            (255, 256)):
            assert (quadrature._cheb_sums(v[start:stop], pieces).tobytes()
                    == full[start:stop].tobytes())

    def test_matches_complex_product(self):
        # Each entry of A v rounds within gamma_Q = Q eps of sum |A| |v| on
        # either path, so s moves by at most about 4 Q eps times s_abs,
        # the sums of moduli; OpenBLAS gives the same bits.
        A, B = quadrature._cheb_maps(quadrature.ORDER, 2)[:2]
        eps = np.finfo(float).eps
        for v in complex_blocks():
            moduli = ((np.abs(v.real) @ np.abs(A).T) ** 2
                      + (np.abs(v.imag) @ np.abs(A).T) ** 2)
            s_abs = (moduli.reshape(-1, len(B)) @ np.abs(B).T).sum(axis=1)
            s_abs = np.maximum(s_abs[0::2], s_abs[1::2])
            new = quadrature._cheb_sums(v)
            assert new.dtype == float
            assert np.all(np.abs(new - complex_cheb_sums(v))
                          <= 4 * quadrature.ORDER * eps * s_abs)

    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_zero_imaginary_part_is_the_real_path(self, imag):
        rng = np.random.default_rng(30)
        real = rng.standard_normal((256, 15))
        block = real.astype(complex)
        block.imag = imag
        assert (quadrature._cheb_sums(block).tobytes()
                == quadrature._cheb_sums(real).tobytes())


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

    def test_committed_rule_is_leggauss(self):
        x, w = quadrature._nodes(quadrature.ORDER)
        want_x, want_w = np.polynomial.legendre.leggauss(quadrature.ORDER)
        assert np.array_equal(x, want_x) and np.array_equal(w, want_w)

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
        with pytest.raises(QuadratureNonConvergence,
                           match=r"near x=0\.125 \(panel error"):
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

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate(lambda x: x, 0.0, math.inf)


class TestPieceRule:
    def test_barycentric_weights_of_legendre_points(self):
        # lambda_q is proportional to (-1)^q sqrt((1 - x_q^2) w_q) at the
        # Gauss-Legendre nodes (Berrut and Trefethen, SIAM Review, 2004)
        x, w = quadrature._nodes(quadrature.ORDER)
        closed = (-1.0) ** np.arange(x.size) * np.sqrt((1.0 - x ** 2) * w)
        got = quadrature._barycentric_weights(quadrature.ORDER)
        ratio = got / closed
        assert np.allclose(ratio, ratio[0], rtol=1e-12, atol=0.0)

    def test_barycentric_is_exact_at_the_nodes(self):
        # rows x^k, k < Q: p is the row itself, and p' = k x^(k - 1), by
        # (9.4) at the nodes and by the quotient formula between them
        Q = quadrature.ORDER
        xq = quadrature._nodes(Q)[0]
        k = np.arange(Q)[:, None]
        at_nodes = np.tile(xq, Q)
        p, dp = quadrature._barycentric(np.repeat(xq ** k, Q, axis=0),
                                        at_nodes)
        assert np.array_equal(p, (xq ** k).ravel())
        assert np.allclose(dp, (k * xq ** np.maximum(k - 1, 0)).ravel(),
                           rtol=0.0, atol=1e-11)
        t = np.random.default_rng(0).uniform(-1.0, 1.0, Q)
        p, dp = quadrature._barycentric(xq ** k, t)
        assert np.allclose(p, t ** k.ravel(), rtol=0.0, atol=1e-14)
        assert np.allclose(dp, k.ravel() * t ** np.maximum(k.ravel() - 1, 0),
                           rtol=0.0, atol=1e-11)

    def test_interpolate_is_the_barycentric_value(self):
        # the p-only pass of _interpolate rounds as (p, p') does, at random
        # points (three passes) and at the panel nodes; at the reference
        # nodes x_q, p is the node value itself
        X, P, Q = 3.0, 40, quadrature.ORDER
        hw, nodes = quadrature._panel_nodes(X, P)
        values = np.random.default_rng(2).standard_normal((P, Q))
        for x in (np.random.default_rng(3).uniform(-X, X, 9000),
                  nodes.ravel()):
            j = np.clip((x + X) // (2.0 * hw), 0, P - 1).astype(np.intp)
            t = (x - (-X + hw * (2.0 * j + 1.0))) / hw
            want = quadrature._barycentric(values[j], t)[0]
            assert quadrature._interpolate(values, X, x).tobytes() \
                == want.tobytes()
        p = quadrature._barycentric(np.repeat(values, Q, axis=0),
                                    np.tile(quadrature._nodes(Q)[0], P),
                                    slope=False)
        assert p.tobytes() == values.tobytes()

    @pytest.mark.parametrize("a", [exp_coefficients(40.0),
                                   fourier_coefficients(make_sinc(1.0), 20.3)],
                             ids=["expi", "sinc"])
    def test_interpolant_matches_evaluate(self, a):
        # f_tau on the panels of the interior rule's level: its node
        # values are rounded to a few eps sum |c_k|, which the interpolant
        # amplifies by at most the Lebesgue constant, and evaluate rounds
        # as much at the point
        tau, Q = a.tau, quadrature.ORDER
        P = _first_level(a.sigma, tau, "")
        values = a.on_panels(P, quadrature._nodes(Q)[0])
        rounding = 16.0 * np.finfo(float).eps * np.abs(a.coefficients).sum()
        tol = (quadrature._lebesgue(Q) + 1.0) * rounding
        x = np.random.default_rng(1).uniform(-tau, tau, 5000)
        assert np.max(np.abs(quadrature._interpolate(values, tau, x)
                             - a.evaluate(x))) <= tol
        # t = -1 and 1: the two edges of every panel
        hw = tau / P
        mids = -tau + hw * (2.0 * np.arange(P) + 1.0)
        for edge in (-1.0, 1.0):
            p, _ = quadrature._barycentric(values, np.full(P, edge))
            assert np.max(np.abs(p - a.evaluate(mids + edge * hw))) <= tol

    @pytest.mark.parametrize("shift", [0.3, 1e-3, -1e-3],
                             ids=["inside", "after-edge", "before-edge"])
    def test_one_root_per_sign_change(self, shift):
        # sin(x - shift) on 8 panels of [-4, 4]: zeros at shift and
        # shift -+ pi; at |shift| = 1e-3 the zero lies between the edge 0
        # and the nearest node (0.006 from it), so the bracket crosses it
        hw, x = quadrature._panel_nodes(4.0, 8)
        values = np.sin(x - shift)
        flat = values.ravel()
        brackets = np.flatnonzero(np.signbit(flat[:-1])
                                  != np.signbit(flat[1:]))
        roots = quadrature._bracketed_roots(values, 4.0, brackets)
        want = shift + math.pi * np.array([-1.0, 0.0, 1.0])
        assert np.max(np.abs(roots - want)) <= 1e-14
        if shift != 0.3:
            assert 4 * quadrature.ORDER - 1 in brackets

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.5, 3.0])
    @pytest.mark.parametrize("length", [0.7, -0.7])
    def test_kink_at_the_end(self, p, length):
        # integral of |x - e|^p (1 + x) from e to e + length: on x = m + h t
        # the kink is the Jacobi weight at the end t = -1 (length > 0) or
        # t = 1, and 1 + x is linear, so both rule sizes are exact up to
        # rounding
        e = 0.4
        m, h = e + 0.5 * length, 0.5 * abs(length)
        L = abs(length)
        exact = L ** (p + 1) * ((1.0 + e) / (p + 1)
                                + math.copysign(L, length) / (p + 2))
        for n in (10, 15):
            t, log_w = quadrature._jacobi(n, *((0.0, p) if length > 0
                                              else (p, 0.0)))
            got = h * np.sum(np.exp(log_w) * h ** p * (1.0 + m + h * t))
            assert abs(got - exact) <= 8.0 * np.finfo(float).eps * exact

    @pytest.mark.parametrize("n", [10, 15])
    def test_jacobi_rule_integrates_moments(self, n):
        # sum w t^k against the integral of t^k (1 - t)^alpha (1 + t)^beta,
        # for k <= 2n - 1, from the beta function at 30 digits, relative
        # to that integral of |t|^k, which bounds the rounding of the sum
        import mpmath as mp

        for alpha in (0.0, 1.5, 3.0):
            for beta in (0.0, 1.5, 3.0):
                t, log_w = quadrature._jacobi(n, alpha, beta)
                w = np.exp(log_w)
                with mp.workdps(30):
                    a, b = mp.mpf(alpha), mp.mpf(beta)
                    for k in range(2 * n):
                        # t = 2u - 1: 2^(a + b + 1) sum_j binom(k, j)
                        # (2u)^j (-1)^(k - j) against u^b (1 - u)^a
                        exact = 2 ** (a + b + 1) * mp.fsum(
                            mp.binomial(k, j) * 2 ** j * (-1) ** (k - j)
                            * mp.beta(j + b + 1, a + 1) for j in range(k + 1))
                        size = mp.quad(lambda x: abs(x) ** k * (1 - x) ** a
                                       * (1 + x) ** b, [-1, 0, 1])
                        got = float(np.sum(w * t ** k))
                        assert abs(got - float(exact)) <= 1e-14 * float(size)


class TestNodeLimit:
    def test_limit_is_inclusive(self):
        _check_nodes(MAX_NODES, "the test needs")
        with pytest.raises(ValueError, match="^the test needs 4194305 nodes, "
                           "above the limit of 4194304$"):
            _check_nodes(MAX_NODES + 1, "the test needs")

    @pytest.mark.parametrize("count", [math.inf, math.nan])
    def test_non_finite_count_rejected(self, count):
        with pytest.raises(ValueError, match="above the limit"):
            _check_nodes(count, "the test needs")

    def test_panel_count_checked_after_rounding_up(self, monkeypatch):
        # 2 X / width = 6.67 rounds up to 7 panels of 15 nodes: 105 nodes
        assert _count_panels(1.0, 0.3, 15, "") == 7
        monkeypatch.setattr(quadrature, "MAX_NODES", 104)
        with pytest.raises(ValueError, match="needs 105 nodes"):
            _count_panels(1.0, 0.3, 15, "the test needs")

    def test_panel_count_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="needs inf nodes"):
            _count_panels(1e308, 1e-10, 15, "the test needs")


class Gate:
    """Wraps evaluators: while ``shut`` a call raises, else the size of its
    last argument is recorded."""

    def __init__(self):
        self.shut = True
        self.sizes = []

    def __call__(self, fn):
        def gated(*args):
            if self.shut:
                raise AssertionError("sampled past the node limit")
            self.sizes.append(np.size(args[-1]))
            return fn(*args)
        return gated


def sinc_through(gate):
    base = make_sinc(1.0)
    return dataclasses.replace(base, eval_real=gate(base.eval_real))


def fourier_site(gate, monkeypatch):
    f = sinc_through(gate)
    return lambda: fourier_coefficients(f, 10.0)


def interior_site(gate, monkeypatch):
    f = sinc_through(gate)
    return lambda: analysis.convergence_study(f, 2.0, [10.0])


def sup_line_site(gate, monkeypatch):
    # the limit counts sampled panels: the gate sees one node per panel
    base = make_fejer_square(2.0)
    panels = gate(lambda first: None)

    def eval_real(x):
        panels(x[:, 0])
        return base.eval_real(x)

    f = dataclasses.replace(base, eval_real=eval_real)
    return lambda: analysis._sup_norm_line(f)


def scan_site(gate, monkeypatch):
    monkeypatch.setattr(kernels, "_gap", gate(kernels._gap))
    return lambda: kernels.kernel_gap_scan(1.0, 10.0, 0.5)


def line_sum_site(gate, monkeypatch):
    f = sinc_through(gate)
    return lambda: lp_norm_line(f, 2.0)


def sup_grid_site(gate, monkeypatch):
    g = gate(np.cos)
    b = 98.5 * 4.0 * math.asin(0.05)  # 98.5 of the largest steps
    return lambda: sup_norm_certified(g, 1.0, 0.0, b)


def exp_site(gate, monkeypatch):
    monkeypatch.setattr(analysis, "_exp_coefficient_row",
                        gate(analysis._exp_coefficient_row))
    return lambda: exp_coefficients(100.0)


# (largest node count, site).  The sinc approximant at tau = 10 (N = 3) has
# 15 first-level panels, the 5-smooth count above 40 / pi, whose level of
# 30 panels takes 450 nodes in fourier_coefficients and in the convergence
# study, which takes the interior rule's level from it; the squared-Fejer
# sup, |f| being even, the 1000 panels j >= P // 2 of its P = 1999, of 15
# nodes each; the lemma2 cell takes
# ceil(1000 / 15) = 67 panels; the sinc L^2 sampling sum, |sinc| being
# even, M + 1 = 3185 nodes; the sup grid ceil(98.5) + 1 points; e^(ix) at
# tau = 100 (N = 31) 63 coefficients.
NODE_LIMIT_SITES = [
    (450, fourier_site),
    (450, interior_site),
    (1000, sup_line_site),
    (67 * 15, scan_site),
    (3185, line_sum_site),
    (100, sup_grid_site),
    (63, exp_site),
]


@pytest.mark.parametrize("need, site", NODE_LIMIT_SITES,
                         ids=[site.__name__ for _, site in NODE_LIMIT_SITES])
def test_every_site_reads_the_one_limit(need, site, monkeypatch):
    gate = Gate()
    call = site(gate, monkeypatch)
    monkeypatch.setattr(quadrature, "MAX_NODES", need - 1)
    with pytest.raises(ValueError, match=f"above the limit of {need - 1}$"):
        call()
    monkeypatch.setattr(quadrature, "MAX_NODES", need)
    gate.shut = False
    call()
    assert gate.sizes and max(gate.sizes) <= need
