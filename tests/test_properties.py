"""Property tests for the input validators: each accepts what it documents
and rejects everything else with its own error type; for the exactness of
``integrate`` on polynomials of degree 2 ORDER - 1; for the catalog's
``abs_even`` flag, which the real-line norms rely on; for the values
of ``counterexample_run`` against long-double sums; for the CLI's CSV
writer against ``csv.writer``; and for the soundness of every certified
sup against a grid 20 times finer than the certificate's nodes; and for
the interior L^2 error of sinc against the Parseval identity."""

import csv
import dataclasses
import functools
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bandlim import cli
from bandlim.analysis import (check_poly_nikolskii, convergence_study,
                              counterexample_run, exp_coefficients)
from bandlim.approximation import _coefficient_ladder, _first_level
from bandlim.functions import (TestFunction, UnknownFunctionError, from_id,
                               make_complex_exponential, make_fejer_square,
                               make_sinc, mollify)
from bandlim.kernels import kernel_gap, kernel_gap_scan, n_terms
from bandlim.quadrature import ORDER, QuadratureSpec, integrate

# A fixed example count and seed keep the run short and repeatable.
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

any_float = st.floats(allow_nan=True, allow_infinity=True)
# Number-like text: float reprs (nan, inf, subnormals), integers, and
# short strings over the characters number literals use.
number_text = st.one_of(
    any_float.map(repr),
    st.integers().map(str),
    st.text(alphabet="0123456789.eE+-_naif", max_size=12),
)


def supported_tol(t: float) -> bool:
    return math.isfinite(t) and t >= 1e-14


class TestQuadratureSpec:
    @SETTINGS
    @given(bad=any_float.filter(lambda t: not supported_tol(t)),
           good=st.floats(min_value=1e-14, max_value=1e3),
           bad_is_abs=st.booleans())
    def test_rejects_unsupported_tolerance(self, bad, good, bad_is_abs):
        abs_tol, rel_tol = (bad, good) if bad_is_abs else (good, bad)
        with pytest.raises(ValueError, match="tolerances"):
            QuadratureSpec(abs_tol=abs_tol, rel_tol=rel_tol)

    @SETTINGS
    @given(abs_tol=st.floats(min_value=1e-14, max_value=1e300),
           rel_tol=st.floats(min_value=1e-14, max_value=1e300))
    def test_accepts_supported_tolerances(self, abs_tol, rel_tol):
        spec = QuadratureSpec(abs_tol=abs_tol, rel_tol=rel_tol)
        assert spec.abs_tol == abs_tol and spec.rel_tol == rel_tol


class TestIntegrateIsExact:
    """integrate's coarse/fine rule is ORDER-node Gauss on each panel and
    its halves, exact on polynomials of degree 2 ORDER - 1."""

    @SETTINGS
    @given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1,
                           max_size=2 * ORDER),
           a=st.floats(-100.0, 100.0), width=st.floats(1e-3, 100.0),
           panels=st.integers(1, 8))
    def test_polynomial_of_degree_below_2_order(self, coeffs, a, width,
                                                panels):
        # p(x) = sum_j c_j s^j, s = (x - m) / h the position in [a, b],
        # whose integral is h sum_{j even} 2 c_j / (j + 1).  The rule must
        # hit it to 1e-13 of h sum_j 2 |c_j| / (j + 1), which bounds the
        # integral of |p|, plus the effect of the rounded nodes: s is off
        # by at most 4 eps (|m| / h + 1) at each, which moves p by that
        # times sum_j j |c_j| >= max |dp/ds|, and the integral by 2 h times
        # as much
        b = a + width
        m, h = 0.5 * (a + b), 0.5 * (b - a)

        def p(x):
            s = (x - m) / h
            value = np.zeros_like(s)
            for c in reversed(coeffs):
                value = value * s + c
            return value

        got, err = integrate(p, a, b, max_panel_width=width / panels * 1.01)
        c, j = np.array(coeffs), np.arange(len(coeffs))
        exact = h * float(np.sum((2.0 * c / (j + 1))[::2]))
        scale = h * float(np.sum(2.0 * np.abs(c) / (j + 1)))
        nodes = 8.0 * EPS * (abs(m) + h) * float(np.sum(j * np.abs(c)))
        assert abs(got - exact) <= 1e-13 * scale + nodes
        assert err <= 1e-13 * scale + nodes


def builds_or_rejects(text: str):
    """from_id(text) is a finite-type catalog member, or the call raised
    UnknownFunctionError; any other exception fails the test."""
    try:
        f = from_id(text)
    except UnknownFunctionError:
        return None
    assert isinstance(f, TestFunction)
    assert 0 < f.sigma < math.inf
    assert math.isfinite(f.decay.C) and math.isfinite(f.decay.alpha)
    return f


class TestFromId:
    @SETTINGS
    @given(name=st.sampled_from(["sinc", "fejer_square"]), value=number_text)
    def test_sigma_parameter(self, name, value):
        builds_or_rejects(f"{name}:sigma={value}")

    @SETTINGS
    @given(value=number_text)
    def test_omega_parameter(self, value):
        builds_or_rejects(f"expi:omega={value}")

    @SETTINGS
    @given(base=st.sampled_from(["sinc:sigma", "fejer_square:sigma",
                                 "expi:omega"]),
           value=number_text, rho=number_text)
    def test_mollify_parameters(self, base, value, rho):
        name, key = base.split(":")
        builds_or_rejects(f"mollify:base={name},{key}={value},rho={rho}")

    @SETTINGS
    @given(text=st.text(max_size=40))
    def test_arbitrary_text(self, text):
        builds_or_rejects(text)


class TestNumberParser:
    @SETTINGS
    @given(text=st.text(alphabet="0123456789.+-*/()pie ", max_size=24))
    def test_finite_value_or_value_error(self, text):
        try:
            value = cli._parse_number(text)
        except ValueError:
            return
        assert math.isfinite(value)


type_param = st.floats(min_value=0.1, max_value=10.0)
rho_param = st.floats(min_value=0.01, max_value=0.99)
# Every catalog constructor that sets abs_even, as f(parameter, rho).
ABS_EVEN_MEMBERS = {
    "sinc": lambda s, r: make_sinc(s),
    "fejer_square": lambda s, r: make_fejer_square(s),
    "expi": lambda s, r: make_complex_exponential(s),
    "mollify_sinc": lambda s, r: mollify(make_sinc(s), r),
    "mollify_expi": lambda s, r: mollify(make_complex_exponential(s), r),
}


class TestAbsEven:
    @SETTINGS
    @given(name=st.sampled_from(sorted(ABS_EVEN_MEMBERS)), param=type_param,
           rho=rho_param, x=st.floats(min_value=-50.0, max_value=50.0),
           y=st.floats(min_value=-5.0, max_value=5.0))
    def test_abs_symmetric_along_horizontal_lines(self, name, param, rho,
                                                  x, y):
        f = ABS_EVEN_MEMBERS[name](param, rho)
        assert f.abs_even
        left = abs(complex(f.eval_complex(complex(-x, y))))
        right = abs(complex(f.eval_complex(complex(x, y))))
        assert abs(left - right) <= 4 * np.spacing(max(left, right))

    @SETTINGS
    @given(name=st.sampled_from(sorted(ABS_EVEN_MEMBERS)), param=type_param,
           rho=rho_param, x=st.floats(min_value=-50.0, max_value=50.0),
           y=st.floats(min_value=-5.0, max_value=5.0))
    def test_conjugate_symmetric_along_horizontal_lines(self, name, param,
                                                        rho, x, y):
        # f(-x + iy) = conj f(x + iy), which the interior rule's half
        # tiling of its sup takes from the flag
        f = ABS_EVEN_MEMBERS[name](param, rho)
        left = complex(f.eval_complex(complex(-x, y)))
        right = complex(f.eval_complex(complex(x, y))).conjugate()
        assert abs(left - right) <= 4 * np.spacing(max(abs(left),
                                                       abs(right)))

    @SETTINGS
    @given(name=st.sampled_from(sorted(ABS_EVEN_MEMBERS)), param=type_param,
           rho=rho_param)
    def test_mollify_keeps_an_unset_flag(self, name, param, rho):
        base = ABS_EVEN_MEMBERS[name](param, rho)
        plain = dataclasses.replace(base, abs_even=False)
        assert not mollify(plain, rho).abs_even


# pi - fl(pi), to more digits than a long double holds
PI_LOW = np.longdouble("1.2246467991473531772260659281409368e-16")


@functools.lru_cache(maxsize=None)
def long_double_gap(tau):
    """Im(f - f_tau)(tau) for f = e^{ix} at the rounded theta = tau (pi /
    tau), summed term by term in long double: sin u (1 - sum_{|k| <= N}
    sin(k eps) / (u - pi k)) with u = tau and eps = theta - pi, since
    (-1)^k sin(k theta) = sin(k eps)."""
    N = n_terms(1.0, tau)
    eps = np.longdouble(tau * (math.pi / tau) - math.pi) - PI_LOW
    u, pi = np.longdouble(tau), 4 * np.arctan(np.longdouble(1))
    total = np.longdouble(0)
    for start in range(-N, N + 1, 2 ** 16):
        k = np.arange(start, min(start + 2 ** 16, N + 1), dtype=np.longdouble)
        total += np.sum(np.sin(k * eps) / (u - pi * k))
    return float(np.sin(u) * (1 - total))


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="long double is no wider than double here")


class TestCounterexampleRun:
    # 1 to 60 values of m, a third of them repeated, in shuffled order
    @needs_long_double
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m_list=st.lists(st.integers(min_value=1, max_value=3000),
                           min_size=1, max_size=45).flatmap(
        lambda ms: st.permutations(ms + ms[:len(ms) // 3])))
    def test_each_m_is_the_long_double_sum(self, m_list):
        results = counterexample_run(m_list)
        assert len(results) == len(m_list)
        for m, (tau, gap) in zip(m_list, results):
            assert tau == 0.5 * math.pi + 2.0 * math.pi * m
            assert abs(gap - long_double_gap(tau)) <= 1e-12, m

    # theta = tau (pi / tau) lies `ulps` ulps from fl(pi); 1 048 575 is the
    # largest m the node limit admits (N = 2 097 150).  The drift from 1 is
    # 1.2e-9 there, so the sum at the rounded theta is the reference.
    @needs_long_double
    @pytest.mark.parametrize("m, ulps", [(14, 1), (15, -1), (250_000, 0),
                                         (1_048_575, 0)])
    def test_extremes_are_the_long_double_sum(self, m, ulps):
        [(tau, gap)] = counterexample_run([m])
        assert tau * (math.pi / tau) == math.pi + ulps * math.ulp(math.pi)
        assert abs(gap - long_double_gap(tau)) <= 1e-12

    def test_next_m_is_rejected(self):
        with pytest.raises(ValueError, match="above the limit"):
            counterexample_run([1_048_576])


def reference_csv(columns, rows) -> str:
    """The table as ``csv.writer(lineterminator="\\n")`` writes it, each
    float as f"{v:.17g}" and every other value as str(v)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v)
                         for v in row])
    return buf.getvalue()


# Numbers as the tables hold them: floats (nan, inf, +-0, subnormals), their
# numpy form, and ints up to 2^53, mixed within a column; strings with the
# characters csv quotes for and some it does not.
number = st.one_of(any_float, any_float.map(np.float64),
                   st.integers(-2 ** 53, 2 ** 53))
cell_text = st.text(st.one_of(st.sampled_from(',"\n\r ;\'\tab=.'),
                              st.characters()), max_size=8)


@st.composite
def tables(draw):
    """(columns, rows): two to six columns, each of numbers or of strings."""
    is_text = draw(st.lists(st.booleans(), min_size=2, max_size=6))
    columns = draw(st.lists(cell_text, min_size=len(is_text),
                            max_size=len(is_text)))
    rows = draw(st.lists(st.tuples(*[cell_text if t else number
                                     for t in is_text]).map(list),
                         max_size=8))
    return columns, rows


class TestCsvWriter:
    @SETTINGS
    @given(table=tables())
    @example(table=(["x", "y,z"], []))
    @example(table=(["m", 'a"b'], [
        [-0.0, 'q"r'], [float("nan"), "a\rb"], [5e-324, "two\nlines"],
        [np.float64(-math.inf), " "], [2 ** 53, ""], [1048575, "a,b"]]))
    def test_matches_csv_writer(self, table):
        columns, rows = table
        buf = io.StringIO()
        cli._write_csv(buf, columns, rows)
        assert buf.getvalue() == reference_csv(columns, rows)


EPS = np.finfo(float).eps
# Functions whose truncation sup convergence_study certifies: two real
# ones, and a complex F (the mollified exponential).
SUP_MEMBERS = {
    "sinc": make_sinc,
    "fejer_square": make_fejer_square,
    "mollify_expi": lambda s: mollify(make_complex_exponential(s), 0.5),
}
SOUNDNESS = settings(max_examples=10, deadline=None, derandomize=True)
tau_param = st.floats(min_value=5.0, max_value=120.0)


def fine_max(F, X: float, nodes: int) -> float:
    """max |F| on 20 equally spaced points per node of a certificate that
    sampled ``nodes`` nodes on [-X, X]."""
    return float(np.max(np.abs(F(np.linspace(-X, X, 20 * nodes)))))


class TestCertifiedSupsAreSound:
    """Each certified sup is at least the largest |F| on a grid 20 times
    finer than its nodes.  The grid values carry their own rounding, a few
    eps times the sizes summed in them, which the comparison allows."""

    @SOUNDNESS
    @given(name=st.sampled_from(sorted(SUP_MEMBERS)),
           param=st.floats(min_value=0.5, max_value=1.5), tau=tau_param)
    def test_truncation_sup(self, name, param, tau):
        f = SUP_MEMBERS[name](param)
        a, level = _coefficient_ladder(f, tau)
        (rec,) = convergence_study(f, 2.0, [tau])
        dense = fine_max(lambda x: f.eval_real(x) - a.evaluate(x), tau,
                         2 * level[0].size)
        slack = 64 * EPS * (f.decay.C + np.abs(a.coefficients).sum())
        assert dense <= rec.sup_error.certified_bound + slack

    @SOUNDNESS
    @given(omega=st.floats(min_value=1.0, max_value=2.0), tau=tau_param)
    def test_poly_nikolskii_lhs(self, omega, tau):
        a = exp_coefficients(tau, omega)
        lhs = check_poly_nikolskii(a, 2.0).lhs
        nodes = 2 * _first_level(a.sigma, tau, "") * ORDER
        slack = 64 * EPS * np.abs(a.coefficients).sum()
        assert fine_max(a.evaluate, tau, nodes) <= lhs + slack

    @SOUNDNESS
    @given(sigma=st.floats(min_value=0.5, max_value=4.0), tau=tau_param,
           delta=st.floats(min_value=0.0, max_value=0.9))
    def test_kernel_gap_sup(self, sigma, tau, delta):
        report = kernel_gap_scan(sigma, tau, delta)
        N = n_terms(sigma, tau)
        dense = fine_max(lambda v: kernel_gap(sigma, tau, v),
                         (1.0 + delta) * tau, report.n_points)
        slack = 16 * EPS * (sigma / math.pi + (2 * N + 1) / (2.0 * tau))
        assert dense <= report.certified_max + slack


def sinc_parseval(sigma: float, tau: float) -> float:
    """||f - f_tau||_{L^2[-tau, tau]} for f = sin(sigma x) / (pi x) at 30
    digits, by Parseval: ||f||^2 - 2 tau sum |c_k|^2, with
    ||f||^2 = 2 (sigma Si(2 sigma tau) - sin^2(sigma tau) / tau) / pi^2 and
    c_k = (Si((sigma + w) tau) + Si((sigma - w) tau)) / (2 pi tau),
    w = pi k / tau."""
    import mpmath as mp

    with mp.workdps(30):
        s, t = mp.mpf(sigma), mp.mpf(tau)
        norm2 = (2 * (s * mp.si(2 * s * t) - mp.sin(s * t) ** 2 / t)
                 / mp.pi ** 2)
        csum = mp.mpf(0)
        for k in range(n_terms(sigma, tau) + 1):
            w = mp.pi * k / t
            c = (mp.si((s + w) * t) + mp.si((s - w) * t)) / (2 * mp.pi * t)
            csum += c * c if k == 0 else 2 * c * c
        return float(mp.sqrt(norm2 - 2 * t * csum)), float(mp.sqrt(norm2))


class TestInteriorAgainstParseval:
    """The interior L^2 error of sinc, one level per tau, lies within its
    interior_err plus the benchmark's rounding floor 16 eps ||f|| of the
    Parseval value."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(sigma=st.floats(min_value=0.5, max_value=1.5),
           tau=st.floats(min_value=5.0, max_value=400.0))
    def test_within_interior_err(self, sigma, tau):
        (rec,) = convergence_study(make_sinc(sigma), 2.0, [tau])
        interior, fnorm = sinc_parseval(sigma, tau)
        est = rec.interior_error
        assert abs(est.value - interior) <= est.error_bound + 16 * EPS * fnorm
