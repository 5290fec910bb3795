"""Property tests for the input validators: each accepts what it documents
and rejects everything else with its own error type; for the catalog's
``abs_even`` flag, which the real-line norms rely on; and for the grouping,
sorting and scattering of ``counterexample_run``."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandlim import analysis, cli
from bandlim.analysis import counterexample_run
from bandlim.functions import (TestFunction, UnknownFunctionError, from_id,
                               make_complex_exponential, make_fejer_square,
                               make_sinc, mollify)
from bandlim.quadrature import QuadratureSpec

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
           rho=rho_param)
    def test_mollify_keeps_an_unset_flag(self, name, param, rho):
        base = ABS_EVEN_MEMBERS[name](param, rho)
        plain = dataclasses.replace(base, abs_even=False)
        assert not mollify(plain, rho).abs_even


class TestCounterexampleRun:
    # 1 to 60 values of m, a third of them repeated, in shuffled order
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(m_list=st.lists(st.integers(min_value=1, max_value=3000),
                           min_size=1, max_size=45).flatmap(
        lambda ms: st.permutations(ms + ms[:len(ms) // 3])))
    def test_each_m_as_if_run_alone(self, m_list):
        results = counterexample_run(m_list)
        assert len(results) == len(m_list)
        for m, (tau, gap) in zip(m_list, results):
            assert tau == 0.5 * math.pi + 2.0 * math.pi * m
            [(_, alone)] = counterexample_run([m])
            assert abs(gap - alone) <= 1e-12, m
            assert abs(gap - 1.0) <= 1e-9, m
        # the gaps of neighbouring m agree to about 1e-13, so a row's own
        # tau as its value shows that each lands in its place
        with mock.patch.object(analysis, "_counterexample_chunk",
                               lambda u, *args: u):
            marked = counterexample_run(m_list)
        assert [gap for _, gap in marked] == [tau for tau, _ in results]
