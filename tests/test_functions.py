import dataclasses
import math

import numpy as np
import pytest

from bandlim.analysis import lp_norm_line
from bandlim.functions import (INF, PMembership, UnknownFunctionError,
                               from_id, make_complex_exponential,
                               make_fejer_square, make_sinc, mollify,
                               sinc_ratio)
from bandlim.quadrature import QuadratureSpec

QUAD = QuadratureSpec()


def catalog_members():
    return [
        make_sinc(1.0),
        make_sinc(2.5),
        make_complex_exponential(1.0),
        make_fejer_square(2.0),
        mollify(make_sinc(1.0), 0.1),
        mollify(make_fejer_square(2.0), 0.3),
    ]


class TestSincRatio:
    def test_switchover_continuity(self):
        # values straddling the 1e-4 cutoff agree to near machine precision
        for u in (9.99e-5, 1.001e-4):
            assert float(sinc_ratio(u)) == pytest.approx(math.sin(u) / u,
                                                         rel=1e-15)

    def test_at_zero(self):
        assert float(sinc_ratio(0.0)) == 1.0

    @staticmethod
    def whole_array_formula(u):
        """Oracle: the series and the ratio on every element, then a select."""
        u = np.asarray(u)
        small = np.abs(u) < 1e-4
        safe = np.where(small, 1.0, u)
        u2 = u * u
        series = 1.0 - u2 / 6.0 + u2 * u2 / 120.0 - u2 * u2 * u2 / 5040.0
        return np.where(small, series, np.sin(safe) / safe)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("shape", [(40,), (5, 8)])
    def test_mixed_array_matches_whole_array_formula(self, dtype, shape):
        rng = np.random.default_rng(3)
        u = rng.uniform(-30.0, 30.0, shape).astype(dtype)
        if dtype is complex:
            u += 1j * rng.uniform(-3.0, 3.0, shape)
        flat = u.reshape(-1)
        flat[::3] *= 1e-5       # |u| < 1e-4
        flat[1] = 0.0
        flat[4] = 9.99e-5
        flat[7] = 1.001e-4
        got = sinc_ratio(u)
        want = self.whole_array_formula(u)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_array_without_small_elements(self):
        u = np.linspace(0.5, 40.0, 17)
        assert np.array_equal(sinc_ratio(u), self.whole_array_formula(u))
        assert np.array_equal(sinc_ratio(u + 0.25j),
                              self.whole_array_formula(u + 0.25j))

    @pytest.mark.parametrize("u", [0.0, 3e-5, 0.5, -7.0, 2e-5j, 1.5 + 0.5j,
                                   np.float64(0.25)])
    def test_scalar_input_stays_zero_dimensional(self, u):
        got = sinc_ratio(u)
        want = self.whole_array_formula(u)
        assert type(got) is type(want)
        assert np.ndim(got) == 0
        assert got == want


class TestSinc:
    def test_removable_singularity(self):
        assert make_sinc(1.0)(0.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_direct_value(self):
        f = make_sinc(2.0)
        assert f(math.pi / 4) == pytest.approx(4.0 / math.pi ** 2, rel=1e-14)

    def test_l2_norm_matches_plancherel(self):
        # transform is the indicator of [-1, 1]: norm^2 = sigma/pi
        est = lp_norm_line(make_sinc(1.0), 2.0, QUAD)
        assert abs(est.value - math.sqrt(1.0 / math.pi)) <= est.error_bound

    def test_known_l2(self):
        f = make_sinc(3.0)
        assert f.known_norms[2.0] == pytest.approx(math.sqrt(3.0 / math.pi))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            make_sinc(0.0)
        with pytest.raises(ValueError):
            make_sinc(-1.0)


class TestComplexExponential:
    def test_quarter_period(self):
        f = make_complex_exponential(1.0)
        assert f(math.pi / 2) == pytest.approx(1j, abs=1e-15)

    def test_imaginary_argument(self):
        f = make_complex_exponential(1.0)
        assert f.eval_complex(1j) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_sup_norm(self):
        assert make_complex_exponential(1.0).known_norms[INF] == 1.0

    def test_rejects_zero_omega(self):
        with pytest.raises(ValueError):
            make_complex_exponential(0.0)


class TestFejerSquare:
    def test_peak(self):
        assert make_fejer_square(2.0)(0.0) == 1.0

    def test_first_zero(self):
        f = make_fejer_square(2.0)
        assert f(2.0 * math.pi / f.sigma) == pytest.approx(0.0, abs=1e-28)

    def test_l1_matches_simpson_oracle(self, oracle):
        ref = oracle["fejer_square_sigma2_l1"]
        est = lp_norm_line(make_fejer_square(2.0), 1.0, QUAD)
        assert abs(est.value - ref["value"]) <= (est.error_bound
                                                 + ref["tail_upper_bound"])
        # and the oracle itself sits on the exact value 2 pi / sigma
        assert ref["value"] == pytest.approx(ref["exact"],
                                             abs=ref["tail_upper_bound"])


class TestMollify:
    def test_value_at_zero_unchanged(self):
        f = make_sinc(1.0)
        assert mollify(f, 0.3)(0.0) == pytest.approx(f(0.0), rel=1e-14)

    def test_decay_exponent_gains_two(self):
        f = make_sinc(1.0)
        assert mollify(f, 0.2).decay.alpha == f.decay.alpha + 2.0

    def test_distance_shrinks_with_rho(self, oracle):
        f = make_sinc(1.0)
        ref = oracle["mollify_sinc1_l2_distance"]
        dists = []
        for rho in (0.2, 0.1, 0.05):
            g = mollify(f, rho)

            def diff(x, _g=g):
                return np.asarray(f.eval_real(x)) - np.asarray(_g.eval_real(x))

            from bandlim.analysis import lp_norm_interval
            est = lp_norm_interval(diff, 2.0, -2000.0, 2000.0, QUAD,
                                   max_panel_width=1.0)
            assert est.value == pytest.approx(ref[f"{rho:g}"], abs=1e-6)
            dists.append(est.value)
        assert dists[0] > dists[1] > dists[2]

    def test_records_computed_type(self):
        g = mollify(make_sinc(1.0), 0.1)
        assert g.sigma == pytest.approx(2 * 0.1 + (1 - 0.01) * 1.0)

    def test_gains_l1_membership(self):
        g = mollify(make_sinc(1.0), 0.1)
        assert g.p_membership.contains(1.0)

    def test_rejects_bad_rho(self):
        f = make_sinc(1.0)
        for rho in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                mollify(f, rho)


class TestNonFiniteParameters:
    @pytest.mark.parametrize("factory", [
        make_sinc, make_fejer_square, make_complex_exponential,
        lambda v: mollify(make_sinc(1.0), v),
    ], ids=["sinc", "fejer_square", "expi", "mollify"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejected(self, factory, value):
        with pytest.raises(ValueError):
            factory(value)

    def test_mollify_rejects_base_of_infinite_type(self):
        wide = dataclasses.replace(make_sinc(1.0), sigma=INF)
        with pytest.raises(ValueError):
            mollify(wide, 0.1)


class TestInvariants:
    @pytest.mark.parametrize("f", catalog_members(), ids=lambda f: f.id)
    def test_decay_envelope_on_log_grid(self, f):
        x = np.logspace(0.0, 6.0, 400)
        for sign in (1.0, -1.0):
            vals = np.abs(np.asarray(f.eval_real(sign * x)))
            assert np.all(vals <= f.decay.bound(x) * (1.0 + 1e-12))

    @pytest.mark.parametrize("f", catalog_members(), ids=lambda f: f.id)
    def test_real_complex_agreement(self, f):
        if f.eval_complex is None:
            pytest.skip("no complex evaluator")
        x = np.linspace(-7.3, 7.3, 57)
        re = np.asarray(f.eval_real(x), dtype=complex)
        cx = np.asarray(f.eval_complex(x.astype(complex)))
        assert np.allclose(re, cx, rtol=1e-12, atol=1e-300)

    def test_membership_is_up_set(self):
        for f in catalog_members():
            ps = [1.0, 1.5, 2.0, 4.0, 10.0, INF]
            for i, p in enumerate(ps):
                if f.p_membership.contains(p):
                    assert all(f.p_membership.contains(r) for r in ps[i:])

    def test_sinc_excludes_p1(self):
        assert not make_sinc(1.0).p_membership.contains(1.0)
        assert make_sinc(1.0).p_membership.contains(1.01)

    def test_membership_dataclass(self):
        m = PMembership(2.0, min_inclusive=True)
        assert m.contains(2.0) and m.contains(INF) and not m.contains(1.9)


class TestCatalogIds:
    @pytest.mark.parametrize("text, sigma", [
        ("sinc:sigma=1", 1.0),
        ("fejer_square:sigma=2", 2.0),
        ("expi:omega=-3", 3.0),
    ])
    def test_parse(self, text, sigma):
        f = from_id(text)
        assert f.sigma == sigma

    def test_parse_mollify(self):
        f = from_id("mollify:base=sinc,sigma=1,rho=0.1")
        assert f.sigma == pytest.approx(2 * 0.1 + (1 - 0.01) * 1.0)
        assert f.decay.alpha == 3.0

    def test_roundtrip_ids(self):
        for f in catalog_members():
            g = from_id(f.id)
            x = np.linspace(-3.0, 3.0, 11)
            assert np.allclose(np.asarray(f.eval_real(x)),
                               np.asarray(g.eval_real(x)), rtol=1e-15)

    @pytest.mark.parametrize("bad", [
        "nosuch:sigma=1",
        "sinc",
        "sinc:sigma",
        "sinc:sigma=abc",
        "sinc:sigma=1,extra=2",
        "mollify:rho=0.1",
        "mollify:base=mollify,rho=0.1",
        "expi:omega=0",
        "sinc:sigma=nan",
        "sinc:sigma=inf",
        "fejer_square:sigma=inf",
        "expi:omega=nan",
        "mollify:base=sinc,sigma=inf,rho=0.1",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(UnknownFunctionError):
            from_id(bad)
