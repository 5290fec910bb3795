import dataclasses
import math

import numpy as np
import pytest

from bandlim.analysis import check_plancherel_polya, lp_norm_line
from bandlim.functions import (INF, DecayEnvelope, PMembership,
                               UnknownFunctionError,
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
        # no jump where a series once took over below |u| = 1e-4
        for u in (9.99e-5, 1.001e-4):
            assert float(sinc_ratio(u)) == pytest.approx(math.sin(u) / u,
                                                         rel=1e-15)

    def test_at_zero(self):
        assert float(sinc_ratio(0.0)) == 1.0

    @staticmethod
    def whole_array_formula(u):
        """Oracle: the quotient everywhere, 1 where u == 0."""
        u = np.asarray(u)
        safe = np.where(u == 0, 1.0, u)
        return np.where(u == 0, 1.0, np.sin(safe) / safe)

    def test_matches_mpmath(self):
        # 40-digit references: real u log-uniform in [1e-300, 3e-4] (the
        # old series range and below) and in [3e-4, 30]; complex u with
        # |u| log-uniform in [1e-12, 6e-5] and in [6e-5, 3], any argument
        import mpmath as mp

        rng = np.random.default_rng(11)
        real = np.concatenate([10.0 ** rng.uniform(-300.0, math.log10(3e-4),
                                                   300),
                               10.0 ** rng.uniform(math.log10(3e-4), 1.5,
                                                   100)])
        real[::2] *= -1.0
        size = np.concatenate([10.0 ** rng.uniform(-12.0, math.log10(6e-5),
                                                   150),
                               10.0 ** rng.uniform(math.log10(6e-5), 0.5,
                                                   50)])
        cplx = size * np.exp(1j * rng.uniform(-math.pi, math.pi, len(size)))
        got_real, got_cplx = sinc_ratio(real), sinc_ratio(cplx)
        with mp.workdps(40):
            for u, got in zip(real.tolist(), got_real.tolist()):
                want = float(mp.sin(mp.mpf(u)) / mp.mpf(u))
                assert abs(got - want) <= 2.0 * math.ulp(want)
            for u, got in zip(cplx.tolist(), got_cplx.tolist()):
                want = complex(mp.sin(mp.mpc(u)) / mp.mpc(u))
                assert abs(got - want) <= 1e-15 * abs(want)
        for zero in (0.0, -0.0, 0j):
            assert sinc_ratio(zero) == 1.0
        assert np.array_equal(sinc_ratio(np.array([0.0, -0.0, 0.5])),
                              [1.0, 1.0, math.sin(0.5) / 0.5])

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


class TestDecayEnvelope:
    def test_overflowing_tail_raises_value_error(self):
        # mollify(fejer_square(sigma=1e-100), 0.5): C ** 2 is beyond floats
        env = mollify(make_fejer_square(1e-100), 0.5).decay
        assert env.C > 1e200
        with pytest.raises(ValueError, match="overflows"):
            env.tail_lp(10.0, 2.0)

    def test_underflowing_tail_raises_value_error(self):
        # sinc: C = 2 / pi, and 2 (2 / pi)^300 / (299 * 11^299), about
        # 1e-372, is below every float; at p = 200 it is about 1e-248
        env = make_sinc(1.0).decay
        with pytest.raises(ValueError, match="underflows"):
            env.tail_lp(10.0, 300.0)
        assert env.tail_lp(10.0, 200.0) > 0.0
        assert DecayEnvelope(C=0.0, alpha=1.0).tail_lp(10.0, 300.0) == 0.0

    def test_cutoff_for_tail_in_logs(self):
        env = mollify(make_fejer_square(1e-100), 0.5).decay
        ap = env.alpha * 2.0
        cutoff = env.cutoff_for_tail(1e-20, 2.0)
        # log10 of X + 1 = (log10(2 C^2 / (ap - 1)) + 20) / (ap - 1)
        expect = (math.log10(2.0 / (ap - 1.0)) + 2.0 * math.log10(env.C)
                  + 20.0) / (ap - 1.0)
        assert math.log10(cutoff + 1.0) == pytest.approx(expect, rel=1e-13)
        assert env.cutoff_for_tail(1e-20, (1.0 + 1e-12) / env.alpha) \
            == math.inf

    @pytest.mark.parametrize("f", catalog_members()[:2] + catalog_members()[3:],
                             ids=lambda f: f.id)
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_cutoff_meets_budget(self, f, p):
        env = f.decay
        budget = 1e-9
        cutoff = env.cutoff_for_tail(budget, p)
        assert env.tail_lp(cutoff, p) == pytest.approx(budget, rel=1e-12)


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

    @pytest.mark.parametrize("f", catalog_members(), ids=lambda f: f.id)
    def test_scalar_in_scalar_out(self, f):
        assert isinstance(f.eval_real(0.7), np.generic)
        assert isinstance(f.eval_complex(0.7 + 0.2j), np.generic)

    @pytest.mark.parametrize("f", catalog_members(), ids=lambda f: f.id)
    def test_shape_kept(self, f):
        x = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
        assert np.shape(f.eval_real(x)) == (3, 4)
        assert np.shape(f.eval_complex(x + 0.5j)) == (3, 4)

    @pytest.mark.parametrize("f", catalog_members(), ids=lambda f: f.id)
    def test_result_dtypes(self, f):
        x = np.linspace(-4.0, 4.0, 9)
        if not f.id.startswith("expi"):
            assert np.asarray(f.eval_real(x)).dtype == np.float64
            assert np.asarray(f.eval_real(0.7)).dtype == np.float64
        assert np.asarray(f.eval_complex(x)).dtype == np.complex128
        assert np.asarray(f.eval_complex(0.7)).dtype == np.complex128

    def test_mollify_without_complex_evaluator(self):
        base = dataclasses.replace(make_sinc(1.0), eval_complex=None)
        g = mollify(base, 0.2)
        assert g.eval_complex is None
        x = np.linspace(-3.0, 3.0, 7)
        assert np.array_equal(g.eval_real(x),
                              mollify(make_sinc(1.0), 0.2).eval_real(x))
        with pytest.raises(ValueError,
                           match="does not support complex evaluation"):
            check_plancherel_polya(g, 0.5, 2.0, QUAD)

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
