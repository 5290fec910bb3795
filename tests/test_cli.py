import importlib.util
import json
import math
import pathlib
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from bandlim import (analysis, approximation, cli, functions, kernels,
                     quadrature)
from bandlim.quadrature import QuadratureSpec


def run_capture(argv, capsys):
    status = cli.main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


def lemma2_row(rep):
    return ",".join(f"{float(v):.17g}" for v in (
        rep.sigma, rep.tau, rep.delta, rep.n_points, rep.observed_max,
        rep.argmax, rep.certified_max, rep.bound, rep.ratio))


def load_schema(name):
    ref = resources.files("bandlim") / "schemas" / name
    return json.loads(ref.read_text(encoding="utf-8"))


class TestParsing:
    def test_converge(self):
        cfg = cli.parse_args(["converge", "--fn", "sinc:sigma=1",
                              "--p", "2", "--tau", "10,20,40,80"])
        assert cfg.subcommand == "converge"
        assert cfg.function_id == "sinc:sigma=1"
        assert cfg.p == 2.0
        assert cfg.tau_list == [10.0, 20.0, 40.0, 80.0]

    def test_tau_accepts_pi_expressions(self):
        cfg = cli.parse_args(["coeffs", "--fn", "expi:omega=1",
                              "--tau", "pi/2+2*pi"])
        assert cfg.tau_list[0] == pytest.approx(math.pi / 2 + 2 * math.pi)

    def test_m_range_expansion(self):
        cfg = cli.parse_args(["counterexample", "--m", "1..5"])
        assert cfg.m_list == [1, 2, 3, 4, 5]
        cfg = cli.parse_args(["counterexample", "--m", "1,3,7"])
        assert cfg.m_list == [1, 3, 7]

    @pytest.mark.parametrize("argv", [
        ["converge", "--fn", "sinc:sigma=1", "--p", "1", "--tau", "10"],
        ["converge", "--fn", "sinc:sigma=1", "--p", "inf", "--tau", "10"],
        ["converge", "--fn", "nosuch:sigma=1", "--tau", "10"],
        ["converge", "--fn", "sinc:sigma=1", "--tau", "20,10"],
        ["counterexample", "--m", "0"],
        ["counterexample", "--m", "5..1"],
        ["lemma2", "--sigma", "1"],
        ["lemma2", "--n-points", "10"],
        ["coeffs", "--fn", "sinc:sigma=1", "--tau", "-3"],
        ["lewitan", "--fn", "sinc:sigma=1", "--tau", "10", "--x", "0",
         "--K", "-2"],
        ["coeffs", "--fn", "sinc:sigma=1", "--tau", "pi**2"],
        ["coeffs", "--fn", "sinc:sigma=1", "--tau", "1e309"],
        ["coeffs", "--fn", "sinc:sigma=1", "--tau", "("],
        ["coeffs", "--fn", "sinc:sigma=1", "--tau", "pi/0"],
        ["coeffs", "--fn", "sinc:sigma=1", "--tau", "3,100"],
        ["lemma2", "--sigma", "1,5", "--tau", "10", "--delta", "0.5"],
        ["lemma2", "--sigma", "1", "--tau", "10", "--delta", "0.5,0.9"],
        ["lewitan", "--fn", "sinc:sigma=1", "--tau", "10,20", "--x", "0"],
        ["converge", "--fn", "sinc:sigma=1", "--tau", "10,10"],
    ])
    def test_usage_errors_exit_2(self, argv, capsys):
        status, out, err = run_capture(argv, capsys)
        assert status == 2
        assert err != ""

    @pytest.mark.parametrize("argv, flag", [
        (["lemma2", "--n-points", str(kernels.MAX_SCAN_POINTS + 1)],
         "--n-points"),
        (["lewitan", "--fn", "sinc:sigma=1", "--tau", "10", "--x", "0",
          "--K", str(approximation.MAX_LEWITAN_K + 1)], "--K"),
        (["counterexample", "--m", "1..1000000000"], "--m"),
        (["counterexample", "--m", "7,1..100000"], "--m"),
    ])
    def test_size_limit_names_the_flag(self, argv, flag, capsys):
        status, out, err = run_capture(argv, capsys)
        assert status == 2
        assert err.startswith(f"bandlim: {flag}: ")

    @pytest.mark.parametrize("argv, message", [
        (["converge", "--fn", "sinc:sigma=1", "--tau=-5,1"],
         "--tau values must be positive"),
        (["converge", "--fn", "sinc:sigma=1", "--tau", "5",
          "--abs-tol", "1e-15"], "tolerances below 1e-14 are not supported"),
        (["inequalities", "--rel-tol", "nan"], "tolerances must be finite"),
        (["coeffs", "--fn", "sinc:sigma=1", "--tau", "3", "--max-depth", "0"],
         "max_depth must lie in [1, 60]"),
    ])
    def test_usage_error_message(self, argv, message, capsys):
        assert run_capture(argv, capsys) == (2, "", f"bandlim: {message}\n")

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_after_a_successful_call(self, capsys):
        argv = ["converge", "--fn", "sinc:sigma=1"]
        with pytest.raises(SystemExit) as fresh:
            cli.build_parser.__wrapped__().parse_args(argv)
        expected = capsys.readouterr().err
        assert cli.main(["coeffs", "--fn", "sinc:sigma=1", "--tau", "3"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as cached:
            cli.main(argv)
        assert cached.value.code == fresh.value.code == 2
        assert capsys.readouterr().err == expected
        assert "required: --tau" in expected

    def test_m_limit_is_inclusive(self):
        cfg = cli.parse_args(["counterexample", "--m",
                              f"1..{cli.MAX_M_VALUES}"])
        assert len(cfg.m_list) == cli.MAX_M_VALUES

    @pytest.mark.parametrize("text", ["pi**2", "1e309", "(", "pi/0"])
    def test_rejected_number_names_the_flag(self, text, capsys):
        status, out, err = run_capture(
            ["lewitan", "--fn", "sinc:sigma=1", "--tau", "10", "--x", text],
            capsys)
        assert status == 2
        assert err.startswith("bandlim: --x: ")

    @pytest.mark.parametrize("text, value", [
        ("pi/2+2*pi", math.pi / 2 + 2 * math.pi),
        ("-pi", -math.pi),
        ("1e-3", 1e-3),
        ("(1+pi)*2", (1 + math.pi) * 2),
        (".5", 0.5),
    ])
    def test_accepts_number_grammar(self, text, value):
        cfg = cli.parse_args(["lewitan", "--fn", "sinc:sigma=1", "--tau", "10",
                              f"--x={text}"])
        assert cfg.x_list == [value]


class TestCoeffs:
    def test_exponential_at_tau_pi(self, capsys):
        status, out, err = run_capture(
            ["coeffs", "--fn", "expi:omega=1", "--tau", "pi"], capsys)
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,re,im,abs_error"
        rows = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
        assert set(rows) == {-1, 0, 1}
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-10)
        for k in (-1, 0):
            assert abs(float(rows[k][1])) <= 1e-10
            assert abs(float(rows[k][2])) <= 1e-10

    def test_json_is_valid_approximant_document(self, capsys, tmp_path):
        path = tmp_path / "approx.json"
        status = cli.main(["coeffs", "--fn", "sinc:sigma=1", "--tau", "10",
                           "--format", "json", "--output", str(path)])
        assert status == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        jsonschema.validate(doc, load_schema("approximant.schema.json"))
        assert doc["N"] == 3
        assert len(doc["coefficients"]) == 7

    @pytest.mark.parametrize("fn", ["sinc:sigma=inf", "sinc:sigma=nan"])
    def test_non_finite_parameter_is_usage_error(self, fn, capsys):
        status, out, err = run_capture(["coeffs", "--fn", fn, "--tau", "1"],
                                       capsys)
        assert status == 2
        assert "--fn:" in err

    def test_integer_intent_of_sigma_tau_over_pi(self, capsys):
        # sigma tau / pi rounds to 10.999999999999998: N = 11, 23 rows
        status, out, err = run_capture(
            ["coeffs", "--fn", "sinc:sigma=1", "--tau", "11*pi"], capsys)
        assert status == 0
        assert len(out.strip().split("\n")) == 1 + 23

    def test_size_limit_checked_before_allocating(self, capsys):
        status, out, err = run_capture(
            ["coeffs", "--fn", "sinc:sigma=1e300", "--tau", "1"], capsys)
        assert status == 1
        assert "nodes, above the limit" in err
        assert "Maximum allowed size" not in err


class TestCounterexample:
    def test_rows(self, capsys):
        status, out, err = run_capture(["counterexample", "--m", "1..3"],
                                       capsys)
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,tau,imag_gap"
        assert len(lines) == 4
        for line, m in zip(lines[1:], (1, 2, 3)):
            cells = line.split(",")
            assert int(cells[0]) == m
            assert float(cells[1]) == pytest.approx(
                math.pi / 2 + 2 * math.pi * m)
            assert float(cells[2]) == pytest.approx(1.0, abs=1e-9)

    def test_json_schema(self, capsys):
        status, out, err = run_capture(
            ["counterexample", "--m", "1,2", "--format", "json"], capsys)
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("output.schema.json"))
        assert doc["subcommand"] == "counterexample"
        assert doc["params"]["m"] == [1, 2]


class TestInequalities:
    def test_error_bound_column_is_the_checks_error_bound(self, capsys):
        status, out, err = run_capture(["inequalities", "--format", "json"],
                                       capsys)
        assert status == 0 and err == ""
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("output.schema.json"))
        assert doc["columns"][-2:] == ["margin", "error_bound"]
        rows = {tuple(row[:3]): row[-1] for row in doc["rows"]}
        assert len(doc["rows"]) == 19
        quad = QuadratureSpec(**doc["params"]["quad"])
        sinc1 = functions.make_sinc(1.0)
        fejer2 = functions.make_fejer_square(2.0)
        # the y = 0 Plancherel-Polya rows, whose margins lie below their
        # error bounds, and a Nikolskii and a polynomial Nikolskii row with
        # a nonzero error
        for check, key in [
            (analysis.check_plancherel_polya(sinc1, 0.0, 2.0, quad),
             ("plancherel_polya", "sinc:sigma=1", "y=0;p=2")),
            (analysis.check_plancherel_polya(fejer2, 0.0, 2.0, quad),
             ("plancherel_polya", "fejer_square:sigma=2", "y=0;p=2")),
            (analysis.check_nikolskii(sinc1, 2.0, 4.0, quad),
             ("nikolskii", "sinc:sigma=1", "r1=2;r2=4")),
            (analysis.check_poly_nikolskii(analysis.exp_coefficients(40.0),
                                           2.0, quad),
             ("poly_nikolskii", "approximant:tau=40", "p=2;N=12")),
        ]:
            assert rows[key] == check.error_bound > 0, key

    @pytest.mark.filterwarnings("error")
    def test_overflowing_abs_tol_power_exits_0(self, capsys):
        # abs_tol^4 of the p = 4 Nikolskii row overflowed as a Python
        # float, which printed a traceback and exited 1
        status, out, err = run_capture(["inequalities", "--abs-tol", "1e78"],
                                       capsys)
        assert (status, err) == (0, "")
        assert len(out.splitlines()) == 1 + 19


class TestLemma2:
    def test_single_cell(self, capsys):
        status, out, err = run_capture(
            ["lemma2", "--sigma", "1", "--tau", "10", "--delta", "0.5"],
            capsys)
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("sigma,tau,delta")
        cells = lines[1].split(",")
        ratio = float(cells[-1])
        assert 0.0 < ratio < 1.0

    def test_json_schema(self, capsys):
        status, out, err = run_capture(
            ["lemma2", "--sigma", "1", "--tau", "5", "--delta", "0",
             "--format", "json"], capsys)
        assert status == 0
        jsonschema.validate(json.loads(out), load_schema("output.schema.json"))

    def test_default_matrix_rows_match_per_cell_scans(self, capsys):
        status, out, err = run_capture(["lemma2"], capsys)
        assert status == 0 and err == ""
        lines = out.strip().split("\n")[1:]
        cells = [(s, t, d)
                 for s in cli._LEMMA2_DEFAULT_SIGMAS
                 for t in cli._LEMMA2_DEFAULT_TAUS
                 for d in cli._LEMMA2_DEFAULT_DELTAS]
        assert len(lines) == len(cells)
        for line, cell in zip(lines, cells):
            assert line == lemma2_row(kernels.kernel_gap_scan(*cell))

    def test_n_points_single_cell(self, capsys):
        status, out, err = run_capture(
            ["lemma2", "--sigma", "1", "--tau", "10", "--delta", "0.5",
             "--n-points", "5000"], capsys)
        assert status == 0 and err == ""
        assert out.split("\n")[1] == lemma2_row(
            kernels.kernel_gap_scan(1.0, 10.0, 0.5, 5000))

    @pytest.mark.parametrize("argv, status, message", [
        (["--n-points", "999"], 2, "bandlim: --n-points: must lie in "
         f"[1000, {kernels.MAX_SCAN_POINTS}]\n"),
        (["--sigma", "1e6", "--tau", "1e6", "--delta", "0"], 1,
         "bandlim lemma2: the grid for sigma=1e+06, tau=1e+06 needs "
         f"1.5e+13 nodes, above the limit of {quadrature.MAX_NODES}\n"),
        # 4194301 rounds up to 279621 panels of 15 nodes, 4194315 nodes
        (["--n-points", "4194301"], 2, "bandlim: --n-points: must lie in "
         "[1000, 4194300]\n"),
        (["--sigma", "0", "--tau", "1", "--delta", "0"], 2,
         "bandlim: sigma and tau must be positive\n"),
        (["--sigma", "1", "--tau", "1", "--delta", "1"], 2,
         "bandlim: delta must lie in [0, 1)\n"),
    ])
    def test_rejected_input_status_and_message(self, argv, status, message,
                                               capsys):
        got = run_capture(["lemma2"] + argv, capsys)
        assert got == (status, "", message)


class TestJsonParams:
    @pytest.mark.parametrize("argv, keys", [
        (["converge", "--fn", "sinc:sigma=1", "--tau", "5"],
         {"fn", "quad", "tau"}),
        (["lemma2", "--sigma", "1", "--tau", "5", "--delta", "0"], {"tau"}),
        (["lemma2"], set()),
        (["counterexample", "--m", "1,2"], {"m"}),
        (["inequalities"], {"quad"}),
        (["lewitan", "--fn", "sinc:sigma=1", "--tau", "20", "--x", "0"],
         {"fn", "tau"}),
    ])
    def test_document_and_params_keys(self, argv, keys, capsys):
        status, out, err = run_capture(argv + ["--format", "json"], capsys)
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("output.schema.json"))
        assert doc["subcommand"] == argv[0]
        assert set(doc["params"]) == keys


# One argv per subcommand, and the QuadratureSpec flags each one takes: only
# the subcommands that run a quadrature take them.
QUAD_FLAG_VALUES = {"--abs-tol": ("abs_tol", 1e-8),
                    "--rel-tol": ("rel_tol", 1e-6),
                    "--max-depth": ("max_depth", 30)}
SUBCOMMAND_QUAD_FLAGS = [
    (["converge", "--fn", "sinc:sigma=1", "--tau", "5"],
     {"--abs-tol", "--rel-tol", "--max-depth"}),
    (["lemma2", "--sigma", "1", "--tau", "5", "--delta", "0"], set()),
    (["counterexample", "--m", "1"], set()),
    (["inequalities"], {"--abs-tol", "--rel-tol", "--max-depth"}),
    (["coeffs", "--fn", "sinc:sigma=1", "--tau", "3"],
     {"--abs-tol", "--max-depth"}),
    (["lewitan", "--fn", "sinc:sigma=1", "--tau", "20", "--x", "0"], set()),
]


class TestQuadFlags:
    @pytest.mark.parametrize(
        "argv, kept", SUBCOMMAND_QUAD_FLAGS,
        ids=[argv[0] for argv, _ in SUBCOMMAND_QUAD_FLAGS])
    def test_flag_sets(self, argv, kept, capsys):
        assert hasattr(cli.parse_args(argv), "quad") == bool(kept)
        for flag, (field, value) in QUAD_FLAG_VALUES.items():
            given = argv + [flag, str(value)]
            if flag in kept:
                assert getattr(cli.parse_args(given).quad, field) == value
                continue
            with pytest.raises(SystemExit) as exc:
                cli.main(given)
            err = capsys.readouterr().err
            assert exc.value.code == 2
            assert err.startswith("usage: bandlim ")
            assert err.endswith(f"bandlim: error: unrecognized arguments: "
                                f"{flag} {value}\n")

    @pytest.mark.parametrize("argv, given", [
        (["converge", "--fn", "sinc:sigma=1", "--tau", "40", "--m", "1"],
         "--m 1"),
        (["lewitan", "--fn", "sinc:sigma=1", "--tau", "20", "--x", "0",
          "--n", "classical"], "--n classical"),
    ], ids=["converge-m", "lewitan-n"])
    def test_flag_prefixes_rejected(self, argv, given, capsys):
        # --m and --n are prefixes of --max-depth and --normalization
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: bandlim ")
        assert err.endswith(f"bandlim: error: unrecognized arguments: "
                            f"{given}\n")

    def test_coeffs_abs_tol_reaches_the_rows(self, capsys, monkeypatch):
        # the ladder accepts the rows' coefficients against --abs-tol, and
        # each row prints their proved error, within it
        seen = []
        ladder = approximation._coefficient_ladder

        def spy(f, tau, quad=None):
            seen.append(quad.abs_tol)
            return ladder(f, tau, quad)

        monkeypatch.setattr(approximation, "_coefficient_ladder", spy)
        status, out, err = run_capture(
            ["coeffs", "--fn", "sinc:sigma=1", "--tau", "3",
             "--abs-tol", "1e-8"], capsys)
        assert status == 0 and seen == [1e-8]
        monkeypatch.undo()
        a = approximation.fourier_coefficients(functions.make_sinc(1.0), 3.0)
        rows = [float(line.split(",")[3]) for line in out.split()[1:]]
        assert rows == [a.coeff_error / (2 * a.N + 1)] and rows[0] < 1e-8


class TestLewitan:
    def test_values_and_tail_column(self, capsys):
        status, out, err = run_capture(
            ["lewitan", "--fn", "sinc:sigma=1", "--tau", "20",
             "--x", "0,0.37"], capsys)
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,re,im,tail_bound"
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[3]) <= 1e-8

    def test_cutoff_below_the_abscissa_is_raised(self, capsys):
        # |x| / tau = 50.3, so K = 3 becomes ceil(50.3) + 2 = 53
        argv = ["lewitan", "--fn", "sinc:sigma=1", "--tau", "1", "--x", "50.3"]
        raised = run_capture(argv + ["--K", "3"], capsys)
        assert raised[0] == 0
        assert raised == run_capture(argv + ["--K", "53"], capsys)


class TestNumericalFailures:
    @pytest.mark.parametrize("argv, text", [
        (["lewitan", "--fn", "fejer_square:sigma=2", "--tau", "1e-200",
          "--x", "0"], "is too small"),
        (["counterexample", "--m", "100000000"], "above the limit"),
        # the envelope tail, C (2 / (2p - 1))^(1/p) = 2.9e308 for
        # C = 1.5e308 and tau near 0, is beyond the float range
        (["converge", "--fn", "fejer_square:sigma=3.27e-154", "--p", "1.01",
          "--tau", "0.001"], "overflows"),
        (["counterexample", "--m", "1" + "0" * 400], "beyond the float range"),
        (["counterexample", "--m", "1..100000"],
         "coefficients in all, above the limit"),
        # the interior passes when scaled, but the envelope tail's scaled
        # 2000th power underflows
        (["converge", "--fn", "fejer_square:sigma=2", "--p", "2000",
          "--tau", "40"], "the envelope tail integral for C=4, alpha=2, "
         "p=2000 beyond 40 underflows\n"),
    ])
    def test_exit_1_with_message(self, argv, text, capsys):
        status, out, err = run_capture(argv, capsys)
        assert status == 1
        assert err.startswith(f"bandlim {argv[0]}: ")
        assert text in err and out == ""

    def test_overflowing_envelope_power_is_scaled(self, capsys):
        # C = 4.55e202: C^2 and bound(10)^2 overflow, but the tail is 5.5e198
        status, out, err = run_capture(
            ["converge", "--fn", "mollify:base=fejer_square,sigma=1e-100,"
             "rho=0.5", "--p", "2", "--tau", "10"], capsys)
        assert (status, err) == (0, "")
        (row,) = out.split()[1:]
        values = [float(v) for v in row.split(",")]
        assert all(math.isfinite(v) for v in values)
        assert values[4] == pytest.approx(5.5107e198, rel=1e-4)
        assert values[5] == values[4]

    def test_tail_is_formed_in_one_scaled_expression(self, capsys):
        # C = 1.6e181: C^2 overflows, but bound(tau)^2 = 2^500 and the tail
        # 4.1e101 do not, and at e = 0 the tail no longer forms C^2
        status, out, err = run_capture(
            ["converge", "--fn", "fejer_square:sigma=1e-90", "--p", "2",
             "--tau", "1e53"], capsys)
        assert (status, err) == (0, "")
        (row,) = out.split()[1:]
        values = [float(v) for v in row.split(",")]
        assert all(math.isfinite(v) for v in values)
        assert values[4] == pytest.approx(4.1312e101, rel=1e-4)

    def test_underflowing_p_exits_1_with_one_line(self, capsys):
        # |f - f_tau|^5000 underflows at every node even when scaled to a
        # largest value of 0.61, which printed zeros
        status, out, err = run_capture(
            ["converge", "--fn", "sinc:sigma=1", "--p", "5000",
             "--tau", "10,40"], capsys)
        assert (status, out, err.count("\n")) == (1, "", 1)
        assert err.startswith("bandlim converge: ") and "underflows" in err

    def test_underflowing_gauss_ellipse_exits_0(self, capsys):
        # 0.5 rate hw underflows to 0 in the coefficients' Gauss bound,
        # which divided by it
        status, out, err = run_capture(
            ["coeffs", "--fn", "sinc:sigma=1e-200", "--tau", "1e-200"],
            capsys)
        assert (status, err) == (0, "")
        (row,) = out.split()[1:]
        assert all(math.isfinite(float(v)) for v in row.split(","))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["lemma2", "--sigma", "1", "--tau", "1e-160", "--delta", "0.5"],
         "the certified sup of the kernel gap at sigma=1, tau=1e-160, "
         "delta=0.5 is not finite"),
        (["converge", "--fn", "sinc:sigma=1e160", "--tau", "1e-160"],
         "the interior L^2 integral at tau=1e-160 overflows"),
        (["converge", "--fn", "sinc:sigma=1e160", "--p", "1.5",
          "--tau", "1e-160"],
         "the certified sup of the interior error at tau=1e-160 is not "
         "finite"),
    ])
    def test_overflow_exits_1_with_one_line(self, argv, message, capsys):
        # these printed nan (or inf) as certified values, or ran into the
        # fallback's point budget, with numpy warnings on stderr
        status, out, err = run_capture(argv, capsys)
        assert (status, out) == (1, "")
        assert err == f"bandlim {argv[0]}: {message}\n"
        assert "RuntimeWarning" not in err and "nan" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["lemma2", "--sigma", "1e308", "--tau", "1", "--delta", "0"],
         "the grid for sigma=1e+308, tau=1 needs inf nodes"),
        (["lemma2", "--sigma", "1e307", "--tau", "1", "--delta", "0.9"],
         "the grid for sigma=1e+307, tau=1 needs inf nodes"),
        (["coeffs", "--fn", "sinc:sigma=1e300", "--tau", "1e7"],
         "coefficients for tau=1e+07 (N=3.1831e+306) need inf nodes"),
        (["converge", "--fn", "fejer_square:sigma=1e307", "--tau", "1"],
         "coefficients for tau=1 (N=3.1831e+306) need inf nodes"),
        (["converge", "--fn", "mollify:base=sinc,sigma=1e307,rho=0.5",
          "--tau", "1"],
         "coefficients for tau=1 (N=2.38732e+306) need inf nodes"),
    ], ids=["lemma2-sigma-1e308", "lemma2-sigma-1e307", "coeffs",
            "converge-fejer_square", "converge-mollify"])
    def test_overflowing_node_count_exits_1_with_one_line(self, argv, message,
                                                          capsys):
        # a finite panel count times the nodes per panel overflowed in
        # numpy, whose RuntimeWarning came before the message
        status, out, err = run_capture(argv, capsys)
        assert (status, out) == (1, "")
        assert err == (f"bandlim {argv[0]}: {message}, above the limit of "
                       f"{quadrature.MAX_NODES}\n")


class TestOutputPath:
    @pytest.mark.parametrize("missing_dir", [True, False],
                             ids=["missing-directory", "is-a-directory"])
    def test_unwritable_path_exits_2(self, missing_dir, tmp_path, capsys):
        path = tmp_path / "missing" / "out.csv" if missing_dir else tmp_path
        status, out, err = run_capture(
            ["coeffs", "--fn", "sinc:sigma=1", "--tau", "3",
             "--output", str(path)], capsys)
        assert status == 2 and out == ""
        assert err.startswith(f"bandlim: --output: cannot write {str(path)!r}: ")
        assert err.count("\n") == 1


class TestDeterminism:
    def test_byte_identical_runs(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            status = cli.main(["converge", "--fn", "fejer_square:sigma=2",
                               "--p", "2", "--tau", "5,10",
                               "--output", str(path)])
            assert status == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_converge_header_and_monotone_totals(self, capsys):
        status, out, err = run_capture(
            ["converge", "--fn", "sinc:sigma=1", "--p", "2",
             "--tau", "5,10"], capsys)
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0] == "tau,p,interior,interior_err,tail,total,sup_cert,sup_grid"
        totals = [float(line.split(",")[5]) for line in lines[1:]]
        assert totals[1] < totals[0]


class TestColdPath:
    # Each benchmark argv of seed 1 in one fresh process, as
    # scripts/cli_diff.py runs the CLI: the 15-node rule is a committed
    # table, so no subcommand needs numpy.polynomial (whose leggauss runs
    # an eigensolver).  numpy 1.x loads it with numpy itself.
    RUNNER = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
              "import numpy; bare = 'numpy.polynomial' in sys.modules; "
              "from bandlim.cli import main; "
              "codes = [main(argv) for argv in json.loads(sys.argv[2])]; "
              "print(json.dumps([bare, codes, "
              "'numpy.polynomial' in sys.modules]))")

    def test_no_subcommand_imports_numpy_polynomial(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", root / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        argvs = [argv for name in workloads.WORKLOADS
                 for argv in workloads.argv_for(name, 1)]
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-P", "-c", self.RUNNER, str(src),
             json.dumps(argvs)], capture_output=True, text=True, check=True)
        bare, codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        if bare:
            pytest.skip("import numpy loads numpy.polynomial itself")
        assert codes == [0] * len(argvs)
        assert not loaded
