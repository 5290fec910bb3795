import json
import math
from importlib import resources

import jsonschema
import pytest

from bandlim import approximation, cli, kernels


def run_capture(argv, capsys):
    status = cli.main(argv)
    out = capsys.readouterr()
    return status, out.out, out.err


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

    def test_size_limit_checked_before_allocating(self, capsys):
        status, out, err = run_capture(
            ["coeffs", "--fn", "sinc:sigma=1e300", "--tau", "1"], capsys)
        assert status == 1
        assert "quadrature nodes, above the limit" in err
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


class TestJsonParams:
    @pytest.mark.parametrize("argv, keys", [
        (["converge", "--fn", "sinc:sigma=1", "--tau", "5"],
         {"fn", "quad", "tau"}),
        (["lemma2", "--sigma", "1", "--tau", "5", "--delta", "0"],
         {"quad", "tau"}),
        (["lemma2"], {"quad"}),
        (["counterexample", "--m", "1,2"], {"m", "quad"}),
        (["inequalities"], {"quad"}),
        (["lewitan", "--fn", "sinc:sigma=1", "--tau", "20", "--x", "0"],
         {"fn", "quad", "tau"}),
    ])
    def test_document_and_params_keys(self, argv, keys, capsys):
        status, out, err = run_capture(argv + ["--format", "json"], capsys)
        assert status == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema("output.schema.json"))
        assert doc["subcommand"] == argv[0]
        assert set(doc["params"]) == keys


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
