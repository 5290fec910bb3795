"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SHORT_S = 0.5

# Counts that must repeat exactly for the same inputs.
EXACT_COUNTS = (
    "quadrature.integrand_points", "quadrature.panels",
    "quadrature.integrand_values", "approximation.evaluate.terms",
    "analysis.sup_norm_certified.grid_points",
    "kernels.kernel_gap_scan.grid_points", "kernels.kernel_gap.calls",
)

# The workload on which each per-layer metric must be nonzero; a metric
# that reads zero there was wrapped at the wrong lookup site.
_CLI = ("cli.parse_args.s", "cli.run.self_s")
_QUAD = ("quadrature.integrate.calls", "quadrature.integrate.self_s",
         "quadrature.integrand_points", "quadrature.panels",
         "quadrature.integrand_values")
_EVAL = ("approximation.evaluate.calls", "approximation.evaluate.self_s",
         "approximation.evaluate.points", "approximation.evaluate.terms")
_FUNCS = ("functions.eval.points", "functions.eval.self_s")
NONZERO_ON = {
    "converge-ladder": _CLI + _QUAD + _EVAL + _FUNCS + (
        "approximation.fourier_coefficients.calls",
        "approximation.fourier_coefficients.s",
        "approximation.fourier_coefficients.peak_mb",
        "analysis.convergence_study.s", "analysis.lp_norm_interval.self_s",
        "analysis.sup_norm_certified.self_s",
        "analysis.sup_norm_certified.grid_points"),
    "pointwise": _CLI + _EVAL + (
        "analysis.counterexample_run.s", "kernels.kernel_gap_scan.calls",
        "kernels.kernel_gap_scan.self_s", "kernels.kernel_gap_scan.grid_points",
        "kernels.kernel_gap.calls", "kernels.kernel_gap.self_s"),
    "line-norms": _CLI + _QUAD + _FUNCS + (
        "analysis.lp_norm_line.s", "analysis.check_plancherel_polya.s",
        "analysis.check_nikolskii.s", "analysis.check_poly_nikolskii.s"),
}


def _spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _bound(name):
    return next(m["bound"] for m in _spec()["end_to_end"] if m["name"] == name)


def _traced(workload, seed):
    deadline = time.monotonic() + run.RUN_DEADLINE_S
    return run.run_workload(workload, seed, SHORT_S, True, deadline)


@pytest.fixture(scope="module")
def traced_twice():
    return {w: (_traced(w, 1), _traced(w, 1)) for w in workloads.WORKLOADS}


@pytest.fixture(scope="module")
def cli_outputs():
    sys.path.insert(0, str(run.ROOT / "src"))
    from bandlim import cli
    out = {}
    for w in workloads.WORKLOADS:
        argv = workloads.argv_for(w, 0)
        refs = workloads.references(w, argv, run.ROOT)
        for call, ref in zip(argv, refs):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(call) == 0
            out[call[0]] = (call, buf.getvalue(), ref)
    return out


def test_benchmark_json_lists_what_the_run_reports():
    spec = _spec()
    assert [m["name"] for m in spec["per_layer"]] == \
        [m[0] for m in spans.LAYER_METRICS] + ["trace.overhead_s"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    named = {m for names in NONZERO_ON.values() for m in names}
    assert named == {m[0] for m in spans.LAYER_METRICS}


def test_same_seed_same_argv_and_seeds_differ():
    for w in workloads.WORKLOADS:
        assert workloads.argv_for(w, 7) == workloads.argv_for(w, 7)
    for w in ("converge-ladder", "pointwise"):
        assert workloads.argv_for(w, 1) != workloads.argv_for(w, 2)


def test_checks_accept_the_program_output(cli_outputs):
    for call, text, ref in cli_outputs.values():
        workloads.check_output(call, text, ref)


def _perturb(text, row, column, new):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = new(cells[header.index(column)])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command,row,column,new", [
    ("converge", 1, "interior", lambda v: repr(float(v) * (1 + 1e-10))),
    ("converge", 3, "sup_cert", lambda v: "0"),
    ("lemma2", 17, "ratio", lambda v: "1.0000001"),
    ("counterexample", 500, "imag_gap", lambda v: repr(1 + 1e-8)),
    ("counterexample", 0, "m", lambda v: "0"),
    ("inequalities", 12, "margin", lambda v: "-1e-12"),
    ("inequalities", 2, "lhs", lambda v: repr(float(v) * (1 - 2e-4))),
])
def test_checks_reject_perturbed_output(cli_outputs, command, row, column,
                                        new):
    call, text, ref = cli_outputs[command]
    with pytest.raises(workloads.CheckFailure):
        workloads.check_output(call, _perturb(text, row, column, new), ref)


def test_worker_counts_failed_checks():
    argv = workloads.argv_for("line-norms", 0)
    refs = workloads.references("line-norms", argv, run.ROOT)
    refs[0]["plancherel_sinc1"]["1"] *= 1.01
    job = {"src": str(run.ROOT / "src"), "argv": argv, "refs": refs,
           "trace": False, "seconds": SHORT_S}
    result = run._run_worker(job, time.monotonic() + run.RUN_DEADLINE_S)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert "plancherel_polya y=1" in result["failures"][0]


def test_layers_nonzero_where_named(traced_twice):
    for w, names in NONZERO_ON.items():
        (tally, metrics, _report), _ = traced_twice[w]
        assert tally["failed"] == 0
        zero = [m for m in names if not metrics[m] > 0]
        assert not zero, f"{w}: zero per-layer metrics {zero}"


def test_exact_counts_repeat_across_runs(traced_twice):
    for w, ((_, first, _), (_, second, _)) in traced_twice.items():
        for name in EXACT_COUNTS:
            assert first[name] == second[name], (w, name)


def test_seed_moves_quadrature_work_less_than_the_wall_bound(traced_twice):
    (_, first, _), _ = traced_twice["converge-ladder"]
    _, other, _ = _traced("converge-ladder", 2)
    a = first["quadrature.integrand_values"]
    b = other["quadrature.integrand_values"]
    assert a != b
    assert abs(a - b) / a < _bound("wall_s")


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pointwise",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
