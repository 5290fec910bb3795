"""bandlim benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload converge-ladder --seed 1 \
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON report with the seed, the generated argv, sample
counts, tail percentiles, the environment and any check failures.

With ``--trace 0`` the run starts ``SETUP_PROCESSES`` fresh worker
processes one after another.  Each imports bandlim, makes one cold pass and
then warm passes for its share of ``--seconds``.  ``wall_s`` is the median
of all warm passes, ``setup_s`` the median over processes of import time
plus the cold pass (what a fresh process pays before its first result), and
``peak_rss_mb`` the median of the processes' ``ru_maxrss``.

With ``--trace 1`` one worker spends half the budget untraced and half with
spans installed (see ``spans.py``), then makes one pass measuring
``fourier_coefficients`` memory with tracemalloc.  It reports every
per-layer metric, the median over traced passes, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 5
# A run must end within 180 s; leave room for the references and start-up.
RUN_DEADLINE_S = 170.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "loadavg_before": list(os.getloadavg()),
            "threads_env": CHILD_ENV}


def _run_worker(job: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline reached before all workers ran")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            env={**os.environ, **CHILD_ENV}, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the run deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed with status {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list) -> tuple:
    """Highest integer percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None, None
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[dict, dict, dict]:
    """Returns ``(tally, metrics, report)`` for one workload."""
    argv = workloads.argv_for(name, seed)
    t0 = time.perf_counter()
    refs = workloads.references(name, argv, ROOT)
    job = {"src": str(ROOT / "src"), "argv": argv, "refs": refs,
           "trace": trace, "run_id": f"{name}-{seed}-{os.getpid()}"}
    report = {"workload": name, "why": workloads.WHY[name], "seed": seed,
              "argv": argv, "reference_s": time.perf_counter() - t0}
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        job.update(seconds=seconds,
                   spans_out=str(out_dir / f"spans-{name}-{seed}.json"))
        results = [_run_worker(job, deadline)]
    else:
        job["seconds"] = seconds / SETUP_PROCESSES
        results = [_run_worker(job, deadline) for _ in range(SETUP_PROCESSES)]

    warm = [s for r in results for s in r["warm_s"]]
    wall = statistics.median(warm)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    pct, tail = tail_percentile(warm)
    report.update(
        samples=len(warm), wall_median_s=wall, tail_percentile=pct,
        tail_s=tail, import_s=[r["import_s"] for r in results],
        cold_s=[r["cold_s"] for r in results], numpy=results[0]["numpy"],
        error_rate=failed / attempted,
        failures=[f for r in results for f in r["failures"]])
    if trace:
        r = results[0]
        traced = statistics.median(r["traced_s"])
        metrics = dict(r["layers"])
        metrics["trace.overhead_s"] = traced - wall
        report.update(traced_samples=len(r["traced_s"]), traced_median_s=traced,
                      spans_file=str(Path(job["spans_out"]).relative_to(ROOT)))
    else:
        metrics = {
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in results),
            "setup_s": statistics.median(r["import_s"] + r["cold_s"]
                                         for r in results),
        }
    return {"attempted": attempted, "failed": failed}, metrics, report


def _units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    deadline = time.monotonic() + RUN_DEADLINE_S * len(names)
    try:
        if not (ROOT / "src" / "bandlim" / "cli.py").is_file():
            raise BenchError(f"no bandlim source tree under {ROOT / 'src'}")
        if not 0 < args.seconds <= 60:
            raise BenchError("--seconds must lie in (0, 60]")
        units = _units(bool(args.trace))
        env = environment()
        tally = {"attempted": 0, "failed": 0}
        metrics = {}
        reports = []
        for name in names:
            t, m, report = run_workload(name, args.seed, args.seconds,
                                        bool(args.trace), deadline)
            if set(m) != set(units):
                raise BenchError(f"metrics {sorted(set(m) ^ set(units))} do "
                                 "not match BENCHMARK.json")
            for key in tally:
                tally[key] += t[key]
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": v, "unit": units[k]}
                            for k, v in m.items()})
            reports.append(report)
            for k, v in m.items():
                print(f"{name:16s} {k:44s} {v:.6g} {units[k]}")
            print(f"{name:16s} {'error_rate':44s} "
                  f"{report['error_rate']:.6g} failed/attempted")
        env["loadavg_after"] = list(os.getloadavg())
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": env, "workloads": reports}))
    print(json.dumps({"correct": tally["failed"] == 0,
                      "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
