#!/usr/bin/env python3
"""Cost of ``convergence_study`` along a tau ladder, in-process, on one
thread: wall time, tracemalloc peak and minor page faults per call, and the
exponents of time and memory in tau.

For each function (sinc sigma=1, fejer_square sigma=2), p (2 and 1.5) and
tau of the ladder 20.3, 80.3, ..., 20480.3 (a factor 4 apart), a rung, one
``convergence_study(f, p, [tau])`` call warms up.  Then five rounds each
call every rung once, the odd rounds in reverse order, so that a slow
stretch of the machine slows one call of many rungs rather than every call
of a few; the five calls of a rung give its best wall time and its minor
page faults (``ru_minflt``) per call.  Last, one more call of each rung
under tracemalloc gives the peak of traced memory.  The fitted
exponents are least-squares slopes of log time and log peak against log
tau over the rungs from 320.3 up, where fixed costs no longer dominate.
The document also records the machine, Python and numpy.  Run from the
repository root:

    python3 scripts/tau_ladder.py [SRC] [--output PATH]

SRC (default ``src``) holds the ``bandlim`` package; PATH defaults to
``BENCH_tau_ladder.json``.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
LADDER = [20.0 * 4 ** j + 0.3 for j in range(6)]
CASES = [("sinc:sigma=1", 2.0), ("fejer_square:sigma=2", 2.0),
         ("sinc:sigma=1", 1.5), ("fejer_square:sigma=2", 1.5)]
TIMED = 5
FIT_FROM = 320.3


def measure(study, rungs) -> list[dict]:
    """Per rung (f, p, tau) of ``rungs``: the best wall time of its
    ``TIMED`` calls, one in each round over all rungs, their minor faults
    per call, and the tracemalloc peak of one more call."""
    for f, p, tau in rungs:
        study(f, p, [tau])
    walls = [[] for _ in rungs]
    faults = [0] * len(rungs)
    order = list(range(len(rungs)))
    for r in range(TIMED):
        for i in order[::-1] if r % 2 else order:
            f, p, tau = rungs[i]
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            study(f, p, [tau])
            walls[i].append(time.perf_counter() - start)
            faults[i] += (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
    rows = []
    for (f, p, tau), wall, fault in zip(rungs, walls, faults):
        tracemalloc.start()
        study(f, p, [tau])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rows.append({"tau": tau, "wall_ms": round(1e3 * min(wall), 3),
                     "peak_mib": round(peak / 2 ** 20, 3),
                     "minflt_per_call": fault / TIMED})
    return rows


def slope(points) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def cpu_model() -> str:
    """The CPU model name from /proc/cpuinfo, or platform's guess."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--output",
                        default=str(ROOT / "BENCH_tau_ladder.json"))
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from bandlim.analysis import convergence_study
    from bandlim.functions import from_id

    measured = measure(convergence_study, [(from_id(fn), p, tau)
                                           for fn, p in CASES
                                           for tau in LADDER])
    rows, fits = [], []
    for j, (fn, p) in enumerate(CASES):
        rungs = measured[j * len(LADDER):(j + 1) * len(LADDER)]
        for rung in rungs:
            rows.append({"f": fn, "p": p, **rung})
            print(json.dumps(rows[-1]), file=sys.stderr)
        upper = [r for r in rungs if r["tau"] >= FIT_FROM]
        fits.append({
            "f": fn, "p": p, "taus": [r["tau"] for r in upper],
            "time_exponent": round(slope(
                [(r["tau"], r["wall_ms"]) for r in upper]), 3),
            "memory_exponent": round(slope(
                [(r["tau"], r["peak_mib"]) for r in upper]), 3)})
    doc = {
        "description": __doc__.splitlines()[0],
        "environment": {"machine": platform.machine(),
                        "cpu": cpu_model(),
                        "cpus": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": np.__version__, "threads": 1},
        "timed_calls": TIMED, "rows": rows, "fits": fits}
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
