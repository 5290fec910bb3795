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

Whole runs drift by up to +-9% against each other, more than a change
worth telling apart.  So two trees are compared by alternating fresh
worker processes of both, rung by rung:

    python3 scripts/tau_ladder.py --compare PARENT_SRC CHANGE_SRC

For each of ``ROUNDS`` rounds and each rung, one worker per tree, the
two in alternating order, imports its tree, warms up with one call and
times ``TIMED`` more; the ratio of the two best walls is change / parent.
One JSON line per rung goes to stdout: the median best wall of each tree,
and the median, least and largest ratio over the rounds.
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
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
LADDER = [20.0 * 4 ** j + 0.3 for j in range(6)]
CASES = [("sinc:sigma=1", 2.0), ("fejer_square:sigma=2", 2.0),
         ("sinc:sigma=1", 1.5), ("fejer_square:sigma=2", 1.5)]
RUNGS = [(fn, p, tau) for fn, p in CASES for tau in LADDER]
TIMED = 5
FIT_FROM = 320.3
ROUNDS = 5


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


def best_wall(src: str, index: int) -> float:
    """The best of ``TIMED`` walls (s) of rung ``index`` of ``RUNGS`` in this
    process, with ``bandlim`` imported from ``src``, after one warm-up."""
    sys.path.insert(0, src)
    from bandlim.analysis import convergence_study
    from bandlim.functions import from_id

    fn, p, tau = RUNGS[index]
    f = from_id(fn)
    convergence_study(f, p, [tau])
    walls = []
    for _ in range(TIMED):
        start = time.perf_counter()
        convergence_study(f, p, [tau])
        walls.append(time.perf_counter() - start)
    return min(walls)


def compare(parent: str, change: str) -> list[dict]:
    """Per rung, the best walls of fresh workers of both trees in
    ``ROUNDS`` rounds, the order of the two alternating from rung to rung
    and from round to round, and the change / parent ratios."""
    walls = {tree: [[] for _ in RUNGS] for tree in (parent, change)}
    for r in range(ROUNDS):
        for i in range(len(RUNGS)):
            order = (parent, change) if (r + i) % 2 == 0 else (change, parent)
            for tree in order:
                out = subprocess.run(
                    [sys.executable, __file__, "--worker", tree, str(i)],
                    check=True, capture_output=True, text=True).stdout
                walls[tree][i].append(float(out))
    rows = []
    for i, (fn, p, tau) in enumerate(RUNGS):
        ratios = [b / a for a, b in zip(walls[parent][i], walls[change][i])]
        rows.append({
            "f": fn, "p": p, "tau": tau,
            "parent_ms": round(1e3 * statistics.median(walls[parent][i]), 3),
            "change_ms": round(1e3 * statistics.median(walls[change][i]), 3),
            "ratio": round(statistics.median(ratios), 3),
            "ratio_min": round(min(ratios), 3),
            "ratio_max": round(max(ratios), 3)})
        print(json.dumps(rows[-1]))
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
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT_SRC", "CHANGE_SRC"),
                        help="alternate workers of two trees, rung by rung")
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(repr(best_wall(args.worker[0], int(args.worker[1]))))
        return 0
    if args.compare:
        compare(*args.compare)
        return 0
    sys.path.insert(0, args.src)
    import numpy as np
    from bandlim.analysis import convergence_study
    from bandlim.functions import from_id

    measured = measure(convergence_study, [(from_id(fn), p, tau)
                                           for fn, p, tau in RUNGS])
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
