#!/usr/bin/env python3
"""Warm-pass wall time, minor page faults and peak RSS of each benchmark
workload, in-process.

For each workload a fresh Python process, with the thread settings of the
benchmark's workers (``CHILD_ENV`` of ``perfbench/run.py``), puts SRC first
on ``sys.path``, takes the CLI calls of one pass from
``perfbench/workloads.argv_for`` (read, not changed), and runs them through
``bandlim.cli.main`` with stdout captured: one cold pass, then ``--passes``
warm ones.  It prints the median wall time of a warm pass, the minor page
faults (``ru_minflt``) per warm pass, and the process's peak RSS
(``ru_maxrss``, in MB of 2^20 bytes as ``perfbench`` reports
``peak_rss_mb``).  The output is not checked; run ``perfbench/run.py`` for
that.  Run from the repository root:

    python3 scripts/warm_probe.py [SRC] [--workload W] [--seed S]
                                  [--passes N]

SRC defaults to ``src``; W is a workload name or ``all`` (the default).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]


def probe(src: str, workload: str, seed: int, passes: int) -> dict:
    """Run one workload's passes in this process; its figures as a dict."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, src)
    from bandlim import cli
    from workloads import argv_for

    calls = argv_for(workload, seed)

    def one_pass() -> float:
        start = time.perf_counter()
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status != 0:
                raise SystemExit(f"{workload}: exit status {status} for "
                                 f"{argv}")
        return time.perf_counter() - start

    one_pass()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    walls = [one_pass() for _ in range(passes)]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"workload": workload, "passes": passes,
            "wall_ms": 1e3 * statistics.median(walls),
            "minflt_per_pass": (usage.ru_minflt - faults) / passes,
            "maxrss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=200)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.child:
        print(json.dumps(probe(args.src, args.workload, args.seed,
                               args.passes)))
        return 0

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import CHILD_ENV
    from workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")
        # -P keeps the working directory off sys.path, so only SRC
        # supplies bandlim
        proc = subprocess.run(
            [sys.executable, "-P", __file__, args.src, "--child",
             "--workload", name, "--seed", str(args.seed),
             "--passes", str(args.passes)],
            capture_output=True, text=True, check=False,
            env={**os.environ, **CHILD_ENV})
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        r = json.loads(proc.stdout)
        print(f"{name}: {r['wall_ms']:.3f} ms median of {r['passes']} warm "
              f"passes, {r['minflt_per_pass']:.2f} minor faults per pass, "
              f"peak RSS {r['maxrss_mb']:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
