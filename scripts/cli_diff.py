#!/usr/bin/env python3
"""Compare the bandlim CLI of two source trees, argv by argv.

Each argv is run through ``bandlim.cli.main`` in a fresh Python process,
once with OLD_SRC and once with NEW_SRC first on ``sys.path``.  Every argv
whose stdout, stderr or exit status differs is reported; the exit status is
1 if any differs, else 0.  For a differing CSV table whose two versions
share their header and row count, the largest absolute and relative change
of each numeric column that moved is printed below it.  Run from the
repository root:

    python3 scripts/cli_diff.py OLD_SRC NEW_SRC [ARGV_FILE]

OLD_SRC and NEW_SRC are directories holding the ``bandlim`` package, such
as the ``src`` of a ``git clone`` of the parent commit and ``src``.
ARGV_FILE holds one argv per line in shell syntax; blank lines and lines
starting with ``#`` are skipped.  Without it the default list is used:
every benchmark argv of seeds 1-5 (from ``perfbench/workloads.py``), the
``lemma2``, ``converge``, ``coeffs``, ``lewitan``, ``counterexample`` and
``inequalities`` cases, the rejected inputs, the quadrature flags on
subcommands that do not take them, flag prefixes, and the size and
overflow rejections below.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import pathlib
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

LEMMA2_CASES = [
    ["lemma2"],
    ["lemma2", "--format", "json"],
    ["lemma2", "--sigma", "1", "--tau", "10", "--delta", "0.5"],
    ["lemma2", "--sigma", "1", "--tau", "10", "--delta", "0.5",
     "--n-points", "5000"],
    ["lemma2", "--sigma", "5", "--tau", "40", "--delta", "0.9"],
    ["lemma2", "--sigma", "3", "--tau", "1000", "--delta", "0.5"],
    ["lemma2", "--sigma", "1", "--tau", "3.14159265358979",
     "--delta", "0.9"],
    # N = 0: the --n-points floor, not the panel width, sets the panels
    ["lemma2", "--sigma", "0.5", "--tau", "1", "--delta", "0"],
    ["lemma2", "--sigma", "5", "--tau", "40", "--delta", "0.9",
     "--n-points", "100000"],
    # the largest grid: its 139 810 sampled panels take 547 passes
    ["lemma2", "--sigma", "1", "--tau", "10", "--delta", "0.5",
     "--n-points", "4194300"],
    ["lemma2", "--n-points", "999"],
]

# converge beyond the benchmark's ladder: other functions, p = 1.5 and 3
# (split at the zeros of f - f_tau; complex F, which has none) up to the
# largest taus of the interior rule's timings, p = 4, a JSON document,
# complex F over several sup passes, p = 200, whose powers the rule scales
# by a power of two, tolerances that send the interior rule to its
# integrate fallback, sinc at p = 2 on large taus (one level each), and
# fejer_square at p = 4 and tau 5120.3, where the Gauss bound fails and
# the rule compares two rule sizes, and a mollified fejer_square with
# C = 4.55e30, whose coefficient ladder doubles and hands the rule its
# coarser level.
CONVERGE_CASES = [
    ["converge", "--fn", "fejer_square:sigma=2", "--p", "1.5",
     "--tau", "10,20,40,80"],
    ["converge", "--fn", "sinc:sigma=1", "--p", "1.5",
     "--tau", "80.3,320.3,1280.3"],
    ["converge", "--fn", "sinc:sigma=1", "--p", "1.5", "--tau", "5120.3"],
    ["converge", "--fn", "fejer_square:sigma=2", "--p", "1.5",
     "--tau", "1280.3"],
    ["converge", "--fn", "mollify:base=sinc,sigma=1,rho=0.1", "--p", "1.5",
     "--tau", "12.3"],
    ["converge", "--fn", "mollify:base=expi,omega=1,rho=0.5", "--p", "1.5",
     "--tau", "10,40"],
    ["converge", "--fn", "fejer_square:sigma=2", "--p", "3",
     "--tau", "10,40"],
    ["converge", "--fn", "mollify:base=sinc,sigma=1,rho=0.1", "--p", "4",
     "--tau", "10,80.3"],
    ["converge", "--fn", "mollify:base=expi,omega=1,rho=0.5", "--p", "2",
     "--tau", "10,80.3", "--format", "json"],
    # complex F crosses three passes of the sup rule (P0 = 360 panels)
    ["converge", "--fn", "mollify:base=expi,omega=1,rho=0.5", "--p", "2",
     "--tau", "160.3"],
    ["converge", "--fn", "sinc:sigma=1", "--p", "200", "--tau", "10,40"],
    ["converge", "--fn", "sinc:sigma=1", "--p", "200", "--tau", "40.3"],
    # complex F scaled by 2^-e, e = -4 and -8
    ["converge", "--fn", "mollify:base=expi,omega=1,rho=0.5", "--p", "200",
     "--tau", "10.3,40.3"],
    # ten panels of complex F miss 1e-13 and fall back on integrate
    ["converge", "--fn", "mollify:base=expi,omega=1,rho=0.5", "--p", "1.5",
     "--tau", "10", "--abs-tol", "1e-13", "--rel-tol", "1e-13"],
    ["converge", "--fn", "sinc:sigma=1", "--p", "2",
     "--tau", "1280.3,5120.3"],
    ["converge", "--fn", "fejer_square:sigma=2", "--p", "4",
     "--tau", "5120.3"],
    ["converge", "--fn", "mollify:base=fejer_square,sigma=1e-14,rho=0.5",
     "--p", "2", "--tau", "10,40.3"],
    ["converge", "--fn", "mollify:base=fejer_square,sigma=1e-14,rho=0.5",
     "--p", "1.5", "--tau", "10,40.3"],
    ["converge", "--fn", "mollify:base=fejer_square,sigma=1e-14,rho=0.5",
     "--p", "4", "--tau", "40.3"],
    # the interior rule on one level at p = 1.5 and 3; F at rounding level,
    # with no zero above the threshold, so that the rule falls back on
    # integrate; p = 199.5, whose rule weights and quotients take logs
    ["converge", "--fn", "fejer_square:sigma=2", "--p", "1.5",
     "--tau", "320.3"],
    ["converge", "--fn", "sinc:sigma=1", "--p", "3", "--tau", "320.3"],
    ["converge", "--fn", "mollify:base=sinc,sigma=1,rho=1e-6", "--p", "1.5",
     "--tau", "40.3"],
    ["converge", "--fn", "sinc:sigma=1", "--p", "199.5", "--tau", "10"],
]

# coeffs, which the benchmark does not run, as CSV and JSON tables.
COEFFS_CASES = [
    ["coeffs", "--fn", "sinc:sigma=1", "--tau", "10"],
    ["coeffs", "--fn", "expi:omega=1", "--tau", "pi", "--format", "json"],
    ["coeffs", "--fn", "fejer_square:sigma=2", "--tau", "80.3"],
    ["coeffs", "--fn", "mollify:base=sinc,sigma=1,rho=0.1", "--tau", "40"],
    # complex f: both parts go through the Gauss-weight sum
    ["coeffs", "--fn", "mollify:base=expi,omega=1,rho=0.5", "--tau", "40"],
    # 0.5 rate hw of the coefficients' Gauss bound underflows to 0
    ["coeffs", "--fn", "sinc:sigma=1e-200", "--tau", "1e-200"],
    # a sample |fl(e^{i omega x})| = 1 + 2^-52 above C = 1: the ladder doubles
    ["coeffs", "--fn", "expi:omega=3.7", "--tau", "320.3"],
    # the rounding term takes C = 2.5e12, not the largest sample 0.318,
    # and exceeds abs_tol: the ladder doubles
    ["coeffs", "--fn", "mollify:base=sinc,sigma=1,rho=1e-6", "--tau", "10"],
    # C = 4.55e30: the Gauss bound fails, and the ladder doubles
    ["coeffs", "--fn", "mollify:base=fejer_square,sigma=1e-14,rho=0.5",
     "--tau", "10"],
    # C = 4.55e28: the Gauss bound passes, its rounding term (3.5e14 per
    # coefficient) does not, and the ladder doubles
    ["coeffs", "--fn", "mollify:base=fejer_square,sigma=1e-13,rho=0.5",
     "--tau", "10"],
]

# lewitan, which the benchmark does not run: the automatic cutoff, the
# classical weight, and a cutoff whose 2K + 1 terms take several chunks.
LEWITAN_CASES = [
    ["lewitan", "--fn", "sinc:sigma=1", "--tau", "20", "--x", "0,0.37",
     "--K", "0"],
    ["lewitan", "--fn", "fejer_square:sigma=2", "--tau", "5", "--x=-pi,1",
     "--normalization", "classical"],
    ["lewitan", "--fn", "sinc:sigma=1", "--tau", "1", "--x", "0.3",
     "--K", "3000000"],
]

# counterexample beyond the benchmark's consecutive m: an unsorted list, a
# long JSON run, one large m, the longest range within the total coefficient
# limit, the largest m within the node limit (N = 2 097 150), and one m at
# each of the three rounded angles, one of them twice.
COUNTEREXAMPLE_CASES = [
    ["counterexample", "--m", "1000,1,999,2,3..40"],
    ["counterexample", "--m", "1..3000", "--format", "json"],
    ["counterexample", "--m", "250000"],
    ["counterexample", "--m", "1..5700"],
    ["counterexample", "--m", "1048575"],
    ["counterexample", "--m", "15,14,1,15"],
]

# The benchmark runs the inequalities matrix as CSV only.  An abs_tol whose
# p-th power overflows leaves the real-line windows at their floor.
INEQUALITIES_CASES = [
    ["inequalities", "--format", "json"],
    ["inequalities", "--abs-tol", "1e78"],
]

# Each exits 2 with one line on stderr.  The --output directory is relative
# to the working directory and must not exist.
REJECTED_CASES = [
    ["coeffs", "--fn", "sinc:sigma=1", "--tau", "3,100"],
    ["lemma2", "--sigma", "1,5", "--tau", "10", "--delta", "0.5"],
    ["converge", "--fn", "sinc:sigma=1", "--tau", "10,10"],
    ["coeffs", "--fn", "sinc:sigma=1", "--tau", "3",
     "--output", "no-such-dir/out.csv"],
]

# A quadrature flag on a subcommand that runs no quadrature (or, for coeffs,
# does not read it).  Each exits 2 with argparse's usage and error lines.
QUAD_FLAG_CASES = [
    ["lemma2", "--abs-tol", "1e-12"],
    ["counterexample", "--m", "1", "--max-depth", "5"],
    ["lewitan", "--fn", "sinc:sigma=1", "--tau", "20", "--x", "0",
     "--rel-tol", "1e-3"],
    ["coeffs", "--fn", "sinc:sigma=1", "--tau", "10", "--rel-tol", "1e-3"],
]

# A prefix of a flag, which is not accepted for the flag.  Each exits 2 with
# argparse's usage and error lines.
PREFIX_CASES = [
    ["converge", "--fn", "sinc:sigma=1", "--tau", "40", "--m", "1"],
    ["lewitan", "--fn", "sinc:sigma=1", "--tau", "20", "--x", "0",
     "--n", "classical"],
]

# Each exits 1 with one line on stderr: a size check refuses it before any
# array of that size is built.
SIZE_CASES = [
    ["coeffs", "--fn", "sinc:sigma=1", "--tau", "1e7"],
    ["converge", "--fn", "sinc:sigma=1", "--tau", "1e7"],
    ["counterexample", "--m", "2000000"],
    ["lemma2", "--sigma", "1e6", "--tau", "1e6", "--delta", "0"],
    # node counts that overflow to inf
    ["lemma2", "--sigma", "1e308", "--tau", "1", "--delta", "0"],
    ["lemma2", "--sigma", "1e307", "--tau", "1", "--delta", "0.9"],
    ["coeffs", "--fn", "sinc:sigma=1e300", "--tau", "1e7"],
    ["converge", "--fn", "fejer_square:sigma=1e307", "--tau", "1"],
    ["converge", "--fn", "mollify:base=sinc,sigma=1e307,rho=0.5",
     "--tau", "1"],
]

# Each exits 1 with one line on stderr: a value beyond the float range is
# refused, not printed as nan or inf.  The last is an envelope tail of
# 2.9e308; the mollified fejer_square and the fejer_square at
# sigma = 1e-90 before it, whose C^2 overflows but whose tails, 5.5e198
# and 4.1e101, do not, exit 0.
OVERFLOW_CASES = [
    ["lemma2", "--sigma", "1", "--tau", "1e-160", "--delta", "0.5"],
    ["converge", "--fn", "sinc:sigma=1e160", "--tau", "1e-160"],
    ["converge", "--fn", "sinc:sigma=1e160", "--p", "1.5", "--tau", "1e-160"],
    ["converge", "--fn", "mollify:base=fejer_square,sigma=1e-100,rho=0.5",
     "--p", "2", "--tau", "10"],
    ["converge", "--fn", "fejer_square:sigma=1e-90", "--p", "2",
     "--tau", "1e53"],
    ["converge", "--fn", "fejer_square:sigma=3.27e-154", "--p", "1.01",
     "--tau", "0.001"],
]

# -P keeps the working directory off sys.path, so only SRC supplies bandlim.
RUNNER = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "from bandlim.cli import main; sys.exit(main(sys.argv[2:]))")


def default_argvs() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, argv_for

    out = []
    for argv in ([a for seed in range(1, 6) for w in WORKLOADS
                  for a in argv_for(w, seed)] + LEMMA2_CASES
                 + CONVERGE_CASES + COEFFS_CASES + LEWITAN_CASES
                 + COUNTEREXAMPLE_CASES
                 + INEQUALITIES_CASES + REJECTED_CASES + QUAD_FLAG_CASES
                 + PREFIX_CASES + SIZE_CASES + OVERFLOW_CASES):
        if argv not in out:
            out.append(argv)
    return out


def read_argvs(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [shlex.split(line) for line in fh
                if line.strip() and not line.lstrip().startswith("#")]


def run_cli(src: str, argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-P", "-c", RUNNER, src, *argv],
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def csv_table(text: str):
    """The rows of ``text`` as a CSV table, or None for a JSON document or
    an empty output."""
    try:
        json.loads(text)
        return None
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(text)))
    return rows if len(rows) > 1 else None


def drift(old: str, new: str) -> list[str]:
    """One line per numeric column that moved between the CSV tables
    ``old`` and ``new``: its largest absolute change and its largest
    change relative to the old value.  Empty unless both are CSV tables
    with one header and one row count."""
    old_rows, new_rows = csv_table(old), csv_table(new)
    if (old_rows is None or new_rows is None or old_rows[0] != new_rows[0]
            or len(old_rows) != len(new_rows)):
        return []
    lines = []
    for col, name in enumerate(old_rows[0]):
        try:
            pairs = [(float(a[col]), float(b[col]))
                     for a, b in zip(old_rows[1:], new_rows[1:])]
        except (ValueError, IndexError):
            continue
        changes = [(abs(b - a), abs(b - a) / abs(a) if a else math.inf)
                   for a, b in pairs if a != b]
        if changes:
            lines.append(f"    {name}: largest change {max(changes)[0]:.3g} "
                         f"absolute, {max(c[1] for c in changes):.3g} "
                         f"relative, in {len(changes)} of {len(pairs)} rows")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("argv_file", nargs="?")
    args = parser.parse_args()
    argvs = read_argvs(args.argv_file) if args.argv_file else default_argvs()

    differing = 0
    for argv in argvs:
        old = run_cli(args.old_src, argv)
        new = run_cli(args.new_src, argv)
        fields = [name for name, a, b in zip(
            ("status", "stdout", "stderr"), old, new) if a != b]
        if fields:
            differing += 1
            print(f"DIFF in {', '.join(fields)} (exit {old[0]} -> {new[0]}): "
                  f"{shlex.join(argv)}")
            for line in drift(old[1], new[1]):
                print(line)
        else:
            print(f"same (exit {new[0]}, {len(new[1])} bytes): "
                  f"{shlex.join(argv)}")
    print(f"{differing} of {len(argvs)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
