"""Workload definitions: seeded CLI argv, independent references, output checks.

Each workload is a fixed list of ``bandlim`` CLI calls.  The seed only picks
the inputs; the program sees nothing but the generated argv.  References are
computed here, in the parent process, before any timing starts; the checks
are plain functions of one call's stdout so that tests can feed them
perturbed output.

This module uses only the standard library at import time, because the
worker imports it in a process whose import time is being measured.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

WORKLOADS = ("converge-ladder", "pointwise", "line-norms")

WHY = {
    "converge-ladder": "sinc convergence study on a tau ladder; O(N^2) "
                       "vector coefficient quadrature and dense evaluation",
    "pointwise": "lemma2 kernel-gap scan and counterexample; no quadrature, "
                 "scalar kernel calls and single-point evaluation",
    "line-norms": "inequalities matrix; scalar adaptive quadrature over "
                  "wide real-line windows, almost no coefficient work",
}

LADDER = (40.0, 80.0, 160.0, 320.0)
# Relative tau jitter.  0.5% moves N = floor(tau / pi) and the quadrature
# panels at every rung, while the seed-to-seed change in quadrature work
# (about 1.6%) stays well inside the wall_s bound.
TAU_JITTER = 0.005
COUNTEREXAMPLE_SPAN = 1000
COUNTEREXAMPLE_MAX_OFFSET = 16

DBL_EPS = 2.0 ** -52
# Rounding allowance for the interior L^2 error, in units of
# eps * ||f||_{L^2[-tau, tau]}.  The reported interior_err is the quadrature
# estimate alone and is below one ulp of the result on this ladder, so the
# check adds a floating-point floor (observed differences <= 2 eps ||f||).
INTERIOR_ROUNDING_ULPS = 16.0
COUNTEREXAMPLE_TOL = 1e-9
# The CLI computes the Plancherel-Polya lhs on a finite window, so it lies
# below the whole-line oracle; the observed deficit is <= 6.4e-5 relative.
PLANCHEREL_REL_DEFICIT = 1e-4
PLANCHEREL_EXCESS = 1e-8


class CheckFailure(AssertionError):
    """One CLI call's output disagrees with its reference."""


def argv_for(workload: str, seed: int) -> list[list[str]]:
    """The CLI calls of one workload pass, generated from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "converge-ladder":
        taus = [t * (1.0 + rng.uniform(-TAU_JITTER, TAU_JITTER))
                for t in LADDER]
        return [["converge", "--fn", "sinc:sigma=1", "--p", "2",
                 "--tau", ",".join(repr(t) for t in taus)]]
    if workload == "pointwise":
        lo = 1 + rng.randrange(COUNTEREXAMPLE_MAX_OFFSET)
        return [["lemma2"],
                ["counterexample", "--m",
                 f"{lo}..{lo + COUNTEREXAMPLE_SPAN - 1}"]]
    if workload == "line-norms":
        return [["inequalities"]]
    raise ValueError(f"unknown workload {workload!r}")


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _sinc_interior_l2(tau: float) -> tuple[float, float]:
    """Parseval reference for sinc:sigma=1 at p = 2.

    Returns ``(||f - f_tau||_{L^2[-tau,tau]}, ||f||_{L^2[-tau,tau]})`` from
    ||f||^2 = 2 (Si(2 tau) - sin^2(tau)/tau) / pi^2 and
    c_k = (Si((1+w) tau) + Si((1-w) tau)) / (2 pi tau), w = pi k / tau.
    """
    import mpmath as mp

    with mp.workdps(40):
        t = mp.mpf(tau)
        N = math.floor(tau / math.pi)
        norm2 = 2 * (mp.si(2 * t) - mp.sin(t) ** 2 / t) / mp.pi ** 2
        csum = mp.mpf(0)
        for k in range(0, N + 1):
            w = mp.pi * k / t
            c = (mp.si((1 + w) * t) + mp.si((1 - w) * t)) / (2 * mp.pi * t)
            csum += c * c if k == 0 else 2 * c * c
        return float(mp.sqrt(norm2 - 2 * t * csum)), float(mp.sqrt(norm2))


def references(workload: str, argv: list[list[str]], root: Path) -> list:
    """Per-call reference data for :func:`check_output` (JSON-serialisable)."""
    if workload == "converge-ladder":
        taus = [float(t) for t in _flag(argv[0], "--tau").split(",")]
        for t in taus:
            x = t / math.pi
            if abs(x - round(x)) < 1e-9:
                raise ValueError(f"tau={t!r} puts N on a rounding boundary")
        return [{"tau": taus, "parseval": [_sinc_interior_l2(t) for t in taus]}]
    if workload == "pointwise":
        lo, hi = (int(s) for s in _flag(argv[1], "--m").split(".."))
        return [{"rows": 64}, {"m": [lo, hi]}]
    if workload == "line-norms":
        path = root / "tests" / "fixtures" / "oracle_values.json"
        with open(path, encoding="utf-8") as fh:
            oracle = json.load(fh)["plancherel_sinc1_p2_lhs"]
        return [{"rows": 19, "plancherel_sinc1": oracle}]
    raise ValueError(f"unknown workload {workload!r}")


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _check_converge(rows: list[dict], ref: dict) -> None:
    _require(len(rows) == len(ref["tau"]), f"{len(rows)} rows, "
             f"expected {len(ref['tau'])}")
    for row, tau, (interior_ref, fnorm) in zip(rows, ref["tau"],
                                               ref["parseval"]):
        _require(float(row["tau"]) == tau, f"tau {row['tau']} != {tau!r}")
        interior = float(row["interior"])
        tol = (float(row["interior_err"])
               + INTERIOR_ROUNDING_ULPS * DBL_EPS * fnorm)
        _require(abs(interior - interior_ref) <= tol,
                 f"tau={tau!r}: interior {interior!r} vs Parseval "
                 f"{interior_ref!r} (tol {tol:.3g})")
        _require(float(row["sup_cert"]) >= float(row["sup_grid"]),
                 f"tau={tau!r}: sup_cert < sup_grid")


def _check_lemma2(rows: list[dict], ref: dict) -> None:
    _require(len(rows) == ref["rows"], f"{len(rows)} lemma2 rows")
    for row in rows:
        _require(float(row["ratio"]) <= 1.0,
                 f"lemma2 ratio {row['ratio']} > 1 at sigma={row['sigma']} "
                 f"tau={row['tau']} delta={row['delta']}")


def _check_counterexample(rows: list[dict], ref: dict) -> None:
    lo, hi = ref["m"]
    _require([int(r["m"]) for r in rows] == list(range(lo, hi + 1)),
             "counterexample m column does not match --m")
    for row in rows:
        _require(abs(float(row["imag_gap"]) - 1.0) <= COUNTEREXAMPLE_TOL,
                 f"counterexample m={row['m']}: imag_gap {row['imag_gap']}")


def _check_inequalities(rows: list[dict], ref: dict) -> None:
    _require(len(rows) == ref["rows"], f"{len(rows)} inequality rows")
    seen = set()
    for row in rows:
        _require(float(row["margin"]) >= 0.0,
                 f"{row['check']} {row['function']} {row['params']}: "
                 f"margin {row['margin']} < 0")
        if row["check"] == "plancherel_polya" and \
                row["function"] == "sinc:sigma=1":
            y = row["params"].split(";")[0].removeprefix("y=")
            if y in ref["plancherel_sinc1"]:
                want = ref["plancherel_sinc1"][y]
                lhs = float(row["lhs"])
                _require(lhs <= want + PLANCHEREL_EXCESS
                         and want - lhs <= PLANCHEREL_REL_DEFICIT * want,
                         f"plancherel_polya y={y}: lhs {lhs!r} vs oracle "
                         f"{want!r}")
                seen.add(y)
    _require(seen == set(ref["plancherel_sinc1"]),
             f"plancherel_polya sinc rows found for y={sorted(seen)}")


_CHECKS = {
    "converge": _check_converge,
    "lemma2": _check_lemma2,
    "counterexample": _check_counterexample,
    "inequalities": _check_inequalities,
}


def check_output(argv: list[str], text: str, ref: dict) -> None:
    """Raise :class:`CheckFailure` unless ``text`` is a correct CSV answer."""
    try:
        rows = _rows(text)
        _CHECKS[argv[0]](rows, ref)
    except (KeyError, ValueError, TypeError) as exc:
        raise CheckFailure(f"{argv[0]}: malformed output ({exc!r})") from exc
