"""Command-line front end: reproducible experiments with CSV/JSON output.

All floats are printed with 17 significant digits; output is UTF-8 with LF
line endings so identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import functools
import io
import json
import math
import operator
import sys
from typing import Optional, Sequence

from . import analysis, approximation, functions, kernels
from .quadrature import QuadratureNonConvergence, QuadratureSpec

_LEMMA2_DEFAULT_SIGMAS = (0.5, 1.0, math.pi, 5.0)
_LEMMA2_DEFAULT_TAUS = (1.0, 5.0, 10.0, 40.0)
_LEMMA2_DEFAULT_DELTAS = (0.0, 0.25, 0.5, 0.9)

# Most values one --m list may hold, counted before any range is expanded.
MAX_M_VALUES = 10 ** 5

_CONSTANTS = {"pi": math.pi, "e": math.e}
_OPERATORS = {ast.UAdd: operator.pos, ast.USub: operator.neg,
              ast.Add: operator.add, ast.Sub: operator.sub,
              ast.Mult: operator.mul, ast.Div: operator.truediv}


class UsageError(ValueError):
    """Invalid flags or parameter values; maps to exit status 2."""


def _parse_float_list(text: str, flag: str) -> list:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            out.append(_parse_number(item))
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from exc
    if not out:
        raise UsageError(f"{flag} requires at least one value")
    return out


def _parse_one(text: str, flag: str) -> float:
    """The single number of a flag that takes one value."""
    values = _parse_float_list(text, flag)
    if len(values) > 1:
        raise UsageError(f"{flag} takes one value")
    return values[0]


def _parse_number(item: str) -> float:
    """A finite number or pi-expression such as "pi/2+2*pi": numeric
    literals, pi, e, unary + -, binary + - * / and parentheses."""
    if any(ch not in "0123456789.+-*/()pie " for ch in item):
        raise ValueError(f"malformed number {item!r}")
    try:
        value = float(item)  # also takes literals such as 010 that ast rejects
    except ValueError:
        # Deeply nested input makes the parser or the walker raise
        # MemoryError or RecursionError instead of SyntaxError.
        try:
            value = float(_eval_number(ast.parse(item, mode="eval").body))
        except (SyntaxError, ValueError, ArithmeticError, MemoryError,
                RecursionError) as exc:
            raise ValueError(f"malformed number {item!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{item!r} is not a finite number")
    return value


def _eval_number(node):
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return _CONSTANTS[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_eval_number(node.operand))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
        return _OPERATORS[type(node.op)](_eval_number(node.left),
                                         _eval_number(node.right))
    raise ValueError("unsupported expression")


def _parse_m_list(text: str) -> list:
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ".." in item:
            lo, _, hi = item.partition("..")
            try:
                lo_i, hi_i = int(lo), int(hi)
            except ValueError as exc:
                raise UsageError(f"--m: malformed range {item!r}") from exc
            if hi_i < lo_i:
                raise UsageError(f"--m: empty range {item!r}")
            values = range(lo_i, hi_i + 1)
        else:
            try:
                values = [int(item)]
            except ValueError as exc:
                raise UsageError(f"--m: malformed integer {item!r}") from exc
        if len(out) + len(values) > MAX_M_VALUES:
            raise UsageError(f"--m: more than {MAX_M_VALUES} values")
        out.extend(values)
    if not out:
        raise UsageError("--m requires at least one value")
    if any(m < 1 for m in out):
        raise UsageError("--m values must be positive integers")
    return out


def _check_converge(ns):
    if not 1 < ns.p < math.inf:
        raise UsageError("p must satisfy 1 < p < inf")
    ns.tau_list = _parse_float_list(ns.tau, "--tau")
    if any(b <= a for a, b in zip(ns.tau_list, ns.tau_list[1:])):
        raise UsageError("--tau values must be strictly increasing")
    if any(t <= 0 for t in ns.tau_list):
        raise UsageError("--tau values must be positive")


def _check_lemma2(ns):
    given = [v is not None for v in (ns.sigma, ns.tau, ns.delta)]
    if any(given) and not all(given):
        raise UsageError("lemma2 needs --sigma, --tau and --delta "
                         "together (or none for the default matrix)")
    if ns.sigma is None:
        ns.cells = [(s, t, d)
                    for s in _LEMMA2_DEFAULT_SIGMAS
                    for t in _LEMMA2_DEFAULT_TAUS
                    for d in _LEMMA2_DEFAULT_DELTAS]
    else:
        sigma = _parse_one(ns.sigma, "--sigma")
        ns.tau_list = [_parse_one(ns.tau, "--tau")]
        delta = _parse_one(ns.delta, "--delta")
        if sigma <= 0 or ns.tau_list[0] <= 0:
            raise UsageError("sigma and tau must be positive")
        if not 0 <= delta < 1:
            raise UsageError("delta must lie in [0, 1)")
        ns.cells = [(sigma, ns.tau_list[0], delta)]
    if not 1000 <= ns.n_points <= kernels.MAX_SCAN_POINTS:
        raise UsageError(f"--n-points: must lie in "
                         f"[1000, {kernels.MAX_SCAN_POINTS}]")


def _check_counterexample(ns):
    ns.m_list = _parse_m_list(ns.m)


def _check_tau(ns):
    ns.tau_list = [_parse_one(ns.tau, "--tau")]
    if ns.tau_list[0] <= 0:
        raise UsageError("--tau must be positive")


def _check_lewitan(ns):
    _check_tau(ns)
    ns.x_list = _parse_float_list(ns.x, "--x")
    if not 0 <= ns.K <= approximation.MAX_LEWITAN_K:
        raise UsageError(f"--K: must lie in "
                         f"[0, {approximation.MAX_LEWITAN_K}] (0 = auto)")


def _run_converge(ns):
    f = functions.from_id(ns.function_id)
    records = analysis.convergence_study(f, ns.p, ns.tau_list, ns.quad)
    columns = ["tau", "p", "interior", "interior_err", "tail", "total",
               "sup_cert", "sup_grid"]
    rows = [[r.tau, r.p, r.interior_error.value, r.interior_error.error_bound,
             r.tail_error.value, r.total_error,
             r.sup_error.certified_bound, r.sup_error.grid_max]
            for r in records]
    return columns, rows, None


def _run_lemma2(ns):
    columns = ["sigma", "tau", "delta", "n_points", "observed_max", "argmax",
               "certified_max", "bound", "ratio"]
    rows = [[rep.sigma, rep.tau, rep.delta, rep.n_points, rep.observed_max,
             rep.argmax, rep.certified_max, rep.bound, rep.ratio]
            for rep in kernels.kernel_gap_scans(ns.cells, ns.n_points)]
    return columns, rows, None


def _run_counterexample(ns):
    results = analysis.counterexample_run(ns.m_list)
    columns = ["m", "tau", "imag_gap"]
    rows = [[m, tau, gap] for m, (tau, gap) in zip(ns.m_list, results)]
    return columns, rows, None


def _run_inequalities(ns):
    quad = ns.quad
    sinc1 = functions.make_sinc(1.0)
    fejer2 = functions.make_fejer_square(2.0)
    checks = []
    for f in (sinc1, fejer2):
        for y in (0.0, 0.5, 1.0, 2.0):
            checks.append(analysis.check_plancherel_polya(f, y, 2.0, quad))
    for r1, r2 in ((2.0, 2.0), (2.0, 4.0), (2.0, math.inf)):
        checks.append(analysis.check_nikolskii(sinc1, r1, r2, quad))
    for r1, r2 in ((1.0, 1.0), (1.0, 2.0), (1.0, math.inf), (2.0, math.inf)):
        checks.append(analysis.check_nikolskii(fejer2, r1, r2, quad))
    for tau in (10.0, 40.0):
        a = analysis.exp_coefficients(tau)
        checks.append(analysis.check_poly_nikolskii(a, 2.0, quad))
    a = approximation.fourier_coefficients(sinc1, 10.0, quad)
    for p in (1.5, 2.0):
        checks.append(analysis.check_poly_nikolskii(a, p, quad))
    columns = ["check", "function", "params", "lhs", "rhs", "margin",
               "error_bound"]
    rows = []
    for c in checks:
        params = ";".join(f"{k}={float(v):.17g}" for k, v in c.params.items())
        rows.append([c.name, c.function_id, params, c.lhs, c.rhs, c.margin,
                     c.error_bound])
    return columns, rows, None


def _run_coeffs(ns):
    f = functions.from_id(ns.function_id)
    a = approximation.fourier_coefficients(f, ns.tau_list[0], ns.quad)
    columns = ["k", "re", "im", "abs_error"]
    rows = [[k - a.N, float(c.real), float(c.imag),
             a.coeff_error / (2 * a.N + 1)]
            for k, c in enumerate(a.coefficients)]
    # The coeffs JSON form is the approximant save/load document.
    return columns, rows, a.to_json_dict()


def _run_lewitan(ns):
    f = functions.from_id(ns.function_id)
    columns = ["x", "re", "im", "tail_bound"]
    rows = []
    for x in ns.x_list:
        value, tail = approximation.lewitan(f, ns.tau_list[0], x, ns.K,
                                            ns.normalization)
        value = complex(value)
        rows.append([x, value.real, value.imag, tail])
    return columns, rows, None


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """One subparser per subcommand; each carries its validator ``check``
    and its runner ``execute``, which returns (columns, rows, document),
    with document None for the standard JSON form.  Built once per
    process; parsing leaves the parser unchanged.  Flags are matched only
    as spelled in full (``allow_abbrev=False``)."""
    parser = argparse.ArgumentParser(
        prog="bandlim", allow_abbrev=False,
        description="Trigonometric-sum approximation experiments for "
                    "bandlimited functions")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    sp = add_parser("converge", help="truncation-error decay study")
    sp.add_argument("--fn", dest="function_id", metavar="FN", required=True,
                    help="catalog id, e.g. sinc:sigma=1")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--tau", required=True, help="comma-separated tau ladder")
    _add_quad_flags(sp)
    sp.set_defaults(check=_check_converge, execute=_run_converge)

    sp = add_parser("lemma2", help="kernel-gap bound scan")
    sp.add_argument("--sigma", default=None)
    sp.add_argument("--tau", default=None)
    sp.add_argument("--delta", default=None)
    sp.add_argument("--n-points", type=int, default=1000)
    sp.set_defaults(check=_check_lemma2, execute=_run_lemma2)

    sp = add_parser("counterexample", help="p = inf counterexample run")
    sp.add_argument("--m", required=True, help="e.g. 1..5 or 1,3,7")
    sp.set_defaults(check=_check_counterexample, execute=_run_counterexample)

    sp = add_parser("inequalities", help="inequality checker matrix")
    _add_quad_flags(sp)
    sp.set_defaults(check=lambda ns: None, execute=_run_inequalities)

    sp = add_parser("coeffs", help="Fourier coefficients of f_tau")
    sp.add_argument("--fn", dest="function_id", metavar="FN", required=True)
    sp.add_argument("--tau", required=True)
    # The coefficient ladder reads abs_tol and max_depth only.
    _add_quad_flags(sp, rel_tol=False)
    sp.set_defaults(check=_check_tau, execute=_run_coeffs)

    sp = add_parser("lewitan", help="Lewitan periodization values")
    sp.add_argument("--fn", dest="function_id", metavar="FN", required=True)
    sp.add_argument("--tau", required=True)
    sp.add_argument("--x", required=True, help="comma-separated abscissae")
    sp.add_argument("--K", type=int, default=0, help="cutoff (0 = auto)")
    sp.add_argument("--normalization", choices=("verbatim", "classical"),
                    default="verbatim")
    sp.set_defaults(check=_check_lewitan, execute=_run_lewitan)

    for sp in sub.choices.values():
        sp.add_argument("--output", dest="output_path", default=None,
                        help="output file path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _add_quad_flags(sp, rel_tol: bool = True) -> None:
    """The QuadratureSpec flags of a subcommand that runs a quadrature;
    each dest is the name of a QuadratureSpec field."""
    sp.add_argument("--abs-tol", type=float, default=1e-10)
    if rel_tol:
        sp.add_argument("--rel-tol", type=float, default=1e-10)
    sp.add_argument("--max-depth", type=int, default=40)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parsed and validated flags; raises UsageError on bad input."""
    ns = build_parser().parse_args(argv)
    given = {field.name: getattr(ns, field.name)
             for field in dataclasses.fields(QuadratureSpec)
             if hasattr(ns, field.name)}
    if given:
        try:
            ns.quad = QuadratureSpec(**given)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    ns.check(ns)
    if getattr(ns, "function_id", None) is not None:
        try:
            functions.from_id(ns.function_id)
        except functions.UnknownFunctionError as exc:
            raise UsageError(f"--fn: {exc}") from exc
    return ns


def _write_csv(out, columns, rows):
    """The table as CSV from one row template: each cell of a string column
    quoted by :func:`_csv_text`, each of a number column printed as %.17g,
    which writes the ints of the tables (all below 2^53) as str does.  The
    first row tells the columns apart; tables have two or more columns."""
    out.write(",".join(map(_csv_text, columns)) + "\n")
    if not rows:
        return
    is_text = [isinstance(v, str) for v in rows[0]]
    template = ",".join("%s" if t else "%.17g" for t in is_text) + "\n"
    if any(is_text):
        rows = [[_csv_text(v) if t else v for v, t in zip(row, is_text)]
                for row in rows]
    out.write("".join([template % tuple(row) for row in rows]))


def _csv_text(cell: str) -> str:
    """``cell`` as ``csv.writer(lineterminator="\\n")`` writes it."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _json_document(ns: argparse.Namespace, columns, rows) -> dict:
    params = {}
    if hasattr(ns, "quad"):
        params["quad"] = dataclasses.asdict(ns.quad)
    for key, attr in (("fn", "function_id"), ("tau", "tau_list"),
                      ("m", "m_list")):
        if getattr(ns, attr, None):
            params[key] = getattr(ns, attr)
    return {"subcommand": ns.subcommand, "params": params,
            "columns": columns,
            "rows": rows}


def run(ns: argparse.Namespace) -> int:
    """Execute a namespace from parse_args; returns the process exit status."""
    try:
        columns, rows, document = ns.execute(ns)
    except (QuadratureNonConvergence, ValueError) as exc:
        print(f"bandlim {ns.subcommand}: {exc}", file=sys.stderr)
        return 1

    buf = io.StringIO()
    if ns.format == "json":
        json.dump(document or _json_document(ns, columns, rows), buf,
                  indent=2)
        buf.write("\n")
    else:
        _write_csv(buf, columns, rows)

    text = buf.getvalue()
    if ns.output_path:
        try:
            with open(ns.output_path, "w", encoding="utf-8",
                      newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"bandlim: --output: cannot write {ns.output_path!r}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = parse_args(argv)
    except UsageError as exc:
        print(f"bandlim: {exc}", file=sys.stderr)
        return 2
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
