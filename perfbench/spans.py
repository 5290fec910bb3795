"""Span tracing from outside the library.

:func:`install` wraps bandlim's public functions at the module attribute
where each caller looks them up, because ``analysis`` and ``approximation``
import ``integrate`` and ``fourier_coefficients`` by name, ``kernel_gap`` is
a global inside ``kernels``, and ``evaluate`` is a method.  Wrapping only
the defining module would record nothing on those paths.

Spans are kept in memory as ``(name, start, end, parent, call_id)`` tuples;
counters are summed per name.  :func:`layer_metrics` turns one pass of
spans and counters into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import time
import tracemalloc
from collections import defaultdict

# Per-layer metrics as (name, kind, source): kind "calls", "s" (inclusive
# time), "self_s" (time minus direct children) or "count" (summed counter).
LAYER_METRICS = (
    ("quadrature.integrate.calls", "calls", "quadrature.integrate"),
    ("quadrature.integrate.self_s", "self_s", "quadrature.integrate"),
    ("quadrature.integrand_points", "count", "quadrature.integrand_points"),
    ("quadrature.panels", "count", "quadrature.panels"),
    ("quadrature.integrand_values", "count", "quadrature.integrand_values"),
    ("approximation.fourier_coefficients.calls", "calls",
     "approximation.fourier_coefficients"),
    ("approximation.fourier_coefficients.s", "s",
     "approximation.fourier_coefficients"),
    ("approximation.fourier_coefficients.peak_mb", "count",
     "approximation.fourier_coefficients.peak_mb"),
    ("approximation.evaluate.calls", "calls", "approximation.evaluate"),
    ("approximation.evaluate.self_s", "self_s", "approximation.evaluate"),
    ("approximation.evaluate.points", "count", "approximation.evaluate.points"),
    ("approximation.evaluate.terms", "count", "approximation.evaluate.terms"),
    ("analysis.convergence_study.s", "s", "analysis.convergence_study"),
    ("analysis.lp_norm_interval.self_s", "self_s", "analysis.lp_norm_interval"),
    ("analysis.sup_norm_certified.self_s", "self_s",
     "analysis.sup_norm_certified"),
    ("analysis.sup_norm_certified.grid_points", "count",
     "analysis.sup_norm_certified.grid_points"),
    ("analysis.lp_norm_line.s", "s", "analysis.lp_norm_line"),
    ("analysis.check_plancherel_polya.s", "s", "analysis.check_plancherel_polya"),
    ("analysis.check_nikolskii.s", "s", "analysis.check_nikolskii"),
    ("analysis.check_poly_nikolskii.s", "s", "analysis.check_poly_nikolskii"),
    ("analysis.counterexample_run.s", "s", "analysis.counterexample_run"),
    ("kernels.kernel_gap_scan.calls", "calls", "kernels.kernel_gap_scan"),
    ("kernels.kernel_gap_scan.self_s", "self_s", "kernels.kernel_gap_scan"),
    ("kernels.kernel_gap_scan.grid_points", "count",
     "kernels.kernel_gap_scan.grid_points"),
    ("kernels.kernel_gap.calls", "calls", "kernels.kernel_gap"),
    ("kernels.kernel_gap.self_s", "self_s", "kernels.kernel_gap"),
    ("functions.eval.points", "count", "functions.eval.points"),
    ("functions.eval.self_s", "self_s", "functions.eval"),
    ("cli.parse_args.s", "s", "cli.parse_args"),
    ("cli.run.self_s", "self_s", "cli.run"),
)


class Tracer:
    """In-memory span and counter store for one worker process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.call_id = ""
        self.measure_memory = False
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)

    def wrap(self, name: str, fn, after=None):
        """Record a span named ``name`` around every call of ``fn``;
        ``after(result, args, kwargs)`` may add counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.call_id)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value


def _patch(modules, attr: str, wrapped) -> None:
    for module in modules:
        setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every traced lookup site of the already imported bandlim."""
    import numpy as np
    from bandlim import (analysis, approximation, cli, functions, kernels,
                         quadrature)

    def integrate_traced(fn):
        def call(g, a, b, spec=None, **kwargs):
            order = (spec or quadrature.QuadratureSpec()).panel_order

            def counted(x):
                y = g(x)
                n = np.size(x)
                tracer.add("quadrature.integrand_points", n)
                tracer.add("quadrature.panels", n / (3 * order))
                tracer.add("quadrature.integrand_values", np.size(y))
                return y

            return fn(counted, a, b, spec, **kwargs)

        return tracer.wrap("quadrature.integrate", call)

    _patch((quadrature, analysis, approximation), "integrate",
           integrate_traced(quadrature.integrate))

    coeffs = approximation.fourier_coefficients

    def coeffs_with_memory(*args, **kwargs):
        if not tracer.measure_memory:
            return coeffs(*args, **kwargs)
        tracemalloc.start()
        try:
            return coeffs(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
            tracemalloc.stop()
            name = "approximation.fourier_coefficients.peak_mb"
            tracer.counts[name] = max(tracer.counts[name], peak)

    _patch((approximation, analysis), "fourier_coefficients",
           tracer.wrap("approximation.fourier_coefficients",
                       functools.wraps(coeffs)(coeffs_with_memory)))

    def evaluate_counts(result, args, kwargs):
        points = np.size(args[1])
        tracer.add("approximation.evaluate.points", points)
        tracer.add("approximation.evaluate.terms", points * args[0].N)

    approximation.TrigApproximant.evaluate = tracer.wrap(
        "approximation.evaluate", approximation.TrigApproximant.evaluate,
        evaluate_counts)

    def sup_grid(cert, args, kwargs):
        a, b = args[2], args[3]
        tracer.add("analysis.sup_norm_certified.grid_points",
                   round((b - a) / cert.spacing) + 1)

    analysis.sup_norm_certified = tracer.wrap(
        "analysis.sup_norm_certified", analysis.sup_norm_certified, sup_grid)
    for attr in ("convergence_study", "lp_norm_interval", "lp_norm_line",
                 "check_plancherel_polya", "check_nikolskii",
                 "check_poly_nikolskii", "counterexample_run"):
        setattr(analysis, attr,
                tracer.wrap(f"analysis.{attr}", getattr(analysis, attr)))

    def scan_grid(report, args, kwargs):
        tracer.add("kernels.kernel_gap_scan.grid_points", report.n_points)

    kernels.kernel_gap_scan = tracer.wrap(
        "kernels.kernel_gap_scan", kernels.kernel_gap_scan, scan_grid)
    _patch((kernels, analysis), "kernel_gap",
           tracer.wrap("kernels.kernel_gap", kernels.kernel_gap))

    def eval_traced(ev):
        return tracer.wrap(
            "functions.eval", ev,
            lambda result, args, kwargs: tracer.add(
                "functions.eval.points", np.size(args[0])))

    # The workloads build their functions through these factories (from_id
    # looks them up as module globals); mollify is not used and not wrapped.
    for attr in ("make_sinc", "make_fejer_square", "make_complex_exponential"):
        factory = getattr(functions, attr)

        def traced_factory(*args, _factory=factory, **kwargs):
            f = _factory(*args, **kwargs)
            return dataclasses.replace(
                f, eval_real=eval_traced(f.eval_real),
                eval_complex=f.eval_complex and eval_traced(f.eval_complex))

        setattr(functions, attr, functools.wraps(factory)(traced_factory))

    cli.parse_args = tracer.wrap("cli.parse_args", cli.parse_args)
    cli.run = tracer.wrap("cli.run", cli.run)


def layer_metrics(spans: list[tuple], counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; the program is single-threaded, so children never overlap.
    """
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child: dict[str, float] = defaultdict(float)
    for name, start, end, parent, _call in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[spans[parent][0]] += end - start
    out = {}
    for metric, kind, source in LAYER_METRICS:
        if kind == "calls":
            out[metric] = calls[source]
        elif kind == "s":
            out[metric] = total[source]
        elif kind == "self_s":
            out[metric] = total[source] - child[source]
        else:
            out[metric] = counts.get(source, 0)
    return out
