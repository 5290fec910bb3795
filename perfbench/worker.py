"""One fresh benchmark process: import bandlim, run workload passes, check them.

Reads a JSON job from stdin and writes one JSON result line to stdout.  The
job names the source tree, the argv of each CLI call in a pass, the
per-call references, the measuring budget in seconds and whether to trace.
Every call goes through ``bandlim.cli.main(argv)`` in-process with stdout
captured; checks run after each pass, outside the timed region.
"""

import json
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    start = time.perf_counter()
    sys.path.insert(0, job["src"])
    from bandlim import cli
    import_s = time.perf_counter() - start

    import contextlib
    import io
    import resource
    import statistics

    import numpy

    import spans
    from workloads import CheckFailure, check_output

    calls = job["argv"]
    refs = job["refs"]
    tracer = spans.Tracer()
    tally = {"attempted": 0, "failed": 0, "failures": []}

    def one_pass(label: str) -> float:
        outputs = []
        t0 = time.perf_counter()
        for i, argv in enumerate(calls):
            tracer.call_id = f"{label}:{i}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                status = cli.main(argv)
            outputs.append((status, buf.getvalue()))
        elapsed = time.perf_counter() - t0
        for argv, ref, (status, text) in zip(calls, refs, outputs):
            tally["attempted"] += 1
            try:
                if status != 0:
                    raise CheckFailure(f"{argv[0]}: exit status {status}")
                check_output(argv, text, ref)
            except CheckFailure as exc:
                tally["failed"] += 1
                if len(tally["failures"]) < 5:
                    tally["failures"].append(str(exc))
        return elapsed

    def timed_passes(label: str, budget: float, after=None) -> list:
        # Stop before a pass that would end past the budget, so a run takes
        # no more than its budget (but always make one pass).
        samples = []
        deadline = time.perf_counter() + budget
        while not samples or time.perf_counter() + samples[-1] < deadline:
            samples.append(one_pass(f"{label}{len(samples)}"))
            if after is not None:
                after()
        return samples

    result = {"import_s": import_s, "cold_s": one_pass("cold"),
              "numpy": numpy.__version__}
    if not job["trace"]:
        result["warm_s"] = timed_passes("warm", job["seconds"])
    else:
        result["warm_s"] = timed_passes("warm", job["seconds"] / 2)
        spans.install(tracer)
        per_pass = []
        last_spans = []

        def collect():
            per_pass.append(spans.layer_metrics(tracer.spans, tracer.counts))
            last_spans[:] = tracer.spans
            tracer.reset()

        tracer.reset()
        result["traced_s"] = timed_passes("traced", job["seconds"] / 2,
                                          collect)
        if job.get("spans_out"):
            with open(job["spans_out"], "w", encoding="utf-8") as fh:
                json.dump({"run_id": job["run_id"], "spans": last_spans}, fh)
        tracer.measure_memory = True
        one_pass("memory")
        peak = "approximation.fourier_coefficients.peak_mb"
        layers = {name: statistics.median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        layers[peak] = tracer.counts[peak]
        result["layers"] = layers
    result.update(tally)
    result["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
