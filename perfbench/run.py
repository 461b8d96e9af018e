"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rat-offline --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with in-memory spans, prints the per-layer metrics and writes a
Chrome trace-event file under ``.perfbench/``. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics, reported by the untraced run (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

STAGE_METRICS = [
    f"compile.{name}_s"
    for name in (
        "frontend",
        "hispn-simplify",
        "lower-to-lospn",
        "bufferize",
        "buffer-optimization",
        "buffer-deallocation",
        "cpu-lowering",
        "canonicalize",
        "cse",
        "licm",
        "dce",
        "codegen",
        "other",
    )
]

#: Per-layer metrics, reported by the traced run (name -> unit). A
#: workload that does not exercise a layer reports 0 for it.
PER_LAYER = {
    "setup.raw_s": "s",
    **{name: "s" for name in STAGE_METRICS},
    "ir.ops.lower-to-lospn": "count",
    "ir.ops.cpu-lowering": "count",
    "ir.ops.final": "count",
    "codegen.source_lines": "count",
    "codegen.pycompile_s": "s",
    "kernel.call_fixed_ms": "ms",
    "kernel.per_row_us": "us",
    "kernel.batch_ms_p50": "ms",
    "kernel.batch_ms_p90": "ms",
    "kernel.batch_rounds": "count",
    "runtime.shard_speedup": "ratio",
    "serving.samples": "count",
    "serving.slo_qps": "1/s",
    "serving.closed_rows_per_s": "1/s",
    "serving.submit_us_p50": "us",
    "serving.submit_us_p99": "us",
    "serving.server_latency_ms_p50": "ms",
    "serving.server_latency_ms_p99": "ms",
    "serving.rejected": "count",
    "serving.expired": "count",
    "serving.failed": "count",
    **{
        f"serving.{kind}.q{qps}": unit
        for qps in (1000, 2000, 4000, 8000)
        for kind, unit in (
            ("p50_ms", "ms"),
            ("p99_ms", "ms"),
            ("batches", "count"),
            ("mean_batch_rows", "count"),
        )
    },
    "loadgen.late_ms_p50": "ms",
    "loadgen.late_ms_p99": "ms",
    "spn.reference_us_per_sample": "us",
    "host.numpy_1t_melem_s": "Melem/s",
    "host.numpy_2t_speedup": "ratio",
    "host.slowdown": "ratio",
    "host.python_slowdown": "ratio",
    "fail_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}

TRACE_DIR = ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workloads():
    """Import the benchmark with the checkout's own ``src`` on the path;
    exits with code 1 when the sources are not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro sources under {src}")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Reproducer dumps of a failing compile stay inside the checkout.
    os.environ["SPNC_ARTIFACT_DIR"] = str(ROOT / TRACE_DIR / "artifacts")
    from perfbench import workloads, tracer

    return workloads, tracer


def execute(workload: str, seed: int, seconds: float, traced: bool, params=None):
    """Run one workload in this process; returns (Run, trace path)."""
    workloads, tracer_module = load_workloads()
    if workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}")
    run = workloads.Run(
        seed=seed,
        seconds=seconds,
        tracer=tracer_module.Tracer(traced),
        params=params or workloads.Params(),
    )
    with run.tracer.span("workload", workload=workload, seed=seed) as root:
        workloads.WORKLOADS[workload](run)
    run.put("ok_frac", 1.0 - run.failed / max(run.attempted, 1), "frac")
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    path = None
    if traced:
        workloads.host_probe(run)
        run.put("fail_frac", run.failed / max(run.attempted, 1), "frac")
        tracer = run.tracer
        worst = 0.0
        for figure in ("compile", "publish", "request"):
            share, problems = tracer.check_layer_sum(
                figure, workloads.UNATTRIBUTED_LIMIT
            )
            worst = max(worst, share)
            run.violations.extend(problems[:5])
        run.put("trace.unattributed_frac", worst, "frac")
        traced_s = root.duration
        run.put(
            "trace.overhead_frac",
            tracer.bookkeeping_s / max(traced_s - tracer.bookkeeping_s, 1e-9),
            "frac",
        )
        os.makedirs(ROOT / TRACE_DIR, exist_ok=True)
        path = ROOT / TRACE_DIR / f"trace-{workload}-seed{seed}.json"
        tracer.write_chrome(str(path), f"perfbench {workload} seed {seed}")
    return run, path


def result_line(run, traced: bool) -> dict:
    catalogue = PER_LAYER if traced else END_TO_END
    metrics = {}
    for name, unit in catalogue.items():
        if name in run.metrics:
            value, measured_unit = run.metrics[name]
            if measured_unit != unit:
                raise RuntimeError(f"{name}: unit {measured_unit} != {unit}")
        elif traced:
            value = 0.0
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        if not math.isfinite(value):
            run.violations.append(f"{name} is {value}")
            value = sys.float_info.max
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    run, path = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(run, bool(args.trace))
    for problem in run.problems + run.violations:
        print(f"perfbench: {problem}", file=sys.stderr)
    if path is not None:
        print(f"perfbench: trace written to {path.relative_to(ROOT)}", file=sys.stderr)
    print(f"perfbench: {args.workload} took {time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
