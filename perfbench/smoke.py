"""Smoke test of the benchmark itself, at reduced size (under a minute).

Run from the repository root::

    python3 perfbench/smoke.py

It checks that ``BENCHMARK.json`` lists exactly the metrics the runner
knows, that every workload, untraced and traced, measures every metric
that applies to it and passes its correctness gate, and that the gate
fires on a kernel whose outputs are deliberately wrong.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as runner  # noqa: E402  (the sibling run.py)

#: Per-layer metrics each workload must measure itself (the rest are
#: reported as 0 because the workload does not exercise that layer).
COMPILE_LAYERS = {n for n in runner.PER_LAYER if n.startswith(("compile.", "ir.", "codegen."))}
COMMON_LAYERS = COMPILE_LAYERS | {
    "setup.raw_s",
    "host.python_slowdown",
    "host.slowdown",
    "kernel.call_fixed_ms",
    "spn.reference_us_per_sample",
    "host.numpy_1t_melem_s",
    "host.numpy_2t_speedup",
    "fail_frac",
    "trace.overhead_frac",
    "trace.unattributed_frac",
}
OFFLINE_LAYERS = COMMON_LAYERS | {
    "kernel.per_row_us",
    "kernel.batch_ms_p50",
    "kernel.batch_ms_p90",
    "kernel.batch_rounds",
    "runtime.shard_speedup",
}
SERVING_LAYERS = COMMON_LAYERS | {
    n for n in runner.PER_LAYER if n.startswith(("serving.", "loadgen."))
}
EXPECTED = {
    "rat-offline": OFFLINE_LAYERS,
    "speaker-sharded": OFFLINE_LAYERS,
    "serve-speaker": SERVING_LAYERS,
}
SECONDS = 1.0


def check_benchmark_json() -> None:
    spec = json.loads((runner.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert listed == runner.END_TO_END, (listed, runner.END_TO_END)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == runner.PER_LAYER, set(listed) ^ set(runner.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(EXPECTED)


def check_workload(name: str, params) -> None:
    for traced in (False, True):
        run, _ = runner.execute(name, seed=3, seconds=SECONDS, traced=traced, params=params)
        line = runner.result_line(run, traced)
        assert line["correct"], (name, traced, run.problems)
        assert line["failed"] == 0 and line["attempted"] > 0, (name, line)
        if traced:
            missing = EXPECTED[name] - set(run.metrics)
        else:
            missing = set(runner.END_TO_END) - set(run.metrics)
        assert not missing, (name, traced, sorted(missing))
        print(f"ok   {name} trace={int(traced)}: {len(line['metrics'])} metrics")


class _Skewed:
    """A kernel whose every output is off by 5 nats."""

    def __init__(self, executable):
        self._executable = executable

    def execute(self, inputs, deadline=None):
        return self._executable.execute(inputs, deadline) + 5.0

    def close(self):
        self._executable.close()


def check_gate_fires(params) -> None:
    workloads, _ = runner.load_workloads()
    real = workloads.compile_spn

    def skewed(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, executable=_Skewed(result.executable))

    workloads.compile_spn = skewed
    try:
        run, _ = runner.execute("rat-offline", seed=3, seconds=SECONDS, traced=False, params=params)
    finally:
        workloads.compile_spn = real
    line = runner.result_line(run, traced=False)
    assert not line["correct"] and line["failed"] == line["attempted"] - params.setup_repeats, line
    print("ok   the correctness gate fails a skewed kernel")


def main() -> int:
    check_benchmark_json()
    print("ok   BENCHMARK.json matches the runner's metric catalogue")
    workloads, _ = runner.load_workloads()
    params = workloads.Params.smoke()
    for name in EXPECTED:
        check_workload(name, params)
    check_gate_fires(params)
    return 0


if __name__ == "__main__":
    sys.exit(main())
