"""The benchmark's three workloads.

Every model and input is generated from the run's seed by ``repro.spn``
and ``repro.data``; nothing is downloaded. Each workload measures its
layers from outside, by timing calls into the public functions of
``repro.compiler`` (``compile_spn``), ``repro.runtime``
(``Executable.execute``), ``repro.serving`` (``InferenceServer``) and
``repro.spn`` (``inference.log_likelihood``), and by reading the
per-pass records a compile returns.

Why these three (see README.md for the numbers behind each reason):

- ``rat-offline``: a level-regular RAT-SPN whose compile is heavy and
  whose single-threaded kernel does per-row work — the workload a
  layer-wise lowering should speed up.
- ``speaker-sharded``: irregular LearnSPN speaker models in one
  multi-head marginal kernel sharded over 2 threads — light compile,
  time spent in the thread pool and the marginal leaf path; a
  layer-wise lowering should not fire here.
- ``serve-speaker``: the same speaker model served one row per request,
  open-loop (Poisson arrivals on a rate ladder) and closed-loop (64
  callers) — the kernel's per-call fixed cost and the batching window
  set the latency here, not its per-row speed.
"""

from __future__ import annotations

import functools
import gc
import queue
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.compiler import CompilerOptions, compile_spn
from repro.data.speaker import (
    SpeakerDatasetConfig,
    generate_speaker_dataset,
    train_speaker_spns,
)
from repro.serving import InferenceServer, ServerConfig
from repro.spn import JointProbability, inference
from repro.spn.learning import LearnSPNOptions
from repro.spn.rat import RatSpnConfig, build_rat_spn
from repro.testing.oracle import compute_tolerance, outputs_match

from .tracer import Tracer

#: Compile stages the CPU -O1 pipeline runs, in order. Each has its own
#: per-layer metric; any other stage a later pipeline adds is summed
#: into ``compile.other_s`` so the stage times still add up to a compile.
STAGES = (
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
)

#: Serving latency limit on p99, milliseconds.
SLO_P99_MS = 30.0
#: The ladder rate measured in several windows, whose requests are
#: traced and broken into layers.
REPORTED_QPS = 2000
#: Share of a compile or publish that its pass records may leave
#: unexplained: the pass manager counts ops between passes outside the
#: records (about 6 % of a compile here), and publish adds the server's
#: own set-up.
UNATTRIBUTED_LIMIT = 0.10


#: The RAT-SPN of ``rat-offline`` (about 1,585 nodes, one head); the
#: run's seed picks its region graph and parameters.
RAT = RatSpnConfig(
    num_features=64,
    num_classes=1,
    depth=3,
    num_repetitions=4,
    num_sums=6,
    num_input_distributions=3,
)


@dataclass(frozen=True)
class Params:
    """Sizes of every workload; :meth:`smoke` shrinks them for the
    benchmark's own smoke test."""

    #: Cold set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 3
    #: Distinct seeded input batches the offline loops cycle through.
    distinct_batches: int = 2
    rat: RatSpnConfig = field(default_factory=lambda: RAT)
    rat_rows: int = 8192
    speaker_rows: int = 16384
    speaker_train_rows: int = 2500
    speaker_pool_rows: int = 8192
    speaker_missing: float = 0.3
    #: Open-loop ladder: (offered requests per second, share of the run,
    #: windows). A rate's p50/p99 are the medians over its windows.
    ladder: Tuple[Tuple[int, float, int], ...] = (
        (1000, 0.05, 1),
        (REPORTED_QPS, 0.25, 5),
        (4000, 0.05, 1),
        (8000, 0.05, 1),
    )
    #: Closed loop after the ladder: callers that each wait for their
    #: reply before sending the next row; its share of the run and the
    #: rounds it is split into (each followed by a host-clock sample).
    closed_clients: int = 64
    closed_share: float = 0.45
    closed_rounds: int = 18
    warmup_s: float = 0.5
    fixed_call_repeats: int = 15
    twin_calls: int = 5
    server: ServerConfig = ServerConfig(
        max_batch=1024, max_wait_us=2000, kernel_threads=1
    )

    @classmethod
    def smoke(cls) -> "Params":
        return cls(
            setup_repeats=1,
            rat=replace(RAT, num_features=16, depth=2, num_repetitions=2),
            rat_rows=512,
            speaker_rows=512,
            speaker_train_rows=300,
            speaker_pool_rows=256,
            warmup_s=0.1,
            fixed_call_repeats=3,
            twin_calls=2,
        )


@dataclass
class Run:
    """What one benchmark process measured."""

    seed: int
    seconds: float
    tracer: Tracer
    params: Params = field(default_factory=Params)
    attempted: int = 0
    failed: int = 0
    #: Output entries that disagreed with the reference.
    mismatches: int = 0
    #: Failed checks of the benchmark itself (gate self-check, layer sum).
    violations: List[str] = field(default_factory=list)
    #: What went wrong, for standard error (capped).
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    @property
    def traced(self) -> bool:
        return self.tracer.enabled

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def operation_failed(self, what: str, error: BaseException) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{what}: {type(error).__name__}: {error}")
            traceback.print_exception(error, file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.mismatches == 0 and not self.violations


# --- correctness gate ---------------------------------------------------------------


class Reference:
    """Reference log-likelihoods of ``rows`` under every head, from the
    independent evaluator on the f32-rounded rows, with the oracle's
    per-row tolerances."""

    def __init__(self, heads: Sequence, rows: np.ndarray, marginal: bool):
        rows64 = np.asarray(rows, dtype=np.float32).astype(np.float64)
        start = time.perf_counter()
        self.values = np.stack(
            [inference.log_likelihood(h, rows64, marginal=marginal) for h in heads]
        )
        self.seconds = time.perf_counter() - start
        query = JointProbability(batch_size=len(rows), support_marginal=marginal)
        self.tolerance = np.stack(
            [compute_tolerance(h, query, v) for h, v in zip(heads, self.values)]
        )

    def mismatches(self, observed, index=slice(None)) -> int:
        """Entries of ``observed`` ([heads, rows] or [rows]) outside the
        tolerance of the reference rows ``index``."""
        expected = self.values[:, index]
        observed = np.asarray(observed, dtype=np.float64).reshape(expected.shape)
        agreed = outputs_match(observed, expected, self.tolerance[:, index])
        return int(agreed.size - np.count_nonzero(agreed))

    def self_check(self, run: Run, observed, index=slice(None)) -> None:
        """The gate must flag a deliberately perturbed output."""
        perturbed = np.array(observed, dtype=np.float64).reshape(
            self.values[:, index].shape
        )
        flat = perturbed.reshape(-1)
        flat[0] += 10.0 * float(self.tolerance[:, index].reshape(-1)[0]) + 1.0
        if self.mismatches(perturbed, index) == 0:
            run.violations.append("a perturbed output passed the correctness gate")


def check(run: Run, reference: Reference, observed, index=slice(None)) -> bool:
    bad = reference.mismatches(observed, index)
    run.mismatches += bad
    if bad:
        run.failed += 1
        if len(run.problems) < 20:
            run.problems.append(f"{bad} output entries outside the reference tolerance")
    return bad == 0


# --- models and inputs ----------------------------------------------------------------


def rat_model(params: Params, seed: int):
    return build_rat_spn(replace(params.rat, seed=seed))[0]


def speaker_models(params: Params):
    """The three LearnSPN speaker models and a pool of clean frames.

    The models are fixed (speaker data seed 17, as in the figure
    benchmarks) so that compile work is the same on every run; only the
    inputs drawn from the pool depend on the run's seed.
    """
    dataset = generate_speaker_dataset(
        SpeakerDatasetConfig(
            num_speakers=3,
            train_samples_per_speaker=params.speaker_train_rows,
            clean_samples=params.speaker_pool_rows,
            noisy_samples=0,
            seed=17,
        )
    )
    options = LearnSPNOptions(min_instances=10, independence_threshold=0.28, max_depth=20)
    return train_speaker_spns(dataset, options), dataset.clean


def speaker_rows(pool: np.ndarray, rows: int, rng, missing: float = 0.0) -> np.ndarray:
    """Seeded frames: pool rows plus small jitter, with ``missing`` of the
    features set to NaN (marginalized evidence)."""
    picked = pool[rng.integers(0, len(pool), size=rows)].astype(np.float64)
    picked += rng.normal(0.0, 0.1, size=picked.shape)
    if missing:
        picked[rng.random(picked.shape) < missing] = np.nan
    return picked.astype(np.float32)


# --- layer helpers ----------------------------------------------------------------------


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def add_pass_spans(tracer: Tracer, parent, result) -> None:
    """Child spans of a compile span, one per pass record, laid end to
    end from the compile's start in the order the passes ran."""
    if parent is None or result.timings is None:
        return
    cursor = parent.start
    for record in result.timings.records:
        tracer.add(
            f"pass:{record.name}",
            cursor,
            cursor + record.seconds,
            parent=parent.id,
            ops_after=record.ops_after,
        )
        cursor += record.seconds


def compile_layers(run: Run, result) -> None:
    """Per-pass seconds, IR op counts and code size of one compile."""
    other = 0.0
    seconds = dict.fromkeys(STAGES, 0.0)
    for name, value in result.stage_seconds.items():
        if name in seconds:
            seconds[name] += value
        else:
            other += value
    for name in STAGES:
        run.put(f"compile.{name}_s", seconds[name], "s")
    run.put("compile.other_s", other, "s")
    counted = [r for r in result.timings.records if r.ops_after is not None]
    ops = {r.name: r.ops_after for r in counted}
    run.put("ir.ops.lower-to-lospn", ops.get("lower-to-lospn", 0), "count")
    run.put("ir.ops.cpu-lowering", ops.get("cpu-lowering", 0), "count")
    run.put("ir.ops.final", counted[-1].ops_after if counted else 0, "count")
    source = result.executable.source
    run.put("codegen.source_lines", len(source.splitlines()), "count")
    start = time.perf_counter()
    compile(source, "<perfbench-kernel>", "exec")
    run.put("codegen.pycompile_s", time.perf_counter() - start, "s")


#: Wall time of :func:`python_slowdown`'s loop that counts as slowdown 1.
PYTHON_NOMINAL_S = 0.100


def python_slowdown() -> float:
    """How fast this host runs pure Python right now, against a nominal
    speed: dict inserts and a keyed sort, the kind of object churn a
    compile does. Set-up times are divided by it, as kernel times are by
    :class:`HostClock`. The table is small and rebuilt in place so that
    the loop does not raise the process's peak memory."""
    start = time.perf_counter()
    table = {}
    for _ in range(10):
        table.clear()
        for i in range(30_000):
            table[i] = (i, str(i))
        sorted(table.values(), key=lambda item: -item[0])
    return (time.perf_counter() - start) / PYTHON_NOMINAL_S


def timed_setup(run: Run, name: str, build: Callable[[], tuple], release) -> tuple:
    """Run ``build`` ``setup_repeats`` times from a collected heap, each
    followed by a :func:`python_slowdown` sample, and report the median
    host-normalized time as ``setup_s``. ``build`` returns (product,
    CompilationResult); returns (product, result) of the median attempt
    and releases every other product."""
    attempts = []
    with run.tracer.span("setup"):
        for _ in range(run.params.setup_repeats):
            gc.collect()
            with run.tracer.span(name) as span:
                start = time.perf_counter()
                product, result = build()
                elapsed = time.perf_counter() - start
            run.attempted += 1
            add_pass_spans(run.tracer, span, result)
            with run.tracer.span("calibrate"):
                slowdown = python_slowdown()
            attempts.append((elapsed / slowdown, elapsed, slowdown, product, result))
    ordered = sorted(attempts, key=lambda a: a[0])
    chosen = ordered[(len(ordered) - 1) // 2]
    for attempt in attempts:
        if attempt is not chosen:
            release(attempt[3])
    run.put("setup_s", statistics.median(a[0] for a in attempts), "s")
    run.put("setup.raw_s", statistics.median(a[1] for a in attempts), "s")
    run.put("host.python_slowdown", statistics.median(a[2] for a in attempts), "ratio")
    return chosen[3], chosen[4]


def host_probe(run: Run) -> None:
    """The host ceiling: raw NumPy ufunc throughput on 1 thread, and
    the speed-up of the same work split over 2 threads."""
    data = np.random.default_rng(0).random(1 << 21)
    halves = np.array_split(data, 2)
    out = np.empty_like(data)
    out_halves = np.array_split(out, 2)

    def one(i):
        np.exp(halves[i], out=out_halves[i])

    def timed(fn, rounds=9):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    single = timed(lambda: np.exp(data, out=out))
    with ThreadPoolExecutor(max_workers=2) as pool:
        double = timed(lambda: list(pool.map(one, (0, 1))))
    run.put("host.numpy_1t_melem_s", data.size / single / 1e6, "Melem/s")
    run.put("host.numpy_2t_speedup", single / double, "ratio")


class HostClock:
    """How fast this host runs right now, against a fixed nominal speed.

    The host is shared and its speed drifts by tens of percent over
    minutes, moving every wall-clock figure with it. The clock times a
    benchmark-owned calibration loop between measured rounds (never
    inside one) and divides each by the nominal: ``slowdown``. The loop
    dispatches NumPy ufuncs on 8,192-element arrays from Python, as the
    generated kernels do, on as many threads as the workload keeps
    running at once: neighbours on the shared host slow one core and
    both cores by different amounts, and the loop split over two threads
    flips between running in parallel and running in turn.
    """

    #: Calibration wall time that counts as slowdown 1.
    NOMINAL_S = 0.050

    def __init__(self, threads: int):
        rng = np.random.default_rng(0)
        self._columns = [rng.random(8192) for _ in range(16)]
        self._threads = threads
        self._pool = ThreadPoolExecutor(max_workers=threads)
        self.slowdowns: List[float] = []

    def _loop(self, _) -> None:
        columns = self._columns
        acc = np.zeros(8192)
        for i in range(200):
            acc = np.logaddexp(acc, columns[i % 16] * columns[(i * 7) % 16] - 0.5)

    def sample(self) -> float:
        """Time one calibration loop per thread; returns its slowdown."""
        start = time.perf_counter()
        list(self._pool.map(self._loop, range(self._threads)))
        self.slowdowns.append((time.perf_counter() - start) / self.NOMINAL_S)
        return self.slowdowns[-1]

    @property
    def slowdown(self) -> float:
        return statistics.median(self.slowdowns)

    def close(self) -> None:
        self._pool.shutdown()


def time_calls(executable, batch: np.ndarray, calls: int) -> Tuple[float, List[np.ndarray]]:
    times, outputs = [], []
    for _ in range(calls):
        start = time.perf_counter()
        outputs.append(executable.execute(batch))
        times.append(time.perf_counter() - start)
    return statistics.median(times), outputs


# --- offline workloads ------------------------------------------------------------------


@dataclass
class Offline:
    """One offline workload: its model heads, seeded batches and build."""

    heads: list
    batches: List[np.ndarray]
    options: CompilerOptions
    query: JointProbability
    #: Thread count of the twin build timed for ``runtime.shard_speedup``.
    twin_threads: int
    marginal: bool

    @property
    def model(self):
        return self.heads if len(self.heads) > 1 else self.heads[0]


def rat_offline(run: Run) -> Offline:
    params = run.params
    rng = np.random.default_rng(run.seed)
    features = params.rat.num_features
    batches = [
        rng.normal(0.0, 1.0, size=(params.rat_rows, features)).astype(np.float32)
        for _ in range(params.distinct_batches)
    ]
    return Offline(
        heads=[rat_model(params, run.seed)],
        batches=batches,
        options=CompilerOptions(opt_level=1, vectorize="batch", num_threads=1),
        query=JointProbability(batch_size=params.rat_rows),
        twin_threads=2,
        marginal=False,
    )


def speaker_sharded(run: Run) -> Offline:
    params = run.params
    heads, pool = speaker_models(params)
    rng = np.random.default_rng(run.seed)
    batches = [
        speaker_rows(pool, params.speaker_rows, rng, params.speaker_missing)
        for _ in range(params.distinct_batches)
    ]
    return Offline(
        heads=heads,
        batches=batches,
        options=CompilerOptions(opt_level=1, vectorize="batch", num_threads=2),
        query=JointProbability(batch_size=params.speaker_rows, support_marginal=True),
        twin_threads=1,
        marginal=True,
    )


def run_offline(run: Run, workload: Offline) -> None:
    tracer = run.tracer
    references = [Reference(workload.heads, b, workload.marginal) for b in workload.batches]
    rows = len(workload.batches[0])
    run.put(
        "spn.reference_us_per_sample",
        statistics.median(r.seconds for r in references) / rows * 1e6,
        "us",
    )

    def build():
        result = compile_spn(workload.model, workload.query, options=workload.options)
        return result.executable, result

    executable, result = timed_setup(run, "compile", build, lambda e: e.close())
    clock = HostClock(threads=workload.options.num_threads)
    try:
        times = []
        # Each round's time over the slowdown measured right after it.
        normalized = []
        last = None
        gc.collect()
        with tracer.span("measure"):
            deadline = time.perf_counter() + run.seconds
            while True:
                index = len(times) % len(workload.batches)
                run.attempted += 1
                with tracer.span("kernel.execute", rows=rows):
                    start = time.perf_counter()
                    try:
                        outputs = executable.execute(workload.batches[index])
                    except Exception as error:  # a failed call is counted, not fatal
                        outputs = None
                        run.operation_failed("execute", error)
                    times.append(time.perf_counter() - start)
                if outputs is not None:
                    check(run, references[index], outputs)
                    last = (outputs, index)
                with tracer.span("calibrate"):
                    normalized.append(times[-1] / clock.sample())
                if time.perf_counter() >= deadline:
                    break
        median = statistics.median(normalized)
        run.put("rows_per_s", rows / median, "1/s")
        run.put("latency_p50_ms", median * 1e3, "ms")
        run.put("latency_p90_ms", quantile(normalized, 90) * 1e3, "ms")
        run.put("host.slowdown", clock.slowdown, "ratio")
        if last is not None:
            references[last[1]].self_check(run, last[0])
        if run.traced:
            offline_layers(run, workload, executable, result, references, times)
    finally:
        clock.close()
        executable.close()


def offline_layers(run, workload, executable, result, references, times) -> None:
    rows = len(workload.batches[0])
    compile_layers(run, result)
    median = statistics.median(times)
    run.put("kernel.batch_ms_p50", median * 1e3, "ms")
    run.put("kernel.batch_ms_p90", quantile(times, 90) * 1e3, "ms")
    run.put("kernel.batch_rounds", len(times), "count")

    one_row = workload.batches[0][:1]
    with run.tracer.span("kernel.fixed"):
        fixed, outputs = time_calls(executable, one_row, run.params.fixed_call_repeats)
    run.attempted += len(outputs)
    for out in outputs:
        check(run, references[0], out, slice(0, 1))
    run.put("kernel.call_fixed_ms", fixed * 1e3, "ms")
    run.put("kernel.per_row_us", max(median - fixed, 0.0) / rows * 1e6, "us")

    options = replace(workload.options, num_threads=workload.twin_threads)
    with run.tracer.span("twin"):
        twin = compile_spn(workload.model, workload.query, options=options).executable
        try:
            twin_time, outputs = time_calls(twin, workload.batches[0], run.params.twin_calls)
        finally:
            twin.close()
    run.attempted += 1 + len(outputs)
    for out in outputs:
        check(run, references[0], out)
    main_time = statistics.median(times[0::len(workload.batches)])
    one, two = (main_time, twin_time) if workload.twin_threads == 2 else (twin_time, main_time)
    run.put("runtime.shard_speedup", one / two, "ratio")


# --- serving workload -------------------------------------------------------------------


@dataclass
class Step:
    """One open-loop ladder step's measurements."""

    qps: int
    latency_ms: np.ndarray  # due time -> completion; inf for failed requests
    late_ms: np.ndarray
    submit_us: np.ndarray
    server_ms: np.ndarray
    batches: int
    mean_batch_rows: float
    outcomes: Dict[str, int]

    @property
    def failures(self) -> int:
        return int(np.count_nonzero(~np.isfinite(self.latency_ms)))

    @property
    def p99(self) -> float:
        return quantile(self.latency_ms, 99)


@dataclass
class Level:
    """Every window sent at one offered rate."""

    qps: int
    windows: List[Step]

    @property
    def p50(self) -> float:
        return statistics.median(quantile(w.latency_ms, 50) for w in self.windows)

    @property
    def p99(self) -> float:
        return statistics.median(w.p99 for w in self.windows)

    @property
    def failures(self) -> int:
        return sum(w.failures for w in self.windows)

    @property
    def batches(self) -> int:
        return sum(w.batches for w in self.windows)

    @property
    def mean_batch_rows(self) -> float:
        rows = sum(w.batches * w.mean_batch_rows for w in self.windows)
        return rows / self.batches if self.batches else 0.0

    def joined(self, attribute: str) -> np.ndarray:
        return np.concatenate([getattr(w, attribute) for w in self.windows])

    def outcome(self, name: str) -> int:
        return sum(w.outcomes.get(name, 0) for w in self.windows)


class _Completions:
    """Completion-callback target: copies each result into preallocated
    arrays, so that no per-request object outlives its request (a heap
    of finished futures would lengthen the collector's pauses and show
    up as serving latency)."""

    def __init__(self, count: int, heads: int):
        self.done = np.full(count, np.nan)
        self.server_ms = np.full(count, np.nan)
        self.values = np.full((heads, count), np.nan)
        self.errors: Dict[int, BaseException] = {}

    def finish(self, index: int, future) -> None:
        self.done[index] = time.perf_counter()
        error = future.exception()
        if error is not None:
            self.errors[index] = error
            return
        result = future.result()
        self.server_ms[index] = result.latency_s * 1e3
        self.values[:, index] = np.reshape(result.values, -1)


def open_loop_step(
    run: Run,
    server: InferenceServer,
    qps: int,
    seconds: float,
    rows: np.ndarray,
    reference: Reference,
    rng,
    trace_requests: bool,
) -> Step:
    """Send single-row requests on a precomputed Poisson schedule.

    Each request is timed from when it was due, not from when it was
    sent, so a stalled generator shows as latency; how late the
    generator ran is reported on its own.
    """
    gaps = rng.exponential(1.0 / qps, size=int(qps * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]
    picks = rng.integers(0, len(rows), size=len(offsets))
    count = len(offsets)
    sent = np.zeros(count)
    returned = np.zeros(count)
    completions = _Completions(count, len(reference.values))
    before = server.health()["models"]["speaker"]
    gc.collect()
    due = time.perf_counter() + 0.002 + offsets
    index = 0
    while index < count:
        now = time.perf_counter()
        while index < count and due[index] <= now:
            sent[index] = time.perf_counter()
            try:
                future = server.submit("speaker", rows[picks[index]])
            except Exception as error:  # refused at admission: counted as failed
                run.operation_failed("submit", error)
            else:
                returned[index] = time.perf_counter()
                future.add_done_callback(functools.partial(completions.finish, index))
            index += 1
            now = time.perf_counter()
        if index < count:
            delay = due[index] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)

    accepted = returned > 0
    give_up = time.perf_counter() + 60.0
    while np.isnan(completions.done[accepted]).any() and time.perf_counter() < give_up:
        time.sleep(0.001)
    run.attempted += count
    after = server.health()["models"]["speaker"]

    latency = np.full(count, np.inf)
    for error in completions.errors.values():  # expired or failed in the server
        run.operation_failed("request", error)
    answered = accepted & ~np.isnan(completions.done)
    answered[list(completions.errors)] = False
    lost = int(np.count_nonzero(accepted & np.isnan(completions.done)))
    if lost:
        run.operation_failed("request", TimeoutError(f"{lost} requests never completed"))
    for i in np.flatnonzero(answered):
        if check(run, reference, completions.values[:, i], slice(picks[i], picks[i] + 1)):
            latency[i] = (completions.done[i] - due[i]) * 1e3

    if trace_requests and run.traced:
        tracer = run.tracer
        for i in np.flatnonzero(np.isfinite(latency)):
            parent = tracer.add("request", due[i], completions.done[i], qps=qps, row=int(picks[i]))
            tracer.add("loadgen.late", due[i], sent[i], parent=parent)
            tracer.add("serving.submit", sent[i], returned[i], parent=parent)
            tracer.add("serving.wait", returned[i], completions.done[i], parent=parent)

    batches = after["batches"] - before["batches"]
    rows_batched = sum(s * c for s, c in after["batch_size_histogram"].items()) - sum(
        s * c for s, c in before["batch_size_histogram"].items()
    )
    return Step(
        qps=qps,
        latency_ms=latency,
        late_ms=(sent - due) * 1e3,
        submit_us=(returned - sent)[accepted] * 1e6,
        server_ms=completions.server_ms[answered],
        batches=batches,
        mean_batch_rows=rows_batched / batches if batches else 0.0,
        outcomes={
            k: after["outcomes"][k] - before["outcomes"][k] for k in after["outcomes"]
        },
    )


def slo_rate(levels: Sequence[Level]) -> float:
    """Highest ladder rate whose p99 is within the limit with no failed
    request (0 when even the lowest rate misses)."""
    rate = 0.0
    for level in levels:
        if level.failures or not level.p99 <= SLO_P99_MS:
            break
        rate = float(level.qps)
    return rate


def closed_loop(
    run: Run,
    server: InferenceServer,
    rows: np.ndarray,
    reference: Reference,
    rng,
    seconds: float,
    clients: int,
) -> Tuple[float, np.ndarray]:
    """``clients`` callers that each send their next row as soon as their
    previous reply arrives, for ``seconds``; returns rows answered
    correctly per second and the latencies (ms) of those answers."""
    replies: "queue.SimpleQueue" = queue.SimpleQueue()
    picks: List[int] = []
    sent: List[float] = []
    latencies: List[float] = []

    def send() -> bool:
        index = len(picks)
        picks.append(int(rng.integers(len(rows))))
        sent.append(time.perf_counter())
        try:
            future = server.submit("speaker", rows[picks[index]])
        except Exception as error:  # refused at admission: counted as failed
            run.operation_failed("submit", error)
            return False
        future.add_done_callback(lambda f: replies.put((index, f, time.perf_counter())))
        return True

    gc.collect()
    start = time.perf_counter()
    end = start + seconds
    in_flight = sum(send() for _ in range(clients))
    good = 0
    while in_flight:
        index, future, done = replies.get(timeout=60)
        in_flight -= 1
        try:
            values = future.result().values
        except Exception as error:  # expired or failed in the server
            run.operation_failed("request", error)
        else:
            if check(run, reference, values, slice(picks[index], picks[index] + 1)):
                good += 1
                latencies.append((done - sent[index]) * 1e3)
        if time.perf_counter() < end:
            in_flight += send()
    elapsed = time.perf_counter() - start
    run.attempted += len(picks)
    return good / elapsed, np.asarray(latencies)


def serve_speaker(run: Run) -> None:
    params = run.params
    heads, pool = speaker_models(params)
    rng = np.random.default_rng(run.seed)
    rows = speaker_rows(pool, params.speaker_pool_rows, rng)
    reference = Reference(heads, rows, marginal=False)
    run.put("spn.reference_us_per_sample", reference.seconds / len(rows) * 1e6, "us")

    def build():
        server = InferenceServer(params.server)
        try:
            version = server.publish("speaker", heads)
        except BaseException:
            server.close()
            raise
        return server, version.compilation

    server, result = timed_setup(run, "publish", build, lambda s: s.close())
    # The server's batch worker and the callers' thread take turns on
    # the interpreter lock, so serving runs as fast as one core does.
    clock = HostClock(threads=1)
    tracer = run.tracer
    try:
        with tracer.span("warmup"):
            warm = params.ladder[0][0]
            open_loop_step(run, server, warm, params.warmup_s, rows, reference, rng, False)
        levels = []
        with tracer.span("ladder"):
            for qps, share, windows in params.ladder:
                level = Level(qps, [])
                for _ in range(windows):
                    with tracer.span("window", qps=qps):
                        level.windows.append(
                            open_loop_step(
                                run,
                                server,
                                qps,
                                share * run.seconds / windows,
                                rows,
                                reference,
                                rng,
                                trace_requests=qps == REPORTED_QPS,
                            )
                        )
                levels.append(level)
        # Each closed-loop round is normalized by the slowdown measured
        # right after it; the figures are medians over rounds.
        rounds = []
        for _ in range(params.closed_rounds):
            with tracer.span("closed-loop", clients=params.closed_clients):
                throughput, latency_ms = closed_loop(
                    run,
                    server,
                    rows,
                    reference,
                    rng,
                    params.closed_share * run.seconds / params.closed_rounds,
                    params.closed_clients,
                )
            with tracer.span("calibrate"):
                slowdown = clock.sample()
            rounds.append(
                (
                    throughput * slowdown,
                    quantile(latency_ms, 50) / slowdown,
                    quantile(latency_ms, 90) / slowdown,
                    throughput,
                )
            )
        run.put("rows_per_s", statistics.median(r[0] for r in rounds), "1/s")
        run.put("latency_p50_ms", statistics.median(r[1] for r in rounds), "ms")
        run.put("latency_p90_ms", statistics.median(r[2] for r in rounds), "ms")
        run.put("host.slowdown", clock.slowdown, "ratio")
        closed = statistics.median(r[3] for r in rounds)
        reference.self_check(run, reference.values[:, :1], slice(0, 1))
        if run.traced:
            serving_layers(run, server, result, rows, reference, levels, closed)
    finally:
        clock.close()
        server.close()


def serving_layers(run, server, result, rows, reference, levels, closed) -> None:
    compile_layers(run, result)
    reported = next(level for level in levels if level.qps == REPORTED_QPS)
    executable = server.registry.current("speaker").executable
    with run.tracer.span("kernel.fixed"):
        fixed, outputs = time_calls(executable, rows[:1], run.params.fixed_call_repeats)
    run.attempted += len(outputs)
    for out in outputs:
        check(run, reference, out, slice(0, 1))
    run.put("kernel.call_fixed_ms", fixed * 1e3, "ms")

    run.put("serving.samples", len(reported.joined("latency_ms")), "count")
    run.put("serving.slo_qps", slo_rate(levels), "1/s")
    run.put("serving.closed_rows_per_s", closed, "1/s")
    submit_us = reported.joined("submit_us")
    server_ms = reported.joined("server_ms")
    late_ms = reported.joined("late_ms")
    run.put("serving.submit_us_p50", quantile(submit_us, 50), "us")
    run.put("serving.submit_us_p99", quantile(submit_us, 99), "us")
    run.put("serving.server_latency_ms_p50", quantile(server_ms, 50), "ms")
    run.put("serving.server_latency_ms_p99", quantile(server_ms, 99), "ms")
    run.put("loadgen.late_ms_p50", quantile(late_ms, 50), "ms")
    run.put("loadgen.late_ms_p99", quantile(late_ms, 99), "ms")
    for outcome in ("rejected", "expired", "failed"):
        run.put(f"serving.{outcome}", sum(lv.outcome(outcome) for lv in levels), "count")
    for level in levels:
        run.put(f"serving.p50_ms.q{level.qps}", level.p50, "ms")
        run.put(f"serving.p99_ms.q{level.qps}", level.p99, "ms")
        run.put(f"serving.batches.q{level.qps}", level.batches, "count")
        run.put(f"serving.mean_batch_rows.q{level.qps}", level.mean_batch_rows, "count")


WORKLOADS = {
    "rat-offline": lambda run: run_offline(run, rat_offline(run)),
    "speaker-sharded": lambda run: run_offline(run, speaker_sharded(run)),
    "serve-speaker": serve_speaker,
}
