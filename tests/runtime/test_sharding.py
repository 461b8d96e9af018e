"""Sharded multi-core batch execution (paper Section IV-B runtime).

The adaptive shard plan must be a pure scheduling decision: for every
worker count, batch size and tail shape, the sharded run's outputs are
bit-identical to the single-threaded run (the kernels are per-sample;
chunk boundaries never change arithmetic). The plan itself must stay
work-stealing friendly (≥ 2 x workers chunks when profitable) without
slicing below the vector-profitable minimum or above the compiled
batch-size hint, and the executor's retry / deadline / fail-fast and
``last_run_*`` snapshot semantics must survive explicit shard plans.
"""

import threading
import time
import warnings

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_spn
from repro.diagnostics import DeadlineError
from repro.runtime import (
    MIN_PROFITABLE_CHUNK,
    ChunkedExecutor,
    RetryPolicy,
    ShardTimeline,
    chunk_ranges,
    plan_chunks,
)
from repro.spn import (
    Categorical,
    Gaussian,
    JointProbability,
    Product,
    Sum,
    log_likelihood,
)

from ..conftest import make_gaussian_spn

W = 64


def _covers(ranges, total):
    """Ranges are contiguous, disjoint, and cover [0, total)."""
    position = 0
    for start, end in ranges:
        assert start == position
        assert end > start
        position = end
    assert position == total


class TestPlanChunks:
    def test_single_worker_degenerates_to_hint(self):
        assert plan_chunks(1000, 64, 1) == chunk_ranges(1000, 64)

    def test_over_decomposes_to_twice_workers(self):
        for workers in (2, 4, 8):
            ranges = plan_chunks(100_000, 100_000, workers)
            assert len(ranges) >= 2 * workers
            _covers(ranges, 100_000)

    def test_hint_caps_chunk_width(self):
        # Chunks wider than the compiled batch size would regrow every
        # worker arena's high-water footprint; the hint is a hard cap.
        ranges = plan_chunks(100_000, W, 4)
        assert all(end - start <= W for start, end in ranges)
        _covers(ranges, 100_000)

    def test_never_below_profitable_minimum(self):
        # 8 workers over 2048 rows would want 16 chunks of 128 rows;
        # the plan refuses to slice below MIN_PROFITABLE_CHUNK instead.
        ranges = plan_chunks(2048, 100_000, 8)
        assert all(
            end - start >= MIN_PROFITABLE_CHUNK
            for start, end in ranges[:-1]  # the tail may be short
        )
        _covers(ranges, 2048)

    def test_small_batch_single_chunk(self):
        assert plan_chunks(MIN_PROFITABLE_CHUNK, 1024, 4) == [
            (0, MIN_PROFITABLE_CHUNK)
        ]

    def test_tiny_hint_wins_over_minimum(self):
        # An explicit hint below MIN_PROFITABLE_CHUNK is the user's
        # call: the plan honors it rather than silently widening.
        ranges = plan_chunks(10_000, 64, 4)
        assert all(end - start <= 64 for start, end in ranges)
        _covers(ranges, 10_000)

    def test_empty_batch(self):
        assert plan_chunks(0, 64, 4) == []

    def test_invalid_hint(self):
        with pytest.raises(ValueError):
            plan_chunks(100, 0, 4)

    def test_tail_is_last(self):
        ranges = plan_chunks(10_000, 3000, 2)
        widths = [end - start for start, end in ranges]
        assert min(widths) == widths[-1]


class TestShardedBitIdentical:
    """Sharded execution is invisible in the results (oracle property)."""

    @pytest.fixture(scope="class")
    def kernels(self):
        spn = make_gaussian_spn()
        query = JointProbability(batch_size=W, relative_error=1e-9)
        single = compile_spn(
            spn, query, CompilerOptions(vectorize="batch", num_threads=1)
        ).executable
        sharded = compile_spn(
            spn, query, CompilerOptions(vectorize="batch", num_threads=4)
        ).executable
        yield single, sharded
        single.close()
        sharded.close()

    @pytest.mark.parametrize(
        "batch", [1, W - 1, W, W + 1, 4 * W, 4 * W + 1, 16 * W + 3]
    )
    def test_bit_identical_across_tails(self, kernels, batch, rng):
        single, sharded = kernels
        inputs = rng.normal(size=(batch, 2))
        expected = single.execute(inputs)
        actual = sharded.execute(inputs)
        np.testing.assert_array_equal(actual, expected)

    def test_timeline_covers_batch(self, kernels, rng):
        _, sharded = kernels
        inputs = rng.normal(size=(16 * W, 2))
        sharded.execute(inputs)
        timeline = sharded.last_timeline
        assert timeline is not None
        spans = sorted((r.start, r.end) for r in timeline.records)
        _covers(spans, 16 * W)
        assert all(w.startswith("spnc-worker") for w in timeline.workers)
        assert timeline.busy_seconds >= 0.0
        assert timeline.makespan_seconds >= 0.0

    def test_small_batch_skips_sharding(self, kernels, rng):
        _, sharded = kernels
        sharded.last_timeline = None
        sharded.execute(rng.normal(size=(8, 2)))
        # Below the profitable minimum the batch runs unsliced, so no
        # timeline is recorded for this execution.
        assert sharded.last_timeline is None


def _wide_spn(width=4):
    """Independent 2-feature products under one Sum — one task per product
    once partitioned at ``max_partition_size=6``."""
    products = [
        Product([Gaussian(2 * i, 0.0, 1.0), Gaussian(2 * i + 1, 0.5, 2.0)])
        for i in range(width)
    ]
    return Sum(products, [1.0 / width] * width)


class TestShardedPartitionedKernels:
    """Row sharding is the one parallel path for partitioned kernels too.

    A multi-task kernel runs its tasks in order within each row shard;
    the shards themselves stay per-sample, so the sharded result is
    bit-identical to the single-threaded one in every vectorize mode.
    """

    @pytest.fixture(scope="class")
    def kernels(self):
        spn = _wide_spn()
        query = JointProbability(batch_size=W, relative_error=1e-9)
        compiled = {}
        for mode in ("off", "lanes", "batch"):
            pair = []
            for threads in (1, 2):
                result = compile_spn(
                    spn,
                    query,
                    CompilerOptions(
                        vectorize=mode, max_partition_size=6, num_threads=threads
                    ),
                )
                assert result.num_tasks > 1
                pair.append(result.executable)
            compiled[mode] = pair
        yield compiled
        for pair in compiled.values():
            for executable in pair:
                executable.close()

    @pytest.mark.parametrize("batch", [1, W - 1, W, W + 1, 1000])
    @pytest.mark.parametrize("mode", ["off", "batch"])
    def test_sharded_matches_serial_bitwise(self, kernels, mode, batch, rng):
        single, sharded = kernels[mode]
        inputs = rng.normal(size=(batch, 8))
        np.testing.assert_array_equal(
            sharded.execute(inputs), single.execute(inputs)
        )

    @pytest.mark.parametrize("batch", [1, W - 1, W, W + 1, 1000])
    def test_lanes_sharded_matches_its_plan_run_serially(
        self, kernels, batch, rng
    ):
        # In "lanes" mode a chunk boundary moves rows between the vector
        # body (vector math library) and the scalar epilogue (libm),
        # which may differ in the last ulp. Sharding itself stays a pure
        # scheduling decision: the result is bit-identical to running
        # the same shard plan's chunks one after another.
        single, sharded = kernels["lanes"]
        inputs = rng.normal(size=(batch, 8))
        actual = sharded.execute(inputs)
        ranges = plan_chunks(batch, W, sharded.num_threads)
        expected = np.concatenate(
            [single.execute(inputs[start:end]) for start, end in ranges]
        )
        np.testing.assert_array_equal(actual, expected)
        np.testing.assert_allclose(
            actual, single.execute(inputs), rtol=1e-14, atol=0.0
        )

    def test_timeline_covers_batch_on_workers(self, kernels, rng):
        _, sharded = kernels["batch"]
        sharded.execute(rng.normal(size=(16 * W, 8)))
        timeline = sharded.last_timeline
        assert len(timeline.records) > 1
        _covers(sorted((r.start, r.end) for r in timeline.records), 16 * W)
        assert all(w.startswith("spnc-worker") for w in timeline.workers)


class TestFPStatusOnWorkers:
    """The kernel's FP error policy holds on every thread that runs a chunk.

    NumPy's FP error state is thread-local, so a policy set only in the
    calling thread would not reach the pool workers.
    """

    def test_sharded_all_neginf_sum_is_silent(self):
        # Out-of-domain categories give every sum child -inf, so the
        # log-sum-exp computes -inf - -inf before masking the NaN away.
        spn = Sum(
            [Categorical(0, [0.5, 0.5]), Categorical(0, [0.2, 0.8])],
            [0.3, 0.7],
        )
        inputs = np.full((16 * W, 1), 5.0)
        with compile_spn(
            spn,
            JointProbability(batch_size=W),
            CompilerOptions(vectorize="batch", num_threads=2),
        ).executable as sharded:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                actual = sharded.execute(inputs)
            assert len(sharded.last_timeline.records) > 1
            assert all(
                w.startswith("spnc-worker") for w in sharded.last_timeline.workers
            )
        np.testing.assert_array_equal(actual, log_likelihood(spn, inputs))
        assert np.all(actual == -np.inf)

    @staticmethod
    def _neginf_sum():
        return Sum(
            [Categorical(0, [0.5, 0.5]), Categorical(0, [0.2, 0.8])],
            [0.3, 0.7],
        )

    @pytest.mark.parametrize("mode", ["off", "lanes", "batch"])
    def test_policy_holds_in_every_mode(self, mode):
        spn = self._neginf_sum()
        inputs = np.full((16 * W, 1), 5.0)
        with compile_spn(
            spn,
            JointProbability(batch_size=W),
            CompilerOptions(vectorize=mode, num_threads=2),
        ).executable as sharded:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                actual = sharded.execute(inputs)
            assert len(sharded.last_timeline.records) > 1
        assert np.all(actual == -np.inf)

    def test_policy_holds_for_partitioned_kernels(self):
        # Every sum child of the root is an out-of-domain product.
        products = [
            Product([Categorical(0, [0.5, 0.5]), Categorical(1, [0.1, 0.9])]),
            Product([Categorical(0, [0.7, 0.3]), Categorical(1, [0.4, 0.6])]),
        ]
        spn = Sum(products, [0.4, 0.6])
        inputs = np.full((16 * W, 2), 5.0)
        result = compile_spn(
            spn,
            JointProbability(batch_size=W),
            CompilerOptions(vectorize="batch", max_partition_size=3, num_threads=2),
        )
        assert result.num_tasks > 1
        with result.executable as sharded:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                actual = sharded.execute(inputs)
            assert len(sharded.last_timeline.records) > 1
        np.testing.assert_array_equal(actual, log_likelihood(spn, inputs))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_caller_fp_state_is_neither_needed_nor_changed(self, threads):
        # The policy belongs to the kernel: a caller that makes FP errors
        # raise still gets the libm result, and gets its own state back.
        spn = self._neginf_sum()
        inputs = np.full((16 * W, 1), 5.0)
        with compile_spn(
            spn,
            JointProbability(batch_size=W),
            CompilerOptions(vectorize="batch", num_threads=threads),
        ).executable as executable:
            with np.errstate(all="raise"):
                before = np.geterr()
                actual = executable.execute(inputs)
                assert np.geterr() == before
        assert np.all(actual == -np.inf)


class TestExplicitRangesSemantics:
    """run(ranges=...) preserves retry / deadline / fail-fast behavior."""

    def test_ranges_override_chunk_size(self):
        seen = []
        with ChunkedExecutor(1) as ex:
            ex.run(10, 3, lambda s, e: seen.append((s, e)), ranges=[(0, 7), (7, 10)])
        assert seen == [(0, 7), (7, 10)]

    def test_retry_recovers_transient_fault(self):
        failures = {"left": 1}

        def flaky(start, end):
            if start == 0 and failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient")

        with ChunkedExecutor(2) as ex:
            ex.run(
                1024,
                512,
                flaky,
                retry_policy=RetryPolicy(max_retries=2),
                ranges=plan_chunks(1024, 512, 2, min_chunk=1),
            )
            assert ex.last_run_retries == 1

    def test_deadline_enforced_on_shard_plan(self):
        with ChunkedExecutor(2) as ex:
            with pytest.raises(DeadlineError):
                ex.run(
                    1024,
                    512,
                    lambda s, e: time.sleep(0.01),
                    deadline=time.monotonic() - 0.001,
                    ranges=[(0, 512), (512, 1024)],
                )

    def test_fail_fast_cancels_pending_shards(self):
        started = threading.Event()

        def poisoned(start, end):
            if start == 0:
                started.wait(1.0)
                raise RuntimeError("poisoned batch")
            if start < 4096:
                started.set()
                time.sleep(0.02)

        with ChunkedExecutor(2) as ex:
            with pytest.raises(RuntimeError):
                ex.run(
                    65536,
                    1024,
                    poisoned,
                    ranges=chunk_ranges(65536, 1024),
                )
            # With 2 workers over 64 chunks, the failure sweeps the
            # queue: most chunks are cancelled (then re-run inline,
            # where the first re-raises without a retry budget).
            assert ex.last_run_cancelled > 0

    def test_timeline_records_on_pool_path(self):
        timeline = ShardTimeline()
        with ChunkedExecutor(2) as ex:
            ex.run(
                2048,
                512,
                lambda s, e: None,
                ranges=chunk_ranges(2048, 512),
                timeline=timeline,
            )
        assert len(timeline.records) == 4
        _covers(sorted((r.start, r.end) for r in timeline.records), 2048)


class TestLastRunSnapshotSemantics:
    """``last_run_retries`` / ``last_run_cancelled`` are a *snapshot* of
    the most recently finished run — concurrent runs on a shared
    executor never blend their counters (each run carries its own
    ``_RunState``; the attribute is overwritten, not accumulated)."""

    def test_concurrent_runs_do_not_blend_counters(self):
        ex = ChunkedExecutor(2)
        barrier = threading.Barrier(2, timeout=5.0)

        def make_flaky(budget):
            remaining = {"n": budget}
            entered = {"done": False}

            def fn(start, end):
                if not entered["done"]:
                    # Rendezvous once: both runs are in-flight on the
                    # shared executor before either starts retrying.
                    entered["done"] = True
                    barrier.wait()
                if remaining["n"] > 0:
                    remaining["n"] -= 1
                    raise RuntimeError("transient")

            return fn

        def launch(budget, errors):
            try:
                ex.run(
                    256,
                    256,
                    make_flaky(budget),
                    retry_policy=RetryPolicy(max_retries=5),
                )
            except Exception as error:  # pragma: no cover - defensive
                errors.append(error)

        errors = []
        threads = [
            threading.Thread(target=launch, args=(budget, errors))
            for budget in (2, 3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        ex.close()
        assert not errors
        # A blended (accumulating) counter would read 5; the snapshot
        # must be exactly one run's count.
        assert ex.last_run_retries in (2, 3)

    def test_snapshot_updates_on_each_finish(self):
        with ChunkedExecutor(1) as ex:
            remaining = {"n": 2}

            def flaky(start, end):
                if remaining["n"] > 0:
                    remaining["n"] -= 1
                    raise RuntimeError("transient")

            ex.run(4, 4, flaky, retry_policy=RetryPolicy(max_retries=3))
            assert ex.last_run_retries == 2
            ex.run(4, 4, lambda s, e: None)
            assert ex.last_run_retries == 0
