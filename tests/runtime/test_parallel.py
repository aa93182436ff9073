"""Unit tests for the ParallelMap executor."""

import os
from functools import partial

import pytest

from repro.errors import ConfigurationError
from repro.runtime.parallel import (
    MapStats,
    ParallelMap,
    _chunk_slices,
    resolve_workers,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad item {x}")


def _die_outside(coordinator_pid, x):
    # Kill a worker process outright -- the pool sees a vanished worker
    # and raises BrokenProcessPool, never a task exception -- but
    # square in the coordinator, so the serial retry succeeds.
    if os.getpid() != coordinator_pid:
        os._exit(13)
    return x * x


class TestResolveWorkers:
    def test_one_is_one(self):
        assert resolve_workers(1) == 1

    def test_none_and_zero_mean_all_cores(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) == resolve_workers(None)

    def test_capped_to_available(self):
        assert resolve_workers(10_000) <= resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-1)


class TestChunking:
    def test_covers_all_items_in_order(self):
        slices = _chunk_slices(10, 3)
        flat = [i for lo, hi in slices for i in range(lo, hi)]
        assert flat == list(range(10))

    def test_near_equal_sizes(self):
        sizes = [hi - lo for lo, hi in _chunk_slices(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        slices = _chunk_slices(2, 8)
        assert len(slices) == 2

    def test_deterministic(self):
        assert _chunk_slices(97, 12) == _chunk_slices(97, 12)


class TestSerial:
    def test_matches_list_comprehension(self):
        pm = ParallelMap(workers=1)
        assert pm.map(_square, range(7)) == [x * x for x in range(7)]
        assert pm.stats.mode == "serial"
        assert pm.stats.n_tasks == 7
        assert len(pm.stats.task_durations) == 7

    def test_empty_items(self):
        pm = ParallelMap(workers=1)
        assert pm.map(_square, []) == []
        assert pm.stats.n_tasks == 0

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="bad item"):
            ParallelMap(workers=1).map(_boom, [3])


class TestProcess:
    def test_ordered_and_identical_to_serial(self):
        items = list(range(23))
        serial = ParallelMap(workers=1).map(_square, items)
        pm = ParallelMap(workers=2)
        assert pm.map(_square, items) == serial
        assert pm.stats.fallback_reason is None

    def test_lambda_falls_back_to_serial(self):
        pm = ParallelMap(workers=2)
        # Lambdas don't pickle; the pool failure must degrade gracefully
        # (workers=2 forces a pool even on a 1-core host).
        if pm.workers < 2:
            pm.workers = 2
        assert pm.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
        assert pm.stats.mode == "serial"
        assert pm.stats.fallback_reason is not None

    def test_task_exception_propagates(self):
        with pytest.raises(ValueError, match="bad item"):
            ParallelMap(workers=2).map(_boom, list(range(4)))


class TestStats:
    def test_defaults(self):
        stats = MapStats()
        assert (stats.mode, stats.workers, stats.n_tasks) == ("serial", 1, 0)
        assert stats.chunk_durations == [] and stats.fallback_reason is None


@pytest.mark.skipif(
    resolve_workers(2) < 2,
    reason="needs >= 2 usable cores: with one core ParallelMap(workers=2) "
    "resolves to serial and never attempts the pool",
)
class TestBrokenPool:
    def test_fallback_recovers_and_counts(self):
        from repro.obs import observing

        # Every worker dies on its first item; the coordinator squares.
        with observing() as obs:
            pm = ParallelMap(workers=2)
            results = pm.map(partial(_die_outside, os.getpid()), list(range(8)))
            snapshot = obs.metrics.snapshot()
        assert results == [x * x for x in range(8)]
        assert pm.stats.mode == "serial"
        # The earliest affected chunk is named: index, item range, items.
        assert pm.stats.fallback_reason == (
            "BrokenPoolError: process pool broke while executing chunk 0 "
            "(items 0:1): [0]"
        )
        assert snapshot["runtime.parallel.broken_pool"]["value"] == 1
        assert snapshot["runtime.parallel.fallbacks"]["value"] == 1

    def test_fallback_enabled_still_returns_results(self):
        # An unpicklable callable takes the PicklingError route to the
        # same serial retry.
        pm = ParallelMap(workers=2)
        results = pm.map(lambda x: x + 1, [1, 2, 3])
        assert results == [2, 3, 4]
        assert pm.stats.mode == "serial"
        assert pm.stats.fallback_reason is not None
