"""Telemetry wired into the runtime/sim stack behaves as documented.

Integration-level checks: recording runs route scalar with the reason
emitted as a metric, per-slot spans agree with the Recorder's sample
timeline, parallel workers ship spans/metrics back to the coordinator,
and the result cache counts its hits and misses.
"""

import pytest

from repro.obs import OBS, observing
from repro.runtime.cache import ResultCache
from repro.runtime.parallel import ParallelMap
from repro.sim.vectorized import simulate_fast


def _square(x):
    return x * x


# -- sim routing + recorder agreement ----------------------------------------


class TestRecordedRunTelemetry:
    @pytest.fixture
    def traced_recorded_run(self, managers, small_trace):
        conv = managers[0]
        with observing() as obs:
            result = simulate_fast(conv, small_trace, record=True)
            spans = obs.tracer.export()
            snapshot = obs.metrics.snapshot()
        return result, spans, snapshot

    def test_recording_routes_scalar_with_reason_metric(
        self, traced_recorded_run
    ):
        result, spans, snapshot = traced_recorded_run
        assert result.recorder is not None
        assert snapshot["sim.route{path=scalar}"]["value"] == 1
        assert snapshot["sim.fast_ineligible{reason=record}"]["value"] == 1
        assert "sim.route{path=fast}" not in snapshot
        sim_span = next(s for s in spans if s["name"] == "sim.simulate")
        assert sim_span["attrs"]["route"] == "scalar"

    def test_decision_counters_cover_every_slot(
        self, traced_recorded_run, small_trace
    ):
        _, _, snapshot = traced_recorded_run
        slept = snapshot.get("dpm.decisions{slept=yes}", {}).get("value", 0)
        awake = snapshot.get("dpm.decisions{slept=no}", {}).get("value", 0)
        assert slept + awake == len(small_trace)

    def test_slot_spans_agree_with_recorder_samples(self, traced_recorded_run):
        result, spans, _ = traced_recorded_run
        slot_spans = sorted(
            (s for s in spans if s["name"] == "sim.slot"),
            key=lambda s: s["attrs"]["slot"],
        )
        assert [s["attrs"]["slot"] for s in slot_spans] == list(
            range(len(slot_spans))
        )
        # Slots tile the simulated timeline: each span ends where the
        # next begins...
        for prev, nxt in zip(slot_spans, slot_spans[1:]):
            assert prev["attrs"]["t_sim_end"] == pytest.approx(
                nxt["attrs"]["t_sim_start"]
            )
        # ...and every slot boundary is a Sample-row interval edge.
        edges = set()
        for sample in result.recorder.samples:
            edges.add(round(sample.t, 6))
            edges.add(round(sample.t + sample.dt, 6))
        for span in slot_spans:
            assert round(span["attrs"]["t_sim_start"], 6) in edges
            assert round(span["attrs"]["t_sim_end"], 6) in edges

    def test_fast_route_counts_when_eligible(self, managers, small_trace):
        conv = managers[0]
        with observing() as obs:
            simulate_fast(conv, small_trace)
            snapshot = obs.metrics.snapshot()
            spans = obs.tracer.export()
        assert snapshot["sim.route{path=fast}"]["value"] == 1
        assert "sim.fast_ineligible{reason=record}" not in snapshot
        sim_span = next(s for s in spans if s["name"] == "sim.simulate")
        assert sim_span["attrs"]["route"] == "fast"

    def test_disabled_emits_nothing(self, managers, small_trace):
        assert not OBS.enabled
        before = len(OBS.metrics)
        simulate_fast(managers[0], small_trace, record=True)
        assert len(OBS.metrics) == before


# -- parallel map telemetry --------------------------------------------------


class TestParallelTelemetry:
    def test_worker_spans_and_metrics_ship_back(self):
        pm = ParallelMap(workers=2)
        # Force a real pool even on a 1-core host.
        pm.workers = 2
        with observing() as obs:
            assert pm.map(_square, range(23)) == [x * x for x in range(23)]
            spans = obs.tracer.export()
            snapshot = obs.metrics.snapshot()

        map_span = next(s for s in spans if s["name"] == "parallel.map")
        chunk_spans = [s for s in spans if s["name"] == "parallel.chunk"]
        assert chunk_spans
        # Worker roots are re-parented under the coordinator's map span.
        assert all(s["parent_id"] == map_span["span_id"] for s in chunk_spans)
        assert map_span["attrs"]["mode"] == "process"

        n_chunks = len(pm.stats.chunk_durations)
        assert len(chunk_spans) == n_chunks
        assert snapshot["runtime.parallel.chunk_seconds"]["count"] == n_chunks
        assert snapshot["runtime.parallel.maps{mode=process}"]["value"] == 1
        assert "runtime.parallel.fallbacks" not in snapshot

    def test_chunk_stats_populate(self):
        pm = ParallelMap(workers=2)
        pm.workers = 2
        pm.map(_square, range(23))
        stats = pm.stats
        assert sum(stats.chunk_sizes) == 23
        assert len(stats.chunk_durations) == len(stats.chunk_sizes)
        assert len(stats.chunk_pids) == len(stats.chunk_sizes)
        assert all(d >= 0.0 for d in stats.chunk_durations)

    def test_serial_map_has_in_process_chunk_spans(self):
        pm = ParallelMap(workers=1)
        with observing() as obs:
            pm.map(_square, range(5))
            spans = obs.tracer.export()
            snapshot = obs.metrics.snapshot()
        map_span = next(s for s in spans if s["name"] == "parallel.map")
        chunk_spans = [s for s in spans if s["name"] == "parallel.chunk"]
        assert chunk_spans
        assert all(s["parent_id"] == map_span["span_id"] for s in chunk_spans)
        assert snapshot["runtime.parallel.maps{mode=serial}"]["value"] == 1


# -- result cache telemetry ---------------------------------------------------


class TestCacheInvalidation:
    def test_hit_miss_counters(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        with observing() as obs:
            cache.cached("exp", {"a": 1}, lambda: 5)
            cache.cached("exp", {"a": 1}, lambda: 6)
            snap = obs.metrics.snapshot()
        assert snap["runtime.cache.misses"]["value"] == 1
        assert snap["runtime.cache.hits"]["value"] == 1
