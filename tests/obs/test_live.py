"""Live telemetry: heartbeat schema/atomicity, stall detection, flusher."""

import json
import threading

import pytest

from repro.obs.live import (
    DEFAULT_LIVE_INTERVAL,
    HEARTBEAT_SCHEMA_VERSION,
    Heartbeat,
    LiveFlusher,
    LiveProgress,
    heartbeat_age,
    heartbeat_path,
    is_stalled,
    iter_heartbeats,
    live_interval,
    metrics_path,
    validate_heartbeat,
    write_atomic_json,
)
from repro.obs.metrics import MetricsRegistry


def make_heartbeat(**overrides) -> Heartbeat:
    defaults = dict(
        name="demo",
        pid=123,
        host="testhost",
        started=1000.0,
        updated=1010.0,
        interval_s=0.5,
        phase="dispatch",
        tasks_done=3,
        tasks_failed=1,
        tasks_total=8,
        task_rate=0.4,
        eta_s=10.0,
    )
    defaults.update(overrides)
    return Heartbeat(**defaults)


class TestLiveInterval:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("FCDPM_LIVE_INTERVAL", raising=False)
        assert live_interval(None) is None

    def test_env_enables(self, monkeypatch):
        monkeypatch.setenv("FCDPM_LIVE_INTERVAL", "0.25")
        assert live_interval(None) == 0.25

    def test_bad_or_nonpositive_env_stays_off(self, monkeypatch):
        for raw in ("nope", "0", "-1", ""):
            monkeypatch.setenv("FCDPM_LIVE_INTERVAL", raw)
            assert live_interval(None) is None

    def test_true_means_default_cadence(self):
        assert live_interval(True) == DEFAULT_LIVE_INTERVAL

    def test_false_forces_off_even_with_env(self, monkeypatch):
        monkeypatch.setenv("FCDPM_LIVE_INTERVAL", "1.0")
        assert live_interval(False) is None

    def test_explicit_number_wins(self, monkeypatch):
        monkeypatch.setenv("FCDPM_LIVE_INTERVAL", "9")
        assert live_interval(0.2) == 0.2


class TestHeartbeatSchema:
    def test_round_trip(self):
        hb = make_heartbeat(shard="1/2")
        data = hb.to_dict()
        assert data["schema_version"] == HEARTBEAT_SCHEMA_VERSION
        assert Heartbeat.from_dict(data) == hb

    def test_valid_heartbeat_passes(self):
        assert validate_heartbeat(make_heartbeat().to_dict()) == []

    def test_non_dict_rejected(self):
        assert validate_heartbeat([1, 2]) != []

    def test_missing_field_flagged(self):
        data = make_heartbeat().to_dict()
        del data["tasks_done"]
        assert any("tasks_done" in p for p in validate_heartbeat(data))

    def test_type_error_flagged(self):
        data = make_heartbeat().to_dict()
        data["tasks_done"] = "three"
        assert validate_heartbeat(data)

    def test_done_plus_failed_beyond_total_flagged(self):
        data = make_heartbeat(tasks_done=7, tasks_failed=2).to_dict()
        assert any("exceeds total" in p for p in validate_heartbeat(data))

    def test_updated_before_started_flagged(self):
        data = make_heartbeat(updated=999.0).to_dict()
        assert any("predates" in p for p in validate_heartbeat(data))

    def test_nonpositive_interval_flagged(self):
        data = make_heartbeat(interval_s=0.0).to_dict()
        assert any("interval_s" in p for p in validate_heartbeat(data))

    def test_newer_schema_version_flagged(self):
        data = make_heartbeat().to_dict()
        data["schema_version"] = HEARTBEAT_SCHEMA_VERSION + 1
        assert any("newer" in p for p in validate_heartbeat(data))


class TestPaths:
    def test_unsharded(self, tmp_path):
        assert heartbeat_path(tmp_path).name == "heartbeat.json"
        assert metrics_path(tmp_path).name == "metrics.json"

    def test_sharded_tuple_and_string(self, tmp_path):
        assert (
            heartbeat_path(tmp_path, (2, 4)).name
            == "heartbeat.shard-2-of-4.json"
        )
        assert (
            metrics_path(tmp_path, "2/4").name == "metrics.shard-2-of-4.json"
        )


class TestAtomicJson:
    def test_reader_never_sees_partial_json(self, tmp_path):
        """Hammer writes while a reader loads: every read parses clean."""
        target = tmp_path / "heartbeat.json"
        write_atomic_json(target, {"n": -1, "pad": "x" * 4096})
        stop = threading.Event()
        failures: list[Exception] = []

        def writer():
            n = 0
            while not stop.is_set():
                write_atomic_json(target, {"n": n, "pad": "x" * 4096})
                n += 1

        def reader():
            while not stop.is_set():
                try:
                    data = json.loads(target.read_text())
                    assert "n" in data
                except Exception as exc:  # noqa: BLE001 - collected
                    failures.append(exc)

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2)
        ]
        for t in threads:
            t.start()
        threading.Event().wait(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert failures == []

    def test_no_temp_litter(self, tmp_path):
        write_atomic_json(tmp_path / "hb.json", {"a": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["hb.json"]

    def test_creates_parent_dirs(self, tmp_path):
        path = write_atomic_json(tmp_path / "a" / "b" / "hb.json", {})
        assert path.exists()


class TestStallDetection:
    def test_fresh_heartbeat_not_stalled(self):
        data = make_heartbeat(updated=1000.0).to_dict()
        assert not is_stalled(data, now=1000.5)

    def test_age_beyond_factor_times_interval_is_stalled(self):
        # interval 0.5s, factor 3 -> threshold 1.5s.
        data = make_heartbeat(updated=1000.0).to_dict()
        assert not is_stalled(data, now=1001.4)
        assert is_stalled(data, now=1001.6)

    def test_custom_factor(self):
        data = make_heartbeat(updated=1000.0).to_dict()
        assert is_stalled(data, now=1000.6, factor=1.0)
        assert not is_stalled(data, now=1000.6, factor=10.0)

    def test_final_heartbeat_never_stalls(self):
        data = make_heartbeat(final=True, updated=1000.0).to_dict()
        assert not is_stalled(data, now=99999.0)

    def test_age_clamped_nonnegative(self):
        data = make_heartbeat(updated=1000.0).to_dict()
        assert heartbeat_age(data, now=999.0) == 0.0


class TestIterHeartbeats:
    def test_orders_unsharded_then_shards(self, tmp_path):
        write_atomic_json(
            tmp_path / "heartbeat.shard-2-of-2.json",
            make_heartbeat(shard="2/2").to_dict(),
        )
        write_atomic_json(
            tmp_path / "heartbeat.shard-1-of-2.json",
            make_heartbeat(shard="1/2").to_dict(),
        )
        write_atomic_json(
            tmp_path / "heartbeat.json", make_heartbeat().to_dict()
        )
        labels = [label for label, _ in iter_heartbeats(tmp_path)]
        assert labels == [None, "1/2", "2/2"]

    def test_skips_torn_and_foreign_files(self, tmp_path):
        (tmp_path / "heartbeat.json").write_text("{not json")
        (tmp_path / "heartbeat.backup.json").write_text("{}")
        write_atomic_json(
            tmp_path / "heartbeat.shard-1-of-2.json",
            make_heartbeat(shard="1/2").to_dict(),
        )
        assert [label for label, _ in iter_heartbeats(tmp_path)] == ["1/2"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert iter_heartbeats(tmp_path / "nope") == []


class TestLiveProgress:
    def test_counters_and_phase(self):
        progress = LiveProgress(total=10, phase="scan")
        progress.add_done()
        progress.add_done(2)
        progress.add_failed()
        progress.set_phase("dispatch")
        assert progress.snapshot() == (3, 1, 10, "dispatch")

    def test_thread_safety_no_lost_updates(self):
        progress = LiveProgress(total=4000)

        def bump():
            for _ in range(1000):
                progress.add_done()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert progress.snapshot()[0] == 4000


class TestLiveFlusher:
    def _flusher(self, tmp_path, **kwargs) -> LiveFlusher:
        registry = kwargs.pop("registry", MetricsRegistry())
        progress = kwargs.pop("progress", LiveProgress(total=4))
        return LiveFlusher(
            tmp_path,
            "demo",
            progress=progress,
            registry=registry,
            **kwargs,
        )

    def test_flush_writes_valid_heartbeat_and_exposition(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("sim.route", path="fast").inc(4)
        flusher = self._flusher(tmp_path, registry=registry, interval=0.1)
        flusher.progress.add_done(2)
        flusher.flush()
        hb = json.loads(heartbeat_path(tmp_path).read_text())
        assert validate_heartbeat(hb) == []
        assert hb["tasks_done"] == 2
        assert hb["tasks_total"] == 4
        assert not hb["final"]
        metrics = json.loads(metrics_path(tmp_path).read_text())
        assert metrics["sim.route{path=fast}"] == {"type": "counter", "value": 4.0}

    def test_sharded_filenames(self, tmp_path):
        flusher = self._flusher(tmp_path, shard=(2, 3), interval=0.1)
        flusher.flush()
        assert heartbeat_path(tmp_path, (2, 3)).exists()
        assert metrics_path(tmp_path, (2, 3)).exists()
        hb = json.loads(heartbeat_path(tmp_path, (2, 3)).read_text())
        assert hb["shard"] == "2/3"

    def test_background_loop_flushes_until_stopped(self, tmp_path):
        flusher = self._flusher(tmp_path, interval=0.05)
        flusher.start()
        deadline = threading.Event()
        for _ in range(100):
            if flusher.flushes >= 3:
                break
            deadline.wait(0.05)
        flusher.stop(final=True)
        assert flusher.flushes >= 3
        assert not flusher.is_alive()
        hb = json.loads(heartbeat_path(tmp_path).read_text())
        assert hb["final"] is True

    def test_stop_final_false_leaves_nonfinal_heartbeat(self, tmp_path):
        flusher = self._flusher(tmp_path, interval=0.05)
        flusher.start()
        flusher.stop(final=False)
        hb = json.loads(heartbeat_path(tmp_path).read_text())
        assert hb["final"] is False
        # ... which is exactly what goes stale and trips the detector.
        assert is_stalled(hb, now=hb["updated"] + 10.0)

    def test_cache_hit_ratio_from_registry(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("runtime.cache.hits").inc(3)
        registry.counter("runtime.cache.misses").inc(1)
        flusher = self._flusher(tmp_path, registry=registry, interval=0.1)
        assert flusher.build_heartbeat().cache_hit_ratio == pytest.approx(0.75)

    def test_no_cache_traffic_means_null_ratio(self, tmp_path):
        flusher = self._flusher(tmp_path, interval=0.1)
        assert flusher.build_heartbeat().cache_hit_ratio is None

    def test_eta_projects_remaining_work(self, tmp_path):
        flusher = self._flusher(tmp_path, interval=0.1)
        flusher.progress.add_done(2)
        hb = flusher.build_heartbeat()
        assert hb.task_rate > 0
        assert hb.eta_s == pytest.approx(2 / hb.task_rate)

    def test_write_errors_counted_not_raised(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        flusher = LiveFlusher(
            blocker / "sub",
            "demo",
            progress=LiveProgress(total=1),
            registry=MetricsRegistry(),
            interval=0.1,
        )
        flusher.flush()
        assert flusher.write_errors == 1
        assert flusher.flushes == 0

    def test_nonpositive_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            self._flusher(tmp_path, interval=0.0)

    def test_context_manager_marks_final_on_clean_exit(self, tmp_path):
        with self._flusher(tmp_path, interval=5.0) as flusher:
            flusher.progress.add_done()
        hb = json.loads(heartbeat_path(tmp_path).read_text())
        assert hb["final"] is True and hb["tasks_done"] == 1

    def test_context_manager_nonfinal_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with self._flusher(tmp_path, interval=5.0):
                raise RuntimeError("boom")
        hb = json.loads(heartbeat_path(tmp_path).read_text())
        assert hb["final"] is False
