"""run_experiment: batching, resume, sharding, failure isolation."""

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentResults,
    ExperimentSpec,
    ExperimentStore,
    parse_shard,
    run_experiment,
    scenario_batch_spec,
    shard_tasks,
    sweep_spec,
)
from repro.exp.tasks import result_metrics, task_kind
from repro.runtime.cache import ResultCache, code_fingerprint
from repro.sim.vectorized import simulate_batch


@pytest.fixture
def spec():
    return scenario_batch_spec(
        "batch", "exp2-fc-dpm", [0, 1], policies=("conv-dpm", "fc-dpm")
    )


class TestShardMath:
    def test_parse_shard_accepts_string_and_tuple(self):
        assert parse_shard("2/4") == (2, 4)
        assert parse_shard((1, 3)) == (1, 3)
        assert parse_shard(None) is None

    def test_parse_shard_rejects_garbage(self):
        for bad in ("x/y", "0/2", "3/2", "2"):
            with pytest.raises(ConfigurationError):
                parse_shard(bad)

    def test_shards_partition_the_tasks(self, spec):
        tasks = spec.expand()
        slices = [shard_tasks(tasks, (i, 3)) for i in (1, 2, 3)]
        recombined = sorted(
            (t for s in slices for t in s), key=lambda t: t.index
        )
        assert recombined == tasks


class TestEphemeralRun:
    def test_matches_direct_simulate_batch(self, spec):
        run = run_experiment(spec)
        assert run.executed == 4 and run.failed == 0
        cells = ExperimentResults.from_run(run).by_cell()
        direct = simulate_batch("exp2-fc-dpm", [0, 1], ["conv-dpm", "fc-dpm"])
        for seed in (0, 1):
            for policy in ("conv-dpm", "fc-dpm"):
                assert cells[(seed, policy)] == result_metrics(
                    direct[seed][policy]
                )

    def test_workers_bit_identical(self, spec):
        serial = ExperimentResults.from_run(run_experiment(spec)).by_cell()
        fanned = ExperimentResults.from_run(
            run_experiment(spec, workers=2)
        ).by_cell()
        assert serial == fanned

    def test_ephemeral_run_leaves_no_state(self, spec, tmp_path):
        run_experiment(spec)
        # conftest redirects FCDPM_CACHE_DIR into tmp_path's sibling; an
        # ephemeral run must not create the experiments directory.
        from repro.exp.state import default_state_root

        assert not default_state_root().exists()

    def test_single_cell_equals_grouped(self):
        # A lone straggler cell re-executed alone must be bit-equal to
        # the same cell from a grouped batch call.
        lone = scenario_batch_spec("one", "exp2-fc-dpm", [1], policies=("fc-dpm",))
        grouped = scenario_batch_spec(
            "many", "exp2-fc-dpm", [0, 1], policies=("conv-dpm", "fc-dpm")
        )
        one = ExperimentResults.from_run(run_experiment(lone)).by_cell()
        many = ExperimentResults.from_run(run_experiment(grouped)).by_cell()
        assert one[(1, "fc-dpm")] == many[(1, "fc-dpm")]


class TestPersistedRun:
    def test_records_settle_and_link_cache_keys(self, spec, tmp_path):
        store = ExperimentStore(tmp_path / "exp")
        cache = ResultCache()
        run = run_experiment(spec, store=store, cache=cache)
        state = store.load(spec.name)
        assert state.status == "done"
        for record in state.tasks.values():
            assert record.settled
            assert record.cache_key
            # Each entry carries its provenance inline, under this code.
            provenance, _ = cache.read(record.cache_key)
            assert provenance["fingerprint"] == code_fingerprint()
        # ... and nothing else is written beside the entries.
        assert {p.suffix for p in cache.root.iterdir() if p.is_file()} == {".pkl"}
        assert run.executed == spec.n_tasks

    def test_second_run_resumes_everything(self, spec, tmp_path):
        store = ExperimentStore(tmp_path / "exp")
        cache = ResultCache()
        first = run_experiment(spec, store=store, cache=cache)
        second = run_experiment(spec, store=store, cache=cache)
        assert first.executed == spec.n_tasks
        assert second.executed == 0
        assert second.resumed == spec.n_tasks
        assert ExperimentResults.from_run(second).by_cell() == \
            ExperimentResults.from_run(first).by_cell()

    def test_resume_false_reexecutes(self, spec, tmp_path):
        store = ExperimentStore(tmp_path / "exp")
        cache = ResultCache()
        run_experiment(spec, store=store, cache=cache)
        again = run_experiment(spec, store=store, cache=cache, resume=False)
        assert again.executed == spec.n_tasks and again.resumed == 0

    def test_manifestless_entry_is_not_trusted(self, spec, tmp_path):
        store = ExperimentStore(tmp_path / "exp")
        cache = ResultCache()
        run_experiment(spec, store=store, cache=cache)
        # Tear one entry (its checksum no longer matches); resume must
        # recompute that task instead of trusting what is left.
        key = store.load(spec.name).tasks["t00000"].cache_key
        path = cache.root / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:-1])
        again = run_experiment(spec, store=store, cache=cache)
        assert again.executed == 1
        assert again.resumed == spec.n_tasks - 1

    def test_evicted_entry_reverts_to_defined_and_recomputes(
        self, spec, tmp_path
    ):
        store = ExperimentStore(tmp_path / "exp")
        cache = ResultCache()
        run_experiment(spec, store=store, cache=cache)
        key = store.load(spec.name).tasks["t00001"].cache_key
        cache.clear()
        again = run_experiment(spec, store=store, cache=cache)
        assert again.executed == spec.n_tasks  # everything was evicted
        state = store.load(spec.name)
        assert state.tasks["t00001"].cache_key  # re-settled
        assert state.status == "done"

    def test_sharded_runs_merge_to_full_result(self, spec, tmp_path):
        store = ExperimentStore(tmp_path / "exp")
        cache = ResultCache()
        store.define(spec)
        r1 = run_experiment(spec.name, store=store, cache=cache, shard="1/2")
        r2 = run_experiment(spec.name, store=store, cache=cache, shard="2/2")
        assert r1.executed + r2.executed == spec.n_tasks
        merged = store.merge(spec.name)
        assert merged.status == "done"
        full = ExperimentResults.from_run(run_experiment(spec)).by_cell()
        assert ExperimentResults.load(merged, cache).by_cell() == full

    def test_state_saves_do_not_grow_with_the_cell_count(
        self, tmp_path, monkeypatch
    ):
        # define + resume scan + one per simulate_batch group + final,
        # whether the group holds 12 cells or 192.
        calls = []
        save = ExperimentStore.save

        def counting_save(self, state, shard=None):
            calls.append(state.spec.name)
            return save(self, state, shard=shard)

        monkeypatch.setattr(ExperimentStore, "save", counting_save)
        counts = {}
        for n_seeds in (4, 64):
            name = f"saves{n_seeds}"
            spec = scenario_batch_spec(
                name, "exp2-conv-dpm", range(n_seeds),
                policies=("conv-dpm", "asap-dpm", "fc-dpm"),
            )
            store = ExperimentStore(tmp_path / name)
            cache = ResultCache(tmp_path / name / "cache")
            run = run_experiment(spec, store=store, cache=cache)
            assert run.executed == 3 * n_seeds
            counts[n_seeds] = calls.count(name)
        assert counts == {4: 4, 64: 4}

    def test_run_by_name_requires_store(self):
        with pytest.raises(ConfigurationError, match="requires a store"):
            run_experiment("whatever")

    def test_run_manifest_written(self, spec, tmp_path):
        store = ExperimentStore(tmp_path / "exp")
        run_experiment(spec, store=store, cache=ResultCache())
        path = store.experiment_dir(spec.name) / "manifest.json"
        assert path.exists()
        from repro.obs import validate_manifest
        import json

        assert validate_manifest(json.loads(path.read_text())) == []


class TestFailureIsolation:
    def test_failing_kind_records_failed_not_raises(self, tmp_path):
        @task_kind("test.boom")
        def _boom(task):
            raise ValueError(f"boom on seed {task.seed}")

        try:
            spec = ExperimentSpec(name="f", kind="test.boom", seeds=(0, 1))
            store = ExperimentStore(tmp_path / "exp")
            run = run_experiment(spec, store=store, cache=ResultCache())
            assert run.failed == 2 and run.executed == 0
            state = store.load("f")
            assert state.status == "failed"
            assert "boom on seed 0" in state.tasks["t00000"].error
        finally:
            from repro.exp.tasks import TASK_KINDS

            TASK_KINDS.pop("test.boom", None)

    def test_unknown_kind_is_a_recorded_failure(self, tmp_path):
        spec = ExperimentSpec(name="u", kind="no-such-kind", seeds=(0,))
        run = run_experiment(spec)
        assert run.failed == 1


class TestSweepKinds:
    def test_sweep_spec_runs_and_reduces(self):
        spec = sweep_spec("recharge", [0.25, 0.75], seed=3)
        run = run_experiment(spec)
        by_knob = ExperimentResults.from_run(run).by_knob("threshold")
        assert list(by_knob) == [0.25, 0.75]
        assert all(isinstance(v, float) for v in by_knob.values())


class TestLiveRun:
    def test_live_run_writes_final_heartbeat_and_exposition(self, tmp_path, spec):
        import json

        from repro.obs import observing
        from repro.obs.live import (
            heartbeat_path,
            metrics_path,
            validate_heartbeat,
        )

        store = ExperimentStore(tmp_path / "exp")
        # As `fcdpm exp run --live` does: record into a fresh registry.
        with observing():
            run = run_experiment(spec, store=store, cache=ResultCache(), live=0.1)
        assert run.executed == 4 and run.failed == 0
        exp_dir = store.experiment_dir(spec.name)
        hb = json.loads(heartbeat_path(exp_dir).read_text())
        assert validate_heartbeat(hb) == []
        assert hb["final"] is True
        assert hb["phase"] == "done"
        assert hb["tasks_done"] == 4 and hb["tasks_total"] == 4
        metrics = json.loads(metrics_path(exp_dir).read_text())
        assert all(isinstance(v.get("type"), str) for v in metrics.values())
        done = [
            v for k, v in metrics.items() if k.partition("{")[0] == "exp.tasks_done"
        ]
        assert done and all(v["type"] == "counter" for v in done)
        assert sum(v["value"] for v in done) == 4

    def test_sharded_live_run_uses_shard_sidecar_names(self, tmp_path, spec):
        import json

        from repro.obs.live import heartbeat_path

        store = ExperimentStore(tmp_path / "exp")
        run_experiment(
            spec, store=store, cache=ResultCache(), shard="1/2", live=0.1
        )
        exp_dir = store.experiment_dir(spec.name)
        hb = json.loads(heartbeat_path(exp_dir, (1, 2)).read_text())
        assert hb["shard"] == "1/2"
        assert hb["tasks_done"] == 2 and hb["tasks_total"] == 2
        assert not heartbeat_path(exp_dir).exists()

    def test_aborted_live_run_leaves_nonfinal_heartbeat(
        self, tmp_path, spec, monkeypatch
    ):
        import json

        from repro.exp import AbortRun
        from repro.obs.live import heartbeat_path, is_stalled

        store = ExperimentStore(tmp_path / "exp")
        monkeypatch.setenv("FCDPM_EXP_ABORT_AFTER", "2")
        with pytest.raises(AbortRun):
            run_experiment(spec, store=store, cache=ResultCache(), live=0.1)
        hb = json.loads(heartbeat_path(store.experiment_dir(spec.name)).read_text())
        assert hb["final"] is False
        assert hb["phase"] == "aborted"
        assert hb["tasks_done"] == 2
        # The non-final heartbeat goes stale -> the watcher flags it.
        assert is_stalled(hb, now=hb["updated"] + 10.0)

    def test_live_off_writes_nothing(self, tmp_path, spec, monkeypatch):
        from repro.obs.live import heartbeat_path

        monkeypatch.delenv("FCDPM_LIVE_INTERVAL", raising=False)
        store = ExperimentStore(tmp_path / "exp")
        run_experiment(spec, store=store, cache=ResultCache())
        assert not heartbeat_path(store.experiment_dir(spec.name)).exists()

    def test_resumed_tasks_count_toward_heartbeat_done(self, tmp_path, spec):
        import json

        from repro.obs.live import heartbeat_path

        store = ExperimentStore(tmp_path / "exp")
        cache = ResultCache()
        run_experiment(spec, store=store, cache=cache)
        run = run_experiment(spec, store=store, cache=cache, live=0.1)
        assert run.resumed == 4
        hb = json.loads(heartbeat_path(store.experiment_dir(spec.name)).read_text())
        assert hb["tasks_done"] == 4 and hb["final"] is True
