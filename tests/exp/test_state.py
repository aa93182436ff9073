"""Lifecycle store: persistence, schema validation, shard merge."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentState,
    ExperimentStore,
    run_experiment,
    scenario_batch_spec,
    validate_state_dict,
)


@pytest.fixture
def spec():
    return scenario_batch_spec(
        "demo", "exp2-fc-dpm", [0, 1], policies=("conv-dpm", "fc-dpm")
    )


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "experiments")


class TestStateRoundTrip:
    def test_define_marks_every_task_defined(self, spec):
        state = ExperimentState.define(spec)
        assert state.status == "defined"
        assert len(state.tasks) == spec.n_tasks
        assert all(r.status == "defined" for r in state.tasks.values())

    def test_to_from_dict(self, spec):
        state = ExperimentState.define(spec)
        state.tasks["t00000"].status = "done"
        state.tasks["t00000"].cache_key = "abc123"
        again = ExperimentState.from_dict(state.to_dict())
        assert again.spec == spec
        assert again.tasks["t00000"].status == "done"
        assert again.tasks["t00000"].cache_key == "abc123"

    def test_derive_status(self, spec):
        state = ExperimentState.define(spec)
        assert state.derive_status() == "defined"
        records = list(state.tasks.values())
        records[0].status = "done"
        assert state.derive_status() == "running"
        for record in records:
            record.status = "done"
        assert state.derive_status() == "done"
        records[0].status = "failed"
        assert state.derive_status() == "failed"

    def test_valid_state_passes_schema_check(self, spec):
        state = ExperimentState.define(spec)
        assert validate_state_dict(state.to_dict()) == []


class TestSchemaValidation:
    def test_rejects_non_dict(self):
        assert validate_state_dict([]) != []

    def test_rejects_bad_version(self, spec):
        data = ExperimentState.define(spec).to_dict()
        data["schema_version"] = 99
        assert any("schema_version" in p for p in validate_state_dict(data))

    def test_rejects_tampered_hash(self, spec):
        data = ExperimentState.define(spec).to_dict()
        data["spec_hash"] = "0" * 16
        assert any("spec_hash" in p for p in validate_state_dict(data))

    def test_rejects_missing_task(self, spec):
        data = ExperimentState.define(spec).to_dict()
        data["tasks"].popitem()
        assert any("task ids disagree" in p for p in validate_state_dict(data))

    def test_rejects_settled_without_cache_key(self, spec):
        data = ExperimentState.define(spec).to_dict()
        data["tasks"]["t00000"]["status"] = "done"
        assert any("cache_key" in p for p in validate_state_dict(data))

    def test_rejects_unknown_status(self, spec):
        data = ExperimentState.define(spec).to_dict()
        data["tasks"]["t00000"]["status"] = "paused"
        assert any("unknown status" in p for p in validate_state_dict(data))

    def test_rejects_unknown_spec_key(self, spec):
        data = ExperimentState.define(spec).to_dict()
        data["spec"]["fast"] = True
        problems = validate_state_dict(data)
        assert any("round-trip" in p and "'fast'" in p for p in problems)


class TestStore:
    def test_save_load_round_trip(self, store, spec):
        state = store.define(spec)
        loaded = store.load(spec.name)
        assert loaded.spec == state.spec
        assert set(loaded.tasks) == set(state.tasks)

    def test_load_missing_raises(self, store):
        with pytest.raises(ConfigurationError, match="no experiment"):
            store.load("nope")

    def test_redefine_same_spec_is_idempotent(self, store, spec):
        store.define(spec)
        state = store.define(spec)  # no error, returns existing
        assert state.spec == spec

    def test_redefine_different_spec_requires_overwrite(self, store, spec):
        store.define(spec)
        other = scenario_batch_spec("demo", "exp2-fc-dpm", [0, 1, 2])
        with pytest.raises(ConfigurationError, match="different"):
            store.define(other)
        state = store.define(other, overwrite=True)
        assert state.spec == other

    def test_names_lists_defined_experiments(self, store, spec):
        assert store.names() == []
        store.define(spec)
        assert store.names() == ["demo"]

    def test_refuses_to_resume_state_with_unknown_spec_key(self, store, spec):
        data = store.define(spec).to_dict()
        data["spec"]["fast"] = True
        store.state_path(spec.name).write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="'fast'"):
            run_experiment(spec.name, store=store)

    def test_state_naming_an_unregistered_scenario_names_the_file(
        self, store, monkeypatch
    ):
        # A scenario registered by another process is unknown here; the
        # refusal must say which state file asked for it.
        from dataclasses import replace

        from repro.scenario import get_scenario, register, registry

        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        register(replace(get_scenario("exp2-fc-dpm"), name="elsewhere"))
        store.define(scenario_batch_spec("far", "elsewhere", [0]))
        del registry._REGISTRY["elsewhere"]
        path = store.state_path("far")
        with pytest.raises(ConfigurationError) as excinfo:
            store.load("far")
        assert str(path) in str(excinfo.value)
        assert "unknown scenario 'elsewhere'" in str(excinfo.value)

    def test_atomic_save_leaves_no_temp_files(self, store, spec):
        store.define(spec)
        leftovers = list(store.experiment_dir("demo").glob("*.tmp"))
        assert leftovers == []


class TestMerge:
    def test_shards_fold_into_main_state(self, store, spec):
        store.define(spec)
        # Simulate two shard runs, each settling its own slice.
        for i in (1, 2):
            shard_state = store.load(spec.name)
            for task in spec.expand():
                if task.index % 2 == i - 1:
                    record = shard_state.tasks[task.task_id]
                    record.status = "done"
                    record.cache_key = f"key-{task.task_id}"
                    record.shard = f"{i}/2"
            store.save(shard_state, shard=(i, 2))
        merged = store.merge(spec.name)
        assert merged.status == "done"
        assert all(r.settled for r in merged.tasks.values())
        # Shard ownership is recorded per task.
        shards = {r.shard for r in merged.tasks.values()}
        assert shards == {"1/2", "2/2"}

    def test_done_wins_over_failed(self, store, spec):
        store.define(spec)
        shard_state = store.load(spec.name)
        shard_state.tasks["t00000"].status = "failed"
        store.save(shard_state, shard=(1, 2))
        main = store.load(spec.name)
        main.tasks["t00000"].status = "done"
        main.tasks["t00000"].cache_key = "k"
        store.save(main)
        merged = store.merge(spec.name)
        assert merged.tasks["t00000"].status == "done"

    def test_merge_rejects_foreign_shard(self, store, spec, tmp_path):
        store.define(spec)
        other = scenario_batch_spec("demo", "exp2-fc-dpm", [5])
        foreign = ExperimentState.define(other)
        path = store.state_path("demo", shard=(1, 2))
        path.write_text(json.dumps(foreign.to_dict()))
        with pytest.raises(ConfigurationError, match="different spec"):
            store.merge("demo")
