"""Lifecycle store: persistence, the validating reader, shard merge."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentState,
    ExperimentStore,
    run_experiment,
    scenario_batch_spec,
    sweep_spec,
)


@pytest.fixture
def spec():
    return scenario_batch_spec(
        "demo", "exp2-fc-dpm", [0, 1], policies=("conv-dpm", "fc-dpm")
    )


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "experiments")


def _load_error(store, spec, edit=None, text=None) -> str:
    """Define ``spec``, then write its ``state.json`` payload changed in
    place by ``edit`` (or replaced by ``text``), and return what the
    reader refuses it with (always naming the file)."""
    data = store.define(spec).to_dict()
    if edit is not None:
        edit(data)
    path = store.state_path(spec.name)
    path.write_text(json.dumps(data) if text is None else text)
    with pytest.raises(ConfigurationError) as excinfo:
        store.load(spec.name)
    message = str(excinfo.value)
    assert str(path) in message
    return message


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

    def test_valid_state_passes_schema_check(self, store, spec):
        state = store.define(spec)
        assert store.load(spec.name).to_dict() == state.to_dict()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: scenario_batch_spec("a", "exp2-fc-dpm", [0, 1, 2]),
            lambda: scenario_batch_spec(
                "b", "exp2-fc-dpm", [4, 0], policies=("conv-dpm", "fc-dpm")
            ),
            lambda: sweep_spec("recharge", [0.25, 0.5, 0.75], seed=3),
        ],
    )
    def test_positional_task_ids_agree_with_the_expansion(self, make):
        # The reader checks ids against t{index:05d} over n_tasks
        # instead of expanding the spec a second time.
        spec = make()
        expanded = [task.task_id for task in spec.expand()]
        assert expanded == [f"t{i:05d}" for i in range(spec.n_tasks)]
        data = ExperimentState.define(spec).to_dict()
        assert ExperimentState.from_dict(data).to_dict() == data


class TestSchemaValidation:
    """Each malformed ``state.json`` is one more input to the reader."""

    def test_rejects_non_dict(self, store, spec):
        message = _load_error(store, spec, text="[]")
        assert "JSON object" in message

    def test_rejects_bad_version(self, store, spec):
        message = _load_error(
            store, spec, lambda data: data.update(schema_version=99)
        )
        assert "schema_version" in message

    def test_rejects_tampered_hash(self, store, spec):
        message = _load_error(
            store, spec, lambda data: data.update(spec_hash="0" * 16)
        )
        assert "spec_hash" in message

    def test_rejects_missing_task(self, store, spec):
        message = _load_error(store, spec, lambda data: data["tasks"].popitem())
        assert "task ids disagree" in message

    def test_rejects_settled_without_cache_key(self, store, spec):
        message = _load_error(
            store, spec,
            lambda data: data["tasks"]["t00000"].update(status="done"),
        )
        assert "t00000: settled without a cache_key" in message

    def test_rejects_unknown_status(self, store, spec):
        message = _load_error(
            store, spec,
            lambda data: data["tasks"]["t00000"].update(status="paused"),
        )
        assert "unknown status 'paused'" in message

    def test_rejects_unknown_spec_key(self, store, spec):
        message = _load_error(
            store, spec, lambda data: data["spec"].update(fast=True)
        )
        assert "'fast'" in message

    def test_rejects_record_without_status(self, store, spec):
        # Used to load as "defined", and `exp status` exited 0.
        message = _load_error(
            store, spec, lambda data: data["tasks"]["t00001"].pop("status")
        )
        assert "t00001: missing key 'status'" in message

    @pytest.mark.parametrize(
        "key", ["name", "status", "created", "updated", "fingerprint", "tasks"]
    )
    def test_rejects_missing_state_key(self, store, spec, key):
        message = _load_error(store, spec, lambda data: data.pop(key))
        assert f"missing key {key!r}" in message

    def test_rejects_state_key_the_writer_never_writes(self, store, spec):
        message = _load_error(store, spec, lambda data: data.update(note="x"))
        assert "unknown key 'note'" in message

    def test_rejects_record_key_the_writer_never_writes(self, store, spec):
        message = _load_error(
            store, spec, lambda data: data["tasks"]["t00003"].update(retries=2)
        )
        assert "t00003: unknown key 'retries'" in message

    def test_rejects_unknown_experiment_status(self, store, spec):
        message = _load_error(store, spec, lambda data: data.update(status="paused"))
        assert "unknown experiment status 'paused'" in message

    def test_rejects_name_other_than_the_spec_name(self, store, spec):
        message = _load_error(store, spec, lambda data: data.update(name="other"))
        assert "spec name 'demo'" in message

    def test_rejects_malformed_spec(self, store, spec):
        message = _load_error(store, spec, lambda data: data["spec"].pop("kind"))
        assert "malformed spec" in message and "'kind'" in message

    def test_rejects_task_id_mismatch(self, store, spec):
        message = _load_error(
            store, spec,
            lambda data: data["tasks"]["t00002"].update(task_id="t00003"),
        )
        assert "t00002: task_id 't00003' mismatch" in message

    def test_rejects_non_object_record(self, store, spec):
        message = _load_error(
            store, spec, lambda data: data["tasks"].update(t00000=None)
        )
        assert "t00000: record must be an object" in message


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

    def test_save_writes_sorted_indented_json_and_returns_the_path(
        self, store, spec
    ):
        state = ExperimentState.define(spec)
        path = store.save(state)
        assert path == store.state_path(spec.name)
        expected = json.dumps(state.to_dict(), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected


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

    def test_merge_refuses_shard_with_unknown_status(self, store, spec):
        # Used to die with KeyError: 'bogus' in the merge ranking.
        store.define(spec)
        shard_state = store.load(spec.name)
        shard_state.tasks["t00000"].status = "bogus"
        path = store.save(shard_state, shard=(1, 2))
        with pytest.raises(ConfigurationError) as excinfo:
            store.merge(spec.name)
        message = str(excinfo.value)
        assert str(path) in message and "unknown status 'bogus'" in message

    def test_merge_refuses_torn_shard(self, store, spec):
        store.define(spec)
        path = store.save(store.load(spec.name), shard=(2, 2))
        path.write_text(path.read_text()[:40])
        with pytest.raises(ConfigurationError, match="unreadable state file"):
            store.merge(spec.name)
