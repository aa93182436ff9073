"""Crash drills: a killed or corrupted store never yields a wrong value.

* A child interpreter is hard-killed (``os._exit``) in the middle of a
  ``simulate_batch`` group, after ``k`` cache entries were stored.  The
  ``state.json`` it leaves must validate, may lag the cache but never
  claim a ``done`` the cache cannot back, and the resume must pick up
  exactly the ``k`` stored cells.
* A truncated ``state.json`` is refused with a ``ConfigurationError``.
* A truncated or bit-flipped cache entry reads as a miss, and
  ``ExperimentResults.load`` raises naming the task; a resume re-runs
  exactly that cell.
* Swapped ``cache_key`` records still read each cell its own value; a
  record under a key this code version does not derive reads as a miss
  that names the cause.
* A spec edited by hand in ``state.json`` (or in a shard sidecar) no
  longer matches its ``spec_hash`` and is refused, naming the file.
"""

import json
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentResults,
    ExperimentStore,
    run_experiment,
    scenario_batch_spec,
)
from repro.exp.runner import verified_in_cache
from repro.exp.state import validate_state_dict
from repro.exp.tasks import result_metrics
from repro.runtime.cache import ResultCache, code_fingerprint
from repro.sim.vectorized import simulate_batch

SEEDS = [0, 1, 2]
POLICIES = ("conv-dpm", "fc-dpm")
KILL_AFTER = 3
SRC = Path(__file__).resolve().parents[2] / "src"

# Runs in a fresh interpreter: kill the process right after the k-th
# cache entry landed, mid-way through the group.
CHILD = textwrap.dedent(
    """
    import os, sys
    from repro.exp import ExperimentStore, run_experiment
    from repro.runtime.cache import ResultCache

    root, name, k = sys.argv[1], sys.argv[2], int(sys.argv[3])
    store_entry = ResultCache.store
    stored = []

    def store_then_die(self, *args, **kwargs):
        key = store_entry(self, *args, **kwargs)
        stored.append(key)
        if len(stored) == k:
            os._exit(9)
        return key

    ResultCache.store = store_then_die
    run_experiment(
        name,
        store=ExperimentStore(os.path.join(root, "experiments")),
        cache=ResultCache(os.path.join(root, "cache")),
    )
    sys.exit("run finished without being killed")
    """
)


@pytest.fixture
def spec():
    return scenario_batch_spec("crash", "exp2-fc-dpm", SEEDS, policies=POLICIES)


def _direct():
    out = simulate_batch("exp2-fc-dpm", SEEDS, list(POLICIES))
    return {(s, p): result_metrics(out[s][p]) for s in SEEDS for p in POLICIES}


def _finished(spec, tmp_path):
    store = ExperimentStore(tmp_path / "experiments")
    cache = ResultCache(tmp_path / "cache")
    run_experiment(spec, store=store, cache=cache)
    return store, cache


class TestHardKill:
    def test_kill_mid_group_leaves_a_resumable_state(self, spec, tmp_path):
        store = ExperimentStore(tmp_path / "experiments")
        cache = ResultCache(tmp_path / "cache")
        store.define(spec)
        path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(tmp_path), spec.name, str(KILL_AFTER)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 9, child.stderr

        data = json.loads(store.state_path(spec.name).read_text())
        assert validate_state_dict(data) == []
        fingerprint = code_fingerprint()
        for task_id, record in data["tasks"].items():
            if record["status"] == "done":
                assert verified_in_cache(cache, record["cache_key"], fingerprint), task_id

        resumed = run_experiment(spec.name, store=store, cache=cache)
        assert resumed.resumed == KILL_AFTER
        assert resumed.executed == spec.n_tasks - KILL_AFTER
        assert resumed.failed == 0
        final = store.load(spec.name)
        assert final.status == "done"
        assert ExperimentResults.load(final, cache).by_cell() == _direct()


class TestCorruption:
    def test_truncated_state_is_refused(self, spec, tmp_path):
        store, _ = _finished(spec, tmp_path)
        path = store.state_path(spec.name)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ConfigurationError, match="unreadable state file"):
            store.load(spec.name)

    @pytest.mark.parametrize("damage", ["truncate", "bit-flip"])
    def test_damaged_entry_is_a_miss_and_load_names_the_task(
        self, spec, tmp_path, damage
    ):
        store, cache = _finished(spec, tmp_path)
        state = store.load(spec.name)
        record = state.tasks["t00001"]
        value = cache.get(record.cache_key)
        path = cache.root / f"{record.cache_key}.pkl"
        data = bytearray(path.read_bytes())
        if damage == "truncate":
            data = data[: len(data) // 2]
        else:
            # Lowest mantissa bit of the fuel number: still a valid pickle.
            at = bytes(data).index(struct.pack(">d", value["fuel"])) + 7
            data[at] ^= 1
        path.write_bytes(bytes(data))

        sentinel = object()
        assert cache.get(record.cache_key, sentinel) is sentinel
        with pytest.raises(
            ConfigurationError,
            match=r"t00001 \(evicted or corrupt in cache; 'fcdpm exp run' re-runs it\)",
        ):
            ExperimentResults.load(state, cache)

    def test_resume_re_executes_a_bit_flipped_entry(self, spec, tmp_path):
        store, cache = _finished(spec, tmp_path)
        key = store.load(spec.name).tasks["t00000"].cache_key
        path = cache.root / f"{key}.pkl"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))

        again = run_experiment(spec.name, store=store, cache=cache)
        assert (again.executed, again.resumed) == (1, spec.n_tasks - 1)
        assert again.state.tasks["t00000"].resumed is False
        results = ExperimentResults.load(store.load(spec.name), cache)
        assert results.by_cell() == _direct()

    def test_swapped_cache_keys_read_each_cell_its_own_value(self, spec, tmp_path):
        store, cache = _finished(spec, tmp_path)
        path = store.state_path(spec.name)
        data = json.loads(path.read_text())
        tasks = data["tasks"]
        tasks["t00000"]["cache_key"], tasks["t00001"]["cache_key"] = (
            tasks["t00001"]["cache_key"],
            tasks["t00000"]["cache_key"],
        )
        path.write_text(json.dumps(data))
        state = store.load(spec.name)
        assert ExperimentResults.load(state, cache).by_cell() == _direct()

    def test_edited_spec_is_refused(self, spec, tmp_path):
        store, _ = _finished(spec, tmp_path)
        path = store.state_path(spec.name)
        data = json.loads(path.read_text())
        recorded = data["spec_hash"]
        data["spec"]["seeds"] = [0, 1, 5]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError) as excinfo:
            store.load(spec.name)
        message = str(excinfo.value)
        assert str(path) in message and recorded in message
        edited = scenario_batch_spec("crash", "exp2-fc-dpm", [0, 1, 5], policies=POLICIES)
        assert edited.content_hash in message

    def test_edited_shard_spec_is_refused_by_merge(self, spec, tmp_path):
        store, _ = _finished(spec, tmp_path)
        data = json.loads(store.state_path(spec.name).read_text())
        data["spec"]["seeds"] = [0, 1, 5]
        shard = store.state_path(spec.name, (1, 2))
        shard.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match="spec_hash") as excinfo:
            store.merge(spec.name)
        assert str(shard) in str(excinfo.value)

    def test_value_recorded_under_another_key_names_the_cause(self, spec, tmp_path):
        # A record whose key this code version does not derive (another
        # fingerprint) reads as a miss that says so, not as corruption.
        store, cache = _finished(spec, tmp_path)
        state = store.load(spec.name)
        record = state.tasks["t00001"]
        (cache.root / f"{record.cache_key}.pkl").unlink()
        record.cache_key = "0" * 32
        with pytest.raises(ConfigurationError, match=r"t00001 \(recorded under another code"):
            ExperimentResults.load(state, cache)
