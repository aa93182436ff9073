"""Crash drills: a killed or corrupted store never yields a wrong value.

* A child interpreter is hard-killed (``os._exit``) in the middle of a
  ``simulate_batch`` group, after ``k`` cache entries were stored.  The
  ``state.json`` it leaves must validate, may lag the cache but never
  claim a ``done`` the cache cannot back, and the resume must pick up
  exactly the ``k`` stored cells.
* A truncated ``state.json`` is refused with a ``ConfigurationError``.
* A truncated or bit-flipped cache entry reads as a miss, and
  ``ExperimentResults.load`` raises naming the task.
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
# cache entry (pickle + manifest) landed, mid-way through the group.
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
        with pytest.raises(ConfigurationError, match=r"t00001 \(evicted or corrupt"):
            ExperimentResults.load(state, cache)
