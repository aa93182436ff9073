"""Unit tests for the on-disk result cache: key stability + invalidation."""

import json
import pickle
import struct

from repro.runtime.cache import ResultCache, cache_key, code_fingerprint


class TestCacheKey:
    def test_stable_across_calls(self):
        assert cache_key("t2", {"seed": 1}) == cache_key("t2", {"seed": 1})

    def test_dict_order_does_not_matter(self):
        assert cache_key("x", {"a": 1, "b": 2}) == cache_key("x", {"b": 2, "a": 1})

    def test_config_change_invalidates(self):
        base = cache_key("table2", {"seed": 2007, "capacity": 6.0})
        assert cache_key("table2", {"seed": 2008, "capacity": 6.0}) != base
        assert cache_key("table2", {"seed": 2007, "capacity": 12.0}) != base

    def test_namespace_separates(self):
        assert cache_key("table2", {"seed": 1}) != cache_key("table3", {"seed": 1})

    def test_code_version_invalidates(self):
        real = cache_key("t", {"s": 1})
        other = cache_key("t", {"s": 1}, fingerprint="0" * 16)
        assert real != other

    def test_fingerprint_is_cached_and_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_fingerprint_covers_whole_tree(self, tmp_path):
        # Any added module under the root must change the fingerprint --
        # the "code version" invalidation covers the full package tree.
        pkg = tmp_path / "pkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "a.py").write_text("A = 1\n")
        (pkg / "sub" / "b.py").write_text("B = 2\n")
        base = code_fingerprint(root=pkg)
        assert code_fingerprint(root=pkg) == base

        (pkg / "sub" / "c.py").write_text("C = 3\n")
        added = code_fingerprint(root=pkg)
        assert added != base

        (pkg / "sub" / "b.py").write_text("B = 99\n")
        assert code_fingerprint(root=pkg) != added

    def test_explicit_root_does_not_poison_default_cache(self, tmp_path):
        default = code_fingerprint()
        (tmp_path / "x.py").write_text("X = 1\n")
        assert code_fingerprint(root=tmp_path) != default
        assert code_fingerprint() == default


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.store("ns", {"seed": 1}, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        provenance, value = cache.read(key)
        assert value == {"answer": 42}
        assert provenance["name"] == "ns"

    def test_miss_returns_default(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.get("absent", default="nope") == "nope"
        assert cache.read("absent") is None
        assert cache.misses == 1

    def test_cached_computes_once(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        calls = []

        def compute():
            calls.append(1)
            return [1.0, 2.0]

        assert cache.cached("exp", {"seed": 0}, compute) == [1.0, 2.0]
        assert cache.cached("exp", {"seed": 0}, compute) == [1.0, 2.0]
        assert len(calls) == 1

    def test_cached_recomputes_on_param_change(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        calls = []
        for seed in (0, 1):
            cache.cached("exp", {"seed": seed}, lambda: calls.append(1) or seed)
        assert len(calls) == 2

    def test_disabled_cache_always_recomputes(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        calls = []
        for _ in range(2):
            cache.cached("exp", {}, lambda: calls.append(1) or 7)
        assert len(calls) == 2
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.store("ns", {}, 1)
        next(tmp_path.glob("*.pkl")).write_bytes(b"not a pickle")
        assert cache.get(key, default="fallback") == "fallback"
        assert cache.read(key) is None

    def test_flipped_bit_and_short_entry_are_misses(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.store("ns", {}, {"fuel": 846.404})
        path = next(tmp_path.glob("*.pkl"))
        data = bytearray(path.read_bytes())
        # A bit inside the float still unpickles -- to a wrong value.
        at = bytes(data).index(struct.pack(">d", 846.404)) + 7
        data[at] ^= 1
        path.write_bytes(bytes(data))
        pickled = bytes(data).partition(b"\n")[2][: -32]
        assert pickle.loads(pickled) != {"fuel": 846.404}
        assert cache.get(key, default="miss") == "miss"
        path.write_bytes(b"\x80")
        assert cache.get(key, default="miss") == "miss"

    def test_flipped_provenance_byte_is_a_miss(self, tmp_path):
        # The checksum covers the provenance line too.
        cache = ResultCache(root=tmp_path)
        key = cache.store("ns", {"seed": 1}, 42)
        path = next(tmp_path.glob("*.pkl"))
        data = bytearray(path.read_bytes())
        data[data.index(b'"ns"') + 1] ^= 1
        path.write_bytes(bytes(data))
        assert cache.read(key) is None

    def test_unwritable_root_is_silent(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        cache = ResultCache(root=target)
        key = cache.store("ns", {}, 1)  # must not raise
        assert cache.get(key) is None

    def test_unpicklable_value_is_silent(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        # lambdas don't pickle; must not raise
        key = cache.store("ns", {}, lambda: None)
        assert cache.get(key) is None
        assert list(tmp_path.iterdir()) == []

    def test_clear(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        a = cache.store("ns", {"seed": 0}, 1)
        cache.store("ns", {"seed": 1}, 2)
        assert cache.clear() == 2
        assert cache.read(a) is None
        assert cache.clear() == 0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.store("ns", {}, list(range(1000)))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_values_survive_new_instance(self, tmp_path):
        key = ResultCache(root=tmp_path).store("ns", {}, "persisted")
        assert ResultCache(root=tmp_path).get(key) == "persisted"


class TestStore:
    def test_store_then_cached_hits(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        key = cache.store("ns", {"seed": 1}, {"fuel": 2.0}, wall_s=0.5)
        assert cache.read(key) is not None
        # cached() must serve the stored value without recomputing.
        value = cache.cached("ns", {"seed": 1}, lambda: pytest_fail())
        assert value == {"fuel": 2.0}

    def test_store_writes_provenance_manifest(self, tmp_path):
        from repro.obs import validate_manifest

        cache = ResultCache(root=tmp_path)
        key = cache.store("ns", {"seed": 1}, 42, wall_s=0.5)
        # One file per entry: provenance line, pickle, SHA-256 trailer.
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.pkl"]
        line = (tmp_path / f"{key}.pkl").read_bytes().partition(b"\n")[0]
        manifest = json.loads(line)
        assert validate_manifest(manifest) == []
        assert manifest["name"] == "ns"
        assert manifest["params"] == {"seed": 1}
        assert manifest["route"] == "cached"
        assert manifest["wall_s"] == 0.5
        assert manifest["fingerprint"] == code_fingerprint()
        assert cache.read(key) == (manifest, 42)

    def test_disabled_store_returns_key_without_writing(self, tmp_path):
        cache = ResultCache(root=tmp_path, enabled=False)
        key = cache.store("ns", {"seed": 1}, 42)
        assert key
        assert not any(tmp_path.glob("*.pkl"))


def pytest_fail():  # pragma: no cover - called only on a cache bug
    raise AssertionError("compute ran despite a stored value")


class TestStatsAndSelectiveClear:
    def _fill(self, cache):
        cache.store("exp/scenario", {"seed": 0}, {"fuel": 1.0})
        cache.store("exp/scenario", {"seed": 1}, {"fuel": 2.0})
        cache.store("sweep/beta", {"seed": 0}, 0.5)

    def test_stats_breaks_down_by_namespace(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        self._fill(cache)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.bytes == sum(p.stat().st_size for p in tmp_path.iterdir())
        assert stats.namespaces["exp/scenario"].entries == 2
        assert stats.namespaces["sweep/beta"].entries == 1

    def test_stats_on_empty_cache(self, tmp_path):
        stats = ResultCache(root=tmp_path / "none").stats()
        assert stats.entries == 0 and stats.namespaces == {}

    def test_manifestless_entries_group_as_unknown(self, tmp_path):
        # An entry whose first line is no provenance record (an older
        # version's bare pickle, or damage) cannot be attributed.
        cache = ResultCache(root=tmp_path)
        key = cache.store("ns", {"seed": 1}, 42)
        (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps(42) + b"\x00" * 32)
        (tmp_path / "other.pkl").write_bytes(b'{"no": "name"}\n')
        stats = cache.stats()
        assert stats.namespaces == {"(unknown)": stats.namespaces["(unknown)"]}
        assert stats.namespaces["(unknown)"].entries == 2
        assert cache.clear(namespace="ns") == 0

    def test_clear_namespace_leaves_others(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        self._fill(cache)
        removed = cache.clear(namespace="exp/scenario")
        assert removed == 2
        stats = cache.stats()
        assert "exp/scenario" not in stats.namespaces
        assert stats.namespaces["sweep/beta"].entries == 1

    def test_clear_namespace_removes_sidecars_too(self, tmp_path):
        # Entries carry their provenance inline: a selective clear
        # leaves exactly the other namespaces' entry files behind.
        cache = ResultCache(root=tmp_path)
        self._fill(cache)
        kept = cache.store("sweep/beta", {"seed": 1}, 0.25)
        cache.clear(namespace="exp/scenario")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"{kept}.pkl", f"{cache_key('sweep/beta', {'seed': 0})}.pkl"]
        )

    def test_full_clear_sweeps_orphans_and_tmp(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        self._fill(cache)
        # Sidecars an older version wrote beside each entry, and a
        # stray temp file -- the historical leak cases.
        (tmp_path / f"{'a' * 32}.fp").write_text("aaaa0000\n")
        (tmp_path / f"{'b' * 32}.manifest.json").write_text("{}")
        (tmp_path / "stray.tmp").write_text("x")
        assert cache.clear() == 3
        assert list(tmp_path.iterdir()) == []
