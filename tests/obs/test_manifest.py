"""RunManifest: assembly, JSON roundtrip, schema validation."""

import dataclasses
import json

import pytest

from repro.obs import RunManifest, build_manifest
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, package_versions
from repro.obs.schema import validate_manifest


def test_build_manifest_fills_provenance():
    m = build_manifest(
        "table2",
        scenario={"name": "exp1-fc-dpm"},
        params={"seed": 7},
        seeds=[7, 8],
        workers=2,
        route="fast",
        wall_s=1.5,
        cpu_s=1.2,
        metrics={"sim.route{path=fast}": {"type": "counter", "value": 2}},
    )
    assert m.name == "table2"
    assert m.fingerprint  # derived from code_fingerprint()
    assert m.schema_version == MANIFEST_SCHEMA_VERSION
    assert m.created > 0
    assert m.seeds == (7, 8)
    assert m.route == "fast"
    assert set(m.versions) >= {"python", "numpy", "repro"}


def test_explicit_fingerprint_skips_hashing():
    m = build_manifest("x", fingerprint="cafe")
    assert m.fingerprint == "cafe"


def test_write_read_roundtrip(tmp_path):
    m = build_manifest(
        "run:exp1", params={"seed": 0}, seeds=[0], route="scalar", wall_s=0.1
    )
    path = m.write(tmp_path / "sub" / "manifest.json")
    assert path.exists()
    rebuilt = RunManifest.from_dict(json.loads(path.read_text()))
    assert rebuilt == m


def test_failed_write_leaves_the_previous_manifest_whole(tmp_path, monkeypatch):
    # The write goes through a temp file and os.replace: a crash before
    # the rename leaves the old manifest, never a torn one.
    path = build_manifest("first", fingerprint="a").write(tmp_path / "manifest.json")
    before = path.read_text()

    def crash(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr("repro.obs.live.os.replace", crash)
    with pytest.raises(OSError, match="before the rename"):
        build_manifest("second", fingerprint="b").write(path)
    assert path.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_shallow_to_dict_serializes_like_a_deep_copy():
    m = build_manifest(
        "exp/sweep.storage",
        scenario={"name": "exp2-fc-dpm", "source": {"capacity": 6.0}},
        params={"ablate": {"capacity": [3, 6.5]}, "policies": ("conv", "fc")},
        seeds=[0, 1],
        metrics={"exp.tasks_done{kind=scenario}": {"type": "counter", "value": 4}},
    )
    deep = dataclasses.asdict(m)
    deep["seeds"] = list(m.seeds)
    expected = json.dumps(deep, indent=2, sort_keys=True, default=repr)
    shallow = json.dumps(m.to_dict(), indent=2, sort_keys=True, default=repr)
    assert shallow == expected


def test_built_manifest_validates():
    m = build_manifest("export", params={"files": 6}, route="export")
    assert validate_manifest(m.to_dict()) == []


def test_validate_flags_problems():
    assert validate_manifest("not a dict")
    good = build_manifest("x", fingerprint="f").to_dict()

    missing = dict(good)
    del missing["fingerprint"]
    assert any("fingerprint" in p for p in validate_manifest(missing))

    newer = dict(good, schema_version=MANIFEST_SCHEMA_VERSION + 1)
    assert any("newer" in p for p in validate_manifest(newer))

    bad_versions = dict(good, versions={"numpy": "1.0"})
    assert any("python" in p for p in validate_manifest(bad_versions))


def test_package_versions_shape():
    versions = package_versions()
    assert versions["python"].count(".") >= 1
    assert "numpy" in versions
