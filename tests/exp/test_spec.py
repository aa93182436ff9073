"""ExperimentSpec: validation, identity, deterministic expansion."""

import pytest

from repro.errors import ConfigurationError
from repro.exp import (
    ExperimentSpec,
    scenario_batch_spec,
    seed_study_spec,
    sweep_spec,
)
from repro.scenario import get_scenario


class TestValidation:
    def test_needs_name_and_kind(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name="", kind="scenario")
        with pytest.raises(ConfigurationError):
            ExperimentSpec(name="x", kind="")

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ConfigurationError, match="duplicate seeds"):
            ExperimentSpec(name="x", kind="scenario", seeds=(1, 2, 1))

    def test_rejects_duplicate_policies(self):
        with pytest.raises(ConfigurationError, match="duplicate policies"):
            ExperimentSpec(
                name="x", kind="scenario", policies=("fc-dpm", "fc-dpm")
            )

    def test_rejects_duplicate_knobs(self):
        with pytest.raises(ConfigurationError, match="duplicate ablation"):
            ExperimentSpec(
                name="x",
                kind="sweep.storage",
                ablations=(("capacity", (1.0,)), ("capacity", (2.0,))),
            )

    def test_rejects_empty_ablation_values(self):
        with pytest.raises(ConfigurationError, match="no values"):
            ExperimentSpec(name="x", kind="sweep.storage",
                           ablations=(("capacity", ()),))

    @pytest.mark.parametrize(
        "kind, knob",
        [("sweep.storage", "capacity"), ("sweep.beta", "beta"),
         ("sweep.recharge", "threshold"), ("sweep.predictor", "predictor")],
    )
    def test_sweep_kind_needs_its_knob(self, kind, knob):
        with pytest.raises(ConfigurationError, match=f"needs a '{knob}'"):
            ExperimentSpec(name="x", kind=kind)
        with pytest.raises(ConfigurationError, match=f"needs a '{knob}'"):
            ExperimentSpec(name="x", kind=kind, ablations=(("other", (0.1, 0.2)),))
        # The knob may come from an ablation axis or from ``extra``.
        assert ExperimentSpec(name="x", kind=kind, ablations=((knob, (1,)),)).n_tasks == 1
        assert ExperimentSpec(name="x", kind=kind, extra=((knob, 1),)).n_tasks == 1

    def test_rejects_unknown_scenario_name(self):
        with pytest.raises(ConfigurationError, match="unknown scenario 'nope'"):
            ExperimentSpec(name="x", kind="scenario", scenario="nope")
        # Dicts are full scenario specs, not registry names.
        spec = ExperimentSpec(
            name="x", kind="scenario", scenario=get_scenario("exp1-fc-dpm").to_dict()
        )
        assert spec.n_tasks == 1

    @pytest.mark.parametrize(
        "policy, match",
        [("bogus", "unknown policy 'bogus'"),
         ("static:high", "bad static policy spec"),
         (3, "policy spec must be a string")],
    )
    def test_rejects_policies_simulate_batch_refuses(self, policy, match):
        with pytest.raises(ConfigurationError, match=match):
            ExperimentSpec(
                name="x", kind="scenario", scenario="exp2-fc-dpm",
                policies=("conv-dpm", policy),
            )

    def test_accepts_every_policy_simulate_batch_runs(self):
        policies = ("conv-dpm", "asap-dpm", "fc-dpm", "static:0.3")
        spec = ExperimentSpec(
            name="x", kind="scenario", scenario="exp2-fc-dpm", policies=policies
        )
        assert spec.n_tasks == len(policies)

    def test_needs_a_seed(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            ExperimentSpec(name="x", kind="scenario", seeds=())


class TestIdentity:
    def test_round_trip_preserves_hash(self):
        spec = ExperimentSpec(
            name="rt",
            kind="scenario",
            scenario="exp2-fc-dpm",
            seeds=(0, 1, 2),
            policies=("conv-dpm", "fc-dpm"),
            ablations=(("capacity", (2.0, 6.0)),),
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.content_hash == spec.content_hash

    def test_from_dict_rejects_unknown_keys(self):
        data = ExperimentSpec(name="x", kind="scenario").to_dict()
        data["fast"] = True
        data["colour"] = "red"
        with pytest.raises(ConfigurationError, match=r"\['colour', 'fast'\]"):
            ExperimentSpec.from_dict(data)

    def test_hash_ignores_code_version(self, monkeypatch):
        # The content hash names the *experiment*, not the code: it must
        # not move when the package fingerprint does.
        spec = ExperimentSpec(name="x", kind="scenario", scenario="exp1-fc-dpm")
        before = spec.content_hash
        import repro.runtime.cache as cache_mod

        monkeypatch.setattr(cache_mod, "_FINGERPRINT", "f" * 16)
        assert spec.content_hash == before

    def test_hash_distinguishes_content(self):
        a = ExperimentSpec(name="x", kind="scenario", seeds=(0,))
        b = ExperimentSpec(name="x", kind="scenario", seeds=(1,))
        assert a.content_hash != b.content_hash


class TestExpansion:
    def test_order_is_ablations_then_seeds_then_policies(self):
        spec = ExperimentSpec(
            name="x",
            kind="scenario",
            scenario="exp2-fc-dpm",
            seeds=(7, 8),
            policies=("conv-dpm", "fc-dpm"),
            ablations=(("capacity", (1.0, 2.0)),),
        )
        tasks = spec.expand()
        assert len(tasks) == spec.n_tasks == 8
        assert [t.task_id for t in tasks[:3]] == ["t00000", "t00001", "t00002"]
        # Slowest axis: capacity; then seed; then policy.
        assert [(t.param("capacity"), t.seed, t.policy) for t in tasks[:4]] == [
            (1.0, 7, "conv-dpm"),
            (1.0, 7, "fc-dpm"),
            (1.0, 8, "conv-dpm"),
            (1.0, 8, "fc-dpm"),
        ]
        assert tasks[4].param("capacity") == 2.0

    def test_expansion_is_deterministic(self):
        spec = sweep_spec("storage", [1.0, 2.0, 4.0], seed=3)
        assert spec.expand() == spec.expand()

    def test_cache_identity_excludes_position(self):
        # Two experiments sharing a cell share the cache entry: the
        # task's cache params must not leak its index or id.
        a = ExperimentSpec(name="a", kind="scenario", scenario="exp1-fc-dpm",
                           seeds=(5,), policies=("fc-dpm",))
        b = ExperimentSpec(name="b", kind="scenario", scenario="exp1-fc-dpm",
                           seeds=(4, 5), policies=("fc-dpm",))
        cell_a = a.expand()[0]
        cell_b = b.expand()[1]
        assert cell_a.task_id != cell_b.task_id
        assert cell_a.cache_params() == cell_b.cache_params()
        assert cell_a.cache_key() == cell_b.cache_key()


class TestHelpers:
    def test_sweep_spec_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown sweep"):
            sweep_spec("voltage", [1.0])

    def test_sweep_spec_shape(self):
        spec = sweep_spec("beta", [0.0, 0.13], seed=11)
        assert spec.kind == "sweep.beta"
        assert spec.ablations == (("beta", (0.0, 0.13)),)
        assert spec.seeds == (11,)

    def test_scenario_object_is_serialized(self):
        sc = get_scenario("exp1-fc-dpm")
        spec = scenario_batch_spec("s", sc, [0])
        assert isinstance(spec.scenario, dict)
        assert spec.scenario == sc.to_dict()

    def test_seed_study_spec(self):
        spec = seed_study_spec("table2-metrics", range(3))
        assert spec.seeds == (0, 1, 2)
        assert spec.kind == "table2-metrics"
