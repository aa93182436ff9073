"""Scenario spec + registry: declaration, serialization, building."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.power.battery_only import BatteryOnlySource
from repro.power.hybrid import HybridPowerSource
from repro.power.multistack import EfficiencyProportional, MultiStackHybrid
from repro.power.storage import LiIonBattery
from repro.scenario import (
    DeviceSpec,
    PolicySpec,
    Scenario,
    SourceSpec,
    WorkloadSpec,
    experiment_scenarios,
    get_scenario,
    register,
    scenario_names,
)


class TestSpecs:
    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(kind="netflix")
        with pytest.raises(ConfigurationError):
            DeviceSpec(kind="toaster")
        with pytest.raises(ConfigurationError):
            PolicySpec(kind="yolo-dpm")
        with pytest.raises(ConfigurationError):
            SourceSpec(kind="fusion")
        with pytest.raises(ConfigurationError):
            SourceSpec(storage_kind="flywheel")
        with pytest.raises(ConfigurationError):
            SourceSpec(kind="multi-stack", sharing="alphabetical")

    def test_roundtrip_through_dict_is_lossless(self):
        sc = Scenario(
            name="probe",
            description="roundtrip probe",
            workload=WorkloadSpec(kind="experiment2", n_slots=42),
            device=DeviceSpec(kind="randomized", i_pd=1.0),
            policy=PolicySpec(kind="asap-dpm", rho=0.3, recharge_threshold=0.7),
            source=SourceSpec(kind="multi-stack", n_stacks=3, sharing="efficiency"),
            seed=11,
        )
        data = sc.to_dict()
        json.dumps(data)  # must be JSON-serializable for cache keys
        assert Scenario.from_dict(data) == sc

    def test_from_dict_defaults_missing_sections(self):
        sc = Scenario.from_dict({"name": "bare"})
        assert sc.workload.kind == "mpeg"
        assert sc.policy.kind == "fc-dpm"
        assert sc.seed == 2007

    def test_from_dict_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match=r"\['bogus'\]"):
            Scenario.from_dict({"name": "bare", "bogus": 1})

    def test_from_dict_rejects_nested_typo_by_dotted_name(self):
        data = get_scenario("exp2-fc-dpm").to_dict()
        data["source"]["storage_capacty"] = 3.0
        data["policy"]["sigmaa"] = 0.2
        with pytest.raises(ConfigurationError) as exc:
            Scenario.from_dict(data)
        assert "['policy.sigmaa', 'source.storage_capacty']" in str(exc.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "section, key",
        [("device", "i_pd"), ("device", "i_wu"), ("policy", "active_current_estimate")],
    )
    def test_non_finite_value_rejected_by_dotted_path(self, section, key, value):
        data = get_scenario("exp2-fc-dpm").to_dict()
        data[section][key] = value
        with pytest.raises(ConfigurationError, match=rf"^{section}\.{key} must be finite"):
            Scenario.from_dict(data)

    def test_bad_kind_rejected_by_dotted_path(self):
        data = get_scenario("exp2-fc-dpm").to_dict()
        data["source"]["sharing"] = "alphabetical"
        with pytest.raises(ConfigurationError, match=r"^source\.sharing 'alphabetical'"):
            Scenario.from_dict(data)

    def test_non_finite_spec_values_never_reach_a_result(self):
        """NaN currents used to run to a ``nan`` fuel figure."""
        from dataclasses import replace

        from repro.sim.vectorized import simulate_batch

        base = get_scenario("exp2-conv-dpm")
        nan = float("nan")
        for build in (
            lambda: replace(base, device=replace(base.device, i_pd=nan)),
            lambda: replace(base, device=replace(base.device, i_wu=float("inf"))),
            lambda: replace(
                base, policy=replace(base.policy, active_current_estimate=nan)
            ),
        ):
            with pytest.raises(ConfigurationError, match="must be finite"):
                simulate_batch(build(), [1, 2], ["fc-dpm"])

    @pytest.mark.parametrize("name", scenario_names())
    def test_registry_scenarios_round_trip(self, name):
        sc = get_scenario(name)
        assert Scenario.from_dict(json.loads(json.dumps(sc.to_dict()))) == sc


class TestRegistry:
    def test_canonical_names_present(self):
        names = scenario_names()
        for exp in ("exp1", "exp2"):
            for pol in ("conv-dpm", "asap-dpm", "fc-dpm"):
                assert f"{exp}-{pol}" in names
        assert "exp1-fc-dpm-multistack" in names
        assert "exp1-battery" in names

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(ConfigurationError, match="exp1-fc-dpm"):
            get_scenario("exp9-dpm")

    def test_duplicate_registration_rejected(self):
        sc = get_scenario("exp1-fc-dpm")
        with pytest.raises(ConfigurationError):
            register(sc)
        assert register(sc, overwrite=True) is sc

    def test_experiment_scenarios_order(self):
        names = [sc.policy.kind for sc in experiment_scenarios("exp1")]
        assert names == ["conv-dpm", "asap-dpm", "fc-dpm"]
        with pytest.raises(ConfigurationError):
            experiment_scenarios("exp3")


class TestBuilders:
    def test_build_trace_seed_override(self):
        sc = get_scenario("exp1-fc-dpm")
        a = sc.build_trace()
        b = sc.build_trace(2007)
        c = sc.build_trace(1)
        assert [s.t_idle for s in a] == [s.t_idle for s in b]
        assert [s.t_idle for s in a] != [s.t_idle for s in c]

    def test_build_manager_wires_policy_and_name(self):
        sc = get_scenario("exp2-asap-dpm")
        mgr = sc.build_manager()
        assert mgr.name == "exp2-asap-dpm"
        assert isinstance(mgr.source, HybridPowerSource)
        assert mgr.source.storage.capacity == 6.0
        assert mgr.source.storage.charge == 3.0

    def test_multistack_scenario_builds_multistack_source(self):
        sc = get_scenario("exp1-fc-dpm-multistack")
        mgr = sc.build_manager()
        assert isinstance(mgr.source, MultiStackHybrid)
        assert mgr.source.n_stacks == 2

    def test_battery_scenario_builds_battery_source(self):
        sc = get_scenario("exp1-battery")
        mgr = sc.build_manager()
        assert isinstance(mgr.source, BatteryOnlySource)
        assert isinstance(mgr.source.storage, LiIonBattery)
        assert mgr.source.storage.charge == 2000.0

    def test_efficiency_sharing_and_liion_hybrid(self):
        sc = Scenario(
            name="custom",
            source=SourceSpec(
                kind="multi-stack", n_stacks=3, sharing="efficiency",
                storage_capacity=8.0, storage_initial=4.0,
            ),
        )
        mgr = sc.build_manager()
        assert isinstance(mgr.source.sharing, EfficiencyProportional)
        assert mgr.source.storage.capacity == 8.0

        liion = Scenario(
            name="custom-liion",
            source=SourceSpec(storage_kind="liion", storage_capacity=50.0,
                              storage_initial=25.0),
        )
        src = liion.build_manager().source
        assert isinstance(src, HybridPowerSource)
        assert isinstance(src.storage, LiIonBattery)

    def test_build_device_kinds(self):
        cam = get_scenario("exp1-fc-dpm").build_device()
        rnd = get_scenario("exp2-fc-dpm").build_device()
        assert cam.t_pd != rnd.t_pd or cam.i_pd != rnd.i_pd
