"""Failure-injection tests: graceful degradation under component faults."""

import pytest

from repro.core.manager import PowerManager
from repro.devices.camcorder import camcorder_device_params
from repro.errors import ConfigurationError
from repro.fuelcell.efficiency import LinearSystemEfficiency
from repro.sim.faults import DegradedEfficiency
from repro.sim.slotsim import SlotSimulator, simulate_policies
from repro.workload.mpeg import generate_mpeg_trace


@pytest.fixture(scope="module")
def trace():
    return generate_mpeg_trace(duration_s=600.0, seed=13)


@pytest.fixture(scope="module")
def dev():
    return camcorder_device_params()


class TestDegradedEfficiency:
    def test_scales_efficiency(self):
        base = LinearSystemEfficiency()
        degraded = DegradedEfficiency(base, health=0.8)
        assert degraded.efficiency(0.5) == pytest.approx(
            0.8 * base.efficiency(0.5)
        )

    def test_fuel_rises_smoothly_with_damage(self, trace, dev):
        fuels = []
        for health in (1.0, 0.9, 0.8, 0.7):
            model = DegradedEfficiency(LinearSystemEfficiency(), health)
            mgr = PowerManager.fc_dpm(
                dev, model=model, storage_capacity=6.0, storage_initial=3.0
            )
            fuels.append(SlotSimulator(mgr).run(trace).fuel)
        assert fuels == sorted(fuels)
        # Smooth: each 10% health step costs no more than ~30% fuel.
        for a, b in zip(fuels, fuels[1:]):
            assert b / a < 1.3

    def test_fc_dpm_still_beats_asap_when_degraded(self, trace, dev):
        model = DegradedEfficiency(LinearSystemEfficiency(), health=0.75)
        managers = [
            PowerManager.asap_dpm(dev, model=model, storage_capacity=6.0,
                                  storage_initial=3.0),
            PowerManager.fc_dpm(dev, model=model, storage_capacity=6.0,
                                storage_initial=3.0),
        ]
        results = simulate_policies(trace, managers)
        assert results["fc-dpm"].fuel < results["asap-dpm"].fuel

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DegradedEfficiency(LinearSystemEfficiency(), health=0.0)
