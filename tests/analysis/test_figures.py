"""Figure data-series tests (Fig. 2/3/4/7 shapes)."""

import numpy as np
import pytest

from repro.analysis.figures import (
    fig2_stack_iv_curve,
    fig3_efficiency_curves,
    fig4_motivational,
    fig7_current_profiles,
)
from repro.fuelcell.controller import OnOffFanController, ProportionalFanController
from repro.fuelcell.efficiency import (
    ComposedSystemEfficiency,
    LinearSystemEfficiency,
    StackEfficiency,
)
from repro.fuelcell.polarization import PolarizationCurve
from repro.power.converter import PWMConverter, PWMPFMConverter
from tests.fuelcell.test_polarization import reference_current_for_power


def reference_fig3(n_points: int = 120) -> dict[str, np.ndarray]:
    """Fig. 3 built point by point through the scalar bisection oracle."""
    proportional = ComposedSystemEfficiency(
        converter=PWMPFMConverter(), controller=ProportionalFanController()
    )
    onoff = ComposedSystemEfficiency(
        converter=PWMConverter(), controller=OnOffFanController()
    )
    linear = LinearSystemEfficiency()
    stack = StackEfficiency(proportional)
    i = np.linspace(max(proportional.if_min * 0.1, 1e-4), proportional.if_max, n_points)
    i_stack = np.linspace(1e-4, 1.2, n_points)
    return {
        "current": i,
        "stack": np.array([stack.efficiency(float(x)) for x in i_stack]),
        "proportional": np.array([proportional.efficiency(float(x)) for x in i]),
        "onoff": np.array([onoff.efficiency(float(x)) for x in i]),
        "linear_fit": np.array([linear.efficiency(float(x)) for x in i]),
    }


class TestFig2:
    def test_anchor_points(self):
        data = fig2_stack_iv_curve()
        assert data["voltage"][0] == pytest.approx(18.2)
        assert float(data["p_mpp"]) == pytest.approx(20.0, abs=1.0)

    def test_voltage_decreases_power_peaks(self):
        data = fig2_stack_iv_curve()
        v = data["voltage"]
        p = data["power"]
        assert np.all(np.diff(v) < 0)
        k = int(np.argmax(p))
        assert 0 < k < len(p) - 1  # interior maximum = load-following limit


class TestFig3:
    def test_stack_above_system_curves(self):
        data = fig3_efficiency_curves()
        # Stack-only efficiency dominates both system curves (Fig. 3(a)
        # is the top curve).
        i = data["current"]
        mask = i >= 0.1
        assert np.all(data["stack"][mask] >= data["proportional"][mask])
        assert np.all(data["stack"][mask] >= data["onoff"][mask])

    def test_proportional_beats_onoff_at_light_load(self):
        data = fig3_efficiency_curves()
        light = data["current"] < 0.4
        assert np.all(data["proportional"][light] > data["onoff"][light])

    def test_linear_fit_tracks_proportional(self):
        data = fig3_efficiency_curves()
        in_range = (data["current"] >= 0.1) & (data["current"] <= 1.2)
        err = np.abs(data["proportional"][in_range] - data["linear_fit"][in_range])
        assert err.max() < 0.05

    def test_proportional_decreasing_in_range(self):
        data = fig3_efficiency_curves()
        in_range = (data["current"] >= 0.1) & (data["current"] <= 1.2)
        eta = data["proportional"][in_range]
        assert np.all(np.diff(eta) < 0.002)  # monotone down (tolerating noise)


    def test_arrays_equal_scalar_oracle(self, monkeypatch):
        data = fig3_efficiency_curves()
        monkeypatch.setattr(
            PolarizationCurve, "current_for_power", reference_current_for_power
        )
        expected = reference_fig3()
        assert data.keys() == expected.keys()
        for key, series in expected.items():
            assert np.array_equal(data[key], series), key

    def test_one_bisection_per_curve(self, monkeypatch):
        # Three lockstep inversions of ~31 steps each, plus the two
        # stacks' maximum-power searches.  The per-point scalar
        # bisection made over 11,000 calls here.
        calls = []
        stack_power = PolarizationCurve.stack_power

        def counting(self, current):
            calls.append(np.size(current))
            return stack_power(self, current)

        monkeypatch.setattr(PolarizationCurve, "stack_power", counting)
        fig3_efficiency_curves()
        assert len(calls) <= 3 * 40


class TestFig4:
    def test_paper_fuel_values(self):
        r = fig4_motivational()
        assert r.fuel["asap-dpm"] == pytest.approx(16.08, abs=0.02)
        assert r.fuel["fc-dpm"] == pytest.approx(13.45, abs=0.01)
        # Eq. 4 reading of Conv (the paper's text says 36).
        assert r.fuel["conv-dpm"] == pytest.approx(39.18, abs=0.05)

    def test_paper_ifc_reading(self):
        r = fig4_motivational(conv_uses_paper_ifc=True)
        assert r.fuel["conv-dpm"] == pytest.approx(36.0)
        assert r.fc_vs_conv_saving == pytest.approx(0.626, abs=0.005)

    def test_savings_vs_asap(self):
        r = fig4_motivational()
        assert r.fc_vs_asap_saving == pytest.approx(0.159, abs=0.01)

    def test_plans_balance_storage(self):
        r = fig4_motivational()
        fc_levels = r.plans["fc-dpm"].storage_trajectory(0.0)
        assert fc_levels[-1] == pytest.approx(0.0, abs=1e-9)

    def test_fc_plan_is_flat(self):
        r = fig4_motivational()
        outputs = [s.i_f for s in r.plans["fc-dpm"]]
        assert outputs[0] == pytest.approx(outputs[1])


class TestFig7:
    @pytest.fixture(scope="class")
    def profiles(self):
        return fig7_current_profiles(seed=2007, t_max=300.0)

    def test_series_truncated_to_300s(self, profiles):
        for key in ("load", "asap-dpm", "fc-dpm"):
            times, _ = profiles[key]
            assert times[-1] <= 310.0

    def test_asap_follows_load(self, profiles):
        # ASAP output correlates strongly with the load profile.
        t_l, load = profiles["load"]
        t_a, asap = profiles["asap-dpm"]
        n = min(len(load), len(asap))
        r = np.corrcoef(load[:n], asap[:n])[0, 1]
        assert r > 0.7

    def test_fc_dpm_flatter_than_asap(self, profiles):
        # The paper's visual point: FC-DPM's output is "quite flat".
        _, asap = profiles["asap-dpm"]
        _, fc = profiles["fc-dpm"]
        assert np.std(fc) < 0.5 * np.std(asap)

    def test_outputs_respect_load_following_range(self, profiles):
        for key in ("asap-dpm", "fc-dpm"):
            _, i_f = profiles[key]
            assert i_f.min() >= 0.1 - 1e-9
            assert i_f.max() <= 1.2 + 1e-9
