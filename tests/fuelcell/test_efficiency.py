"""System-efficiency model tests: the paper's Eq. 1-4 layer."""

import numpy as np
import pytest

from repro.config import FCSystemConstants
from repro.errors import ConfigurationError, RangeError
from repro.fuelcell.controller import OnOffFanController, ProportionalFanController
from repro.fuelcell.efficiency import (
    ComposedSystemEfficiency,
    ConstantSystemEfficiency,
    LinearSystemEfficiency,
    StackEfficiency,
    TabulatedSystemEfficiency,
)
from repro.power.converter import PWMConverter, PWMPFMConverter


@pytest.fixture
def lin() -> LinearSystemEfficiency:
    return LinearSystemEfficiency()


class TestLinearModel:
    def test_paper_efficiency_values(self, lin):
        assert lin.efficiency(0.0) == pytest.approx(0.45)
        assert lin.efficiency(1.0) == pytest.approx(0.32)
        assert lin.efficiency(1.2) == pytest.approx(0.294)

    def test_k_fuel(self, lin):
        assert lin.k_fuel == pytest.approx(0.32)

    def test_fc_current_paper_examples(self, lin):
        # Section 3.2: IF = 0.2 -> Ifc ~ 0.15; IF = 1.2 -> Ifc ~ 1.3;
        # IF = 0.533 -> Ifc = 0.448.
        assert lin.fc_current(0.2) == pytest.approx(0.1509, abs=1e-3)
        assert lin.fc_current(1.2) == pytest.approx(1.306, abs=1e-2)
        assert lin.fc_current(16 / 30) == pytest.approx(0.448, abs=1e-3)

    def test_fc_current_zero(self, lin):
        assert lin.fc_current(0.0) == 0.0

    def test_fc_current_convex(self, lin):
        # Strict convexity: midpoint value below the chord.
        a, b = 0.2, 1.2
        mid = lin.fc_current((a + b) / 2)
        chord = (lin.fc_current(a) + lin.fc_current(b)) / 2
        assert mid < chord

    def test_fc_current_strictly_increasing(self, lin):
        grid = np.linspace(0.01, 1.2, 50)
        vals = [lin.fc_current(float(x)) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_finite_difference(self, lin):
        for i_f in (0.15, 0.5, 1.1):
            h = 1e-7
            fd = (lin.fc_current(i_f + h) - lin.fc_current(i_f - h)) / (2 * h)
            assert lin.fc_current_derivative(i_f) == pytest.approx(fd, rel=1e-5)

    def test_inverse_roundtrip(self, lin):
        for i_f in (0.1, 0.53, 1.2):
            assert lin.inverse_fc_current(lin.fc_current(i_f)) == pytest.approx(i_f)

    def test_pole_rejected(self, lin):
        with pytest.raises(RangeError):
            lin.fc_current(0.45 / 0.13)  # alpha/beta pole

    def test_negative_rejected(self, lin):
        with pytest.raises(RangeError):
            lin.fc_current(-0.1)
        with pytest.raises(RangeError):
            lin.efficiency(-0.1)

    def test_clamp(self, lin):
        assert lin.clamp(0.01) == 0.1
        assert lin.clamp(2.0) == 1.2
        assert lin.clamp(0.7) == 0.7

    def test_in_range(self, lin):
        assert lin.in_range(0.1) and lin.in_range(1.2)
        assert not lin.in_range(0.09) and not lin.in_range(1.21)

    def test_fuel_charge(self, lin):
        assert lin.fuel_charge(16 / 30, 30.0) == pytest.approx(13.45, abs=0.01)

    def test_fuel_charge_rejects_negative_duration(self, lin):
        with pytest.raises(RangeError):
            lin.fuel_charge(0.5, -1.0)

    def test_from_constants(self):
        m = LinearSystemEfficiency.from_constants(FCSystemConstants())
        assert (m.alpha, m.beta) == (0.45, 0.13)
        assert (m.if_min, m.if_max) == (0.1, 1.2)

    def test_rejects_negative_efficiency_over_range(self):
        with pytest.raises(ConfigurationError):
            LinearSystemEfficiency(alpha=0.1, beta=0.13, if_max=1.2)

    def test_beta_zero_allowed(self):
        m = LinearSystemEfficiency(alpha=0.4, beta=0.0)
        # Linear fuel map: Ifc proportional to IF.
        assert m.fc_current(1.0) == pytest.approx(2 * m.fc_current(0.5))


class TestConstantModel:
    def test_flat(self):
        m = ConstantSystemEfficiency(eta=0.33)
        assert m.efficiency(0.1) == m.efficiency(1.2) == 0.33

    def test_fuel_map_is_linear(self):
        m = ConstantSystemEfficiency(eta=0.33)
        assert m.fc_current(1.0) == pytest.approx(2 * m.fc_current(0.5))

    def test_rejects_bad_eta(self):
        with pytest.raises(ConfigurationError):
            ConstantSystemEfficiency(eta=0.0)
        with pytest.raises(ConfigurationError):
            ConstantSystemEfficiency(eta=1.0)


class TestTabulatedModel:
    def test_interpolates(self):
        m = TabulatedSystemEfficiency([0.1, 1.2], [0.44, 0.29])
        assert m.efficiency(0.65) == pytest.approx((0.44 + 0.29) / 2)

    def test_clamps_outside_samples(self):
        m = TabulatedSystemEfficiency([0.1, 1.2], [0.44, 0.29])
        assert m.efficiency(0.05) == pytest.approx(0.44)
        assert m.efficiency(1.3) == pytest.approx(0.29)

    def test_rejects_decreasing_currents(self):
        with pytest.raises(ConfigurationError):
            TabulatedSystemEfficiency([1.2, 0.1], [0.3, 0.4])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            TabulatedSystemEfficiency([0.1, 0.5, 1.2], [0.4, 0.3])

    def test_rejects_out_of_unit_efficiency(self):
        with pytest.raises(ConfigurationError):
            TabulatedSystemEfficiency([0.1, 1.2], [0.4, 1.2])


class TestComposedModel:
    def test_decreasing_over_range(self):
        m = ComposedSystemEfficiency()
        etas = [m.efficiency(i) for i in (0.1, 0.4, 0.8, 1.2)]
        assert etas == sorted(etas, reverse=True)

    def test_fit_matches_paper_calibration(self):
        # The physically composed model should fit close to the paper's
        # measured alpha = 0.45, beta = 0.13.
        fit = ComposedSystemEfficiency().fit_linear()
        assert fit.alpha == pytest.approx(0.45, abs=0.04)
        assert fit.beta == pytest.approx(0.13, abs=0.04)

    def test_onoff_fan_flatter_than_proportional(self):
        # Fig. 3(c) is roughly constant; Fig. 3(b) has a clear slope.
        _, beta_prop = ComposedSystemEfficiency(
            converter=PWMPFMConverter(), controller=ProportionalFanController()
        ).fit_linear_coefficients()
        _, beta_onoff = ComposedSystemEfficiency(
            converter=PWMConverter(), controller=OnOffFanController()
        ).fit_linear_coefficients()
        assert beta_prop > abs(beta_onoff)

    def test_proportional_beats_onoff_at_light_load(self):
        prop = ComposedSystemEfficiency(
            converter=PWMPFMConverter(), controller=ProportionalFanController()
        )
        onoff = ComposedSystemEfficiency(
            converter=PWMConverter(), controller=OnOffFanController()
        )
        assert prop.efficiency(0.15) > onoff.efficiency(0.15)

    def test_zero_output(self):
        m = ComposedSystemEfficiency()
        assert m.efficiency(0.0) == 0.0

    def test_fc_current_increasing(self):
        m = ComposedSystemEfficiency()
        grid = np.linspace(0.1, 1.2, 12)
        vals = [m.fc_current(float(x)) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


    @pytest.mark.parametrize(
        "controller",
        [
            ProportionalFanController(),
            ProportionalFanController(i_base=0.0),
            OnOffFanController(),
        ],
        ids=["proportional", "idle-free-fan", "onoff"],
    )
    def test_array_maps_equal_scalar_calls(self, controller):
        # One array inversion must reproduce every scalar call exactly,
        # including IF = 0 (a 0 W demand when the fan draws nothing).
        m = ComposedSystemEfficiency(controller=controller)
        grid = np.concatenate([[0.0, 1e-9], np.linspace(1e-4, 1.2, 97)])
        fuel = m.fuel_map_array(grid.reshape(3, 33))
        assert fuel.shape == (3, 33)
        assert fuel.ravel().tolist() == [m.fc_current(float(x)) for x in grid]
        assert m.efficiency_array(grid).tolist() == [
            m.efficiency(float(x)) for x in grid
        ]

    def test_array_map_rejects_negative_current(self):
        with pytest.raises(RangeError):
            ComposedSystemEfficiency().fuel_map_array(np.array([0.5, -0.1]))


class TestStackEfficiencyCurve:
    def test_above_system_efficiency(self):
        composed = ComposedSystemEfficiency()
        stack = StackEfficiency(composed)
        for i in (0.2, 0.6, 1.1):
            assert stack.efficiency(i) > composed.efficiency(i)

    def test_sweep_shape(self):
        composed = ComposedSystemEfficiency()
        i, eta = StackEfficiency(composed).sweep(n_points=30)
        assert len(i) == len(eta) == 30
        assert np.all(eta > 0)

    def test_sweep_equals_scalar_calls(self):
        stack = StackEfficiency(ComposedSystemEfficiency())
        i, eta = stack.sweep(n_points=30)
        assert eta.tolist() == [stack.efficiency(float(x)) for x in i]
