"""Polarization-curve physics tests (paper Fig. 2 anchors)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, RangeError
from repro.fuelcell.polarization import (
    BCS_20W_CELL,
    PolarizationCurve,
    PolarizationParams,
)


def reference_current_for_power(
    curve: PolarizationCurve, power_w: float, tol: float = 1e-9
) -> float:
    """The scalar bisection ``current_for_power`` ran before it took arrays.

    Kept verbatim as the oracle for the lockstep array bisection.
    """
    if power_w < 0:
        raise RangeError("power demand cannot be negative")
    if power_w == 0:
        return 0.0
    i_mpp, p_max = curve.max_power_point()
    if power_w > p_max:
        raise RangeError(
            f"demand {power_w:.2f} W exceeds stack capacity {p_max:.2f} W"
        )
    lo, hi = 0.0, i_mpp
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if curve.stack_power(mid) < power_w:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture
def stack_curve() -> PolarizationCurve:
    return PolarizationCurve(BCS_20W_CELL, n_cells=20)


class TestParams:
    def test_rejects_nonpositive_e0(self):
        with pytest.raises(ConfigurationError):
            PolarizationParams(0.0, 0.02, 0.01, 0.05, 1e-5, 5, 1.9)

    def test_rejects_negative_losses(self):
        with pytest.raises(ConfigurationError):
            PolarizationParams(0.9, -0.02, 0.01, 0.05, 1e-5, 5, 1.9)

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ConfigurationError):
            PolarizationParams(0.9, 0.02, 0.01, 0.05, 1e-5, 5, 0.0)


class TestVoltage:
    def test_open_circuit_is_18_2(self, stack_curve):
        # Paper: Vo = 18.2 V for the 20-cell stack.
        assert stack_curve.stack_voltage(0.0) == pytest.approx(18.2)

    def test_voltage_monotonically_decreasing(self, stack_curve):
        i = np.linspace(0, 1.7, 100)
        v = stack_curve.stack_voltage(i)
        assert np.all(np.diff(v) < 0)

    def test_negative_current_rejected(self, stack_curve):
        with pytest.raises(RangeError):
            stack_curve.cell_voltage(-0.1)

    def test_limit_current_rejected(self, stack_curve):
        with pytest.raises(RangeError):
            stack_curve.cell_voltage(BCS_20W_CELL.i_limit)

    def test_vector_and_scalar_agree(self, stack_curve):
        grid = np.array([0.2, 0.7, 1.1])
        vec = stack_curve.stack_voltage(grid)
        for x, v in zip(grid, vec):
            assert stack_curve.stack_voltage(float(x)) == pytest.approx(v)

    def test_voltage_never_negative(self):
        # A very lossy cell clips at zero instead of going negative.
        lossy = PolarizationParams(0.5, 0.2, 0.001, 1.0, 0.01, 6.0, 2.0)
        curve = PolarizationCurve(lossy, n_cells=1)
        assert curve.cell_voltage(1.5) == 0.0


class TestPower:
    def test_max_power_near_20w(self, stack_curve):
        # BCS 20 W stack: maximum power calibrated to ~20 W.
        i_mpp, p_mpp = stack_curve.max_power_point()
        assert p_mpp == pytest.approx(20.0, abs=1.0)
        assert 1.2 < i_mpp < 1.7

    def test_power_unimodal(self, stack_curve):
        i = np.linspace(1e-3, 1.85, 400)
        p = stack_curve.stack_power(i)
        k = int(np.argmax(p))
        assert np.all(np.diff(p[: k + 1]) > 0)
        assert np.all(np.diff(p[k:]) < 0)

    def test_power_zero_at_zero_current(self, stack_curve):
        assert stack_curve.stack_power(0.0) == 0.0


class TestInverse:
    def test_current_for_power_roundtrip(self, stack_curve):
        for p in (2.0, 8.0, 15.0):
            i = stack_curve.current_for_power(p)
            assert stack_curve.stack_power(i) == pytest.approx(p, rel=1e-6)

    def test_max_power_grid_searched_once_per_curve(self, monkeypatch):
        grids = []
        stack_power = PolarizationCurve.stack_power

        def counting(self, current):
            if np.size(current) == 20_001:
                grids.append(self)
            return stack_power(self, current)

        monkeypatch.setattr(PolarizationCurve, "stack_power", counting)
        first = PolarizationCurve(BCS_20W_CELL, n_cells=20)
        second = PolarizationCurve(BCS_20W_CELL, n_cells=20)
        for curve in (first, second):
            for p in (2.0, 8.0, 15.0):
                curve.current_for_power(p)
            curve.max_power_point()
        assert grids == [first, second]

    def test_current_for_power_picks_rising_branch(self, stack_curve):
        i_mpp, _ = stack_curve.max_power_point()
        assert stack_curve.current_for_power(10.0) < i_mpp

    def test_zero_power(self, stack_curve):
        assert stack_curve.current_for_power(0.0) == 0.0

    def test_over_capacity_rejected(self, stack_curve):
        with pytest.raises(RangeError):
            stack_curve.current_for_power(25.0)

    def test_negative_power_rejected(self, stack_curve):
        with pytest.raises(RangeError):
            stack_curve.current_for_power(-1.0)


class TestArrayInverse:
    """One lockstep bisection over an array equals the scalar bisection."""

    @pytest.fixture
    def powers(self, stack_curve):
        _, p_max = stack_curve.max_power_point()
        return np.concatenate(
            [np.linspace(0.0, p_max, 2001), [1e-12, 5e-10, np.nextafter(p_max, 0.0)]]
        )

    def test_array_equals_scalar_oracle(self, stack_curve, powers):
        expected = [reference_current_for_power(stack_curve, float(p)) for p in powers]
        got = stack_curve.current_for_power(powers)
        assert got.shape == powers.shape
        assert got.tolist() == expected

    @pytest.mark.parametrize("steps", [10, 30])
    def test_each_element_stops_at_its_own_step(self, stack_curve, powers, steps):
        # With tol at i_mpp / 2**steps, rounding leaves some brackets just
        # above tol and others at or below it, so the elements stop one
        # step apart; a bisection that moved them all on together differs.
        i_mpp, _ = stack_curve.max_power_point()
        tol = i_mpp * 2.0**-steps
        expected = [
            reference_current_for_power(stack_curve, float(p), tol) for p in powers
        ]
        assert stack_curve.current_for_power(powers, tol).tolist() == expected

    def test_scalar_call_returns_the_oracle_float(self, stack_curve, powers):
        for p in powers[::50]:
            got = stack_curve.current_for_power(float(p))
            assert type(got) is float
            assert got == reference_current_for_power(stack_curve, float(p))

    def test_keeps_shape_of_2d_input(self, stack_curve):
        powers = np.array([[0.0, 2.0], [8.0, 15.0]])
        got = stack_curve.current_for_power(powers)
        assert got.shape == (2, 2)
        assert got[1, 0] == reference_current_for_power(stack_curve, 8.0)

    def test_negative_element_rejected(self, stack_curve):
        with pytest.raises(RangeError, match="negative"):
            stack_curve.current_for_power(np.array([1.0, -1e-12, 5.0]))

    def test_element_above_capacity_rejected(self, stack_curve):
        _, p_max = stack_curve.max_power_point()
        with pytest.raises(RangeError, match="exceeds stack capacity"):
            stack_curve.current_for_power(np.array([1.0, np.nextafter(p_max, 99.0)]))


class TestSweep:
    def test_sweep_shapes(self, stack_curve):
        i, v, p = stack_curve.sweep(n_points=50)
        assert len(i) == len(v) == len(p) == 50
        assert i[0] == 0.0

    def test_sweep_respects_i_max(self, stack_curve):
        i, _, _ = stack_curve.sweep(n_points=10, i_max=1.0)
        assert i[-1] == pytest.approx(1.0)

    def test_single_cell_vs_stack_scaling(self):
        one = PolarizationCurve(BCS_20W_CELL, n_cells=1)
        twenty = PolarizationCurve(BCS_20W_CELL, n_cells=20)
        assert twenty.stack_voltage(0.5) == pytest.approx(20 * one.cell_voltage(0.5))

    def test_rejects_zero_cells(self):
        with pytest.raises(ConfigurationError):
            PolarizationCurve(BCS_20W_CELL, n_cells=0)
