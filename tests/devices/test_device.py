"""DeviceParams tests."""

import pytest

from repro.devices.device import DeviceParams
from repro.errors import ConfigurationError


@pytest.fixture
def params() -> DeviceParams:
    return DeviceParams.from_powers(
        p_run=14.65,
        p_sdb=4.84,
        p_slp=2.40,
        t_pd=0.5,
        t_wu=0.5,
        i_pd=0.4,
        i_wu=0.4,
        t_sdb_to_run=1.5,
        t_run_to_sdb=0.5,
        t_be=1.0,
    )


class TestDeviceParams:
    def test_from_powers(self, params):
        assert params.i_run == pytest.approx(14.65 / 12)
        assert params.i_sdb == pytest.approx(4.84 / 12)
        assert params.i_slp == pytest.approx(0.2)

    def test_break_even_explicit(self, params):
        assert params.break_even == 1.0

    def test_break_even_derived_equal_currents(self):
        p = DeviceParams(i_run=1.2, i_sdb=0.4, i_slp=0.4, t_pd=0.5, t_wu=0.5)
        assert p.break_even == pytest.approx(1.0)

    def test_break_even_derived_energy_bound(self):
        p = DeviceParams(
            i_run=1.2, i_sdb=0.403, i_slp=0.2, t_pd=1.0, t_wu=1.0,
            i_pd=1.2, i_wu=1.2,
        )
        assert p.break_even == pytest.approx(9.85, abs=0.1)

    def test_sleep_overhead_charge(self, params):
        assert params.sleep_overhead_charge == pytest.approx(0.4)

    def test_idle_charge_standby(self, params):
        assert params.idle_charge(10.0, sleep=False) == pytest.approx(
            params.i_sdb * 10
        )

    def test_idle_charge_sleep(self, params):
        # 0.5 s PD + 0.5 s WU at 0.4 A, 9 s at 0.2 A.
        assert params.idle_charge(10.0, sleep=True) == pytest.approx(0.4 + 1.8)

    def test_idle_charge_sleep_saves_above_breakeven(self, params):
        t = 5.0
        assert params.idle_charge(t, sleep=True) < params.idle_charge(t, sleep=False)

    def test_idle_charge_too_short_to_sleep(self, params):
        with pytest.raises(ConfigurationError):
            params.idle_charge(0.5, sleep=True)

    def test_rejects_sleep_above_standby(self):
        with pytest.raises(ConfigurationError):
            DeviceParams(i_run=1.0, i_sdb=0.2, i_slp=0.4)

    def test_rejects_negative_current(self):
        with pytest.raises(ConfigurationError):
            DeviceParams(i_run=-1.0, i_sdb=0.4, i_slp=0.2)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        ["i_run", "i_sdb", "i_slp", "i_pd", "i_wu", "t_pd", "t_wu",
         "t_sdb_to_run", "t_run_to_sdb", "t_be", "v_rail"],
    )
    def test_rejects_non_finite_field_by_name(self, name, value):
        kwargs = {"i_run": 1.0, "i_sdb": 0.4, "i_slp": 0.2, name: value}
        with pytest.raises(ConfigurationError, match=rf"^{name} must be finite"):
            DeviceParams(**kwargs)

    @pytest.mark.parametrize("v_rail", [0.0, -12.0])
    def test_rejects_non_positive_rail(self, v_rail):
        with pytest.raises(ConfigurationError, match="v_rail must be finite and positive"):
            DeviceParams(i_run=1.0, i_sdb=0.4, i_slp=0.2, v_rail=v_rail)
