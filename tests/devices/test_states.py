"""Break-even-time tests."""

import pytest

from repro.devices.states import break_even_time
from repro.errors import ConfigurationError


class TestBreakEven:
    def test_latency_floor(self):
        # Paper Exp. 1: transition current equals standby current and the
        # transitions draw more than sleep saves -> Tbe = tau_PD + tau_WU.
        tbe = break_even_time(
            t_pd=0.5, t_wu=0.5, i_pd=0.403, i_wu=0.403, i_high=0.403, i_low=0.2
        )
        assert tbe == pytest.approx(1.0)

    def test_energy_floor_dominates_with_heavy_overheads(self):
        # Paper Exp. 2: 1 s at 1.2 A each way, standby 0.403 vs sleep 0.2:
        # overhead charge = 2*(1.2-0.2) = 2.0; saving rate 0.203 A ->
        # ~9.85 s, which the paper rounds to Tbe = 10 s.
        tbe = break_even_time(
            t_pd=1.0, t_wu=1.0, i_pd=1.2, i_wu=1.2, i_high=0.403, i_low=0.2
        )
        assert tbe == pytest.approx(10.0, abs=0.2)

    def test_zero_overhead(self):
        assert break_even_time(0, 0, 0, 0, 1.0, 0.1) == 0.0

    def test_rejects_inverted_currents(self):
        with pytest.raises(ConfigurationError):
            break_even_time(1, 1, 1, 1, i_high=0.1, i_low=0.4)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ConfigurationError):
            break_even_time(-1, 1, 1, 1, 0.4, 0.2)
