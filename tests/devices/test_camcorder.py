"""DVD-camcorder device model tests (paper Fig. 6)."""

import pytest

from repro.devices.camcorder import camcorder_device_params, randomized_device_params


class TestExperiment1Params:
    def test_paper_currents(self):
        p = camcorder_device_params()
        assert p.i_run == pytest.approx(14.65 / 12)
        assert p.i_sdb == pytest.approx(4.84 / 12)
        assert p.i_slp == pytest.approx(0.2)

    def test_transition_overheads(self):
        p = camcorder_device_params()
        assert p.t_pd == p.t_wu == 0.5
        assert p.i_pd == p.i_wu == pytest.approx(0.40)
        assert p.t_sdb_to_run == 1.5
        assert p.t_run_to_sdb == 0.5

    def test_break_even_is_1s(self):
        assert camcorder_device_params().break_even == pytest.approx(1.0)


class TestExperiment2Params:
    def test_heavier_overheads(self):
        p = randomized_device_params()
        assert p.t_pd == p.t_wu == 1.0
        assert p.i_pd == p.i_wu == pytest.approx(1.2)

    def test_break_even_is_10s(self):
        assert randomized_device_params().break_even == pytest.approx(10.0)

    def test_same_state_currents_as_exp1(self):
        p1 = camcorder_device_params()
        p2 = randomized_device_params()
        assert p2.i_sdb == p1.i_sdb
        assert p2.i_slp == p1.i_slp
