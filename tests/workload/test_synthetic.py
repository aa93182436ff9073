"""Synthetic workload generator tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.synthetic import experiment2_trace, uniform_slots


class TestUniform:
    def test_ranges_respected(self):
        trace = uniform_slots(
            200, idle_range=(5, 25), active_range=(2, 4), current_range=(1.0, 1.33),
            seed=1,
        )
        for s in trace:
            assert 5 <= s.t_idle <= 25
            assert 2 <= s.t_active <= 4
            assert 1.0 <= s.i_active <= 1.33

    def test_deterministic(self):
        a = uniform_slots(10, (5, 25), (2, 4), (1, 1.3), seed=9)
        b = uniform_slots(10, (5, 25), (2, 4), (1, 1.3), seed=9)
        assert a == b

    def test_rejects_zero_slots(self):
        with pytest.raises(ConfigurationError):
            uniform_slots(0, (5, 25), (2, 4), (1, 1.3))

    def test_rejects_inverted_range(self):
        with pytest.raises(ConfigurationError):
            uniform_slots(5, (25, 5), (2, 4), (1, 1.3))


class TestExperiment2:
    def test_paper_parameters(self):
        trace = experiment2_trace(seed=0)
        assert len(trace) == 100
        idles = np.array([s.t_idle for s in trace])
        currents = np.array([s.i_active for s in trace])
        assert idles.min() >= 5 and idles.max() <= 25
        # Powers 12-16 W on 12 V -> 1.0-1.333 A.
        assert currents.min() >= 1.0 and currents.max() <= 16 / 12

    def test_n_slots_override(self):
        assert len(experiment2_trace(n_slots=17)) == 17
