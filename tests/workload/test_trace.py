"""TaskSlot / LoadTrace container tests."""

import pytest

from repro.errors import TraceError
from repro.workload.trace import LoadTrace, TaskSlot


@pytest.fixture
def trace() -> LoadTrace:
    return LoadTrace(
        [
            TaskSlot(10.0, 3.0, 1.2),
            TaskSlot(20.0, 3.0, 1.0),
            TaskSlot(15.0, 4.0, 1.1),
        ],
        name="t3",
    )


class TestTaskSlot:
    def test_length(self):
        assert TaskSlot(10.0, 3.0, 1.2).length == 13.0

    def test_active_charge(self):
        assert TaskSlot(10.0, 3.0, 1.2).active_charge == pytest.approx(3.6)

    def test_rejects_negative_idle(self):
        with pytest.raises(TraceError):
            TaskSlot(-1.0, 3.0, 1.2)

    def test_rejects_zero_active(self):
        with pytest.raises(TraceError):
            TaskSlot(10.0, 0.0, 1.2)

    def test_rejects_negative_current(self):
        with pytest.raises(TraceError):
            TaskSlot(10.0, 3.0, -0.1)

    def test_zero_idle_allowed(self):
        assert TaskSlot(0.0, 3.0, 1.2).t_idle == 0.0

    @pytest.mark.parametrize("field", ["t_idle", "t_active", "i_active"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_naming_the_field(self, field, value):
        values = {"t_idle": 10.0, "t_active": 3.0, "i_active": 1.2, field: value}
        with pytest.raises(TraceError, match=f"non-finite {field}"):
            TaskSlot(**values)


class TestLoadTrace:
    def test_sequence_protocol(self, trace):
        assert len(trace) == 3
        assert trace[1].t_idle == 20.0
        assert [s.t_active for s in trace] == [3.0, 3.0, 4.0]

    def test_slice_returns_trace(self, trace):
        sub = trace[:2]
        assert isinstance(sub, LoadTrace)
        assert len(sub) == 2

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            LoadTrace([])

    def test_duration(self, trace):
        assert trace.duration == pytest.approx(55.0)

    def test_idle_active_split(self, trace):
        assert trace.idle_time == 45.0
        assert trace.active_time == 10.0
        assert trace.duty_cycle == pytest.approx(10 / 55)

    def test_means(self, trace):
        assert trace.mean_idle() == pytest.approx(15.0)
        assert trace.mean_active() == pytest.approx(10 / 3)

    def test_mean_active_current_weighted(self, trace):
        expected = (1.2 * 3 + 1.0 * 3 + 1.1 * 4) / 10
        assert trace.mean_active_current() == pytest.approx(expected)

    def test_peak_current(self, trace):
        assert trace.peak_current == 1.2

    def test_average_current(self, trace):
        q = 1.2 * 3 + 1.0 * 3 + 1.1 * 4 + 0.2 * 45
        assert trace.average_current(0.2) == pytest.approx(q / 55)

    def test_average_current_rejects_negative_idle(self, trace):
        with pytest.raises(TraceError):
            trace.average_current(-0.1)

    def test_equality_and_hash(self, trace):
        same = LoadTrace(list(trace), name="other-name")
        assert trace == same
        assert hash(trace) == hash(same)

    def test_repr(self, trace):
        assert "t3" in repr(trace)
        assert "3 slots" in repr(trace)
