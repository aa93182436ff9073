"""Property-based bit-exactness gates for the stacked 2D batch kernel.

Three layers of the stacked route carry their own exactness contract:
the batched clamp recurrence must equal the 1D recurrence per row, the
batched predictor scan must equal the 1D scan per row, and the whole
``simulate_batch`` stacked route must equal the scalar oracle
(:func:`tests.oracle.scalar_batch`) on every result field.  Hypothesis drives ragged shapes, clamp-dense
deltas, and degenerate rescan budgets at each layer; ``==`` is the only
comparison -- a single differing bit fails.
"""

import dataclasses
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prediction.exponential import (
    exponential_average_scan,
    exponential_average_scan_batch,
)
from repro.scenario import get_scenario
from repro.sim.slotsim import SlotColumns
from repro.sim.stacked import clamped_cumsum_batch
from repro.sim.vectorized import clamped_cumsum, simulate_batch
from repro.workload.trace import LoadTrace, TaskSlot
from tests.oracle import scalar_batch

ragged_rows = st.lists(
    st.lists(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        min_size=0,
        max_size=15,
    ),
    min_size=1,
    max_size=5,
)


def _pad(rows):
    width = max((len(r) for r in rows), default=0)
    deltas = np.zeros((len(rows), width), dtype=float)
    for i, r in enumerate(rows):
        deltas[i, : len(r)] = r
    n_valid = np.array([len(r) for r in rows], dtype=np.intp)
    return deltas, n_valid


@given(
    rows=ragged_rows,
    initial=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    # Small capacities make clamp events dense, exercising the rescan
    # budget and the sequential tail; large ones leave rows clamp-free.
    capacity=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
    max_rescans=st.sampled_from([0, 1, 2, 8]),
)
@settings(max_examples=200, deadline=None)
def test_clamped_cumsum_batch_matches_per_row_1d(
    rows, initial, capacity, max_rescans
):
    initial = min(initial, capacity)
    deltas, n_valid = _pad(rows)
    charges, bled, deficit = clamped_cumsum_batch(
        deltas, n_valid, initial, capacity, max_rescans=max_rescans
    )
    for r, row in enumerate(rows):
        c1, b1, d1 = clamped_cumsum(
            np.asarray(row, dtype=float),
            initial,
            capacity,
            max_rescans=max_rescans,
        )
        n = len(row)
        # Bit-exact: compare the raw float64 bits, not values, so that
        # even a -0.0 vs +0.0 drift would fail.
        assert (
            charges[r, : n + 1].view(np.uint64).tolist()
            == c1.view(np.uint64).tolist()
        )
        assert bled[r].view(np.uint64) == np.float64(b1).view(np.uint64)
        assert deficit[r].view(np.uint64) == np.float64(d1).view(np.uint64)


@given(
    rows=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
            min_size=0,
            max_size=12,
        ),
        min_size=1,
        max_size=5,
    ),
    factor=st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    initial=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_scan_batch_matches_per_row_1d(rows, factor, initial):
    obs, n_valid = _pad(rows)
    preds, finals = exponential_average_scan_batch(factor, initial, obs, n_valid)
    for r, row in enumerate(rows):
        p1, f1 = exponential_average_scan(factor, initial, row)
        n = len(row)
        assert preds[r, :n].tolist() == p1.tolist()
        assert finals[r] == f1


slot_lists = st.lists(
    st.builds(
        TaskSlot,
        t_idle=st.floats(min_value=2.0, max_value=60.0, allow_nan=False),
        t_active=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
        i_active=st.floats(min_value=0.1, max_value=1.3, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)


@given(traces=st.lists(slot_lists, min_size=2, max_size=4))
@settings(max_examples=10, deadline=None)
def test_stacked_batch_matches_serial_loop(traces):
    """Stacked vs scalar on adversarial ragged traces, every field exact."""
    sc = get_scenario("exp2-conv-dpm")
    seeds = list(range(len(traces)))
    built = {s: LoadTrace(t) for s, t in zip(seeds, traces)}
    policies = ["conv-dpm", "asap-dpm", "static:0.8", "fc-dpm"]
    # Adversarial traces may overwhelm the storage; accounting is under
    # test, not sizing, so the deficit guard is disabled.
    a = simulate_batch(
        sc, seeds, policies, traces=built, max_deficit_fraction=1.0
    )
    b = scalar_batch(sc, seeds, policies, traces=built, max_deficit_fraction=1.0)
    assert a.keys() == b.keys()
    for seed in seeds:
        for name in policies:
            ra, rb = a[seed][name], b[seed][name]
            assert dataclasses.asdict(ra) == dataclasses.asdict(rb), (seed, name)


@given(traces=st.lists(slot_lists, min_size=1, max_size=3), data=st.data())
@settings(max_examples=10, deadline=None)
def test_slot_columns_views_behave_like_oracle_lists(traces, data):
    """Kernel slot views (1D at width 1, stacked above) vs scalar lists.

    Equal in both operand orders, same length, same rows under any
    (negative too) index, and equal again after a pickle round trip.
    """
    sc = get_scenario("exp2-conv-dpm")
    seeds = list(range(len(traces)))
    built = {s: LoadTrace(t) for s, t in zip(seeds, traces)}
    policies = ["conv-dpm", "asap-dpm", "fc-dpm"]
    a = simulate_batch(sc, seeds, policies, traces=built, max_deficit_fraction=1.0)
    b = scalar_batch(sc, seeds, policies, traces=built, max_deficit_fraction=1.0)
    for seed in seeds:
        for name in policies:
            view, rows = a[seed][name].slots, b[seed][name].slots
            assert isinstance(view, SlotColumns)
            assert len(view) == len(rows)
            assert view == rows and rows == view
            i = data.draw(st.integers(-len(rows), len(rows) - 1))
            assert view[i] == rows[i]
            assert pickle.loads(pickle.dumps(view)) == rows
