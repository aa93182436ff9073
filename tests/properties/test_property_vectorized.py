"""Property-based scalar-equivalence gates for the vectorized kernel.

These are the acceptance tests that let ``simulate_fast`` exist at all:
over randomized traces the array kernel must reproduce the scalar
simulator *exactly* -- ``==`` on every ledger (fuel, load charge, bled,
deficit, storage trajectory), not approximately.  A single differing
bit is a failure.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import StaticController
from repro.core.manager import PowerManager
from repro.devices.camcorder import camcorder_device_params
from repro.sim.slotsim import SlotSimulator
from repro.sim.vectorized import clamped_cumsum, simulate_fast
from repro.workload.trace import LoadTrace, TaskSlot

slots = st.lists(
    st.builds(
        TaskSlot,
        t_idle=st.floats(min_value=2.0, max_value=60.0, allow_nan=False),
        t_active=st.floats(min_value=0.5, max_value=10.0, allow_nan=False),
        i_active=st.floats(min_value=0.1, max_value=1.3, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
)


def _end_state(mgr):
    src = mgr.source
    return (
        src.total_fuel,
        src.total_time,
        src.total_load_charge,
        src.total_delivered_charge,
        src.storage.charge,
        src.storage.bled_charge,
        src.storage.deficit_charge,
        src.fc.tank.consumed,
    )


def _assert_exact(build, slot_list):
    """Fast and scalar runs of ``build()``'s manager must match exactly."""
    trace = LoadTrace(slot_list)
    m_fast, m_scalar = build(), build()
    # Adversarial traces may overwhelm the tiny storage; accounting is
    # under test here, not sizing, so the deficit guard is disabled.
    r_fast = simulate_fast(m_fast, trace, max_deficit_fraction=1.0)
    r_scalar = SlotSimulator(m_scalar, max_deficit_fraction=1.0).run(trace)
    assert r_fast == r_scalar  # every field: fuel, charge, slots, ...
    assert r_fast.fuel == r_scalar.fuel
    assert r_fast.load_charge == r_scalar.load_charge
    assert r_fast.bled == r_scalar.bled
    assert r_fast.deficit == r_scalar.deficit
    assert _end_state(m_fast) == _end_state(m_scalar)


class TestSimulateFastEquivalence:
    @given(slots)
    @settings(max_examples=25, deadline=None)
    def test_conv_dpm_exact(self, slot_list):
        dev = camcorder_device_params()
        _assert_exact(
            lambda: PowerManager.conv_dpm(
                dev, storage_capacity=6.0, storage_initial=3.0
            ),
            slot_list,
        )

    @given(slots)
    @settings(max_examples=25, deadline=None)
    def test_asap_dpm_exact(self, slot_list):
        dev = camcorder_device_params()
        _assert_exact(
            lambda: PowerManager.asap_dpm(
                dev, storage_capacity=6.0, storage_initial=3.0
            ),
            slot_list,
        )

    @given(slots, st.floats(min_value=0.2, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_static_controller_exact(self, slot_list, i_f):
        dev = camcorder_device_params()

        def build():
            mgr = PowerManager.conv_dpm(
                dev, storage_capacity=6.0, storage_initial=3.0
            )
            mgr.controller = StaticController(mgr.controller.model, i_f)
            return mgr

        _assert_exact(build, slot_list)

    @given(slots)
    @settings(max_examples=25, deadline=None)
    def test_fc_dpm_exact(self, slot_list):
        # The scan-compiled adaptive controller: beyond the result and
        # source ledgers, the *learned* end state must also match --
        # predictor estimates and accuracy ledgers, the active-current
        # running mean, the per-slot solver log, and the guard counter.
        dev = camcorder_device_params()

        def build():
            return PowerManager.fc_dpm(
                dev, storage_capacity=6.0, storage_initial=3.0
            )

        _assert_exact(build, slot_list)
        trace = LoadTrace(slot_list)
        m_fast, m_scalar = build(), build()
        simulate_fast(m_fast, trace, max_deficit_fraction=1.0)
        SlotSimulator(m_scalar, max_deficit_fraction=1.0).run(trace)
        cf, cs = m_fast.controller, m_scalar.controller
        assert cf.idle_length_predictor.estimate == (
            cs.idle_length_predictor.estimate
        )
        assert cf.active_length_predictor.estimate == (
            cs.active_length_predictor.estimate
        )
        assert cf._active_current_sum == cs._active_current_sum
        assert cf._active_current_n == cs._active_current_n
        assert cf._if_idle == cs._if_idle
        assert cf._if_active == cs._if_active
        assert cf.solutions == cs.solutions
        assert cf.n_guard_activations == cs.n_guard_activations
        pf = m_fast.policy.predictor
        ps = m_scalar.policy.predictor
        assert pf.estimate == ps.estimate


def _clamped_cumsum_reference(deltas, initial, capacity):
    """The scalar ``ChargeStorage._apply`` recurrence, verbatim."""
    cur = initial
    bled = 0.0
    deficit = 0.0
    charges = [initial]
    for d in deltas:
        new = cur + d
        if new > capacity:
            bled += new - capacity
            cur = capacity
        elif new < 0:
            deficit += -new
            cur = 0.0
        else:
            cur = new
        charges.append(cur)
    return charges, bled, deficit


deltas_strategy = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=0,
    max_size=60,
)


class TestClampedCumsum:
    @given(
        deltas_strategy,
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.5, max_value=40.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_reference_exactly(self, deltas, frac, capacity):
        initial = frac * capacity
        arr = np.asarray(deltas, dtype=float)
        charges, bled, deficit = clamped_cumsum(arr, initial, capacity)
        ref_charges, ref_bled, ref_deficit = _clamped_cumsum_reference(
            deltas, initial, capacity
        )
        assert charges.tolist() == ref_charges  # bit-exact, not approx
        assert bled == ref_bled
        assert deficit == ref_deficit

    @given(
        deltas_strategy,
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.5, max_value=40.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_pure_sequential_path_identical(self, deltas, frac, capacity):
        # max_rescans=0 forces the compiled-float sequential tail from
        # the first element; values must not depend on the strategy.
        initial = frac * capacity
        arr = np.asarray(deltas, dtype=float)
        assert [
            a.tolist() if isinstance(a, np.ndarray) else a
            for a in clamped_cumsum(arr, initial, capacity, max_rescans=0)
        ] == [
            a.tolist() if isinstance(a, np.ndarray) else a
            for a in clamped_cumsum(arr, initial, capacity)
        ]

    def test_seed_accumulators_carry_through(self):
        arr = np.asarray([10.0, -20.0], dtype=float)
        _, bled, deficit = clamped_cumsum(
            arr, 0.0, 5.0, bled=1.5, deficit=2.5
        )
        assert bled == 1.5 + 5.0
        assert deficit == 2.5 + 15.0


