"""Synthetic slot generators: Experiment 2 and its fleet variant.

Experiment 2 (paper Section 5.2) randomizes the camcorder profile:
idle ~ U[5, 25] s, active ~ U[2, 4] s, active power ~ U[12, 16] W.
"""

from __future__ import annotations

import numpy as np

from ..config import Experiment2Constants
from ..errors import ConfigurationError
from .trace import LoadTrace, TaskSlot


def _rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def uniform_slots(
    n_slots: int,
    idle_range: tuple[float, float],
    active_range: tuple[float, float],
    current_range: tuple[float, float],
    seed=0,
    name: str = "uniform",
) -> LoadTrace:
    """Slots with independently uniform idle/active lengths and currents."""
    if n_slots < 1:
        raise ConfigurationError("need at least one slot")
    for lo, hi in (idle_range, active_range, current_range):
        if not 0 <= lo <= hi:
            raise ConfigurationError("ranges must satisfy 0 <= low <= high")
    rng = _rng(seed)
    slots = [
        TaskSlot(
            t_idle=float(rng.uniform(*idle_range)),
            t_active=float(rng.uniform(*active_range)),
            i_active=float(rng.uniform(*current_range)),
        )
        for _ in range(n_slots)
    ]
    return LoadTrace(slots, name=name)


#: Extra SeedSequence word that keys the per-device fleet-jitter draw.
#: A dedicated stream (``[seed, _FLEET_STREAM]``) keeps the jitter
#: factor from consuming the slot stream: a fleet device's slots are
#: the same uniform draws as its homogeneous twin, just rescaled.
_FLEET_STREAM = 0x666C6565  # "flee"


def _fleet_scale(seed: int, jitter: float) -> float:
    """Deterministic per-device workload scale in ``[1-jitter, 1+jitter]``."""
    if jitter == 0.0:
        return 1.0
    u = np.random.default_rng([int(seed), _FLEET_STREAM]).uniform(-jitter, jitter)
    return 1.0 + float(u)


def uniform_slot_arrays(
    n_slots: int,
    idle_range: tuple[float, float],
    active_range: tuple[float, float],
    current_range: tuple[float, float],
    seeds,
    range_scales=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multi-seed :func:`uniform_slots` as ``(rows, n_slots)`` value arrays.

    Returns ``(t_idle, t_active, i_active)``, row ``r`` bit-identical
    to the slot values of ``uniform_slots(..., seed=seeds[r])``: one
    bulk ``Generator.random`` call per seed replaces ``3 * n_slots``
    scalar ``uniform`` calls (``uniform(lo, hi)`` draws exactly
    ``lo + (hi - lo) * random()``, and the per-slot interleaving maps to
    stride-3 columns of the raw stream), then one vectorized affine
    transform per column family covers the whole batch.  This is the
    synthesis kernel behind ``Scenario.build_slot_arrays`` -- trace synthesis
    is the dominant per-seed cost of a batched sweep.

    ``range_scales`` (optional, one float per seed) scales all range
    bounds per row -- heterogeneous-fleet workloads; row ``r`` then
    matches ``uniform_slots`` called with every range bound multiplied
    by ``range_scales[r]``.
    """
    if n_slots < 1:
        raise ConfigurationError("need at least one slot")
    seed_list = [int(s) for s in seeds]
    rows = len(seed_list)
    if rows == 0:
        raise ConfigurationError("need at least one seed")
    scales = None
    if range_scales is not None:
        scales = np.asarray(range_scales, dtype=float)
        if scales.shape != (rows,):
            raise ConfigurationError("need one range scale per seed")
    for lo, hi in (idle_range, active_range, current_range):
        if not 0 <= lo <= hi:
            raise ConfigurationError("ranges must satisfy 0 <= low <= high")
        if scales is not None and (
            float((lo * scales).min()) < 0
            or bool((lo * scales > hi * scales).any())
        ):
            raise ConfigurationError("ranges must satisfy 0 <= low <= high")
    raw = np.empty((rows, 3 * n_slots), dtype=float)
    for r, seed in enumerate(seed_list):
        np.random.default_rng(seed).random(out=raw[r])
    out = []
    for k, (lo, hi) in enumerate((idle_range, active_range, current_range)):
        if scales is not None:
            lo = (lo * scales)[:, None]
            hi = (hi * scales)[:, None]
        out.append(lo + (hi - lo) * raw[:, k::3])
    return out[0], out[1], out[2]


def experiment2_trace(
    constants: Experiment2Constants | None = None,
    seed: int = 2007,
    n_slots: int | None = None,
    v_rail: float = 12.0,
) -> LoadTrace:
    """The paper's Experiment-2 randomized workload.

    Idle U[5, 25] s, active U[2, 4] s, active power U[12, 16] W on the
    12 V rail (currents 1.0-1.333 A).
    """
    e = constants if constants is not None else Experiment2Constants()
    n = e.n_slots if n_slots is None else n_slots
    return uniform_slots(
        n_slots=n,
        idle_range=(e.idle_low, e.idle_high),
        active_range=(e.active_low, e.active_high),
        current_range=(e.p_active_low / v_rail, e.p_active_high / v_rail),
        seed=seed,
        name="experiment2",
    )


def experiment2_slot_arrays(
    seeds,
    constants: Experiment2Constants | None = None,
    n_slots: int | None = None,
    v_rail: float = 12.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :func:`experiment2_trace` slot values (see
    :func:`uniform_slot_arrays`); row ``r`` equals the slots of
    ``experiment2_trace(seed=seeds[r])`` bit for bit."""
    e = constants if constants is not None else Experiment2Constants()
    n = e.n_slots if n_slots is None else n_slots
    return uniform_slot_arrays(
        n_slots=n,
        idle_range=(e.idle_low, e.idle_high),
        active_range=(e.active_low, e.active_high),
        current_range=(e.p_active_low / v_rail, e.p_active_high / v_rail),
        seeds=seeds,
    )


def fleet_slot_arrays(
    seeds,
    constants: Experiment2Constants | None = None,
    n_slots: int | None = None,
    v_rail: float = 12.0,
    jitter: float = 0.25,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :func:`fleet_trace` slot values; row ``r`` equals the
    slots of ``fleet_trace(seed=seeds[r], jitter=jitter)`` bit for bit."""
    if not 0 <= jitter < 1:
        raise ConfigurationError("fleet jitter must be in [0, 1)")
    e = constants if constants is not None else Experiment2Constants()
    n = e.n_slots if n_slots is None else n_slots
    scales = np.array([_fleet_scale(s, jitter) for s in seeds], dtype=float)
    return uniform_slot_arrays(
        n_slots=n,
        idle_range=(e.idle_low, e.idle_high),
        active_range=(e.active_low, e.active_high),
        current_range=(e.p_active_low / v_rail, e.p_active_high / v_rail),
        seeds=seeds,
        range_scales=scales,
    )


def fleet_trace(
    constants: Experiment2Constants | None = None,
    seed: int = 2007,
    n_slots: int | None = None,
    v_rail: float = 12.0,
    jitter: float = 0.25,
) -> LoadTrace:
    """One heterogeneous-fleet device: jittered Experiment-2 workload.

    A fleet device is the Experiment-2 randomized camcorder with every
    range bound scaled by a deterministic per-device factor in
    ``[1 - jitter, 1 + jitter]`` (drawn from a dedicated seed-offset
    stream, so the slot draws themselves stay aligned with the
    homogeneous workload).  Devices with small factors are light,
    bursty loads; large factors are heavy ones -- the spread the fleet
    aggregate fuel/deficit distributions measure.
    """
    if not 0 <= jitter < 1:
        raise ConfigurationError("fleet jitter must be in [0, 1)")
    e = constants if constants is not None else Experiment2Constants()
    n = e.n_slots if n_slots is None else n_slots
    f = _fleet_scale(seed, jitter)
    return uniform_slots(
        n_slots=n,
        idle_range=(e.idle_low * f, e.idle_high * f),
        active_range=(e.active_low * f, e.active_high * f),
        current_range=(e.p_active_low / v_rail * f, e.p_active_high / v_rail * f),
        seed=seed,
        name="fleet",
    )

