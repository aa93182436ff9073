"""Break-even time of a DPM device's SLEEP state (paper Fig. 6, Table 1).

A DPM device exposes a small set of power states (the paper uses RUN,
STANDBY, SLEEP) connected by transitions that cost both time and energy.
The classic DPM quantity derived from these costs is the **break-even
time** ``Tbe``: the minimum idle-period length for which entering the
low-power state saves energy (Benini et al., paper ref [4]).
"""

from __future__ import annotations

from ..errors import ConfigurationError


def break_even_time(
    t_pd: float,
    t_wu: float,
    i_pd: float,
    i_wu: float,
    i_high: float,
    i_low: float,
) -> float:
    """DPM break-even time ``Tbe`` (Benini et al., ref [4]).

    The idle length at which sleeping (paying the power-down / wake-up
    overheads to sit at ``i_low``) costs exactly as much charge as
    staying at ``i_high``:

        Tbe = max(t_pd + t_wu,
                  (t_pd*(i_pd - i_low) + t_wu*(i_wu - i_low))
                  / (i_high - i_low))

    The first term enforces feasibility: an idle period shorter than the
    combined transition latency cannot host a sleep at all.  The paper
    uses the simplified ``Tbe = t_pd + t_wu`` when the transition current
    matches the standby current (Experiment 1) and quotes ``Tbe = 10 s``
    for Experiment 2's heavier overheads.
    """
    if min(t_pd, t_wu, i_pd, i_wu, i_high, i_low) < 0:
        raise ConfigurationError("break-even inputs must be non-negative")
    if i_high <= i_low:
        raise ConfigurationError(
            "high-power state must draw more than the low-power state"
        )
    latency_floor = t_pd + t_wu
    overhead_charge = t_pd * (i_pd - i_low) + t_wu * (i_wu - i_low)
    energy_floor = overhead_charge / (i_high - i_low)
    return max(latency_floor, energy_floor)
