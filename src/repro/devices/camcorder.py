"""The paper's DVD camcorder (Fig. 6) and its Experiment-2 variant.

The camcorder is an MPEG encoder feeding a 16 MB buffer drained by a 4x
DVD writer at 5.28 MB/s.  Encoding runs continuously (STANDBY); when the
buffer fills, the writer wakes (RUN, 3.03 s); between writes the writer
can be put to SLEEP.  The LCD is off throughout the trace.
"""

from __future__ import annotations

from ..config import CamcorderConstants, Experiment2Constants
from .device import DeviceParams


def camcorder_device_params(
    constants: CamcorderConstants | None = None,
    i_pd: float = 0.40,
    i_wu: float = 0.40,
) -> DeviceParams:
    """Device parameters of the paper's DVD camcorder (Experiment 1).

    Fig. 6: RUN 14.65 W, STANDBY 4.84 W, SLEEP 2.40 W on a 12 V rail;
    SLEEP transitions take 0.5 s at 4.84 W (the paper's block diagram
    labels them 0.40 A / ~4.65 W -- we expose ``i_pd`` / ``i_wu`` so both
    readings are available); STANDBY->RUN 1.5 s, RUN->STANDBY 0.5 s at
    RUN power; ``Tbe = tau_PD + tau_WU = 1 s``.
    """
    c = constants if constants is not None else CamcorderConstants()
    return DeviceParams.from_powers(
        p_run=c.p_run,
        p_sdb=c.p_standby,
        p_slp=c.p_sleep,
        v_rail=12.0,
        t_pd=c.t_pd,
        t_wu=c.t_wu,
        i_pd=i_pd,
        i_wu=i_wu,
        t_sdb_to_run=c.t_standby_to_run,
        t_run_to_sdb=c.t_run_to_standby,
        t_be=c.break_even_time,
    )


def randomized_device_params(
    constants: Experiment2Constants | None = None,
) -> DeviceParams:
    """Device parameters of the randomized Experiment-2 system.

    Same camcorder power states, but heavier SLEEP overheads
    (``tau_PD = tau_WU = 1 s`` at 1.2 A) and ``Tbe = 10 s``.
    """
    e = constants if constants is not None else Experiment2Constants()
    cam = CamcorderConstants()
    return DeviceParams.from_powers(
        p_run=cam.p_run,
        p_sdb=cam.p_standby,
        p_slp=cam.p_sleep,
        v_rail=12.0,
        t_pd=e.t_pd,
        t_wu=e.t_wu,
        i_pd=e.i_pd,
        i_wu=e.i_wu,
        t_sdb_to_run=cam.t_standby_to_run,
        t_run_to_sdb=cam.t_run_to_standby,
        t_be=e.break_even_time,
    )
