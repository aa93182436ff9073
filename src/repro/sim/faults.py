"""Failure injection: degrade the fuel cell and watch policies cope.

:class:`DegradedEfficiency` models FC stack aging: the whole efficiency
curve scales down by a health factor (membrane degradation, catalyst
loss).  It is a wrapper the standard simulators accept unchanged.  The
fault-injection tests assert *graceful degradation*: fuel rises
smoothly with damage and FC-DPM keeps beating ASAP.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..fuelcell.efficiency import SystemEfficiencyModel


class DegradedEfficiency(SystemEfficiencyModel):
    """Scale a base efficiency model by a health factor in (0, 1]."""

    def __init__(self, base: SystemEfficiencyModel, health: float) -> None:
        if not 0 < health <= 1:
            raise ConfigurationError("health must be in (0, 1]")
        super().__init__(
            v_out=base.v_out,
            zeta=base.zeta,
            if_min=base.if_min,
            if_max=base.if_max,
        )
        self.base = base
        self.health = health

    def efficiency(self, i_f: float) -> float:
        return self.health * self.base.efficiency(i_f)
