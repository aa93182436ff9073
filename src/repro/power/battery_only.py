"""Battery-only source: the no-fuel-cell contrast plant.

The paper's Section-1 argument ("battery-aware DPM policies cannot be
applied to FC systems") compares load shaping on a battery against load
shaping on the FC fuel map.  :class:`BatteryOnlySource` gives that
comparison a first-class plant: the entire load is served from the
charge-storage element, there is no generator, and the fuel ledger stays
at zero.  It implements the same
:class:`~repro.power.source.PowerSource` protocol as the hybrids, so
the simulator, the recorder, and every metric run unchanged -- the
deficit ledger becomes the battery's depth-of-discharge overdraw.

Output-current commands are accepted and ignored (there is nothing to
command); this is the degenerate ``IF = 0`` corner of the hybrid design
space, useful for sizing the storage a stand-alone battery would need to
survive a workload the hybrid serves with a 6 A-s supercap.
"""

from __future__ import annotations

from .source import PowerSource
from .storage import ChargeStorage


class BatteryOnlySource(PowerSource):
    """Charge storage serving the whole load; no generator, no fuel.

    Parameters
    ----------
    storage:
        The battery (or supercap) that serves every coulomb of load.
        Start it charged: there is nothing to recharge it mid-run.
    v_out:
        Regulated rail voltage (V) used for energy accounting.
    """

    kind = "battery"

    def __init__(self, storage: ChargeStorage, v_out: float = 12.0) -> None:
        self._v_out = v_out
        super().__init__(storage)

    @property
    def v_out(self) -> float:
        """Regulated rail voltage (V)."""
        return self._v_out

    def set_fc_output(self, i_f: float, *, clamp: bool = True) -> float:
        """There is no generator to command; always realises 0 A."""
        return 0.0

    def _generate(
        self, dt: float, strict_fuel: bool
    ) -> tuple[float, float, float, tuple[float, ...]]:
        return 0.0, 0.0, 0.0, ()
