"""Time-series recorder for simulation runs (feeds the Fig. 7 plots)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError


@dataclass(frozen=True)
class Sample:
    """State over one constant-current interval ``[t, t + dt)``."""

    t: float
    dt: float
    i_load: float
    i_f: float
    i_fc: float
    storage_charge: float
    fuel_cumulative: float
    kind: str = ""
    #: Which plant produced the interval ('hybrid' | 'multi-stack' |
    #: 'battery' | ...), for plots that compare source architectures.
    source_kind: str = ""
    #: Per-stack output currents (A) for multi-stack sources; empty for
    #: single-stack plants.  Enables per-stack load-sharing plots.
    stack_currents: tuple[float, ...] = ()


class Recorder:
    """Accumulates piecewise-constant samples and exports plot arrays."""

    def __init__(self) -> None:
        self._samples: list[Sample] = []

    def add(self, sample: Sample) -> None:
        """Append a sample; time must not run backwards."""
        if self._samples and sample.t < self._samples[-1].t - 1e-9:
            raise SimulationError(
                f"time went backwards: {sample.t} after {self._samples[-1].t}"
            )
        self._samples.append(sample)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> tuple[Sample, ...]:
        """All recorded samples."""
        return tuple(self._samples)

    @property
    def duration(self) -> float:
        """Covered time span (s)."""
        if not self._samples:
            return 0.0
        last = self._samples[-1]
        return last.t + last.dt - self._samples[0].t

    def step_series(self, field: str, t_max: float | None = None):
        """Step-plot arrays ``(times, values)`` for ``field``.

        ``times`` has one more entry than ``values`` (interval edges).
        ``t_max`` truncates the series (Fig. 7 shows the first 300 s).
        """
        times: list[float] = []
        values: list[float] = []
        for s in self._samples:
            if t_max is not None and s.t >= t_max:
                break
            if not times:
                times.append(s.t)
            times.append(s.t + s.dt)
            values.append(getattr(s, field))
        return np.asarray(times), np.asarray(values)
