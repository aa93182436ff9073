"""DPM policy protocol: the sleep decision per idle period.

The paper's slot structure lets every policy be expressed as two hooks:

* :meth:`DPMPolicy.on_idle_start` -- called when the device goes idle;
  returns an :class:`IdleDecision` (sleep or not, and after what delay);
* :meth:`DPMPolicy.on_idle_end` -- called with the actual idle length so
  history-based policies can learn.

The decision is *committed* at idle start (matching the paper's
predictive scheme); a policy that waits in STANDBY first says so with
``sleep_after``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..devices.device import DeviceParams
from ..errors import ConfigurationError
from ..obs import OBS


@dataclass(frozen=True)
class IdleDecision:
    """What the device should do for the coming idle period.

    Attributes
    ----------
    sleep:
        Whether to enter SLEEP at all.
    sleep_after:
        STANDBY dwell (s) before starting the power-down transition
        (0 for immediate predictive shutdown).  Ignored when ``sleep``
        is False.
    """

    sleep: bool
    sleep_after: float = 0.0

    def __post_init__(self) -> None:
        if self.sleep_after < 0:
            raise ConfigurationError("sleep_after cannot be negative")


#: Shared immutable decisions for the two immediate outcomes.  Policies
#: that decide at idle start (no timeout dwell) hand one out per slot;
#: interning them keeps frozen-dataclass construction (and its
#: validation) out of per-slot simulator and replay loops.
SLEEP_NOW = IdleDecision(sleep=True, sleep_after=0.0)
STAY_AWAKE = IdleDecision(sleep=False, sleep_after=0.0)


class DPMPolicy(ABC):
    """Base class for device-side power management policies."""

    def __init__(self, params: DeviceParams) -> None:
        self.params = params
        self.n_decisions = 0
        self.n_sleep_decisions = 0

    @abstractmethod
    def on_idle_start(self) -> IdleDecision:
        """Decide the coming idle period's plan."""

    def on_idle_end(self, t_idle: float) -> None:
        """Observe the actual idle length (default: no learning)."""

    def _count(self, decision: IdleDecision) -> IdleDecision:
        self.n_decisions += 1
        if decision.sleep:
            self.n_sleep_decisions += 1
        if OBS.enabled:
            OBS.metrics.counter(
                "dpm.policy_decisions",
                policy=type(self).__name__,
                sleep="yes" if decision.sleep else "no",
            ).inc()
        return decision

    def reset(self) -> None:
        """Clear decision counters (subclasses also clear learning state)."""
        self.n_decisions = 0
        self.n_sleep_decisions = 0

    @property
    def sleep_rate(self) -> float:
        """Fraction of idle periods for which SLEEP was chosen."""
        if self.n_decisions == 0:
            return 0.0
        return self.n_sleep_decisions / self.n_decisions
