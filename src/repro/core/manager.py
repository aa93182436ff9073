"""PowerManager: the joint device-side + source-side policy bundle.

The paper's algorithms *jointly* control the embedded system's power
state (a :class:`~repro.dpm.predictive.PredictiveShutdownPolicy`) and
the FC output (a :class:`~repro.core.baselines.SourceController`) over
a hybrid source.
:class:`PowerManager` wires the three together, shares the idle-period
predictor between the DPM policy and FC-DPM (as in the paper, both
consume the same ``T'_i``), and offers one-line constructors for the
three evaluated configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import FCSystemConstants
from ..devices.device import DeviceParams
from ..dpm.predictive import PredictiveShutdownPolicy
from ..fuelcell.efficiency import LinearSystemEfficiency, SystemEfficiencyModel
from ..fuelcell.fuel import FuelTank, GibbsFuelModel
from ..fuelcell.system import FCSystem
from ..power.hybrid import HybridPowerSource
from ..power.source import PowerSource
from ..power.storage import ChargeStorage, SuperCapacitor
from ..prediction.exponential import ExponentialAveragePredictor
from .baselines import ASAPDPMController, ConvDPMController, SourceController
from .fc_dpm import FCDPMController


@dataclass
class PowerManager:
    """Device parameters + DPM policy + FC output controller + source.

    Build directly, or use the :meth:`conv_dpm` / :meth:`asap_dpm` /
    :meth:`fc_dpm` constructors which assemble the paper's three
    configurations over the same device and storage.
    """

    name: str
    device: DeviceParams
    policy: PredictiveShutdownPolicy
    controller: SourceController
    source: PowerSource

    # -- factories ---------------------------------------------------------

    @staticmethod
    def _make_source(
        model: SystemEfficiencyModel,
        storage: ChargeStorage | None,
        storage_capacity: float,
        storage_initial: float,
    ) -> HybridPowerSource:
        if storage is None:
            storage = SuperCapacitor(
                capacity=storage_capacity, initial_charge=storage_initial
            )
        fc = FCSystem(model, tank=FuelTank(model=GibbsFuelModel(zeta=model.zeta)))
        return HybridPowerSource(fc=fc, storage=storage)

    @classmethod
    def conv_dpm(
        cls,
        device: DeviceParams,
        model: SystemEfficiencyModel | None = None,
        storage: ChargeStorage | None = None,
        storage_capacity: float = 6.0,
        storage_initial: float = 0.0,
        rho: float = 0.5,
    ) -> "PowerManager":
        """Conv-DPM: predictive device DPM, FC pinned at ``IF_max``."""
        m = model if model is not None else LinearSystemEfficiency.from_constants(
            FCSystemConstants()
        )
        policy = PredictiveShutdownPolicy(
            device, ExponentialAveragePredictor(factor=rho)
        )
        return cls(
            name="conv-dpm",
            device=device,
            policy=policy,
            controller=ConvDPMController(m),
            source=cls._make_source(m, storage, storage_capacity, storage_initial),
        )

    @classmethod
    def asap_dpm(
        cls,
        device: DeviceParams,
        model: SystemEfficiencyModel | None = None,
        storage: ChargeStorage | None = None,
        storage_capacity: float = 6.0,
        storage_initial: float = 0.0,
        rho: float = 0.5,
        recharge_threshold: float = 0.5,
    ) -> "PowerManager":
        """ASAP-DPM: predictive device DPM, load-following FC output."""
        m = model if model is not None else LinearSystemEfficiency.from_constants(
            FCSystemConstants()
        )
        policy = PredictiveShutdownPolicy(
            device, ExponentialAveragePredictor(factor=rho)
        )
        return cls(
            name="asap-dpm",
            device=device,
            policy=policy,
            controller=ASAPDPMController(m, recharge_threshold=recharge_threshold),
            source=cls._make_source(m, storage, storage_capacity, storage_initial),
        )

    @classmethod
    def fc_dpm(
        cls,
        device: DeviceParams,
        model: SystemEfficiencyModel | None = None,
        storage: ChargeStorage | None = None,
        storage_capacity: float = 6.0,
        storage_initial: float = 0.0,
        rho: float = 0.5,
        sigma: float = 0.5,
        active_current_estimate: float | None = None,
    ) -> "PowerManager":
        """FC-DPM: predictive device DPM + fuel-optimal FC setting.

        The idle predictor instance is shared between the DPM policy and
        the FC controller, exactly as in the paper where both consume
        the same ``T'_i(k)``.
        """
        m = model if model is not None else LinearSystemEfficiency.from_constants(
            FCSystemConstants()
        )
        idle_predictor = ExponentialAveragePredictor(factor=rho)
        policy = PredictiveShutdownPolicy(device, idle_predictor)
        controller = FCDPMController(
            m,
            active_length_predictor=ExponentialAveragePredictor(factor=sigma),
            idle_length_predictor=idle_predictor,
            active_current_estimate=active_current_estimate,
            device=device,
        )
        # The policy already feeds the shared idle predictor.
        controller.observes_idle = False
        return cls(
            name="fc-dpm",
            device=device,
            policy=policy,
            controller=controller,
            source=cls._make_source(m, storage, storage_capacity, storage_initial),
        )

    def telemetry_attrs(self) -> dict:
        """Plain-data description of this configuration.

        Attached to run spans and manifests so a trace is
        self-describing: which policy/controller/plant produced it,
        without reaching back into live objects.
        """
        return {
            "manager": self.name,
            "policy": type(self.policy).__name__,
            "controller": type(self.controller).__name__,
            "source": getattr(self.source, "kind", type(self.source).__name__),
            "storage": type(self.source.storage).__name__,
            "storage_capacity": self.source.storage.capacity,
        }

    def reset(self, storage_charge: float = 0.0) -> None:
        """Reset policy, controller and source for a fresh run."""
        self.policy.reset()
        self.controller.reset()
        self.source.reset(storage_charge)
