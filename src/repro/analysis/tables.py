"""Table 2 and Table 3: normalized fuel consumption of the three policies.

Each function builds the paper's exact experimental configuration, runs
the three controllers over the same trace, and returns normalized fuel
numbers alongside the paper's published values for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import Experiment1Constants, Experiment2Constants
from ..core.manager import PowerManager
from ..devices.camcorder import camcorder_device_params, randomized_device_params
from ..sim.metrics import compare, fuel_saving, lifetime_extension
from ..sim.slotsim import SimulationResult, simulate_policies
from ..workload.mpeg import generate_mpeg_trace
from ..workload.synthetic import experiment2_trace

#: Published Table 2 values (fraction of Conv-DPM fuel).
PAPER_TABLE2 = {"conv-dpm": 1.0, "asap-dpm": 0.408, "fc-dpm": 0.308}
#: Published Table 3 values.
PAPER_TABLE3 = {"conv-dpm": 1.0, "asap-dpm": 0.491, "fc-dpm": 0.415}


@dataclass
class TableResult:
    """One reproduced table: measured vs published normalized fuel."""

    name: str
    normalized: dict[str, float]
    paper: dict[str, float]
    results: dict[str, SimulationResult] = field(default_factory=dict)

    @property
    def fc_vs_asap_saving(self) -> float:
        """Fractional fuel FC-DPM saves over ASAP-DPM."""
        return fuel_saving(
            self.results["fc-dpm"].metrics, self.results["asap-dpm"].metrics
        )

    @property
    def fc_vs_asap_lifetime(self) -> float:
        """Lifetime-extension factor of FC-DPM over ASAP-DPM (paper: 1.32)."""
        return lifetime_extension(
            self.results["fc-dpm"].metrics, self.results["asap-dpm"].metrics
        )

    def rows(self) -> list[list[str]]:
        """Formatted rows: policy, measured %, paper %."""
        out = [["DPM policy", "measured (% of Conv-DPM)", "paper (%)"]]
        for key in ("conv-dpm", "asap-dpm", "fc-dpm"):
            out.append(
                [
                    key,
                    f"{100 * self.normalized[key]:.1f}",
                    f"{100 * self.paper[key]:.1f}",
                ]
            )
        return out


def _managers(dev, capacity: float, initial: float, rho: float, sigma: float,
              active_current_estimate):
    return [
        PowerManager.conv_dpm(
            dev, storage_capacity=capacity, storage_initial=initial, rho=rho
        ),
        PowerManager.asap_dpm(
            dev, storage_capacity=capacity, storage_initial=initial, rho=rho
        ),
        PowerManager.fc_dpm(
            dev,
            storage_capacity=capacity,
            storage_initial=initial,
            rho=rho,
            sigma=sigma,
            active_current_estimate=active_current_estimate,
        ),
    ]


def table2(
    seed: int = 2007,
    record: bool = False,
    constants: Experiment1Constants | None = None,
) -> TableResult:
    """Reproduce Table 2: the 28-minute MPEG camcorder experiment.

    Storage is the paper's 1 F supercap (~6 A-s usable), started half
    full (the paper does not state ``Cini``; half capacity gives the
    buffer headroom in both directions that ``Cend = Cini`` stability
    presumes).  Prediction factor ``rho = 0.5``; the active period is
    fixed by the buffer/writer so no active-length prediction is needed
    (the sigma filter converges to the constant immediately).

    Each policy runs through :func:`repro.sim.vectorized.simulate_fast`:
    the array kernel serves all three, and ``record=True`` falls back to
    the scalar simulator with identical numbers.
    """
    c = constants if constants is not None else Experiment1Constants()
    trace = generate_mpeg_trace(duration_s=c.duration_s, seed=seed)
    dev = camcorder_device_params(i_pd=c.i_pd, i_wu=c.i_wu)
    managers = _managers(
        dev,
        capacity=c.storage_capacity,
        initial=c.storage_capacity / 2,
        rho=c.rho,
        sigma=c.rho,
        active_current_estimate=None,
    )
    results = simulate_policies(trace, managers, record=record)
    return TableResult(
        name="table2",
        normalized=compare([r.metrics for r in results.values()]),
        paper=dict(PAPER_TABLE2),
        results=results,
    )


def table3(
    seed: int = 2007,
    record: bool = False,
    constants: Experiment2Constants | None = None,
) -> TableResult:
    """Reproduce Table 3: the randomized synthetic experiment.

    Idle U[5, 25] s, active U[2, 4] s, active power U[12, 16] W, heavy
    SLEEP overheads (1 s at 1.2 A each way), ``Tbe = 10 s``,
    ``rho = sigma = 0.5`` and the future active current estimated as the
    constant 1.2 A -- all per paper Section 5.2.  Routing as in
    :func:`table2`.
    """
    e = constants if constants is not None else Experiment2Constants()
    trace = experiment2_trace(constants=e, seed=seed)
    dev = randomized_device_params(e)
    managers = _managers(
        dev,
        capacity=6.0,
        initial=3.0,
        rho=e.rho,
        sigma=e.sigma,
        active_current_estimate=e.i_active_estimate,
    )
    results = simulate_policies(trace, managers, record=record)
    return TableResult(
        name="table3",
        normalized=compare([r.metrics for r in results.values()]),
        paper=dict(PAPER_TABLE3),
        results=results,
    )
