"""Scalar reference for batch equivalence tests and benches."""

from repro.scenario import get_scenario
from repro.sim.slotsim import SlotSimulator
from repro.sim.vectorized import _policy_manager


def scalar_batch(scenario, seeds, policies, *, traces=None, max_deficit_fraction=0.05):
    """``simulate_batch``'s result, computed cell by cell on ``SlotSimulator``.

    Each (seed, policy) cell runs a freshly built manager, seed-major in
    the given order, so a raised ``SimulationError`` comes from the same
    cell a batch raises it for.  ``policies=None`` means the scenario's
    own policy kind, as in ``simulate_batch``.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    specs = list(policies) if policies is not None else [scenario.policy.kind]
    results = {}
    for seed in seeds:
        trace = None if traces is None else traces.get(seed)
        if trace is None:
            trace = scenario.build_trace(seed)
        results[seed] = {
            spec: SlotSimulator(
                _policy_manager(scenario, spec), max_deficit_fraction=max_deficit_fraction
            ).run(trace)
            for spec in specs
        }
    return results
