"""Simulation substrate: the slot-level oracle and its array kernels."""

from .recorder import Recorder, Sample
from .integrator import (
    Segment,
    SegmentIntegrator,
    plan_active_segments,
    plan_idle_segments,
)
from .metrics import (
    RunMetrics,
    normalized_fuel,
    lifetime_extension,
    fuel_saving,
    compare,
)
from .slotsim import (
    SlotColumns,
    SlotSimulator,
    SimulationResult,
    SlotResult,
    simulate_policies,
)
from .montecarlo import (
    SeedSummary,
    run_seeds,
    scenario_metrics,
    summarize,
    table2_metrics,
)
from .lifetime import LifetimeResult, lifetime_comparison, run_until_empty
from .vectorized import (
    TraceArrays,
    clamped_cumsum,
    fast_path_ineligibility,
    plan_trace_arrays,
    simulate_batch,
    simulate_fast,
)

__all__ = [
    "Recorder",
    "Sample",
    "Segment",
    "SegmentIntegrator",
    "plan_active_segments",
    "plan_idle_segments",
    "RunMetrics",
    "normalized_fuel",
    "lifetime_extension",
    "fuel_saving",
    "compare",
    "SlotSimulator",
    "SimulationResult",
    "SlotResult",
    "SlotColumns",
    "simulate_policies",
    "SeedSummary",
    "run_seeds",
    "scenario_metrics",
    "summarize",
    "table2_metrics",
    "LifetimeResult",
    "lifetime_comparison",
    "run_until_empty",
    "TraceArrays",
    "clamped_cumsum",
    "fast_path_ineligibility",
    "plan_trace_arrays",
    "simulate_batch",
    "simulate_fast",
]
