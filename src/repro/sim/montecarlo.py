"""Monte-Carlo experiment runner: seeds, summary statistics, intervals.

The paper reports single-trace numbers; a reproduction should show how
stable they are.  :func:`run_seeds` executes a policy-comparison
experiment across many trace seeds and reduces each policy's normalized
fuel to mean / standard deviation / a t-interval.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from ..errors import ConfigurationError


@lru_cache(maxsize=None)
def _t95(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df`` degrees of freedom.

    Computed from ``scipy.stats.t.ppf`` (scipy is a hard dependency),
    replacing the hand-coded 30-entry table this module used to carry;
    the test suite pins the old table's values to 1e-3.  Imported lazily
    and cached so summary statistics stay cheap in tight loops.
    """
    from scipy.stats import t

    return float(t.ppf(0.975, df))


@dataclass(frozen=True)
class SeedSummary:
    """Summary statistics of one metric across seeds."""

    name: str
    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the 95 % t-interval for the mean."""
        if self.n < 2:
            return float("inf")
        return _t95(self.n - 1) * self.stdev / math.sqrt(self.n)

    @property
    def ci95(self) -> tuple[float, float]:
        """The 95 % confidence interval for the mean."""
        h = self.ci95_halfwidth
        return self.mean - h, self.mean + h

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.name}: {self.mean:.4f} +- {self.ci95_halfwidth:.4f} "
            f"(n={self.n}, range [{self.minimum:.4f}, {self.maximum:.4f}])"
        )


def summarize(name: str, values) -> SeedSummary:
    """Reduce a sample of metric values to a :class:`SeedSummary`."""
    data = [float(v) for v in values]
    if not data:
        raise ConfigurationError("cannot summarize an empty sample")
    return SeedSummary(
        name=name,
        n=len(data),
        mean=statistics.fmean(data),
        stdev=statistics.stdev(data) if len(data) > 1 else 0.0,
        minimum=min(data),
        maximum=max(data),
    )


def run_seeds(
    experiment: Callable[[int], dict[str, float]],
    seeds,
    workers: int = 1,
) -> dict[str, SeedSummary]:
    """Run ``experiment(seed) -> {metric: value}`` across ``seeds``.

    Every run must return the same metric keys.  Returns a summary per
    metric, with metrics in the key order of the *first* run -- so the
    report layout is deterministic regardless of execution order.

    Parameters
    ----------
    workers:
        Fan the seeds out over this many processes
        (:class:`~repro.runtime.parallel.ParallelMap`).  ``1`` (the
        default) runs inline; any value yields bit-identical summaries
        because each run is an independent pure function of its seed and
        results are reduced in seed order.  For ``workers > 1`` the
        ``experiment`` callable must be picklable (a module-level
        function or ``functools.partial``); unpicklable callables fall
        back to serial execution.
    """
    from ..obs import OBS
    from ..runtime.parallel import ParallelMap

    seed_list = [int(seed) for seed in seeds]
    if not seed_list:
        raise ConfigurationError("need at least one seed")
    with OBS.span("mc.run_seeds", n_seeds=len(seed_list), workers=workers):
        results = ParallelMap(workers=workers).map(experiment, seed_list)

    # Metric order is pinned to the first run's dict order (PEP 468
    # insertion order), not a sorted or set order.
    keys = list(results[0])
    key_set = set(keys)
    samples: dict[str, list[float]] = {key: [] for key in keys}
    for seed, result in zip(seed_list, results):
        if set(result) != key_set:
            raise ConfigurationError(
                f"seed {seed} returned metrics {sorted(result)}, "
                f"expected {sorted(key_set)}"
            )
        for key in keys:
            samples[key].append(float(result[key]))
    return {key: summarize(key, values) for key, values in samples.items()}


def seed_study(kind: str, seeds, workers: int = 1) -> dict[str, SeedSummary]:
    """Seed-stability study through the experiment orchestration layer.

    The :func:`run_seeds` shape -- ``{metric: SeedSummary}`` with metric
    order pinned to the first seed's dict order -- but driven as an
    ephemeral :class:`~repro.exp.spec.ExperimentSpec` of ``kind`` cells
    (``"table2-metrics"``, ``"scenario-metrics"``, or any registered
    task kind returning a metric dict).  Bit-identical to calling
    :func:`run_seeds` with the matching per-seed function.
    """
    from ..exp import ExperimentResults, run_experiment, seed_study_spec

    spec = seed_study_spec(kind, seeds)
    run = run_experiment(spec, workers=workers)
    return ExperimentResults.from_run(run).seed_summaries()


def table2_metrics(seed: int) -> dict[str, float]:
    """Experiment-1 normalized fuel + FC-vs-ASAP saving for one seed.

    The canonical experiment closure for :func:`run_seeds`.
    """
    from ..analysis.tables import table2

    result = table2(seed=seed)
    out = dict(result.normalized)
    out["fc_saving_vs_asap"] = result.fc_vs_asap_saving
    return out


def scenario_metrics(name: str, seed: int) -> dict[str, float]:
    """Run one registered scenario on one seed; returns its run metrics.

    Module-level (not a closure) so ``functools.partial(scenario_metrics,
    name)`` stays picklable for multi-process :func:`run_seeds` fan-out.
    Runs through :func:`repro.sim.vectorized.simulate_fast` (array kernel
    when eligible, metrics equal to the scalar simulator's).
    """
    from ..scenario import get_scenario
    from .vectorized import simulate_fast

    sc = get_scenario(name)
    result = simulate_fast(sc.build_manager(), sc.build_trace(seed))
    return {
        "fuel": result.fuel,
        "load_charge": result.load_charge,
        "bled": result.bled,
        "deficit": result.deficit,
        "n_sleeps": float(result.n_sleeps),
    }
