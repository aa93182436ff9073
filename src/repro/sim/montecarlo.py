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

from ..errors import ConfigurationError


#: ``scipy.stats.t.ppf(0.975, df)`` for df 1..30, written as its ``repr``.
_T95_TABLE = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)

#: The standard-normal 97.5 % quantile.
_Z975 = 1.959963984540054


def _t95(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df`` degrees of freedom.

    df 1..30 read scipy's own values from :data:`_T95_TABLE`, so they equal
    ``scipy.stats.t.ppf(0.975, df)`` bit for bit.  Larger df use the
    four-term Cornish-Fisher expansion about the normal quantile
    (Abramowitz & Stegun 26.7.5): measured against scipy over df 31 to
    10**5, the relative error is at most 1.3e-8 (at df = 31) and falls
    as df grows.
    """
    if df <= len(_T95_TABLE):
        return _T95_TABLE[df - 1]
    z = _Z975
    z2 = z * z
    g1 = z * (z2 + 1) / 4
    g2 = z * ((5 * z2 + 16) * z2 + 3) / 96
    g3 = z * (((3 * z2 + 19) * z2 + 17) * z2 - 15) / 384
    g4 = z * ((((79 * z2 + 776) * z2 + 1482) * z2 - 1920) * z2 - 945) / 92160
    return z + (g1 + (g2 + (g3 + g4 / df) / df) / df) / df


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
