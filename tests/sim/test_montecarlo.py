"""Monte-Carlo runner tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.sim.montecarlo import SeedSummary, _t95, run_seeds, summarize

SRC = Path(__file__).resolve().parents[2] / "src"

#: The hand-coded 3-decimal critical-value table `_t95` once carried, df
#: 1..30.  Today's values must keep agreeing with it to 1e-3 so historical
#: confidence intervals stay reproducible.
_OLD_T95_TABLE = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


class TestT95:
    @pytest.mark.parametrize(
        "df,expected", list(enumerate(_OLD_T95_TABLE, start=1))
    )
    def test_matches_old_table(self, df, expected):
        assert _t95(df) == pytest.approx(expected, abs=1e-3)

    def test_beyond_table_exceeds_normal_quantile(self):
        assert 1.96 < _t95(200) < 1.98

    @pytest.mark.parametrize("df", range(1, 31))
    def test_literals_equal_scipy(self, df):
        stats = pytest.importorskip("scipy.stats")
        assert _t95(df) == float(stats.t.ppf(0.975, df))

    @pytest.mark.parametrize("df", [31, 50, 200, 10_000])
    def test_expansion_tracks_scipy(self, df):
        stats = pytest.importorskip("scipy.stats")
        assert _t95(df) == pytest.approx(float(stats.t.ppf(0.975, df)), rel=1e-7)

    def test_summary_leaves_scipy_stats_unimported(self):
        # The confidence interval of a report's seed study must not pay
        # for importing scipy.stats.
        code = (
            "import sys\n"
            "from repro.sim.montecarlo import summarize\n"
            "summarize('x', [1.0, 2.0, 4.0, 8.0, 16.0]).ci95_halfwidth\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        assert out.stdout.strip() == "False"


class TestSummarize:
    def test_basic_statistics(self):
        s = summarize("x", [1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.n == 3
        assert s.stdev == pytest.approx(1.0)

    def test_single_sample(self):
        s = summarize("x", [5.0])
        assert s.stdev == 0.0
        assert s.ci95_halfwidth == float("inf")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize("x", [])

    def test_ci_uses_t_distribution(self):
        s = summarize("x", [1.0, 2.0, 3.0])
        # n=3 -> df=2 -> t=4.303; halfwidth = 4.303 * 1 / sqrt(3).
        assert s.ci95_halfwidth == pytest.approx(4.303 / 3**0.5, rel=1e-3)
        lo, hi = s.ci95
        assert lo < s.mean < hi

    def test_large_n_approaches_normal(self):
        # The scipy-backed critical value is exact for every df (the
        # old hand-coded table snapped to 1.96 beyond df=30); for
        # n=100 it sits just above the normal quantile.
        s = summarize("x", [float(k % 7) for k in range(100)])
        assert s.ci95_halfwidth == pytest.approx(
            1.9842 * s.stdev / 10.0, rel=1e-4
        )
        assert s.ci95_halfwidth > 1.96 * s.stdev / 10.0


class TestRunSeeds:
    def test_collects_metrics_across_seeds(self):
        def experiment(seed: int) -> dict[str, float]:
            return {"a": float(seed), "b": 2.0 * seed}

        out = run_seeds(experiment, [1, 2, 3])
        assert out["a"].mean == pytest.approx(2.0)
        assert out["b"].mean == pytest.approx(4.0)
        assert isinstance(out["a"], SeedSummary)

    def test_rejects_empty_seed_list(self):
        with pytest.raises(ConfigurationError):
            run_seeds(lambda s: {"a": 1.0}, [])

    def test_rejects_inconsistent_metrics(self):
        def experiment(seed: int) -> dict[str, float]:
            return {"a": 1.0} if seed == 0 else {"b": 1.0}

        with pytest.raises(ConfigurationError):
            run_seeds(experiment, [0, 1])

    def test_metric_order_follows_first_run(self):
        """Summaries come back in the first run's insertion order."""

        def experiment(seed: int) -> dict[str, float]:
            return {"zeta": 1.0, "alpha": 2.0, "mid": float(seed)}

        out = run_seeds(experiment, [3, 1, 2])
        assert list(out) == ["zeta", "alpha", "mid"]

    def test_same_keys_in_different_order_accepted(self):
        def experiment(seed: int) -> dict[str, float]:
            if seed % 2:
                return {"b": 1.0, "a": 0.0}
            return {"a": 0.0, "b": 1.0}

        out = run_seeds(experiment, [0, 1, 2])
        assert list(out) == ["a", "b"]
        assert out["b"].n == 3


class TestTable2Stability:
    def test_headline_stable_across_seeds(self):
        """The key ordering must hold with tight spread over seeds."""
        from repro.sim.montecarlo import table2_metrics

        out = run_seeds(table2_metrics, range(4))
        assert out["fc-dpm"].maximum < out["asap-dpm"].minimum
        assert out["fc-dpm"].stdev < 0.02
        assert out["fc_saving_vs_asap"].minimum > 0.08
