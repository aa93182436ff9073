"""Full-report generator tests."""

import pytest

from repro.analysis.experiments import full_report, mpc_comparison


class TestMpcComparison:
    def test_contains_all_controllers(self):
        fuels = mpc_comparison(horizons=(1, 2))
        assert set(fuels) == {"fc-dpm", "mpc-h1", "mpc-h2"}
        assert all(f > 0 for f in fuels.values())

    def test_plans_without_slsqp(self, monkeypatch):
        # The receding-horizon plans come from the taut string alone, and
        # reproduce the fuels the SLSQP plans gave bit for bit.
        def no_slsqp(*args, **kwargs):
            raise AssertionError("SLSQP called on the report path")

        monkeypatch.setattr("scipy.optimize.minimize", no_slsqp)
        assert mpc_comparison(seed=2007) == {
            "fc-dpm": 846.4035134418293,
            "mpc-h1": 833.0716170425236,
            "mpc-h2": 829.465868392994,
            "mpc-h4": 829.8154656053936,
        }

    def test_mpc_competitive(self):
        fuels = mpc_comparison(horizons=(2,))
        assert fuels["mpc-h2"] <= fuels["fc-dpm"] * 1.01


class TestFullReport:
    @pytest.fixture(scope="class")
    def report(self):
        return full_report(seed=2007, n_seeds=2)

    def test_all_sections_present(self, report):
        for marker in (
            "Fig 2",
            "Fig 3",
            "Fig 4",
            "table2",
            "table3",
            "seeds",
            "efficiency slope",
            "storage capacity",
            "receding-horizon",
            "battery-aware",
        ):
            assert marker in report, marker

    def test_key_numbers_present(self, report):
        assert "13.45" in report      # Fig 4 closed form
        assert "18.2" in report       # Voc

    def test_report_is_plain_text(self, report):
        assert report.isprintable() or "\n" in report
        assert len(report) > 1000
