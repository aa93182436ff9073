"""CLI entry-point tests."""

import pytest

from repro.cli import main


class TestCli:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "conv-dpm" in out and "fc-dpm" in out
        assert "lifetime" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "max power point" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "13.45" in out

    def test_sweep_beta(self, capsys):
        assert main(["sweep", "beta"]) == 0
        assert "sweep: beta" in capsys.readouterr().out

    def test_sweep_unknown(self, capsys):
        assert main(["sweep", "nope"]) == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_seed_flag(self, capsys):
        assert main(["--seed", "3", "table2"]) == 0

    def test_export(self, capsys, tmp_path):
        target = tmp_path / "artifacts"
        assert main(["export", str(target)]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote") == 6
        assert (target / "tables_2_3.csv").exists()
        assert (target / "manifest.json").exists()

    def test_lifetime(self, capsys):
        assert main(["lifetime"]) == 0
        out = capsys.readouterr().out
        assert "run-to-empty" in out
        assert "fc-dpm" in out


class TestRunCommand:
    def test_run_list_shows_registered_scenarios(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "exp1-fc-dpm" in out
        assert "exp2-conv-dpm" in out
        assert "exp1-fc-dpm-multistack" in out

    def test_run_without_scenario_lists_and_hints(self, capsys):
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "exp1-fc-dpm" in out
        assert "--scenario" in out

    def test_run_scenario_prints_metrics(self, capsys):
        assert main(["--no-cache", "run", "--scenario", "exp1-fc-dpm"]) == 0
        out = capsys.readouterr().out
        assert "exp1-fc-dpm" in out
        assert "fuel" in out and "deficit" in out

    def test_run_unknown_scenario_raises_with_known_names(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="exp1-fc-dpm"):
            main(["--no-cache", "run", "--scenario", "nope"])

    def test_run_results_are_cached(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FCDPM_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["run", "--scenario", "exp2-fc-dpm"]) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "cache").exists()
        assert main(["run", "--scenario", "exp2-fc-dpm"]) == 0
        assert capsys.readouterr().out == first


class TestTraceCommand:
    def test_run_list_prints_spec_columns(self, capsys):
        assert main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        header = next(
            ln for ln in out.splitlines() if ln.startswith("scenario")
        )
        for column in ("policy", "workload", "source", "description"):
            assert column in header
        names = [
            ln.split()[0]
            for ln in out.splitlines()
            if ln.strip().startswith("exp")
        ]
        assert names == sorted(names)

    def test_table2_alias_resolves(self, capsys):
        assert main(["--no-cache", "run", "--scenario", "table2"]) == 0
        out = capsys.readouterr().out
        assert "exp1-fc-dpm" in out

    def _traced_run(self, capsys, tmp_path, scenario):
        """Run ``scenario`` with ``--trace``; return (manifest, span names)."""
        import json

        from repro.obs import validate_trace_dir

        target = tmp_path / "trace-out"
        assert main(["run", "--scenario", scenario, "--trace", str(target)]) == 0
        assert capsys.readouterr().out.count("wrote") == 3
        assert validate_trace_dir(target) == []
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["name"] == f"run:{scenario}"
        assert manifest["scenario"]["name"] == scenario
        spans = [
            json.loads(line)
            for line in (target / "spans.jsonl").read_text().splitlines()
        ]
        return manifest, {s["name"] for s in spans if s.get("type") == "span"}

    def test_run_trace_writes_validated_bundle(self, capsys, tmp_path):
        # Conv-DPM runs on the array kernel: one sim.simulate span under
        # the run root, no per-slot spans.
        manifest, names = self._traced_run(capsys, tmp_path, "exp1-conv-dpm")
        assert manifest["route"] == "fast"
        assert "run" in names and "sim.simulate" in names
        assert "sim.slot" not in names

    def test_run_trace_scalar_route_keeps_slot_spans(self, capsys, tmp_path):
        # A battery-only source has no array kernel: the run falls back
        # to the scalar simulator, which emits per-slot spans.
        manifest, names = self._traced_run(capsys, tmp_path, "exp1-battery")
        assert manifest["route"] == "scalar"
        assert "run" in names and "sim.slot" in names

    def test_trace_check_and_summary(self, capsys, tmp_path):
        target = tmp_path / "trace-out"
        assert (
            main(["run", "--scenario", "exp1-conv-dpm", "--trace", str(target)])
            == 0
        )
        capsys.readouterr()
        assert main(["trace", "check", str(target)]) == 0
        assert "ok" in capsys.readouterr().out
        assert main(["trace", "summary", str(target)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out and "metrics" in out

    def test_trace_check_fails_on_bad_directory(self, capsys, tmp_path):
        assert main(["trace", "check", str(tmp_path / "missing")]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestWorkersValidation:
    def test_negative_workers_rejected_with_clear_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workers", "-1", "table2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "workers must be >= 0" in err

    def test_non_integer_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workers", "two", "table2"])
        assert exc.value.code == 2
        assert "workers must be an integer" in capsys.readouterr().err


class TestRuntimeFlags:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FCDPM_CACHE_DIR", str(tmp_path / "cache"))

    def test_workers_flag_output_identical(self, capsys):
        assert main(["--no-cache", "sweep", "beta"]) == 0
        serial = capsys.readouterr().out
        assert main(["--no-cache", "--workers", "2", "sweep", "beta"]) == 0
        assert capsys.readouterr().out == serial

    def test_cache_round_trip(self, capsys, tmp_path):
        assert main(["table2"]) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "cache").exists()
        assert main(["table2"]) == 0
        assert capsys.readouterr().out == first

    def test_no_cache_writes_nothing(self, capsys, tmp_path):
        assert main(["--no-cache", "table2"]) == 0
        assert not (tmp_path / "cache").exists()

    def test_workers_zero_means_all_cores(self, capsys):
        assert main(["--no-cache", "--workers", "0", "sweep", "recharge"]) == 0
        assert "sweep: recharge" in capsys.readouterr().out


class TestExpCommand:
    def _define(self, tmp_path, capsys):
        state_dir = str(tmp_path / "experiments")
        assert main([
            "exp", "define", "demo", "--scenario", "exp2-fc-dpm",
            "--seeds", "0:2", "--policies", "conv-dpm,fc-dpm",
            "--state-dir", state_dir,
        ]) == 0
        capsys.readouterr()
        return state_dir

    def test_define_run_status_report(self, tmp_path, capsys):
        state_dir = self._define(tmp_path, capsys)
        assert main(["exp", "run", "demo", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "executed 4" in out
        assert main(["exp", "status", "demo", "--state-dir", state_dir]) == 0
        assert "done" in capsys.readouterr().out
        assert main(["exp", "report", "demo", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "t00000" in out and "fuel" in out

    def test_abort_exits_3_and_resume_finishes(
        self, tmp_path, capsys, monkeypatch
    ):
        state_dir = self._define(tmp_path, capsys)
        monkeypatch.setenv("FCDPM_EXP_ABORT_AFTER", "2")
        assert main(["exp", "run", "demo", "--state-dir", state_dir]) == 3
        monkeypatch.delenv("FCDPM_EXP_ABORT_AFTER")
        capsys.readouterr()
        assert main(["exp", "resume", "demo", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "resumed 2" in out and "executed 2" in out

    def test_sharded_runs_then_merge(self, tmp_path, capsys):
        state_dir = self._define(tmp_path, capsys)
        for shard in ("1/2", "2/2"):
            assert main([
                "exp", "run", "demo", "--shard", shard,
                "--state-dir", state_dir,
            ]) == 0
        assert main(["exp", "merge", "demo", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard files" in out

    def test_define_with_ablation(self, tmp_path, capsys):
        state_dir = str(tmp_path / "experiments")
        assert main([
            "exp", "define", "sweep", "--kind", "sweep.beta",
            "--seeds", "3", "--ablate", "beta=0.0,0.13",
            "--state-dir", state_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "2 tasks" in out

    def test_define_accepts_sweep_shorthand_and_runs(self, tmp_path, capsys):
        # "--kind storage" is the analysis-layer shorthand for
        # "sweep.storage"; it must define runnable tasks, not a spec
        # whose every task fails with an unknown-kind error.
        state_dir = str(tmp_path / "experiments")
        assert main([
            "exp", "define", "short", "--kind", "storage",
            "--scenario", "exp2-fc-dpm", "--seeds", "4",
            "--ablate", "capacity=3,6",
            "--state-dir", state_dir,
        ]) == 0
        assert "sweep.storage" in capsys.readouterr().out
        assert main(["exp", "run", "short", "--state-dir", state_dir]) == 0
        assert "executed 2, resumed 0, failed 0" in capsys.readouterr().out

    def test_define_unknown_kind_is_a_config_error(self, tmp_path, capsys):
        assert main([
            "exp", "define", "bogus", "--kind", "nope",
            "--state-dir", str(tmp_path / "experiments"),
        ]) == 2
        out = capsys.readouterr().out
        assert "unknown task kind" in out and "sweep.storage" in out

    def test_status_without_name_lists(self, tmp_path, capsys):
        state_dir = self._define(tmp_path, capsys)
        assert main(["exp", "status", "--state-dir", state_dir]) == 0
        assert "demo" in capsys.readouterr().out

    def test_status_without_name_lists_unreadable(self, tmp_path, capsys):
        state_dir = self._define(tmp_path, capsys)
        _plant_truncated_state(state_dir)
        assert main(["exp", "status", "--state-dir", state_dir]) == 1
        captured = capsys.readouterr()
        assert "demo" in captured.out
        assert "broken" in captured.out and "unreadable" in captured.out
        assert "broken" in captured.err and "error:" not in captured.out

    def test_merge_refuses_shard_with_unknown_status(self, tmp_path, capsys):
        import json
        from pathlib import Path

        state_dir = self._define(tmp_path, capsys)
        assert main([
            "exp", "run", "demo", "--shard", "1/2", "--state-dir", state_dir,
        ]) == 0
        sidecar = Path(state_dir) / "demo" / "state.shard-1-of-2.json"
        data = json.loads(sidecar.read_text())
        data["tasks"]["t00000"]["status"] = "bogus"
        sidecar.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["exp", "merge", "demo", "--state-dir", state_dir]) == 2
        captured = capsys.readouterr()
        assert f"error: state file {sidecar}: task t00000: unknown status 'bogus'" in (
            captured.out
        )
        assert "Traceback" not in captured.out + captured.err

    def test_status_refuses_record_without_status(self, tmp_path, capsys):
        import json
        from pathlib import Path

        state_dir = self._define(tmp_path, capsys)
        path = Path(state_dir) / "demo" / "state.json"
        data = json.loads(path.read_text())
        del data["tasks"]["t00001"]["status"]
        path.write_text(json.dumps(data))
        assert main(["exp", "status", "demo", "--state-dir", state_dir]) == 2
        captured = capsys.readouterr()
        assert f"state file {path}: task t00001: missing key 'status'" in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_missing_experiment_is_a_config_error(self, tmp_path, capsys):
        assert main([
            "exp", "run", "ghost", "--state-dir", str(tmp_path / "x"),
        ]) == 2
        assert "error:" in capsys.readouterr().out


def _plant_truncated_state(state_dir: str) -> None:
    """Add an experiment ``broken`` whose ``state.json`` was cut short."""
    from pathlib import Path

    good = next(Path(state_dir).glob("*/state.json")).read_text()
    broken = Path(state_dir) / "broken"
    broken.mkdir()
    (broken / "state.json").write_text(good[: len(good) // 2])


class TestCacheCommand:
    def test_stats_and_selective_clear(self, tmp_path, capsys):
        state_dir = str(tmp_path / "experiments")
        main([
            "exp", "define", "c", "--scenario", "exp2-fc-dpm",
            "--seeds", "0:2", "--state-dir", state_dir,
        ])
        main(["exp", "run", "c", "--state-dir", state_dir])
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "exp/scenario" in out
        assert main(["cache", "clear", "--namespace", "exp/scenario"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 entries" in out
        assert main(["cache", "clear"]) == 0
        assert "all namespaces" in capsys.readouterr().out


class TestLiveWatchCommands:
    """exp run --live, exp watch, exp status --json, top."""

    def _define_and_run_live(self, tmp_path, capsys, shard=None):
        state_dir = str(tmp_path / "experiments")
        assert main([
            "exp", "define", "live", "--scenario", "exp2-fc-dpm",
            "--seeds", "0:2", "--policies", "conv-dpm,fc-dpm",
            "--state-dir", state_dir,
        ]) == 0
        argv = [
            "exp", "run", "live", "--live", "--live-interval", "0.2",
            "--state-dir", state_dir,
        ]
        if shard:
            argv += ["--shard", shard]
        assert main(argv) == 0
        capsys.readouterr()
        return state_dir

    def test_live_run_then_watch_once(self, tmp_path, capsys):
        state_dir = self._define_and_run_live(tmp_path, capsys)
        assert main([
            "exp", "watch", "live", "--once", "--state-dir", state_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "final" in out and "4" in out

    def test_watch_once_json_payload(self, tmp_path, capsys):
        import json

        state_dir = self._define_and_run_live(tmp_path, capsys, shard="1/2")
        assert main([
            "exp", "watch", "live", "--once", "--json",
            "--state-dir", state_dir,
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "live"
        assert payload["stalled"] is False
        (beat,) = payload["heartbeats"]
        assert beat["shard"] == "1/2"
        assert beat["tasks_done"] == 2 and beat["final"] is True

    def test_watch_detects_injected_stall(self, tmp_path, capsys):
        import json

        from repro.obs.live import heartbeat_path

        state_dir = self._define_and_run_live(tmp_path, capsys)
        hb_path = heartbeat_path(f"{state_dir}/live")
        data = json.loads(hb_path.read_text())
        # Simulate a crashed writer: non-final heartbeat, stale clock
        # (started moves too, so updated never predates it).
        data["final"] = False
        data["started"] -= 60.0
        data["updated"] -= 60.0
        hb_path.write_text(json.dumps(data))
        assert main([
            "exp", "watch", "live", "--once", "--state-dir", state_dir,
        ]) == 4
        assert "STALLED" in capsys.readouterr().out
        # A generous stall factor un-flags it.
        assert main([
            "exp", "watch", "live", "--once", "--stall-factor", "1000",
            "--state-dir", state_dir,
        ]) == 0

    def _run_both_shards_and_edit(self, tmp_path, capsys, edit):
        """Run shards 1/2 and 2/2 live, then rewrite shard 1's heartbeat
        through ``edit``; returns the state dir and that file's path."""
        import json

        from repro.obs.live import heartbeat_path

        state_dir = self._define_and_run_live(tmp_path, capsys, shard="1/2")
        assert main([
            "exp", "run", "live", "--shard", "2/2", "--live",
            "--live-interval", "0.2", "--state-dir", state_dir,
        ]) == 0
        capsys.readouterr()
        path = heartbeat_path(f"{state_dir}/live", (1, 2))
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        return state_dir, path

    @pytest.mark.parametrize("command", [["exp", "watch", "live"], ["top"]])
    def test_string_updated_is_an_invalid_row_beside_healthy_shard(
        self, tmp_path, capsys, command
    ):
        # Used to crash both commands with ValueError.
        state_dir, path = self._run_both_shards_and_edit(
            tmp_path, capsys, lambda data: data.update(updated="yesterday")
        )
        assert main(command + ["--once", "--state-dir", state_dir]) == 1
        captured = capsys.readouterr()
        rows = [line for line in captured.out.splitlines() if "/2" in line]
        assert "invalid" in rows[0] and "1/2" in rows[0]
        assert "final" in rows[1] and "2/2" in rows[1]
        assert f"invalid heartbeat {path}: field 'updated' has type str" in (
            captured.err
        )
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command", [["exp", "watch", "live"], ["top"]])
    def test_zero_interval_negative_count_is_invalid_not_live(
        self, tmp_path, capsys, command
    ):
        # interval_s 0, tasks_done -5 and a future `updated` used to
        # render as a live shard and exit 0.
        def edit(data):
            data.update(interval_s=0, tasks_done=-5, final=False)
            data["updated"] += 3600.0

        state_dir, path = self._run_both_shards_and_edit(tmp_path, capsys, edit)
        assert main(command + ["--once", "--state-dir", state_dir]) == 1
        captured = capsys.readouterr()
        states = [
            line.rsplit("|", 1)[1].strip()
            for line in captured.out.splitlines() if "/2" in line
        ]
        assert states == ["invalid", "final"]
        assert f"invalid heartbeat {path}: interval_s 0 not > 0" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_stall_beside_invalid_heartbeat_still_exits_4(self, tmp_path, capsys):
        import json

        from repro.obs.live import heartbeat_path

        state_dir, _ = self._run_both_shards_and_edit(
            tmp_path, capsys, lambda data: data.pop("pid")
        )
        stale = heartbeat_path(f"{state_dir}/live", (2, 2))
        data = json.loads(stale.read_text())
        data["final"] = False
        data["started"] -= 3600.0
        data["updated"] -= 3600.0
        stale.write_text(json.dumps(data))
        assert main([
            "exp", "watch", "live", "--once", "--json", "--state-dir", state_dir,
        ]) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["stalled"] is True
        invalid, stalled = payload["heartbeats"]
        assert "missing field 'pid'" in invalid["error"]
        assert stalled["shard"] == "2/2" and stalled["stalled"] is True

    def test_status_json_without_heartbeats(self, tmp_path, capsys):
        import json

        state_dir = str(tmp_path / "experiments")
        assert main([
            "exp", "define", "bare", "--scenario", "exp2-fc-dpm",
            "--seeds", "0:2", "--policies", "conv-dpm",
            "--state-dir", state_dir,
        ]) == 0
        capsys.readouterr()
        assert main([
            "exp", "status", "bare", "--json", "--state-dir", state_dir,
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "defined"
        assert payload["tasks"]["total"] == 2
        assert payload["heartbeats"] == []

    def test_status_json_lists_all_without_name(self, tmp_path, capsys):
        import json

        state_dir = self._define_and_run_live(tmp_path, capsys)
        assert main([
            "exp", "status", "--json", "--state-dir", state_dir,
        ]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert isinstance(payloads, list)
        assert payloads[0]["name"] == "live"

    def test_top_once_renders_every_experiment(self, tmp_path, capsys):
        state_dir = self._define_and_run_live(tmp_path, capsys)
        assert main(["top", "--once", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "live" in out and "final" in out

    def test_top_once_lists_unreadable(self, tmp_path, capsys):
        state_dir = self._define_and_run_live(tmp_path, capsys)
        _plant_truncated_state(state_dir)
        assert main(["top", "--once", "--state-dir", state_dir]) == 1
        captured = capsys.readouterr()
        assert "live" in captured.out and "final" in captured.out
        assert "broken" in captured.out and "unreadable" in captured.out
        assert "unreadable state file" in captured.err

    def test_status_json_lists_unreadable(self, tmp_path, capsys):
        import json

        state_dir = self._define_and_run_live(tmp_path, capsys)
        _plant_truncated_state(state_dir)
        assert main([
            "exp", "status", "--json", "--state-dir", state_dir,
        ]) == 1
        payloads = {p["name"]: p for p in json.loads(capsys.readouterr().out)}
        assert payloads["live"]["status"] == "done"
        assert payloads["broken"]["status"] == "unreadable"
        assert "unreadable state file" in payloads["broken"]["error"]

    def test_top_once_json(self, tmp_path, capsys):
        import json

        state_dir = self._define_and_run_live(tmp_path, capsys)
        assert main([
            "top", "--once", "--json", "--state-dir", state_dir,
        ]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert len(payloads) == 1 and payloads[0]["name"] == "live"
