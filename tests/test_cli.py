"""CLI tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bfs" in out
        assert "oasis" in out
        assert "fig15" in out

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "nope"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_docstring_lists_exactly_the_subcommands(self):
        import argparse
        import re

        import repro.cli

        [sub] = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        listed = re.findall(r"^\* ``([a-z]+)", repro.cli.__doc__, re.MULTILINE)
        assert sorted(listed) == sorted(sub.choices)


class TestSimulate:
    def test_default_policies(self, capsys):
        assert main(["simulate", "mm", "--footprint-mb", "4"]) == 0
        out = capsys.readouterr().out
        assert "on_touch" in out
        assert "oasis" in out

    def test_explicit_policy_list(self, capsys):
        assert main([
            "simulate", "mm", "--footprint-mb", "4",
            "--policy", "on_touch", "--policy", "duplication",
        ]) == 0
        out = capsys.readouterr().out
        assert "duplication" in out

    def test_config_flags(self, capsys):
        assert main([
            "simulate", "mm", "--footprint-mb", "4", "--gpus", "2",
            "--distributed", "--reset-threshold", "4",
            "--policy", "oasis",
        ]) == 0

    @pytest.mark.parametrize("flags", [
        ["--gpus", "0"],
        ["--oversubscription", "0"],
        ["--oversubscription", "-1"],
        ["--reset-threshold", "0"],
    ])
    def test_rejected_config_is_a_usage_error(self, flags, capsys):
        # A zero reaches SystemConfig's checks instead of selecting the
        # baseline, and a rejected config exits 2 like any bad flag.
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "mm", "--footprint-mb", "1", *flags])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestCharacterize:
    def test_characterize_prints_objects(self, capsys):
        assert main(["characterize", "mt"]) == 0
        out = capsys.readouterr().out
        assert "MT_Input" in out
        assert "shared-read-only" in out


class TestExperiment:
    def test_experiment_runs_and_saves(self, capsys, tmp_path):
        assert main(["experiment", "table1", "--save", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Baseline multi-GPU configuration" in out
        assert (tmp_path / "table1.txt").exists()


class TestSweep:
    def test_sweep_prints_speedup_table(self, capsys):
        assert main([
            "sweep", "--apps", "mm", "--footprint-mb", "4",
            "--policy", "on_touch", "--policy", "ideal",
        ]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out
        assert "ideal" in out

    @pytest.mark.parametrize("policies", [
        ["oasis"], ["on_touch", "oasis"],
    ], ids=["without-baseline", "with-baseline"])
    def test_metrics_out_covers_the_baseline_once(
        self, policies, tmp_path, monkeypatch,
    ):
        # The table normalizes to on-touch runs, so the summary must time
        # them even when --policy leaves on_touch out.
        import json

        from repro.harness import runner

        monkeypatch.setattr(runner, "_session", runner.Session())
        out = tmp_path / "s.json"
        flags = [arg for policy in policies for arg in ("--policy", policy)]
        assert main([
            "sweep", "--apps", "st", "--footprint-mb", "2", *flags,
            "--no-cache", "--metrics-out", str(out),
        ]) == 0
        summary = json.loads(out.read_text())
        assert summary["runs"] == 2 and summary["ok"] == 2
        assert set(summary["wall_clock_s"]["per_run"]) == {
            "st/on_touch@2MB", "st/oasis@2MB",
        }

    def test_sweep_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--policy", "bogus"])


class TestTrace:
    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        out_path = tmp_path / "mm.trace.json"
        assert main([
            "trace", "mm", "--policy", "oasis", "--footprint-mb", "4",
            "--out", str(out_path),
        ]) == 0
        payload = json.loads(out_path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["workload"] == "mm"
        assert payload["otherData"]["policy"] == "oasis"
        printed = capsys.readouterr().out
        assert str(out_path) in printed

    def test_trace_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "mm", "--policy", "bogus"])


class TestRecordingPath:
    """``trace`` is the only subcommand that records a run."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "mm", "--trace", "t.json"],
        ["simulate", "mm", "--metrics-out", "m.txt"],
        ["sweep", "--trace", "out"],
        ["trace", "mm", "--metrics-out", "m.txt"],
    ])
    def test_other_recording_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
