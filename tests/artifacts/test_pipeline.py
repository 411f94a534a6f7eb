"""Reproduce-all pipeline: artifacts, resume, mid-run kill, CLI wiring.

A smoke run writes manifest/metrics/summary with the pinned schemas, a
second invocation of the same profile performs zero new simulations,
a run killed mid-pipeline resumes without re-simulating what it
already journaled, and neither ``reproduce`` nor ``sweep`` writes a
phase snapshot.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.artifacts import SMOKE_APPS, run_pipeline, write_experiments_md
from repro.artifacts import pipeline
from repro.harness import configure, runner

REPO = Path(__file__).resolve().parents[2]


def _quiet(*_args, **_kwargs):
    pass


@pytest.fixture
def dirs(tmp_path):
    return {
        "artifact_root": tmp_path / "artifacts",
        "results_dir": tmp_path / "results",
        "cache_dir": tmp_path / "cache",
    }


def _run(dirs, **kwargs):
    kwargs.setdefault("only", ["fig02"])
    kwargs.setdefault("smoke", True)
    kwargs.setdefault("apps", ["mm"])
    kwargs.setdefault("log", _quiet)
    return run_pipeline(**dirs, **kwargs)


def test_smoke_run_writes_full_artifact_set(dirs):
    summary = _run(dirs)
    art = Path(summary["artifact_dir"])

    assert summary["ok"] is True
    assert summary["experiments"] == {
        "selected": 1, "run": 1, "skipped": 0, "failed": 0,
    }
    assert summary["sims_new"] > 0
    assert summary["per_experiment"]["fig2"]["ok"] is True

    manifest = json.loads((art / "manifest.json").read_text())
    for key in ("schema", "run_id", "git", "config_digest", "seeds",
                "only", "apps", "env", "experiments", "profile"):
        assert key in manifest, key
    assert manifest["experiments"] == ["fig2"]  # fig02 canonicalized
    assert manifest["profile"] == "smoke"
    assert manifest["run_id"] == summary["run_id"]
    assert len(manifest["config_digest"]) == 64

    records = [
        json.loads(line)
        for line in (art / "metrics.jsonl").read_text().splitlines()
    ]
    assert len(records) == 1
    rec = records[0]
    assert rec["exp_id"] == "fig2" and rec["seed"] == 0 and rec["ok"]
    assert rec["sims_new"] == summary["sims_new"]
    assert rec["wall_s"] > 0
    assert set(rec["cache"]) == {"hits", "misses",
                                 "disk_hits", "disk_misses"}
    assert "memo" not in rec

    # Rendered report and pipeline trace ride along.
    assert (art / "reports" / "fig2.txt").exists()
    assert (art / "trace.json").exists()

    # Consolidated perf trajectory under the results dir.
    bench_all = json.loads(
        (dirs["results_dir"] / "BENCH_all.json").read_text()
    )
    assert bench_all["pipeline"]["run_id"] == summary["run_id"]
    assert "benches" in bench_all


def test_reproduce_and_sweep_run_without_the_snapshot_tier(
    dirs, tmp_path, monkeypatch, capsys,
):
    from repro.cli import main

    monkeypatch.setattr(runner, "_session", runner.Session())
    summary = _run(dirs, apps=["st"])
    assert summary["ok"] and summary["sims_new"] > 0
    assert not (dirs["cache_dir"] / "snap").exists()
    assert runner._session.settings.memo is False

    sweep_cache = tmp_path / "sweep-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(sweep_cache))
    assert main([
        "sweep", "--apps", "st", "--footprint-mb", "2",
        "--policy", "on_touch", "--policy", "oasis",
    ]) == 0
    assert "geomean" in capsys.readouterr().out
    assert any(sweep_cache.glob("[0-9a-f][0-9a-f]/*.json"))
    assert not (sweep_cache / "snap").exists()
    assert runner._session.settings.memo is False


def test_reproduce_overrides_an_earlier_snapshot_tier_setting(
    dirs, monkeypatch,
):
    monkeypatch.setattr(runner, "_session", runner.Session())
    configure(memo=True)
    summary = _run(dirs, apps=["st"])
    assert summary["sims_new"] > 0
    assert runner._session.settings.memo is False
    assert not (dirs["cache_dir"] / "snap").exists()


def test_second_invocation_does_zero_new_simulations(dirs):
    first = _run(dirs)
    assert first["sims_new"] > 0

    # Same profile again: the run resumes into the same artifact dir
    # and skips the journaled experiment outright.
    second = _run(dirs)
    assert second["artifact_dir"] == first["artifact_dir"]
    assert second["experiments"]["skipped"] == 1
    assert second["experiments"]["run"] == 0
    assert second["sims_new"] == 0

    # --fresh forces re-execution — every cell must come back from the
    # persistent result store, still with zero new simulations.
    third = _run(dirs, fresh=True)
    assert third["experiments"]["run"] == 1
    assert third["experiments"]["skipped"] == 0
    assert third["sims_new"] == 0


class _Killed(BaseException):
    """Stands in for the orchestrator process dying (not an Exception,
    so the pipeline's per-experiment error journaling cannot absorb it)."""


def test_kill_mid_run_resumes_without_resimulating(dirs, monkeypatch):
    # The pipeline dies as it starts its second experiment: fig2
    # completes and is journaled, then the orchestrator is killed
    # exactly as a SIGKILL between experiments would.
    started = []
    real_run_experiment = pipeline.run_experiment

    def killed_on_second(exp_id, **kwargs):
        started.append(exp_id)
        if len(started) == 2:
            raise _Killed(exp_id)
        return real_run_experiment(exp_id, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "run_experiment", killed_on_second)
        with pytest.raises(_Killed):
            _run(dirs, only=["fig2", "fig16"])

    art_dirs = list(dirs["artifact_root"].iterdir())
    assert len(art_dirs) == 1
    art = art_dirs[0]
    assert not (art / "summary.json").exists()  # run never finished
    records = [
        json.loads(line)
        for line in (art / "metrics.jsonl").read_text().splitlines()
    ]
    assert [r["exp_id"] for r in records if r["ok"]] == ["fig2"]
    fig2_sims = records[0]["sims_new"]
    assert fig2_sims > 0

    # Resume: fig2 is skipped, fig16 runs, and fig16's shared cells
    # (the on-touch baseline it has in common with fig2) come from the
    # result store — strictly fewer simulations than a cold fig16.
    summary = _run(dirs, only=["fig2", "fig16"])
    assert summary["ok"] is True
    assert summary["experiments"]["skipped"] == 1
    assert summary["experiments"]["run"] == 1
    assert summary["per_experiment"]["fig2"]["skipped"] == 1
    assert 0 < summary["per_experiment"]["fig16"]["sims_new"] < fig2_sims + 1
    assert (art / "summary.json").exists()

    # And a third pass over the same selection is pure skip.
    final = _run(dirs, only=["fig2", "fig16"])
    assert final["sims_new"] == 0
    assert final["experiments"]["skipped"] == 2


def test_failed_experiment_is_journaled_and_does_not_abort(dirs):
    # An unknown application makes the experiment raise; the pipeline
    # must journal the failure and finish (summary ok=False), not die.
    summary = _run(dirs, apps=["no_such_app"])
    assert summary["ok"] is False
    assert summary["experiments"]["failed"] == 1
    art = Path(summary["artifact_dir"])
    rec = json.loads((art / "metrics.jsonl").read_text().splitlines()[0])
    assert rec["ok"] is False
    assert rec["error"]


def test_unknown_only_id_raises(dirs):
    with pytest.raises(ValueError, match="fig99"):
        _run(dirs, only=["fig99"])


def test_seeds_rerun_seeded_experiments_only(dirs):
    # fig2 is simulation-backed (seeded); table1 is characterization
    # and must run exactly once regardless of --seeds.
    summary = _run(dirs, only=["fig2", "table1"], seeds=2)
    assert summary["per_experiment"]["fig2"]["seeds"] == [0, 1]
    assert summary["per_experiment"]["table1"]["seeds"] == [0]
    # Seed 1 builds different traces, so it really simulates again.
    assert summary["sims_new"] > 0


def test_experiments_md_generator(dirs, tmp_path):
    # Subset runs keep reports inside the artifact dir (so they never
    # clobber the canonical tables); stage one into the results dir to
    # exercise the generator contract.
    summary = _run(dirs)
    report = Path(summary["artifact_dir"]) / "reports" / "fig2.txt"
    dirs["results_dir"].mkdir(parents=True, exist_ok=True)
    (dirs["results_dir"] / "fig2.txt").write_text(report.read_text())

    out = tmp_path / "EXPERIMENTS.md"
    missing = write_experiments_md(
        results_dir=dirs["results_dir"], out_path=out,
    )
    text = out.read_text()
    assert text.startswith("<!-- Generated by")
    assert "### fig2" in text
    assert "fig2" not in missing
    assert "fig15" in missing  # no report staged for it


def test_cli_reproduce_subcommand_is_wired():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["reproduce", "--smoke", "--only", "fig02", "--seeds", "2"]
    )
    assert args.func.__name__ == "cmd_reproduce"
    assert args.smoke and args.only == "fig02" and args.seeds == 2


def test_reproduce_all_script_end_to_end(tmp_path):
    """The acceptance criterion, through the real entry point."""
    cmd = [
        sys.executable, str(REPO / "scripts" / "reproduce_all"),
        "--smoke", "--only", "fig02", "--apps", "mm",
        "--artifact-root", str(tmp_path / "artifacts"),
        "--results-dir", str(tmp_path / "results"),
        "--cache-dir", str(tmp_path / "cache"),
    ]
    first = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert first.returncode == 0, first.stderr
    art_dirs = list((tmp_path / "artifacts").iterdir())
    assert len(art_dirs) == 1
    summary = json.loads((art_dirs[0] / "summary.json").read_text())
    assert summary["ok"] and summary["sims_new"] > 0

    second = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert second.returncode == 0, second.stderr
    summary2 = json.loads((art_dirs[0] / "summary.json").read_text())
    assert summary2["sims_new"] == 0
    assert summary2["experiments"]["skipped"] == 1
    assert (tmp_path / "results" / "BENCH_all.json").exists()


def test_smoke_apps_are_registry_apps():
    from repro.workloads import APPLICATIONS

    assert set(SMOKE_APPS) <= set(APPLICATIONS)
