"""Trace fuzzer: determinism, clean runs, and shrinking of seeded bugs."""

from __future__ import annotations

import pytest

from repro.engine import StatCounters
from repro.verify.fuzz import (
    FuzzCase,
    build_trace,
    case_config,
    case_program,
    generate_case,
    repro_command,
    run_case,
    run_fuzz,
    shrink_case,
)


def test_case_generation_is_deterministic():
    assert generate_case(7) == generate_case(7)
    assert generate_case(7) != generate_case(8)


def test_built_trace_matches_case():
    case = generate_case(3)
    trace = build_trace(case)
    assert trace.n_gpus == case.n_gpus
    assert trace.n_objects == len(case.objects)
    assert len(trace.phases) == case.n_phases
    assert trace.total_records == case.n_records


def test_healthy_cases_pass_every_oracle():
    for seed in range(10):
        case = generate_case(seed)
        assert run_case(case) is None, f"seed {seed}"


def test_run_fuzz_respects_case_count():
    report = run_fuzz(seed=0, cases=5)
    assert report["cases"] == 5
    assert report["failures"] == []


def test_run_fuzz_respects_budget():
    report = run_fuzz(seed=0, budget_s=0.0)
    assert report["cases"] == 0


@pytest.fixture
def dropped_migration_counter(monkeypatch):
    """The seeded injected bug: migration.count increments vanish."""
    orig = StatCounters.add

    def dropping(self, name, amount=1.0):
        if name == "migration.count":
            return
        orig(self, name, amount)

    monkeypatch.setattr(StatCounters, "add", dropping)


def test_fuzzer_finds_and_shrinks_seeded_bug(dropped_migration_counter):
    report = run_fuzz(seed=0, cases=10, stop_at=1)
    assert len(report["failures"]) == 1
    finding = report["failures"][0]
    # Acceptance bar: the minimal repro is at most 10 trace records.
    assert finding.n_records <= 10
    assert "resolution accounting" in finding.failure or (
        "on_touch law" in finding.failure
    )
    assert f"--seed {finding.seed}" in finding.command
    assert "TraceBuilder" in finding.program
    assert "builder.emit(" in finding.program


def test_shrunk_case_still_fails_and_is_replayable(
    dropped_migration_counter,
):
    case = generate_case(0)
    failure = run_case(case)
    assert failure is not None
    shrunk = shrink_case(case, failure)
    assert shrunk.n_records <= case.n_records
    again = run_case(shrunk)
    assert again is not None
    assert again.split(":", 1)[0] == failure.split(":", 1)[0]


def test_emitted_program_reproduces_the_violation(
    dropped_migration_counter,
):
    case = generate_case(0)
    failure = run_case(case)
    shrunk = shrink_case(case, failure)
    program = case_program(shrunk)
    # The emitted program ends in an assert on the verifier's findings;
    # executing it under the injected bug must trip that assert.
    with pytest.raises(AssertionError):
        exec(compile(program, "<fuzz-repro>", "exec"), {})


def test_repro_command_names_cli_entry():
    case = generate_case(5)
    assert repro_command(case) == (
        "PYTHONPATH=src python -m repro.cli verify --fuzz --seed 5 --cases 1"
    )


def test_repro_command_names_a_policy_subset():
    case = generate_case(5, policies=("access_counter", "duplication"))
    assert repro_command(case).endswith(
        "--seed 5 --cases 1 --policy access_counter --policy duplication"
    )


def test_cli_fuzz_passes_the_policy_subset(monkeypatch):
    from repro import cli
    from repro.verify import fuzz

    seen = []

    def fake(**kwargs):
        seen.append(kwargs)
        return {"cases": 0, "elapsed_s": 0.0, "failures": []}

    monkeypatch.setattr(fuzz, "run_fuzz", fake)
    argv = ["verify", "--fuzz", "--cases", "1"]
    assert cli.main(argv + ["--policy", "duplication"]) == 0
    assert cli.main(argv) == 0
    assert seen[0]["policies"] == ("duplication",)
    assert "policies" not in seen[1]


#: The shrunk seed-190 finding: under capacity pressure ``evict_from``
#: hands a read duplicate's ownership to its last GPU holder, whose
#: unmapped copy OASIS then re-maps.  That re-map must count as an
#: install, or resolution accounting sees more faults than installs.
SEED_190_RECORDS = tuple(
    (phase, gpu, 0, offset, write, 1)
    for phase, gpu, offset, write in (
        (0, 0, 12, False), (0, 1, 18, False), (0, 1, 24, True),
        (0, 0, 8, True), (0, 1, 3, True), (0, 1, 8, False),
        (0, 1, 22, True), (0, 1, 20, True), (0, 1, 12, False),
        (0, 0, 1, False), (0, 1, 9, True), (0, 1, 1, False),
        (0, 0, 18, False), (0, 1, 23, True), (0, 0, 24, False),
        (1, 0, 23, False), (1, 0, 20, False), (1, 0, 9, False),
        (1, 0, 24, True),
    )
)


def test_local_remap_after_evict_from_is_an_install():
    case = FuzzCase(
        seed=190, n_gpus=2, objects=(("o0", 28),), n_phases=2,
        records=SEED_190_RECORDS, oversubscription=1.9,
        policies=("oasis",),
    )
    assert run_case(case) is None


def test_case_config_round_trip():
    case = generate_case(11)
    config = case_config(case)
    assert config.n_gpus == case.n_gpus
    assert config.oversubscription == case.oversubscription
    assert isinstance(case, FuzzCase)
