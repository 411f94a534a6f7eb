"""Seeded trace/config fuzzer with delta-debugging shrinking.

Hand-written tests replay traces someone thought of; the fuzzer replays
traces nobody did — random object layouts, phase structures, access
mixes and oversubscription factors — and holds every run to the same
oracles as the curated suites:

* the phase-boundary :class:`~repro.verify.invariants.InvariantVerifier`
  (structural consistency + counter algebra), and
* the fast-vs-slow differential digest.

A :class:`FuzzCase` is pure data (object sizes + a flat record list +
config knobs), deterministically derived from its seed, so any failure
is replayable from the seed alone.  When a case fails it is shrunk with
greedy delta debugging (:func:`shrink_case`): drop record chunks, then
unreferenced objects, then excess phases and weights, re-testing the
oracle after each cut.  The reporter emits the minimal failing case as a
standalone :class:`~repro.workloads.base.TraceBuilder` program
(:func:`case_program`) plus the one-line CLI repro command, so a fuzz
finding lands in a bug report as runnable code, not a seed number.

Entry point: :func:`run_fuzz` (``repro-oasis verify --fuzz``).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace

#: Policies a fuzz case replays: one per resolution style (pure
#: migration, counter-driven, read duplication, object-aware, per-page
#: learning, incoherent copies, static hints) keeps the oracle surface
#: wide while the per-case cost stays sub-second.
DEFAULT_POLICIES = (
    "on_touch", "access_counter", "duplication", "oasis", "grit",
    "ideal", "static_advise",
)

#: One trace record: (phase, gpu, object index, page offset, write, weight).
Record = tuple[int, int, int, int, bool, int]


@dataclass(frozen=True)
class FuzzCase:
    """One generated scenario — pure data, rebuildable from its seed."""

    seed: int
    n_gpus: int
    #: ``(name, n_pages)`` per object, allocation order = Obj_ID.
    objects: tuple[tuple[str, int], ...]
    n_phases: int
    records: tuple[Record, ...]
    oversubscription: float | None = None
    policies: tuple[str, ...] = DEFAULT_POLICIES

    @property
    def n_records(self) -> int:
        return len(self.records)


def generate_case(seed: int, policies=DEFAULT_POLICIES) -> FuzzCase:
    """Derive one random scenario deterministically from ``seed``."""
    rng = random.Random(seed)
    n_gpus = rng.choice((2, 4))
    n_objects = rng.randint(1, 3)
    objects = tuple(
        (f"o{i}", rng.randint(4, 32)) for i in range(n_objects)
    )
    n_phases = rng.randint(1, 3)
    records: list[Record] = []
    for phase in range(n_phases):
        for _ in range(rng.randint(5, 60)):
            obj = rng.randrange(n_objects)
            records.append((
                phase,
                rng.randrange(n_gpus),
                obj,
                rng.randrange(objects[obj][1]),
                rng.random() < 0.3,
                rng.choice((1, 1, 1, 2, 4, 16)),
            ))
    oversubscription = (
        round(rng.uniform(1.2, 2.0), 2) if rng.random() < 0.2 else None
    )
    return FuzzCase(
        seed=seed,
        n_gpus=n_gpus,
        objects=objects,
        n_phases=n_phases,
        records=tuple(records),
        oversubscription=oversubscription,
        policies=tuple(policies),
    )


# -- execution -------------------------------------------------------------


def build_trace(case: FuzzCase):
    """Materialize the case's trace through :class:`TraceBuilder`."""
    from repro.config import baseline_config
    from repro.workloads.base import TraceBuilder

    page_size = baseline_config().page_size
    builder = TraceBuilder(
        f"fuzz{case.seed}", case.n_gpus, page_size, seed=case.seed, burst=4
    )
    objs = [
        builder.alloc(name, n_pages * page_size)
        for name, n_pages in case.objects
    ]
    for phase in range(case.n_phases):
        builder.begin_phase(f"p{phase}", explicit=(phase == 0))
        for rec_phase, gpu, obj, offset, write, weight in case.records:
            if rec_phase == phase:
                builder.emit(gpu, objs[obj], offset, write, weight)
        builder.end_phase()
    return builder.build()


def case_config(case: FuzzCase):
    from repro.config import baseline_config

    return baseline_config(
        n_gpus=case.n_gpus,
        oversubscription=case.oversubscription,
    )


def run_case(case: FuzzCase) -> str | None:
    """Hold one case to every oracle; the first failure, or ``None``.

    Oracles: trace construction itself, the phase-boundary invariant
    verifier under each policy, and the fast-vs-slow differential
    digest.  Any unexpected exception is a failure too — fuzzing exists
    to find crashes as much as law violations.
    """
    from repro import make_policy
    from repro.sim.machine import Machine
    from repro.verify.differential import (
        core_digest,
        diff_payloads,
        forced_slow_path,
    )
    from repro.verify.invariants import InvariantVerifier

    try:
        config = case_config(case)
        trace = build_trace(case)
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        return f"trace construction raised {type(exc).__name__}: {exc}"
    for policy in case.policies:
        verifier = InvariantVerifier(strict=False)
        try:
            result = Machine(
                config, trace, make_policy(policy), verifier=verifier
            ).run()
        except Exception as exc:  # noqa: BLE001
            return f"{policy}: replay raised {type(exc).__name__}: {exc}"
        if verifier.violations:
            return f"{policy}: {verifier.violations[0]}"
        try:
            with forced_slow_path():
                slow = Machine(config, trace, make_policy(policy)).run()
        except Exception as exc:  # noqa: BLE001
            return f"{policy}: slow-path replay raised {type(exc).__name__}: {exc}"
        if core_digest(result) != core_digest(slow):
            diffs = diff_payloads(result.to_dict(), slow.to_dict())
            head = diffs[0] if diffs else "digest mismatch"
            return f"{policy}: fast/slow divergence: {head}"
    return None


# -- shrinking -------------------------------------------------------------


def _ddmin(items: list, still_fails) -> list:
    """Greedy delta debugging: remove ever-smaller chunks while failing."""
    chunk = max(1, len(items) // 2)
    while chunk >= 1:
        i = 0
        while i < len(items):
            trial = items[:i] + items[i + chunk:]
            if trial and still_fails(trial):
                items = trial
            else:
                i += chunk
        chunk //= 2
    return items


def shrink_case(case: FuzzCase, failure: str) -> FuzzCase:
    """Shrink a failing case while it keeps failing *the same way*.

    Matching on the failure's first token (the policy/oracle) rather
    than the exact message keeps the shrink from wandering onto an
    unrelated bug while still tolerating violation details (counts,
    pages) changing as records disappear.
    """
    marker = failure.split(":", 1)[0]

    def fails_same(candidate: FuzzCase) -> bool:
        found = run_case(candidate)
        return found is not None and found.split(":", 1)[0] == marker

    records = _ddmin(
        list(case.records),
        lambda recs: fails_same(replace(case, records=tuple(recs))),
    )
    case = replace(case, records=tuple(records))

    # Weights to 1 where the failure allows it.
    slim = tuple(
        (ph, gpu, obj, off, wr, 1) for ph, gpu, obj, off, wr, _ in case.records
    )
    if slim != case.records and fails_same(replace(case, records=slim)):
        case = replace(case, records=slim)

    # Drop the oversubscription when it is not load-bearing.
    if case.oversubscription is not None:
        trial = replace(case, oversubscription=None)
        if fails_same(trial):
            case = trial

    # Compact the phase structure: phase numbers carry no meaning beyond
    # ordering, so renumber the surviving ones consecutively; when
    # compaction changes behavior, fall back to just trimming empty
    # trailing phases.
    used_phases = sorted({rec[0] for rec in case.records})
    if used_phases:
        if used_phases != list(range(len(used_phases))):
            remap = {ph: i for i, ph in enumerate(used_phases)}
            recs = tuple(
                (remap[ph], gpu, obj, off, wr, wt)
                for ph, gpu, obj, off, wr, wt in case.records
            )
            trial = replace(
                case, records=recs, n_phases=len(used_phases)
            )
            if fails_same(trial):
                case = trial
        trimmed = max(rec[0] for rec in case.records) + 1
        if trimmed < case.n_phases:
            trial = replace(case, n_phases=trimmed)
            if fails_same(trial):
                case = trial

    # Drop unreferenced trailing objects (interior ones shift Obj_IDs
    # and page layout, so only a suffix cut preserves the scenario).
    used_objects = {rec[2] for rec in case.records}
    keep = max(used_objects) + 1 if used_objects else 1
    if keep < len(case.objects):
        trial = replace(case, objects=case.objects[:keep])
        if fails_same(trial):
            case = trial

    # One policy is enough for the report when it still fails alone.
    marker_policy = marker.strip()
    if marker_policy in case.policies and len(case.policies) > 1:
        trial = replace(case, policies=(marker_policy,))
        if fails_same(trial):
            case = trial
    return case


# -- reporting -------------------------------------------------------------


def case_program(case: FuzzCase) -> str:
    """The minimal failing case as a standalone TraceBuilder program."""
    lines = [
        "from repro import baseline_config, make_policy",
        "from repro.sim.machine import Machine",
        "from repro.verify.invariants import InvariantVerifier",
        "from repro.workloads.base import TraceBuilder",
        "",
    ]
    knobs = [f"n_gpus={case.n_gpus}"]
    if case.oversubscription is not None:
        knobs.append(f"oversubscription={case.oversubscription!r}")
    lines.append(f"config = baseline_config({', '.join(knobs)})")
    lines.append(
        f"builder = TraceBuilder({f'fuzz{case.seed}'!r}, {case.n_gpus}, "
        f"config.page_size, seed={case.seed}, burst=4)"
    )
    for i, (name, n_pages) in enumerate(case.objects):
        lines.append(
            f"o{i} = builder.alloc({name!r}, {n_pages} * config.page_size)"
        )
    for phase in range(case.n_phases):
        lines.append(
            f"builder.begin_phase('p{phase}', explicit={phase == 0})"
        )
        for rec_phase, gpu, obj, offset, write, weight in case.records:
            if rec_phase == phase:
                lines.append(
                    f"builder.emit({gpu}, o{obj}, {offset}, {write}, "
                    f"{weight})"
                )
        lines.append("builder.end_phase()")
    lines.append("trace = builder.build()")
    lines.append(f"for policy in {list(case.policies)!r}:")
    lines.append("    verifier = InvariantVerifier(strict=False)")
    lines.append(
        "    Machine(config, trace, make_policy(policy), "
        "verifier=verifier).run()"
    )
    lines.append("    assert not verifier.violations, verifier.violations")
    return "\n".join(lines) + "\n"


def _policy_flags(policies, default) -> str:
    """``--policy`` flags naming ``policies``; none for the default set."""
    if tuple(policies) == tuple(default):
        return ""
    return "".join(f" --policy {policy}" for policy in policies)


def repro_command(case: FuzzCase) -> str:
    """The one-liner that regenerates and re-runs exactly this case."""
    return (
        f"PYTHONPATH=src python -m repro.cli verify --fuzz "
        f"--seed {case.seed} --cases 1"
        + _policy_flags(case.policies, DEFAULT_POLICIES)
    )


@dataclass
class FuzzFailure:
    """One shrunk finding, ready for a bug report."""

    seed: int
    failure: str
    n_records: int
    program: str
    command: str


def run_fuzz(
    seed: int = 0,
    *,
    cases: int | None = None,
    budget_s: float | None = None,
    policies=DEFAULT_POLICIES,
    stop_at: int = 1,
    on_case=None,
) -> dict:
    """Fuzz until ``cases`` cases ran or ``budget_s`` seconds elapsed.

    Case *i* uses seed ``seed + i``, so ``--seed S --cases 1``
    regenerates exactly the case a longer campaign found.  Stops early
    after ``stop_at`` failures (each reported shrunk).  ``on_case`` is an
    optional test hook called with each generated case's run result.

    Returns ``{"cases": int, "elapsed_s": float,
    "failures": [FuzzFailure, ...]}``.
    """
    if cases is None and budget_s is None:
        cases = 50
    started = time.monotonic()
    ran = 0
    failures: list[FuzzFailure] = []
    index = 0
    while True:
        if cases is not None and ran >= cases:
            break
        if budget_s is not None and time.monotonic() - started >= budget_s:
            break
        case = generate_case(seed + index, policies=policies)
        index += 1
        ran += 1
        failure = run_case(case)
        if on_case is not None:
            on_case(case, failure)
        if failure is None:
            continue
        shrunk = shrink_case(case, failure)
        final = run_case(shrunk) or failure
        failures.append(FuzzFailure(
            seed=shrunk.seed,
            failure=final,
            n_records=shrunk.n_records,
            program=case_program(shrunk),
            command=repro_command(shrunk),
        ))
        if len(failures) >= stop_at:
            break
    return {
        "cases": ran,
        "elapsed_s": time.monotonic() - started,
        "failures": failures,
    }
