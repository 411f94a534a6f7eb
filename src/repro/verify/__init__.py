"""Simulator-wide verification: invariants, oracles, fuzzing, goldens.

Four layers, each usable on its own and all wired into
``repro-oasis verify`` / ``make verify``:

* :mod:`repro.verify.invariants` — machine-wide conservation laws
  (structural page-table/TLB/capacity consistency + counter algebra)
  checked at phase boundaries behind a null-object hook.
* :mod:`repro.verify.differential` — one oracle runner asserting
  bit-identical result digests across every execution mode (slow/fast
  path, serial/parallel harness, cached/recomputed, traced/untraced,
  memoized/cold).
* :mod:`repro.verify.fuzz` — a seeded random trace/config fuzzer with
  greedy delta-debugging shrinking that emits a minimal failing
  :class:`~repro.workloads.base.TraceBuilder` program plus a repro
  command.
* :mod:`repro.verify.golden` — content-addressed digests of per-phase
  results for the full workload × policy matrix, pinned under
  ``tests/golden/``.

Only :mod:`~repro.verify.invariants` is imported eagerly: it is
import-light and :mod:`repro.sim.machine` depends on it for the
null-verifier hook.  The other three import the whole simulator, so
they load lazily (PEP 562) to keep ``repro.sim.machine →
repro.verify`` cycle-free.
"""

from repro.verify.invariants import (
    NULL_VERIFIER,
    InvariantVerifier,
    InvariantViolation,
    Verifier,
    check_counter_laws,
    check_machine_invariants,
    run_invariant_suite,
    verified_simulate,
)

_LAZY_MODULES = ("differential", "fuzz", "golden")

__all__ = [
    "InvariantVerifier",
    "InvariantViolation",
    "NULL_VERIFIER",
    "Verifier",
    "check_counter_laws",
    "check_machine_invariants",
    "differential",
    "fuzz",
    "golden",
    "run_invariant_suite",
    "verified_simulate",
]


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        import importlib

        module = importlib.import_module(f"repro.verify.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro.verify' has no attribute {name!r}")
