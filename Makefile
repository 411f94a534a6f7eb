PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke bench sweep verify verify-obs verify-sim \
	verify-memo golden-update reproduce reproduce-smoke perfbench-smoke

test:
	$(PYTHON) -m pytest -q

# Observability verification: trace determinism, stat/event agreement,
# the per-phase trace samples and the Chrome export's schema check.
verify-obs:
	$(PYTHON) -m pytest tests/obs -q

# Simulator-wide verification: the tier-1 verify/workload suites, then
# the full phase-boundary invariant sweep, every differential oracle
# lane, and the golden-digest regression over all workloads x policies.
verify-sim:
	$(PYTHON) -m pytest tests/verify tests/workloads/test_table2_conformance.py -q
	$(PYTHON) -m repro.cli verify --jobs 4

# Phase-snapshot tier verification: snapshot round-trip, digest and
# corruption tests, the memoized-vs-cold differential lane on
# multi-phase apps, and the ~60s serial memoized-sweep smoke (warm hits,
# speedup > 1.5x, zero golden-digest drift), whose record goes under
# $TMPDIR so the tracked full-matrix results/BENCH_memo.json stays put.
# No command turns the tier on; each of these turns it on itself.  The
# memo lane also runs inside verify-sim's full differential pass.
verify-memo:
	$(PYTHON) -m pytest tests/sim/test_snapshot.py tests/harness/test_memo_runner.py -q
	$(PYTHON) -m repro.cli verify --differential --lanes memo --apps c2d,st --jobs 4
	$(PYTHON) benchmarks/bench_memo.py --smoke --out $${TMPDIR:-/tmp}/BENCH_memo.json

verify: verify-obs verify-sim verify-memo

# Re-pin tests/golden/golden.json after an intentional model change;
# commit the file so the review diff names every counter that moved.
golden-update:
	$(PYTHON) -m repro.cli verify --update-golden --jobs 4

bench-smoke:
	$(PYTHON) scripts/bench_smoke.py

# Repo benchmark smoke: two short traced perfbench runs (seed 1) that
# must be correct and fail nothing.  policy_sweep must show nonzero
# self time in the SoA-build, fault-lane, per-record and memo layers (a
# layer reads 0 when the method the benchmark wraps has gone);
# oversub_sweep must replay no record per record (its capacity runs
# stay in the fused loops).
perfbench-smoke:
	$(PYTHON) scripts/perfbench_smoke.py

# One-command reproduce-all: every paper table/figure through the
# parallel harness and its result cache (the phase-snapshot tier off)
# into results/artifacts/<run-id>/ (manifest.json,
# metrics.jsonl, summary.json), then results/BENCH_all.json and a
# regenerated EXPERIMENTS.md.  Resumable — rerunning the same profile
# skips recorded experiments and serves cells from the result cache.
reproduce:
	$(PYTHON) scripts/reproduce_all --jobs 4

# Smoke profile for CI: 3 apps (mm,st,bfs), all experiments.
reproduce-smoke:
	$(PYTHON) scripts/reproduce_all --smoke --jobs 2

bench:
	$(PYTHON) -m pytest benchmarks -q

sweep:
	$(PYTHON) -m repro.cli sweep --jobs 4 --policy on_touch \
		--policy access_counter --policy duplication --policy ideal \
		--policy grit --policy oasis --policy oasis_inmem
