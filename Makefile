PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench-smoke bench sweep verify verify-faults verify-obs \
	verify-serve verify-sim verify-memo verify-chaos verify-cluster \
	verify-tenancy golden-update golden-update-tenancy \
	reproduce reproduce-smoke perfbench-smoke

test:
	$(PYTHON) -m pytest -q

# Fault-model verification: machine-invariant audit plus the
# fastpath-equivalence-under-injection and harness-resilience suites.
verify-faults:
	$(PYTHON) -m pytest tests/faults tests/harness/test_runner_resilience.py -q
	$(PYTHON) -m repro.cli faults --audit

# Observability verification: trace determinism, stat/event agreement
# and exporter round-trips.
verify-obs:
	$(PYTHON) -m pytest tests/obs -q

# Simulator-wide verification: the tier-1 verify/workload suites, then
# the full phase-boundary invariant sweep, every differential oracle
# lane, and the golden-digest regression over all workloads x policies.
verify-sim:
	$(PYTHON) -m pytest tests/verify tests/workloads/test_table2_conformance.py -q
	$(PYTHON) -m repro.cli verify --jobs 4

# Simulation-service verification: the serve suite (single-flight,
# admission control, lanes/deadlines, HTTP + client) plus the ~30s
# load-generator smoke, which asserts one simulation per identical
# burst and bit-identical served results under the invariant verifier.
verify-serve:
	$(PYTHON) -m pytest tests/serve -q
	$(PYTHON) benchmarks/bench_serve.py --smoke --verify

# Sweep-fast-path verification: snapshot round-trip/corruption tests,
# the memoized-vs-cold differential lane on multi-phase apps, and the
# ~60s memoized-sweep smoke (speedup > 1.5x, zero golden-digest drift).
# The memo lane also runs inside verify-sim's full differential pass.
verify-memo:
	$(PYTHON) -m pytest tests/sim/test_snapshot.py tests/harness/test_memo_runner.py -q
	$(PYTHON) -m repro.cli verify --differential --lanes memo --apps c2d,st --jobs 4
	$(PYTHON) benchmarks/bench_memo.py --smoke

# Durability verification: journal/recovery/breaker suites, then the
# bounded (~2 min) kill-restart-recover soak — 3 seeded chaos cycles
# asserting no acked job is lost and every served result stays
# bit-identical to the pinned goldens — plus the crash-recovery bench
# (zero re-simulation for cache-complete jobs).
verify-chaos:
	$(PYTHON) -m pytest tests/chaos tests/serve/test_journal.py tests/serve/test_recovery.py -q
	REPRO_NO_FSYNC=1 $(PYTHON) -m repro.cli chaos --cycles 3 --seed 0 --apps mm --policies oasis,on_touch
	REPRO_NO_FSYNC=1 $(PYTHON) benchmarks/bench_recovery.py --smoke

# Cluster verification: the ring/store/router/integration suites, then
# the cluster bench smoke — 2 real worker subprocesses behind the
# consistent-hash router, asserting one simulation per identical burst
# cluster-wide, single-node dedup parity on the Zipf mix, and a
# SIGKILL-mid-burst journal steal that loses zero acked jobs (served
# results pinned against the goldens).
verify-cluster:
	$(PYTHON) -m pytest tests/cluster -q
	REPRO_NO_FSYNC=1 $(PYTHON) benchmarks/bench_cluster.py --smoke --chaos

# Multi-tenant verification: the tenancy + TLB suites, the
# degenerate-tenancy differential lane (single-tenant mix must be
# bit-identical to the solo run on every registry app x oasis/grit),
# a bounded 2-tenant interleaver/attribution fuzz, and the fairness
# matrix smoke against the pinned golden digests.
verify-tenancy:
	$(PYTHON) -m pytest tests/tenancy tests/tlb -q
	$(PYTHON) -m repro.cli verify --differential --lanes tenancy --jobs 4
	$(PYTHON) -m repro.cli verify --fuzz --tenancy --budget 120 --seed 0
	$(PYTHON) benchmarks/bench_multitenant.py --smoke

verify: verify-faults verify-obs verify-serve verify-sim verify-memo \
	verify-chaos verify-cluster verify-tenancy

# Re-pin tests/golden/golden.json after an intentional model change;
# commit the file so the review diff names every counter that moved.
golden-update:
	$(PYTHON) -m repro.cli verify --update-golden --jobs 4

# Re-pin tests/golden/golden_tenancy.json (full fairness matrix).
golden-update-tenancy:
	$(PYTHON) benchmarks/bench_multitenant.py --update-golden --jobs 4

bench-smoke:
	$(PYTHON) scripts/bench_smoke.py

# Repo benchmark smoke: one short traced perfbench run (policy_sweep,
# seed 1) that must be correct, fail nothing, and show nonzero self
# time in every fast-path layer (a layer reads 0 when the method the
# benchmark wraps has gone).
perfbench-smoke:
	$(PYTHON) scripts/perfbench_smoke.py

# One-command reproduce-all: every paper table/figure through the
# parallel harness into results/artifacts/<run-id>/ (manifest.json,
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
	$(PYTHON) scripts/sweep.py --jobs 4
