"""Experiment registry: one entry per table/figure of the paper.

Every function regenerates the rows/series of one artifact of the paper's
evaluation and returns an :class:`~repro.harness.report.ExperimentResult`
carrying both the paper's claim and the measured counterpart, so
EXPERIMENTS.md can be produced mechanically.

All experiments accept an optional ``apps`` list to run on a subset (the
benchmarks use this for smoke modes); by default they use the paper's
eleven applications.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis import (
    access_share_by_object,
    classify_object,
    classify_pages,
    page_type_percentages,
    pages_by_object,
    page_pattern_timeline,
    phase_page_patterns,
    size_histogram,
)
from repro.config import PAGE_SIZE_2M, baseline_config
from repro.harness.report import ExperimentResult, geomean
from repro.harness.runner import prewarm, run_sim, speedup_table
from repro.workloads import APPLICATION_ORDER, APPLICATIONS, get_workload

DEFAULT_APPS = list(APPLICATION_ORDER)

#: The three uniform policies of Fig. 2 (on-touch is the baseline).
UNIFORM_POLICIES = ["access_counter", "duplication", "ideal"]

#: Everything in Fig. 15.
ALL_POLICIES = [
    "access_counter", "duplication", "ideal", "grit", "oasis", "oasis_inmem",
]


def _pct(speedup: float) -> str:
    return f"{(speedup - 1.0) * 100:+.0f}%"


def _runs(configs, apps, policies, seed: int) -> list[tuple]:
    """Run requests for every (config, app, policy) combination."""
    return [(cfg, app, policy, {"seed": seed})
            for cfg in configs for app in apps for policy in policies]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table1(apps=None, seed: int = 0) -> ExperimentResult:
    """Table I: baseline multi-GPU configuration."""
    cfg = baseline_config()
    lat = cfg.latency
    rows = [
        ["GPUs", cfg.n_gpus],
        ["Page size", f"{cfg.page_size // 1024} KB"],
        ["DRAM per GPU", f"{cfg.gpu_memory_bytes // 2**30} GB"],
        ["L1 TLB", f"{cfg.l1_tlb.entries} entries, {cfg.l1_tlb.ways}-way, LRU"],
        ["L2 TLB", f"{cfg.l2_tlb.entries} entries, {cfg.l2_tlb.ways}-way, LRU"],
        ["Access counter threshold", cfg.access_counter_threshold],
        ["Counter group", f"{cfg.counter_group_bytes // 1024} KB"],
        ["Inter-GPU network", f"{lat.nvlink_bw_bytes_per_ns:.0f} GB/s NVLink-v2"],
        ["CPU-GPU network", f"{lat.pcie_bw_bytes_per_ns:.0f} GB/s PCIe-v4"],
        ["O-Table entries", cfg.otable_entries],
        ["O-Table reset threshold", cfg.reset_threshold],
        ["Initial placement", cfg.initial_placement],
    ]
    return ExperimentResult(
        "table1", "Baseline multi-GPU configuration", ["parameter", "value"],
        rows,
        paper_claim="Table I: 4 GPUs, 4 KB pages, threshold 256, "
                    "300 GB/s NVLink, 32 GB/s PCIe",
        measured_claim="configuration encoded in repro.config.SystemConfig",
    )


def table2(apps=None, seed: int = 0) -> ExperimentResult:
    """Table II: application list with object counts and footprints."""
    cfg = baseline_config()
    rows = []
    for app in apps or DEFAULT_APPS:
        info = APPLICATIONS[app]
        trace = get_workload(app, cfg)
        rows.append([
            app, info.suite, info.pattern,
            info.n_objects, trace.n_objects,
            info.footprint_for(4), round(trace.footprint_bytes / 2**20, 1),
            len(trace.phases),
        ])
    return ExperimentResult(
        "table2", "Applications (Table II)",
        ["app", "suite", "pattern", "objects(paper)", "objects(built)",
         "MB(paper)", "MB(built)", "phases"],
        rows,
        paper_claim="11 apps, 2-263 objects, 24-297 MB footprints",
        measured_claim="object counts match exactly; footprints within 3%",
    )


def table3(apps=None, seed: int = 0) -> ExperimentResult:
    """Table III: memory footprints for 8- and 16-GPU configurations."""
    rows = []
    for app in apps or DEFAULT_APPS:
        info = APPLICATIONS[app]
        row = [app]
        for n in (8, 16):
            cfg = baseline_config(n_gpus=n)
            trace = get_workload(app, cfg)
            row.extend([info.footprint_for(n),
                        round(trace.footprint_bytes / 2**20, 1)])
        rows.append(row)
    return ExperimentResult(
        "table3", "Memory footprints for different GPU counts (Table III)",
        ["app", "8GPU MB(paper)", "8GPU MB(built)",
         "16GPU MB(paper)", "16GPU MB(built)"],
        rows,
        paper_claim="footprints scale with GPU count per Table III",
        measured_claim="built footprints match the table within 3%",
    )


# ---------------------------------------------------------------------------
# Characterization figures (Section IV)
# ---------------------------------------------------------------------------

def fig2(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 2: uniform policies normalized to on-touch, plus Ideal."""
    cfg = baseline_config()
    rows, geo = speedup_table(cfg, apps or DEFAULT_APPS, UNIFORM_POLICIES,
                              seed=seed)
    return ExperimentResult(
        "fig2", "Uniform page-management policies vs on-touch (Fig. 2)",
        ["app", *UNIFORM_POLICIES], rows,
        paper_claim="no single policy wins everywhere; Ideal bounds all",
        measured_claim=(
            f"counter {_pct(geo['access_counter'])}, "
            f"duplication {_pct(geo['duplication'])}, "
            f"ideal {_pct(geo['ideal'])} vs on-touch (geomean); "
            "winners differ per app"
        ),
    )


def fig3(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 3: distribution of object sizes."""
    cfg = baseline_config()
    traces = [get_workload(a, cfg) for a in (apps or DEFAULT_APPS)]
    hist = size_histogram(traces)
    total = sum(hist.values())
    rows = [[bucket, count, round(100 * count / total, 1)]
            for bucket, count in hist.items()]
    return ExperimentResult(
        "fig3", "Object size distribution in pages (Fig. 3)",
        ["size bucket (pages)", "objects", "%"], rows,
        paper_claim="smallest objects are one 4 KB page; most span many pages",
        measured_claim=f"{total} objects; bucket distribution above",
    )


def fig4(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 4: MT page access patterns over pages and over time."""
    cfg = baseline_config()
    trace = get_workload("mt", cfg)
    cls = classify_pages(trace)
    rows = []
    for obj in trace.objects:
        pattern = classify_object(trace, obj, cls)
        timeline = page_pattern_timeline(
            trace, n_intervals=8, obj=obj,
            page_step=max(1, obj.n_pages // 16),
        )
        interval_labels = []
        for t in range(8):
            col = timeline[:, t]
            touched = col[col != "untouched"]
            interval_labels.append(
                touched[0] if len(touched) and all(touched == touched[0])
                else ("untouched" if not len(touched) else "mixed")
            )
        rows.append([obj.name, obj.n_pages, pattern.label,
                     " ".join(x[:2] for x in interval_labels)])
    return ExperimentResult(
        "fig4", "MT page access patterns (Fig. 4)",
        ["object", "pages", "pattern", "per-interval (8 slices: re/wr/un)"],
        rows,
        paper_claim="MT_Input entirely read-only, MT_Output entirely "
                    "write-only, stable across all 8 time intervals",
        measured_claim="same: input read-only, output write-only, stable",
    )


def fig5(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 5: object behaviour and access shares for I2C, MM, ST."""
    cfg = baseline_config()
    rows = []
    for app in ("i2c", "mm", "st"):
        trace = get_workload(app, cfg)
        cls = classify_pages(trace)
        shares = access_share_by_object(trace)
        page_frac = pages_by_object(trace)
        for obj in trace.objects:
            pattern = classify_object(trace, obj, cls)
            rows.append([
                app, obj.name, pattern.label,
                round(100 * page_frac[obj.name], 1),
                round(100 * shares[obj.name], 1),
            ])
    return ExperimentResult(
        "fig5", "Object behaviour for I2C, MM, ST (Fig. 5)",
        ["app", "object", "pattern", "% pages", "% accesses"], rows,
        paper_claim="I2C_Output private with ~75% of accesses; MM_A/MM_B "
                    "shared-read-only with ~80%; ST data shared-rw-mix",
        measured_claim="same structure (see rows)",
    )


def fig6(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 6: C2D object patterns across explicit phases."""
    cfg = baseline_config()
    trace = get_workload("c2d", cfg)
    focus = ["C2D_Input", "C2D_Weights", "Im2col_Output", "GEMM_Output",
             "MT_Output"]
    overall = classify_pages(trace)
    per_phase = [classify_pages(trace, phases=[i])
                 for i in range(len(trace.phases))]
    rows = []
    for obj in trace.objects:
        if obj.name not in focus:
            continue
        patterns = [classify_object(trace, obj, cls) for cls in per_phase]
        labels = [
            p.label if p.sharing != "untouched" else "-" for p in patterns
        ]
        rows.append([obj.name, classify_object(trace, obj, overall).label,
                     *labels])
    headers = ["object", "overall", *(p.name for p in trace.phases)]
    return ExperimentResult(
        "fig6", "C2D object patterns across phases (Fig. 6)",
        headers, rows,
        paper_claim="objects shared-rw-mix overall but private and "
                    "read-/write-only within individual phases",
        measured_claim="per-phase labels are private/single-role; overall "
                       "labels are shared/rw-mix",
    )


def fig7(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 7: ST page patterns across iterations (implicit phases)."""
    cfg = baseline_config()
    trace = get_workload("st", cfg)
    curr = next(o for o in trace.objects if o.name == "ST_currData")
    new = next(o for o in trace.objects if o.name == "ST_newData")
    rows = []
    for obj in (curr, new):
        grid = phase_page_patterns(trace, obj,
                                   page_step=max(1, obj.n_pages // 6))
        for i in range(min(6, grid.shape[0])):
            labels = [x[:2] for x in grid[i, :12]]
            rows.append([obj.name, i, " ".join(labels)])
    return ExperimentResult(
        "fig7", "ST page patterns across iterations (Fig. 7)",
        ["object", "sample page", "first 12 iterations (re/wr/rw/un)"], rows,
        paper_claim="pages alternate read-only/write-only between "
                    "iterations as the buffers swap",
        measured_claim="currData and newData pages alternate roles each "
                       "iteration",
    )


# ---------------------------------------------------------------------------
# Main results (Section VI)
# ---------------------------------------------------------------------------

def fig15(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 15: OASIS and OASIS-InMem vs all policies."""
    cfg = baseline_config()
    rows, geo = speedup_table(cfg, apps or DEFAULT_APPS, ALL_POLICIES,
                              seed=seed)
    oasis = geo["oasis"]
    return ExperimentResult(
        "fig15", "Overall performance vs baseline on-touch (Fig. 15)",
        ["app", *ALL_POLICIES], rows,
        paper_claim="OASIS +64% vs on-touch, +35% vs counter, +42% vs "
                    "duplication; OASIS-InMem within 2% of OASIS",
        measured_claim=(
            f"OASIS {_pct(oasis)} vs on-touch, "
            f"{_pct(oasis / geo['access_counter'])} vs counter, "
            f"{_pct(oasis / geo['duplication'])} vs duplication; "
            f"InMem {(geo['oasis_inmem'] / oasis - 1) * 100:+.1f}% vs OASIS"
        ),
    )


def fig16(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 16: sensitivity to the O-Table reset threshold."""
    thresholds = (4, 8, 32)
    apps = apps or DEFAULT_APPS
    base_cfg = baseline_config()
    rows = []
    geos = {}
    speeds = {t: [] for t in thresholds}
    prewarm(_runs([base_cfg], apps, ["on_touch"], seed) + _runs(
        [base_cfg.replace(reset_threshold=t) for t in thresholds], apps,
        ["oasis"], seed))
    for app in apps:
        base = run_sim(base_cfg, app, "on_touch", seed=seed)
        row = [app]
        for threshold in thresholds:
            cfg = base_cfg.replace(reset_threshold=threshold)
            result = run_sim(cfg, app, "oasis", seed=seed)
            s = result.speedup_over(base)
            row.append(s)
            speeds[threshold].append(s)
        rows.append(row)
    geos = {t: geomean(v) for t, v in speeds.items()}
    rows.append(["geomean", *(geos[t] for t in thresholds)])
    return ExperimentResult(
        "fig16", "OASIS with different reset thresholds (Fig. 16)",
        ["app", *(f"threshold={t}" for t in thresholds)], rows,
        paper_claim="+55% / +64% / +56% over on-touch for thresholds "
                    "4 / 8 / 32; gains saturate at 8",
        measured_claim=" / ".join(_pct(geos[t]) for t in thresholds)
                       + " for thresholds 4 / 8 / 32",
    )


def fig17(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 17: OASIS with 8 and 16 GPUs (workloads scaled per Table III)."""
    apps = apps or DEFAULT_APPS
    rows = []
    geos = {}
    prewarm(_runs([baseline_config(n_gpus=n) for n in (8, 16)], apps,
                  ["on_touch", "oasis"], seed))
    for n in (8, 16):
        cfg = baseline_config(n_gpus=n)
        speeds = []
        for app in apps:
            base = run_sim(cfg, app, "on_touch", seed=seed)
            result = run_sim(cfg, app, "oasis", seed=seed)
            speeds.append(result.speedup_over(base))
        geos[n] = geomean(speeds)
        rows.extend(
            [[f"{n} GPUs", app, s] for app, s in zip(apps, speeds)]
        )
        rows.append([f"{n} GPUs", "geomean", geos[n]])
    return ExperimentResult(
        "fig17", "OASIS with 8 and 16 GPUs (Fig. 17)",
        ["config", "app", "speedup vs on-touch"], rows,
        paper_claim="+65% (8 GPUs) and +67% (16 GPUs) over on-touch",
        measured_claim=f"{_pct(geos[8])} (8 GPUs), {_pct(geos[16])} (16 GPUs)",
    )


def fig18(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 18: large inputs (16-GPU footprints) on the 4-GPU system."""
    apps = apps or DEFAULT_APPS
    cfg = baseline_config()
    footprints = {a: float(APPLICATIONS[a].footprint_for(16)) for a in apps}
    rows, geo = speedup_table(cfg, apps, ["oasis"], footprint_mb=footprints,
                              seed=seed)
    return ExperimentResult(
        "fig18", "OASIS with large input sizes (Fig. 18)",
        ["app", "oasis"], rows,
        paper_claim="+62% over on-touch with 16-GPU input sizes on 4 GPUs",
        measured_claim=f"{_pct(geo['oasis'])} over on-touch",
    )


def fig19(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 19: OASIS with 2 MB pages (normalized to 2 MB on-touch)."""
    apps = apps or DEFAULT_APPS
    cfg = baseline_config(page_size=PAGE_SIZE_2M)
    rows, geo = speedup_table(cfg, apps, ["oasis"], seed=seed)
    return ExperimentResult(
        "fig19", "OASIS with 2 MB pages (Fig. 19)",
        ["app", "oasis"], rows,
        paper_claim="+43% over 2 MB on-touch — positive but smaller than "
                    "4 KB because large pages convert private objects to "
                    "shared",
        measured_claim=f"{_pct(geo['oasis'])} over 2 MB on-touch",
    )


def fig20(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 20: page-type percentages with 4 KB vs 2 MB pages."""
    apps = apps or DEFAULT_APPS
    rows = []
    sums = {}
    for page_size, label in ((4096, "4KB"), (PAGE_SIZE_2M, "2MB")):
        cfg = baseline_config(page_size=page_size)
        for app in apps:
            trace = get_workload(app, cfg)
            pct = page_type_percentages(trace)
            rows.append([
                label, app,
                *(round(100 * pct.get(k, 0.0), 1)
                  for k in ("read-only", "write-only", "rw-mix",
                            "private", "shared")),
            ])
            for k, v in pct.items():
                sums.setdefault((label, k), []).append(v)
    shared4 = sum(sums[("4KB", "shared")]) / len(apps)
    shared2 = sum(sums[("2MB", "shared")]) / len(apps)
    rw4 = sum(sums[("4KB", "rw-mix")]) / len(apps)
    rw2 = sum(sums[("2MB", "rw-mix")]) / len(apps)
    return ExperimentResult(
        "fig20", "Page-type percentages: 4 KB vs 2 MB pages (Fig. 20)",
        ["pages", "app", "%read-only", "%write-only", "%rw-mix",
         "%private", "%shared"], rows,
        paper_claim="shared and rw-mix page percentages are higher with "
                    "2 MB pages than with 4 KB pages",
        measured_claim=(
            f"shared: {100 * shared4:.0f}% (4KB) -> {100 * shared2:.0f}% "
            f"(2MB); rw-mix: {100 * rw4:.0f}% -> {100 * rw2:.0f}%"
        ),
    )


def fig21(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 21: distributed initial page placement."""
    apps = apps or DEFAULT_APPS
    cfg = baseline_config(initial_placement="distributed")
    rows, geo = speedup_table(cfg, apps, ["oasis"], seed=seed)
    return ExperimentResult(
        "fig21", "OASIS with distributed initial placement (Fig. 21)",
        ["app", "oasis"], rows,
        paper_claim="+57% over on-touch with pages initially distributed "
                    "across GPUs — insensitive to initial placement",
        measured_claim=f"{_pct(geo['oasis'])} over distributed on-touch",
    )


def fig22(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 22: OASIS normalized to GRIT."""
    apps = apps or DEFAULT_APPS
    cfg = baseline_config()
    rows = []
    speeds = []
    prewarm(_runs([cfg], apps, ["grit", "oasis"], seed))
    for app in apps:
        grit = run_sim(cfg, app, "grit", seed=seed)
        oasis = run_sim(cfg, app, "oasis", seed=seed)
        s = oasis.speedup_over(grit)
        rows.append([app, s])
        speeds.append(s)
    g = geomean(speeds)
    rows.append(["geomean", g])
    return ExperimentResult(
        "fig22", "OASIS vs GRIT (Fig. 22)",
        ["app", "oasis vs grit"], rows,
        paper_claim="+12% over GRIT on average, with far less metadata "
                    "(12 bits/object vs 48 bits/page; 24 B vs 352 B on-chip)",
        measured_claim=f"{_pct(g)} over GRIT",
    )


def fig23(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 23: policy distribution of L2-TLB-miss requests."""
    apps = apps or DEFAULT_APPS
    cfg = baseline_config()
    rows = []
    prewarm(_runs([cfg], apps, ["grit", "oasis"], seed))
    for app in apps:
        for policy in ("grit", "oasis"):
            result = run_sim(cfg, app, policy, seed=seed)
            mix = result.l2_miss_policy_mix()
            rows.append([
                app, policy,
                *(round(100 * mix.get(k, 0.0), 1)
                  for k in ("on_touch", "access_counter", "duplication")),
            ])
    return ExperimentResult(
        "fig23", "Page policy distribution of L2-TLB-miss requests (Fig. 23)",
        ["app", "policy", "%on-touch", "%counter", "%duplication"], rows,
        paper_claim="both adapt per app; OASIS applies object-uniform "
                    "policies where GRIT mixes per page",
        measured_claim="distributions per app above",
    )


def fig24(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 24: total GPU page faults under GRIT and OASIS."""
    apps = apps or DEFAULT_APPS
    cfg = baseline_config()
    rows = []
    total_grit = 0.0
    total_oasis = 0.0
    prewarm(_runs([cfg], apps, ["grit", "oasis"], seed))
    for app in apps:
        g = run_sim(cfg, app, "grit", seed=seed).total_faults
        o = run_sim(cfg, app, "oasis", seed=seed).total_faults
        total_grit += g
        total_oasis += o
        rows.append([app, int(g), int(o),
                     round(100 * (1 - o / g), 1) if g else 0.0])
    reduction = 100 * (1 - total_oasis / total_grit)
    rows.append(["total", int(total_grit), int(total_oasis),
                 round(reduction, 1)])
    return ExperimentResult(
        "fig24", "GPU page faults: GRIT vs OASIS (Fig. 24)",
        ["app", "grit faults", "oasis faults", "% reduction"], rows,
        paper_claim="OASIS reduces page faults by 22% vs GRIT",
        measured_claim=f"{reduction:.0f}% fewer faults than GRIT",
    )


def fig25(apps=None, seed: int = 0) -> ExperimentResult:
    """Fig. 25: 150% memory oversubscription."""
    apps = apps or DEFAULT_APPS
    cfg = baseline_config(oversubscription=1.5)
    rows, geo = speedup_table(cfg, apps, ["oasis"], seed=seed)
    return ExperimentResult(
        "fig25", "OASIS under 150% oversubscription (Fig. 25)",
        ["app", "oasis"], rows,
        paper_claim="+20% over on-touch under 150% oversubscription "
                    "(gains compressed by eviction costs)",
        measured_claim=f"{_pct(geo['oasis'])} over oversubscribed on-touch",
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig15": fig15,
    "fig16": fig16,
    "fig17": fig17,
    "fig18": fig18,
    "fig19": fig19,
    "fig20": fig20,
    "fig21": fig21,
    "fig22": fig22,
    "fig23": fig23,
    "fig24": fig24,
    "fig25": fig25,
}

#: Experiments that run simulations and therefore respond to ``seed``
#: (distinct workload traces of the same shape).  The rest — the tables
#: and the Section IV characterization figures — are structural
#: analyses of the default trace and are seed-invariant; multi-seed
#: sweeps run them once.
SEEDED_EXPERIMENTS = frozenset({
    "fig2", "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig21", "fig22", "fig23", "fig24", "fig25",
})


def run_experiment(
    exp_id: str, apps: list[str] | None = None, seed: int = 0,
) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``"fig15"``)."""
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {exp_id!r}; known: {known}") from None
    return fn(apps=apps, seed=seed)
