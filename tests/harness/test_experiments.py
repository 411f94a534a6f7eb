"""Experiment registry smoke tests (small app subsets for speed)."""

import pytest

from repro.harness import EXPERIMENTS, configure, run_experiment, runner

FAST_APPS = ["mm", "st"]


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {
            "table1", "table2", "table3",
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
            "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
            "fig21", "fig22", "fig23", "fig24", "fig25",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")


class TestCharacterizationExperiments:
    def test_table1_static(self):
        result = run_experiment("table1")
        assert result.row_dict()["GPUs"][1] == 4

    def test_fig4_mt_patterns(self):
        result = run_experiment("fig4")
        rows = result.row_dict()
        assert rows["MT_Input"][2] == "shared-read-only"
        assert rows["MT_Output"][2] == "private-write-only"

    def test_fig5_object_labels(self):
        result = run_experiment("fig5")
        rows = {(r[0], r[1]): r for r in result.rows}
        assert rows[("mm", "MM_A")][2] == "shared-read-only"
        assert rows[("st", "ST_currData")][2] == "shared-rw-mix"
        assert rows[("i2c", "I2C_Output")][2] == "private-rw-mix"

    def test_fig7_alternation(self):
        result = run_experiment("fig7")
        first = result.rows[0][2].split()
        assert first[0] != first[1]  # roles alternate

    def test_fig3_most_objects_span_many_pages(self):
        result = run_experiment("fig3")
        buckets = {row[0]: row[1] for row in result.rows}
        total = sum(buckets.values())
        assert total > 0
        assert (total - buckets.get("<=1", 0)) / total > 0.5
        assert buckets.get(">1024", 0) > 0

    def test_fig6_intermediates_private_within_phases(self):
        rows = run_experiment("fig6").row_dict()
        for name in ("Im2col_Output", "GEMM_Output"):
            row = rows[name]
            assert row[1] == "shared-rw-mix", name
            phase_labels = [c for c in row[2:] if c != "-"]
            assert phase_labels, name
            for label in phase_labels:
                assert label.startswith("private-"), (name, label)
                assert label.endswith(("read-only", "write-only")), (
                    name, label)
        gemm_labels = [c for c in rows["C2D_Weights"][2:] if c != "-"]
        assert "shared-read-only" in gemm_labels

    def test_fig20_large_pages_raise_shared_share(self):
        result = run_experiment("fig20")
        shared = result.headers.index("%shared")
        mix = result.headers.index("%rw-mix")

        def mean(label: str, col: int) -> float:
            values = [row[col] for row in result.rows if row[0] == label]
            return sum(values) / len(values)

        assert mean("2MB", shared) > mean("4KB", shared)
        assert mean("2MB", mix) >= mean("4KB", mix) - 2.0


class TestPerformanceExperiments:
    def test_fig2_normalization(self):
        result = run_experiment("fig2", apps=FAST_APPS)
        assert result.headers[0] == "app"
        geomean_row = result.rows[-1]
        assert geomean_row[0] == "geomean"
        assert all(v > 0 for v in geomean_row[1:])

    def test_fig15_oasis_beats_on_touch(self):
        result = run_experiment("fig15", apps=FAST_APPS)
        row = result.row_dict()["geomean"]
        oasis = row[result.headers.index("oasis")]
        assert oasis > 1.0

    def test_fig22_relative_to_grit(self):
        result = run_experiment("fig22", apps=FAST_APPS)
        assert result.rows[-1][0] == "geomean"

    def test_fig24_fault_totals(self):
        result = run_experiment("fig24", apps=FAST_APPS)
        total = result.row_dict()["total"]
        assert total[1] > 0 and total[2] > 0

    def test_fig22_prewarms_through_the_pool(self, monkeypatch):
        """With two jobs, fig22's runs go through run_sims_parallel
        before the figure reads them one at a time."""
        sweeps = []
        real = runner.run_sims_parallel

        def recording(requests, jobs=None):
            requests = list(requests)
            sweeps.append(([(r[1], r[2]) for r in requests], jobs))
            return real(requests, jobs=jobs)

        monkeypatch.setattr(runner, "run_sims_parallel", recording)
        configure(jobs=2)
        try:
            run_experiment("fig22", apps=["mm"])
        finally:
            configure(jobs=1)
        assert sweeps == [([("mm", "grit"), ("mm", "oasis")], 2)]
