"""Cached simulation runner tests."""

import pytest

from repro import baseline_config
from repro.harness import clear_cache, run_sim, runner, speedup_table


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


SMALL = {"footprint_mb": 4.0}


class TestRunSim:
    def test_result_cached(self, config):
        a = run_sim(config, "mm", "on_touch", **SMALL)
        b = run_sim(config, "mm", "on_touch", **SMALL)
        assert a is b
        assert len(runner._session.results) == 1

    def test_distinct_configs_not_shared(self, config):
        a = run_sim(config, "mm", "on_touch", **SMALL)
        other = config.replace(reset_threshold=4)
        b = run_sim(other, "mm", "on_touch", **SMALL)
        assert a is not b

    def test_unknown_policy_rejected(self, config):
        with pytest.raises(ValueError):
            run_sim(config, "mm", "bogus")

    def test_policy_kwargs_in_key(self, config):
        a = run_sim(config, "mm", "grit", **SMALL)
        b = run_sim(config, "mm", "grit", neighbor_window=0, **SMALL)
        assert a is not b


class TestSpeedupTable:
    def test_rows_and_geomean(self, config):
        rows, geo = speedup_table(
            config, ["mm"], ["on_touch", "ideal"],
            footprint_mb={"mm": 4.0},
        )
        assert rows[0][0] == "mm"
        assert rows[-1][0] == "geomean"
        assert rows[0][1] == pytest.approx(1.0)  # on_touch vs itself
        assert geo["ideal"] >= 1.0

    def test_separate_baseline_config(self, config):
        other = config.replace(initial_placement="distributed")
        rows, _ = speedup_table(
            other, ["mm"], ["on_touch"], baseline_config=other,
            footprint_mb={"mm": 4.0},
        )
        assert rows[0][1] == pytest.approx(1.0)
