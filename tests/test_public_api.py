"""Public-API surface tests."""

import pytest

import repro


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_policy_factory_names(self):
        assert set(repro.POLICY_FACTORIES) == {
            "on_touch", "access_counter", "duplication", "ideal", "grit",
            "static_advise", "oasis", "oasis_inmem",
        }

    def test_make_policy_instances(self):
        for name, factory in repro.POLICY_FACTORIES.items():
            policy = repro.make_policy(name)
            assert isinstance(policy, factory)
            assert policy.name == name

    def test_make_policy_unknown(self):
        with pytest.raises(ValueError, match="unknown policy"):
            repro.make_policy("nope")

    def test_make_policy_kwargs(self):
        policy = repro.make_policy("grit", neighbor_window=2)
        assert policy.neighbor_window == 2

    def test_quickstart_docstring_flow(self):
        config = repro.baseline_config()
        trace = repro.get_workload("mm", config, footprint_mb=4)
        result = repro.simulate(config, trace, repro.make_policy("oasis"))
        baseline = repro.simulate(
            config, trace, repro.make_policy("on_touch")
        )
        assert result.speedup_over(baseline) > 0

    def test_config_replace(self):
        config = repro.baseline_config()
        changed = config.replace(n_gpus=8)
        assert changed.n_gpus == 8
        assert config.n_gpus == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            repro.SystemConfig(n_gpus=0)
        with pytest.raises(ValueError):
            repro.SystemConfig(page_size=3000)
        with pytest.raises(ValueError):
            repro.SystemConfig(initial_placement="moon")
        with pytest.raises(ValueError):
            repro.SystemConfig(oversubscription=-1.0)
        with pytest.raises(
            ValueError, match="distributed.*oversubscription"
        ):
            repro.SystemConfig(
                initial_placement="distributed", oversubscription=1.5
            )

    def test_counter_group_adjusts_to_large_pages(self):
        from repro.config import PAGE_SIZE_2M

        config = repro.SystemConfig(page_size=PAGE_SIZE_2M)
        assert config.pages_per_counter_group == 1

    def test_devices_tuple(self):
        config = repro.baseline_config()
        assert config.devices == (repro.HOST, 0, 1, 2, 3)
