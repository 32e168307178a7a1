"""Spec -> model-checker compilation and verdict folding."""

import pytest

from repro.scenarios import ScenarioSpec, by_name, compile_spec, run_mc

pytestmark = [pytest.mark.scenario, pytest.mark.mc]


class TestCompile:
    @pytest.mark.parametrize("technique", [
        "invalidate", "refresh", "delta", "clock",
    ])
    def test_auto_builds_per_technique(self, technique):
        spec = ScenarioSpec("t", technique=technique, modes=("mc",),
                            mc_scenario="auto", oracles=("mc-verdict",))
        scenario = compile_spec(spec)
        assert scenario.technique == technique
        world, programs = scenario.build()
        assert len(programs) >= 2  # at least a writer and a reader
        assert not scenario.expect_violation

    def test_named_scenario_resolves_from_mc_catalogue(self):
        spec = by_name("race-fig3-baseline")
        scenario = compile_spec(spec)
        assert scenario.name == "fig3-baseline"
        assert scenario.expect_violation

    def test_live_only_spec_has_nothing_to_compile(self):
        with pytest.raises(ValueError, match="no mc mode"):
            compile_spec(by_name("wire-invalidate"))


class TestRunMC:
    def test_clean_exploration_passes(self):
        report = run_mc(by_name("figure-invalidate"), sizing="pytest")
        assert report.mode == "mc"
        assert report.ok
        assert report.oracle("mc-verdict").ok
        assert report.metrics["violations"] == 0
        assert report.metrics["schedules_explored"] >= 1

    def test_expected_race_must_be_found(self):
        report = run_mc(by_name("race-fig3-baseline"), sizing="pytest")
        assert report.ok
        assert report.metrics["violations"] >= 1
        assert report.metrics["expect_violation"] == 1

    def test_truncated_exploration_never_passes(self):
        from repro.scenarios.runner import Sizing

        tiny = Sizing(threads=1, ops=1, members=10, fault_duration=0.1,
                      mc_max_states=1)
        report = run_mc(by_name("figure-refresh"), sizing=tiny)
        assert not report.ok
        assert report.metrics["truncated"] == 1

    def test_live_only_spec_is_skipped_not_failed(self):
        report = run_mc(by_name("zipf-theta-03-invalidate"),
                        sizing="pytest")
        assert report.skipped
        assert report.ok

    def test_parity_with_live_path(self):
        """One declarative spec, two execution paths, one verdict."""
        from repro.scenarios import run_live

        spec = by_name("figure-delta")
        live = run_live(spec, sizing="pytest")
        mc = run_mc(spec, sizing="pytest")
        assert live.ok and mc.ok
        assert live.name == mc.name
