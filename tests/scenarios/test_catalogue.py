"""Catalogue invariants: the committed entries cover what they claim."""

import pytest

from repro.scenarios import (
    CATALOGUE,
    ScenarioSpec,
    by_name,
    catalogue,
    filter_catalogue,
)
from repro.scenarios.workloads import family_by_name

pytestmark = pytest.mark.scenario


class TestCoverage:
    def smoke(self):
        return [s for s in CATALOGUE if "smoke" in s.tiers]

    def test_smoke_tier_is_at_least_twenty_entries(self):
        assert len(self.smoke()) >= 20

    def test_all_four_techniques_in_smoke(self):
        assert {s.technique for s in self.smoke()} == {
            "invalidate", "refresh", "delta", "clock",
        }

    def test_at_least_four_family_entries_in_smoke(self):
        families = [s for s in self.smoke() if s.family is not None]
        assert len(families) >= 4
        # ... spanning all four family kinds
        assert {s.family.family for s in families} == {
            "flash-crowd", "thundering-herd", "multi-tenant", "zipf-sweep",
        }

    def test_every_fault_plan_is_exercised(self):
        assert {s.fault_plan for s in self.smoke()} >= {
            "commit-drop", "kill-restart", "rebalance-add", "flush-herd",
        }

    def test_at_least_one_entry_runs_both_paths(self):
        both = [s for s in CATALOGUE
                if "live" in s.modes and "mc" in s.modes]
        assert len(both) >= 4  # the four figure-parity rows

    def test_names_are_unique(self):
        names = [s.name for s in CATALOGUE]
        assert len(names) == len(set(names))


class TestAccessors:
    def test_by_name(self):
        assert by_name("figure-clock").technique == "clock"
        with pytest.raises(KeyError, match="--list"):
            by_name("no-such-entry")

    def test_catalogue_returns_copy(self):
        entries = catalogue()
        entries.clear()
        assert catalogue()

    def test_filters_compose(self):
        clock_wire = filter_catalogue(technique="clock", transport="wire")
        assert clock_wire
        assert all(s.technique == "clock" and s.transport == "wire"
                   for s in clock_wire)
        assert filter_catalogue(family="zipf-sweep", technique="clock")

    def test_family_lookup(self):
        family = family_by_name(CATALOGUE, "flash-crowd-x2")
        assert family.hot_members == 2
        with pytest.raises(KeyError):
            family_by_name(CATALOGUE, "unknown-family")


class TestSpecValidation:
    def test_rejects_unknown_axes(self):
        with pytest.raises(ValueError, match="technique"):
            ScenarioSpec("x", technique="hope")
        with pytest.raises(ValueError, match="transport"):
            ScenarioSpec("x", transport="carrier-pigeon")
        with pytest.raises(ValueError, match="fault plan"):
            ScenarioSpec("x", fault_plan="eclipse")
        with pytest.raises(ValueError, match="oracle"):
            ScenarioSpec("x", oracles=("zero-stale", "vibes"))

    def test_mc_mode_requires_mc_scenario(self):
        with pytest.raises(ValueError, match="mc_scenario"):
            ScenarioSpec("x", modes=("live", "mc"))

    def test_rebalance_needs_shards(self):
        with pytest.raises(ValueError, match="shards"):
            ScenarioSpec("x", fault_plan="rebalance-add", shards=0)

    def test_wire_fault_plans_reject_inproc(self):
        with pytest.raises(ValueError, match="wire"):
            ScenarioSpec("x", fault_plan="kill-restart")
        with pytest.raises(ValueError, match="wire"):
            ScenarioSpec("x", fault_plan="commit-drop")

    def test_bounds_checker(self):
        from repro.scenarios import check_bounds

        metrics = {"actions": 50, "stale": 0}
        assert check_bounds((("actions", 1, None),), metrics) == []
        assert check_bounds((("actions", None, 10),), metrics)
        assert check_bounds((("missing", 1, None),), metrics)
