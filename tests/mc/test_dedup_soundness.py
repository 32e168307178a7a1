"""Fingerprint-dedup soundness: merged states must really be equal.

The explorer cuts a subtree when a prefix reaches a state whose
fingerprint was already explored.  That is only sound if the fingerprint
captures *everything* that can influence future behaviour -- including
values programs read into generator-local variables (a reader's pending
fill value, a writer's QaRead'd old value), which live outside the
shared world.  These tests replay recorded dedup pairs both ways and
assert the two executions really did land in the same place.
"""

import pytest

from repro.mc import explore, get_scenario, replay

pytestmark = pytest.mark.mc

SCENARIOS_WITH_DEDUP = [
    "fig4-iq",
    "fig6-iq",
    "fig7-baseline",
    "fig8-baseline",
    "mix3-inv-refresh-read",
    "sharded-mix",
    "coalesced-fill-fig3",
    "pr2-journal-post",
]


def _terminal_state(scenario, prefix):
    """Deterministically drain ``prefix`` and summarize the end state."""
    result = replay(scenario, list(prefix), complete=True)
    assert result.crash is None
    return (
        result.world.kvs_contents(),
        result.world.sql_contents(),
        sorted(result.violations),
    )


class TestDedupedStatesAreInterchangeable:
    @pytest.mark.parametrize("name", SCENARIOS_WITH_DEDUP)
    def test_both_prefixes_reach_the_same_terminal_state(self, name,
                                                          explored):
        scenario = get_scenario(name)
        report = explored(scenario)
        assert report.dedup_pairs, (
            "{} recorded no dedup pairs; pick a denser scenario".format(name)
        )
        for earlier, later in report.dedup_pairs:
            assert _terminal_state(scenario, earlier) == _terminal_state(
                scenario, later
            ), (
                "prefixes {!r} and {!r} deduped but diverge".format(
                    list(earlier), list(later)
                )
            )


class TestKnownDedupTrap:
    def test_pending_fill_value_distinguishes_states(self):
        # Regression for the subtle bug this suite exists to prevent:
        # in fig3-baseline the reader's queried value lives on its
        # thread between its query and its lease_set.  Pre-commit and
        # post-commit query orders reach worlds that look identical
        # unless the pending value is fingerprinted -- and deduping them
        # hides the Figure 3 race entirely.
        report = explore(get_scenario("fig3-baseline"))
        assert report.violation_count > 0
        schedules = {tuple(v.schedule) for v in report.violations}
        assert ("S1", "S1", "S1", "S2", "S2", "S1", "S2") in schedules
