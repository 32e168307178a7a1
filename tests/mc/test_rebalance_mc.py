"""Exhaustive exploration of online rebalancing schedules.

These runs are the PR's acceptance proof: a 2-shard -> 3-shard
migration interleaved with an IQ writer and reader admits **zero**
stale-final or dirty reads across every DPOR-distinct schedule, with
and without a shard kill mid-migration -- while the unquarantined
control migration (plain copy-then-flip, no Q fencing, no dual-epoch
window) demonstrably loses a committed write.
"""

import pytest

from repro.mc import explore, get_scenario, replay

pytestmark = pytest.mark.mc


def test_rebalance_add_is_exhaustively_clean(explored):
    report = explored(get_scenario("rebalance-add"))
    assert not report.truncated
    assert report.ok, report.summary()
    assert report.violation_count == 0
    assert report.schedules_explored > 50  # genuinely many interleavings


def test_rebalance_remove_is_exhaustively_clean(explored):
    report = explored(get_scenario("rebalance-remove"))
    assert not report.truncated
    assert report.ok, report.summary()
    assert report.violation_count == 0


def test_rebalance_survives_shard_kill_mid_migration(explored):
    report = explored(get_scenario("rebalance-add-kill"))
    assert not report.truncated
    assert report.ok, report.summary()
    assert report.violation_count == 0
    assert report.schedules_explored > 200


def test_unquarantined_migration_loses_committed_write():
    scenario = get_scenario("rebalance-unquarantined")
    report = explore(scenario, max_states=200000)
    assert not report.truncated
    assert report.violation_count > 0
    messages = [m for v in report.violations for m in v.messages]
    assert any("stale-final" in m for m in messages), messages
    # The losing schedule replays deterministically to the same verdict.
    violation = report.violations[0]
    replayed = replay(scenario, violation.schedule, complete=True)
    assert not replayed.ok


def test_rebalance_exploration_prunes_nontrivially(explored):
    # The scenario must be rich enough that DPOR actually works: both
    # sleep-set pruning and state dedup fire (a trivially sequential
    # scenario would make the clean verdicts above vacuous).
    report = explored(get_scenario("rebalance-add"))
    assert report.sleep_pruned > 0
    assert report.deduped > 0
