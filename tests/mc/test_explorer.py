"""Exhaustive exploration of the 3-session IQ technique mixes.

These are the tentpole guarantee: every interleaving of an invalidate /
refresh / incremental-update mix against an IQ backend terminates in a
state with no stale value, no dirty read, and a clean auditor verdict --
and the run reports that its reductions (sleep sets, fingerprint dedup)
actually did work.
"""

import pytest

from repro.mc import MCViolation, Op, explore, get_scenario, independent, replay

pytestmark = pytest.mark.mc

MIXES = [
    "mix3-inv-refresh-read",
    "mix3-inv-delta-read",
    "mix3-refresh-delta-read",
]


class TestMixesAreClean:
    @pytest.mark.parametrize("name", MIXES)
    def test_exhaustive_zero_violations(self, name, explored):
        report = explored(get_scenario(name))
        print(report.summary())  # counts logged per the acceptance bar
        assert not report.truncated, "space unexpectedly large"
        assert report.violation_count == 0, [
            (list(v.schedule), v.messages) for v in report.violations
        ]
        assert report.schedules_explored > 1

    @pytest.mark.parametrize("name", MIXES)
    def test_reductions_bite(self, name, explored):
        report = explored(get_scenario(name))
        assert report.sleep_pruned > 0
        assert report.deduped > 0

    def test_sharded_mix_clean(self, explored):
        report = explored(get_scenario("sharded-mix"))
        print(report.summary())
        assert report.ok, [v.messages for v in report.violations]


class TestFaultScenarios:
    def test_suppressed_void_found_and_audited(self):
        # The armed SUPPRESS rule at the lease-void site must be found as
        # a schedule step, and the auditor must name the protocol breach.
        report = explore(get_scenario("fault-suppressed-i-void"))
        assert report.violation_count > 0
        messages = [m for v in report.violations for m in v.messages]
        assert any("q-grant-left-i-alive" in m for m in messages)

    def test_expired_leases_reopen_the_window(self):
        # The lease-duration assumption: expiring a live writer's leases
        # lets a reader re-fill the pre-commit value.
        report = explore(get_scenario("fault-expired-leases"))
        assert report.violation_count > 0
        messages = [m for v in report.violations for m in v.messages]
        assert any("stale-final" in m for m in messages)


class TestReplay:
    def test_replay_reports_steps_and_world(self):
        result = replay(
            get_scenario("fig3-baseline"), ["S1", "S1", "S2", "S2"],
            complete=True,
        )
        assert not result.ok
        assert ("S1", "S1:sql.begin") == result.steps[0]
        assert result.world.sql_contents()["k0"] == 1

    def test_lenient_replay_skips_finished_programs(self):
        # Delta-debugged subsequences may name a program after its end.
        result = replay(
            get_scenario("fig6-baseline"),
            ["S1", "S1", "S1", "S1", "S1", "S2", "S2"],
            complete=True,
        )
        assert result.crash is None


class TestIndependence:
    def test_disjoint_keys_commute(self):
        assert independent(Op("a", kvs=["k0"]), Op("b", kvs=["k1"]))

    def test_same_key_conflicts(self):
        assert not independent(Op("a", kvs=["k0"]), Op("b", kvs=["k0"]))

    def test_sql_steps_conflict(self):
        assert not independent(Op("a", sql=True), Op("b", sql=True))

    def test_local_steps_commute_with_everything(self):
        assert independent(Op("a", local=True), Op("b", sql=True))

    def test_none_pending_commutes(self):
        assert independent(None, Op("b", kvs=["k0"]))


class TestViolationShape:
    def test_violation_carries_schedule_and_steps(self):
        report = explore(get_scenario("fig3-baseline"))
        assert report.violation_count == len(report.violations)
        violation = report.violations[0]
        assert isinstance(violation, MCViolation)
        assert violation.kind == "final"
        assert len(violation.steps) >= len(violation.schedule)
