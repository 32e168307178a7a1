"""Observability over live systems: audited BG runs and seeded violations.

The auditor is only trustworthy if it is quiet on a correct system *and*
loud on a broken one.  Both directions are asserted here: a normal BG
run under the IQ framework audits clean, and a fault-injected server
that skips the I-lease void on Q grant -- the exact protocol hole the
paper's Figure 5a row I closes -- is flagged with the expected category.
"""

from repro.bg.actions import Technique
from repro.bg.harness import build_bg_system
from repro.bg.workload import HIGH_WRITE_MIX
from repro.core.iq_client import IQClient
from repro.core.iq_server import IQServer
from repro.faults import FaultInjector, FaultPlan
from repro.obs.audit import CATEGORY_UNVOIDED_I, audited
from repro.obs.trace import get_tracer


class TestBGSystemObservability:
    def test_traced_audited_run_is_clean(self):
        system = build_bg_system(
            members=60, friends_per_member=6, resources_per_member=2,
            technique=Technique.INVALIDATE, mix=HIGH_WRITE_MIX,
            trace=True, audit=True,
        )
        try:
            system.runner.run(threads=4, ops_per_thread=25)
            report = system.audit_report()
            assert report is not None
            assert report.events_seen > 0
            assert report.clean, report.summary()
            assert system.recorder.seen > 0
            assert system.trace_events()
        finally:
            system.stop_observability()
        assert not get_tracer().active

    def test_refresh_technique_audits_clean(self):
        # Refresh takes the exclusive-Q / SaR path -- the other half of
        # the auditor's grant and release rules.
        system = build_bg_system(
            members=60, friends_per_member=6, resources_per_member=2,
            technique=Technique.REFRESH, mix=HIGH_WRITE_MIX,
            trace=True, audit=True,
        )
        try:
            system.runner.run(threads=4, ops_per_thread=25)
            report = system.audit_report()
            assert report.clean, report.summary()
        finally:
            system.stop_observability()

    def test_sharded_run_audits_clean(self):
        system = build_bg_system(
            members=60, friends_per_member=6, resources_per_member=2,
            technique=Technique.INVALIDATE, mix=HIGH_WRITE_MIX,
            shards=3, trace=True, audit=True,
        )
        try:
            system.runner.run(threads=4, ops_per_thread=25)
            report = system.audit_report()
            assert report.clean, report.summary()
        finally:
            system.stop_observability()

    def test_untraced_system_has_no_observability(self):
        system = build_bg_system(members=40, friends_per_member=4)
        assert system.recorder is None
        assert system.auditor is None
        assert system.audit_report() is None
        assert system.trace_events() == []


class TestSeededViolation:
    def test_suppressed_i_void_is_flagged(self):
        server = IQServer()
        server.leases.fault_injector = FaultInjector(
            FaultPlan.suppress_i_void(nth=1)
        )
        client = IQClient(server)
        with audited() as auditor:
            # Reader takes an I lease on a miss and holds it (no IQset
            # yet) ...
            result = server.iq_get("hot")
            assert result.has_lease
            # ... while a writer's Q grant arrives.  The injected fault
            # suppresses the I-void, recreating the stale-IQset hole.
            tid = client.server.gen_id()
            client.server.qar(tid, "hot")
            client.server.commit(tid)
        report = auditor.report()
        assert CATEGORY_UNVOIDED_I in report.by_category()
        assert report.by_category()[CATEGORY_UNVOIDED_I] == 1

    def test_same_sequence_without_fault_is_clean(self):
        server = IQServer()
        client = IQClient(server)
        with audited() as auditor:
            result = server.iq_get("hot")
            assert result.has_lease
            tid = client.server.gen_id()
            client.server.qar(tid, "hot")
            client.server.commit(tid)
        assert auditor.report().clean, auditor.report().summary()

    def test_fault_fires_only_nth_grant(self):
        server = IQServer()
        server.leases.fault_injector = FaultInjector(
            FaultPlan.suppress_i_void(nth=2)
        )
        client = IQClient(server)
        with audited() as auditor:
            for _ in range(3):
                result = server.iq_get("hot")
                tid = client.server.gen_id()
                client.server.qar(tid, "hot")
                client.server.commit(tid)
        counts = auditor.report().by_category()
        assert counts.get(CATEGORY_UNVOIDED_I, 0) == 1
