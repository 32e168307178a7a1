"""FaultInjector semantics: determinism, triggers, zero-overhead no-op."""

import pytest

from repro.config import KVSConfig
from repro.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
    corrupt_bytes,
)
from repro.faults.injector import (
    SITE_SERVER_REPLY,
    SITE_SERVER_REQUEST,
    SITE_STORE_GET,
)
from repro.kvs.store import CacheStore
from repro.util.clock import LogicalClock


class TestTriggers:
    def test_nth_fires_exactly_once(self):
        plan = FaultPlan.kill_server(nth=3)
        injector = FaultInjector(plan)
        decisions = [
            injector.decide(SITE_SERVER_REQUEST, command="get")
            for _ in range(6)
        ]
        assert [d is not None for d in decisions] == [
            False, False, True, False, False, False
        ]

    def test_every_fires_periodically(self):
        plan = FaultPlan([FaultRule(
            SITE_SERVER_REPLY, FaultAction.DELAY, every=2, delay=0.1
        )])
        injector = FaultInjector(plan)
        fired = [
            injector.decide(SITE_SERVER_REPLY) is not None for _ in range(6)
        ]
        assert fired == [False, True, False, True, False, True]

    def test_count_caps_firings(self):
        plan = FaultPlan([FaultRule(
            SITE_SERVER_REPLY, FaultAction.CORRUPT, every=1, count=2
        )])
        injector = FaultInjector(plan)
        fired = sum(
            injector.decide(SITE_SERVER_REPLY) is not None for _ in range(10)
        )
        assert fired == 2

    def test_match_filters_and_scopes_counting(self):
        rule = FaultRule(
            SITE_SERVER_REQUEST, FaultAction.DROP_CONNECTION, nth=2,
            match=lambda ctx: ctx.get("command") == "sar",
        )
        injector = FaultInjector(FaultPlan([rule]))
        # Non-matching events do not advance the rule's event counter.
        assert injector.decide(SITE_SERVER_REQUEST, command="get") is None
        assert injector.decide(SITE_SERVER_REQUEST, command="sar") is None
        assert injector.decide(SITE_SERVER_REQUEST, command="get") is None
        assert injector.decide(
            SITE_SERVER_REQUEST, command="sar"
        ) is rule

    def test_one_rule_per_event(self):
        first = FaultRule(SITE_SERVER_REPLY, FaultAction.CORRUPT, nth=1)
        second = FaultRule(SITE_SERVER_REPLY, FaultAction.TRUNCATE, nth=1)
        injector = FaultInjector(FaultPlan([first, second]))
        assert injector.decide(SITE_SERVER_REPLY) is first
        # The second rule's counter advanced past its nth during event 1,
        # so it never fires: exactly one fault per plan position.
        assert injector.decide(SITE_SERVER_REPLY) is None

    def test_conflicting_triggers_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(SITE_SERVER_REPLY, FaultAction.DELAY, nth=1, every=2)


class TestDeterminism:
    def _run(self, seed):
        plan = FaultPlan([
            FaultRule(SITE_SERVER_REQUEST, FaultAction.DROP_CONNECTION,
                      probability=0.3, count=None),
            FaultRule(SITE_SERVER_REPLY, FaultAction.CORRUPT, every=5,
                      count=None),
        ])
        injector = FaultInjector(plan, seed=seed)
        for i in range(50):
            injector.decide(SITE_SERVER_REQUEST, command="op{}".format(i))
            injector.decide(SITE_SERVER_REPLY, command="op{}".format(i))
        return injector.signatures()

    def test_same_seed_same_history(self):
        assert self._run(seed=7) == self._run(seed=7)
        assert len(self._run(seed=7)) > 0

    def test_different_seed_different_history(self):
        assert self._run(seed=7) != self._run(seed=8)


class TestZeroOverheadNoOp:
    def test_store_hooks_default_off(self):
        store = CacheStore(KVSConfig())
        assert store.fault_injector is None
        store.set("k", b"v")
        assert store.get("k") == (b"v", 0)
        assert store.delete("k")

    def test_store_delay_injection_uses_clock(self):
        clock = LogicalClock()
        store = CacheStore(KVSConfig(), clock=clock)
        store.fault_injector = FaultInjector(
            FaultPlan([FaultRule(SITE_STORE_GET, FaultAction.DELAY,
                                 nth=1, delay=3.0)]),
            clock=clock,
        )
        store.set("k", b"v")
        before = clock.now()
        store.get("k")
        assert clock.now() - before == pytest.approx(3.0)
        # Only the armed occurrence pays the delay.
        before = clock.now()
        store.get("k")
        assert clock.now() == before

    def test_server_and_reader_default_off(self):
        from repro.net.async_server import AsyncIQServer
        from repro.net.protocol import LineReader

        server = AsyncIQServer()
        try:
            assert server.fault_injector is None
        finally:
            server.server_close()

        class _Sock:
            def recv(self, n):
                return b"hello\r\n"

        reader = LineReader(_Sock())
        assert reader._injector is None
        assert reader.read_line() == b"hello"


class TestCorruptBytes:
    def test_changes_data_preserves_length(self):
        data = b"VALUE k 0 3\r\nabc\r\nEND"
        mangled = corrupt_bytes(data)
        assert len(mangled) == len(data)
        assert mangled != data

    def test_empty_passthrough(self):
        assert corrupt_bytes(b"") == b""
