"""IQClient: transparent token management and the read-through loop."""

import pytest

from repro.config import BackoffConfig
from repro.core.iq_client import IQClient
from repro.errors import StarvationError
from repro.util.backoff import NoBackoff


@pytest.fixture
def client(iq, clock):
    return IQClient(iq, backoff=NoBackoff(max_attempts=50), clock=clock)


class TestReadThrough:
    def test_hit_skips_compute(self, iq, client):
        iq.store.set("k", b"cached")
        calls = []

        def compute():
            calls.append(1)
            return b"computed"

        assert client.read_through("k", compute) == b"cached"
        assert calls == []

    def test_miss_computes_and_installs(self, iq, client):
        assert client.read_through("k", lambda: b"fresh") == b"fresh"
        assert iq.store.get("k") == (b"fresh", 0)

    def test_none_result_not_cached(self, iq, client):
        assert client.read_through("k", lambda: None) is None
        assert iq.store.get("k") is None
        # The I lease was released, so the next reader gets a lease
        # immediately (no backoff window).
        assert iq.iq_get("k").has_lease

    def test_backoff_until_writer_commits(self, iq, client):
        tid = iq.gen_id()
        iq.qar(tid, "k")

        # The key is quarantined with no value: the reader would back off
        # forever, so finish the writer from within compute's clock domain:
        # simulate by releasing before reading.
        iq.dar(tid)
        assert client.read_through("k", lambda: b"v") == b"v"

    def test_starvation_surfaces(self, iq, clock):
        client = IQClient(iq, backoff=NoBackoff(max_attempts=3), clock=clock)
        tid = iq.gen_id()
        iq.qar(tid, "k")  # quarantined, never released
        with pytest.raises(StarvationError):
            client.read_through("k", lambda: b"v")

    def test_voided_lease_returns_computed_value_uncached(self, iq, client):
        """If a Q lease voids the reader's I lease mid-computation, the
        reader still returns its computed value (it serializes before the
        writer) but must not install it."""
        state = {}

        def compute():
            tid = iq.gen_id()
            state["tid"] = tid
            iq.qar(tid, "k")  # writer arrives mid-read
            return b"possibly-stale"

        assert client.read_through("k", compute) == b"possibly-stale"
        assert iq.iq_get("k", session=None).backoff or iq.store.get("k") is None
        iq.dar(state["tid"])
        assert iq.store.get("k") is None

    def test_write_session_reads_own_invalidated_key(self, iq, client):
        """A write session referencing its own quarantined key observes a
        miss and recomputes directly (no lease, no backoff)."""
        iq.store.set("k", b"old")
        tid = iq.gen_id()
        iq.qar(tid, "k")
        value = client.read_through("k", lambda: b"recomputed", session=tid)
        assert value == b"recomputed"
        assert iq.iq_get("k").value == b"old"  # others still see old


class TestGetCached:
    def test_returns_value_or_none(self, iq, client):
        assert client.server.iq_get("k").value is None
        iq.store.set("k", b"v")
        assert client.server.iq_get("k").value == b"v"


class TestPassthroughs:
    def test_write_command_surface(self, iq, client):
        tid = client.server.gen_id()
        client.server.qar(tid, "k")
        client.server.dar(tid)
        tid = client.server.gen_id()
        iq.store.set("r", b"1")
        result = client.server.qaread("r", tid)
        assert result.value == b"1"
        client.server.sar("r", b"2", tid)
        assert iq.store.get("r") == (b"2", 0)
        tid = client.server.gen_id()
        client.server.iq_delta(tid, "r", "incr", 1)
        client.server.commit(tid)
        assert iq.store.get("r") == (b"3", 0)
        tid = client.server.gen_id()
        client.server.iq_delta(tid, "r", "incr", 10)
        client.server.abort(tid)
        assert iq.store.get("r") == (b"3", 0)

    def test_default_backoff_is_exponential(self, iq):
        client = IQClient(iq)
        assert client.backoff.config.multiplier == BackoffConfig().multiplier
