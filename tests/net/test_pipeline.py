"""Pipelined wire protocol: batch commands, ordering, fault discipline.

The pipeline contract under test:

* every queued command gets exactly one reply, delivered in request
  order -- the server drains all buffered commands before flushing one
  write-back;
* a per-command ``QuarantinedError`` consumes its whole reply, lands in
  its result slot, and later replies still parse;
* a transport or framing failure mid-pipeline poisons the *connection*
  -- no partial results, and the client must never try to resynchronize
  onto a stale reply (the PR 1 frame-desync discipline, extended);
* multi-key commands (``iqmget`` / ``qareg`` / ``mdelete``) follow the
  same grammar rules as their per-key ancestors.
"""

import pytest

from repro.core.iq_client import IQClient, LocalPipeline
from repro.core.iq_server import IQServer
from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    QuarantinedError,
)
from repro.faults import FaultAction, FaultInjector, FaultPlan, FaultRule
from repro.faults.injector import (
    SITE_CLIENT_AFTER_SEND,
    SITE_NET_RECV,
    SITE_SERVER_REPLY,
)
from repro.kvs.store import StoreResult
from repro.net import RemoteIQServer, serve_background
from repro.net.commands import COMMANDS
from repro.obs.trace import get_tracer, recording, trace_context


@pytest.fixture
def served():
    server, thread = serve_background()
    yield server
    server.shutdown()


@pytest.fixture
def remote(served):
    client = RemoteIQServer(port=served.port)
    yield client
    client.close()


class TestPipelineOrdering:
    def test_replies_in_request_order(self, remote):
        with remote.pipeline() as pipe:
            pipe.set("a", b"1").set("b", b"2").get("a").get("b").get("c")
        assert pipe.results == [
            StoreResult.STORED, StoreResult.STORED,
            (b"1", 0), (b"2", 0), None,
        ]

    def test_write_session_through_one_pipeline(self, remote):
        remote.set("k", b"old")
        tid = remote.gen_id()
        results = (
            remote.pipeline()
            .qar(tid, "k")
            .dar(tid)
            .get("k")
            .execute()
        )
        assert results == [True, True, None]  # invalidated by the DaR

    def test_empty_pipeline_is_a_noop(self, remote):
        pipe = remote.pipeline()
        assert pipe.execute() == []
        assert remote.version()  # connection untouched

    def test_pipeline_cannot_execute_twice(self, remote):
        pipe = remote.pipeline().get("k")
        pipe.execute()
        with pytest.raises(RuntimeError):
            pipe.execute()
        with pytest.raises(RuntimeError):
            pipe.get("again")

    def test_server_counts_pipelined_commands(self, served, remote):
        pipe = remote.pipeline()
        for i in range(10):
            pipe.set("k{}".format(i), b"v")
        pipe.execute()
        # One sendall delivers all ten frames; the server must have
        # drained multiple commands per reply flush.
        assert remote.stats()["pipelined_commands"] >= 5

    def test_trace_token_captured_per_queued_command(self, remote):
        tracer = get_tracer()
        with recording() as events:
            tid1 = remote.gen_id()
            tid2 = remote.gen_id()
            t1, t2 = tracer.new_trace(), tracer.new_trace()
            pipe = remote.pipeline()
            with trace_context(t1):
                pipe.commit(tid1)
            with trace_context(t2):
                pipe.commit(tid2)
            assert pipe.execute() == [True, True]
        commits = [e for e in events.events()
                   if e.name == "iq.commit.begin"]
        # The server re-entered each command's own queue-time trace.
        assert [e.trace_id for e in commits] == [t1, t2]


class TestPipelineErrorDiscipline:
    def test_quarantined_reply_lands_in_slot(self, remote):
        holder = remote.gen_id()
        assert remote.qar(holder, "contested")
        rival = remote.gen_id()
        # QaRead requests an exclusive Q lease, incompatible with the
        # held invalidation lease (Fig. 5a) -- the middle reply aborts.
        results = (
            remote.pipeline()
            .set("x", b"1")
            .qaread("contested", rival)
            .get("x")
            .execute()
        )
        assert results[0] is StoreResult.STORED
        assert isinstance(results[1], QuarantinedError)
        assert results[2] == (b"1", 0)
        # The reply stream stayed in sync: the connection is healthy.
        assert not remote.broken
        assert remote.version()

    def test_drop_after_send_poisons_whole_pipeline(self, served):
        injector = FaultInjector(FaultPlan([FaultRule(
            SITE_NET_RECV, FaultAction.DROP_CONNECTION, nth=1,
        )]))
        remote = RemoteIQServer(port=served.port, injector=injector)
        pipe = remote.pipeline().set("a", b"1").get("a")
        with pytest.raises(ConnectionLostError):
            pipe.execute()
        assert pipe.results is None  # no partial results
        assert remote.broken
        # Never resync: every later use fails fast with the typed error.
        with pytest.raises(ConnectionLostError):
            remote.get("a")
        with pytest.raises(ConnectionLostError):
            remote.pipeline().get("a").execute()
        remote.close()

    def test_truncated_reply_mid_pipeline_never_resyncs(self):
        # The server delivers the first reply, truncates the second
        # mid-frame, and drops the connection: the client must consume
        # reply one, fail on the torn frame, and poison the pipeline --
        # never hand reply one back or try to resync onto reply three.
        injector = FaultInjector(FaultPlan([FaultRule(
            SITE_SERVER_REPLY, FaultAction.TRUNCATE, nth=1,
            match=lambda ctx: ctx.get("command") == "get",
        )]))
        server, _ = serve_background(fault_injector=injector)
        remote = RemoteIQServer(port=server.port)
        pipe = remote.pipeline().set("a", b"1").get("a").set("b", b"2")
        with pytest.raises((ProtocolError, ConnectionLostError)):
            pipe.execute()
        assert pipe.results is None
        assert remote.broken
        with pytest.raises(ConnectionLostError):
            remote.get("a")
        remote.close()
        server.shutdown()

    def test_drop_before_send_leaves_nothing_half_sent(self, served):
        injector = FaultInjector(FaultPlan([FaultRule(
            SITE_CLIENT_AFTER_SEND, FaultAction.DROP_CONNECTION, nth=1,
            match=lambda ctx: ctx.get("command") == "pipeline",
        )]))
        remote = RemoteIQServer(port=served.port, injector=injector)
        with pytest.raises(ConnectionLostError):
            remote.pipeline().set("a", b"1").execute()
        assert remote.broken
        remote.close()


class TestMultiKeyCommands:
    def test_iq_mget_mixed_outcomes(self, remote):
        remote.set("hit", b"cached")
        # Park an I lease on "busy" so the batch read backs off there.
        assert remote.iq_get("busy").has_lease
        results = remote.iq_mget(["hit", "cold", "busy"])
        assert list(results) == ["hit", "cold", "busy"]
        assert results["hit"].is_hit and results["hit"].value == b"cached"
        assert results["cold"].has_lease
        assert results["busy"].backoff
        # The granted lease is real: a fill through it installs.
        assert remote.iq_set("cold", b"filled", results["cold"].token)
        assert remote.get("cold") == (b"filled", 0)

    def test_iq_mget_carries_session_token(self, remote):
        remote.set("mine", b"v")
        tid = remote.gen_id()
        assert remote.qar(tid, "mine")
        with_session = remote.iq_mget(["mine"], session=tid)
        assert not with_session["mine"].is_hit
        assert not with_session["mine"].backoff  # read-your-own miss
        plain = remote.iq_mget(["mine"])
        # Everyone else is served the pending (pre-invalidation) version
        # during the quarantine window (Fig. 4 deferred delete).
        assert plain["mine"].is_hit and plain["mine"].value == b"v"

    def test_iq_mget_empty_keys_short_circuits(self, remote):
        assert remote.iq_mget([]) == {}

    def test_qareg_grants_then_stops_at_reject(self, remote):
        holder = remote.gen_id()
        # An exclusive (QaRead) holder makes the rival's shared QaR
        # reject -- two invalidation QaRs would be compatible (Fig. 5a).
        remote.qaread("locked", holder)
        tid = remote.gen_id()
        statuses = remote.qar_many(tid, ["a", "locked", "never"])
        assert statuses == {"a": "granted", "locked": "abort"}
        assert "never" not in statuses  # stop-at-first-reject
        assert remote.stats()["batched_qar_grants"] >= 1

    def test_qareg_grant_set_commits_like_sequential(self, remote):
        remote.set("a", b"1")
        remote.set("b", b"2")
        tid = remote.gen_id()
        assert remote.qar_many(tid, ["a", "b"]) == {
            "a": "granted", "b": "granted",
        }
        remote.dar(tid)
        assert remote.get("a") is None and remote.get("b") is None

    def test_mdelete_counts_hits(self, remote):
        remote.set("a", b"1")
        remote.set("b", b"2")
        assert remote.mdelete(["a", "b", "ghost"]) == 2
        assert remote.get("a") is None
        assert remote.mdelete([]) == 0

    def test_multi_key_commands_inside_a_pipeline(self, remote):
        remote.set("a", b"1")
        tid = remote.gen_id()
        with remote.pipeline() as pipe:
            pipe.iq_mget(["a", "b"]).qar_many(tid, ["c"]).mdelete(["a"])
        mget, statuses, deleted = pipe.results
        assert mget["a"].is_hit and mget["b"].has_lease
        assert statuses == {"c": "granted"}
        assert deleted == 1


#: One call of every command in the table, in an order that gives each a
#: non-trivial reply.  TIDs and lease tokens are the ones a fresh server
#: deals (1, 2, ...), so the same script runs against two of them.
SCRIPT = [
    ("version", ()),
    ("set", ("s", b"10")),
    ("add", ("a", b"x")),
    ("replace", ("a", b"y", 3)),
    ("append", ("a", b">")),
    ("prepend", ("a", b"<")),
    ("get", ("a",)),
    ("gets", ("a",)),
    ("cas", ("a", b"z", 999)),
    ("incr", ("s", 5)),
    ("decr", ("s",)),
    ("touch", ("s", 100)),
    ("delete", ("a",)),
    ("gen_id", ()),
    ("iq_get", ("m",)),
    ("iq_set", ("m", b"filled", 1)),
    ("iq_get", ("r",)),
    ("release_i", ("r", 2)),
    ("iq_mget", (["m", "n"],)),
    ("qaread", ("m", 1)),
    ("sar", ("m", b"new", 1)),
    ("qar", (1, "s")),
    ("qar_many", (1, ["p", "q"])),
    ("iq_delta", (1, "d", "append", b"x")),
    ("dar", (1,)),
    ("gen_id", ()),
    ("qar", (2, "n")),
    ("commit", (2,)),
    ("gen_id", ()),
    ("qaread", ("m", 3)),
    ("abort", (3,)),
    ("cset", ("c", b"v", 0, 10)),
    ("cget", ("c", 5)),
    ("mdelete", (["m", "ghost"],)),
    ("key_snapshot", ()),
    ("stats", ()),
    ("flush_all", ()),
]


def comparable(result):
    if isinstance(result, dict):
        # The server's own counters of how replies were written are
        # *supposed* to differ between the runs.
        result = {k: v for k, v in result.items()
                  if k not in ("pipelined_commands", "evloop_flushes")}
    return repr(result)


@pytest.fixture(scope="module")
def both_ways():
    """SCRIPT's results issued one at a time, and as one pipelined batch."""
    outcomes = []
    for pipelined in (False, True):
        server, _thread = serve_background()
        with RemoteIQServer(port=server.port) as remote:
            target = remote.pipeline() if pipelined else remote
            results = [getattr(target, name)(*args) for name, args in SCRIPT]
            if pipelined:
                results = target.execute()
        server.shutdown()
        server.server_close()
        outcomes.append([comparable(result) for result in results])
    return outcomes


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_pipelined_equals_one_at_a_time(both_ways, name):
    """The wire ``Pipeline`` covers the whole table, like ``LocalPipeline``
    covers every backend method, with the single-command results."""
    slots = [i for i, (called, _args) in enumerate(SCRIPT) if called == name]
    assert slots, "SCRIPT has no call of {}".format(name)
    single, piped = both_ways
    for slot in slots:
        assert piped[slot] == single[slot]


class TestLocalPipeline:
    """IQClient.pipeline() over an in-process backend."""

    def test_mirrors_wire_pipeline_semantics(self):
        client = IQClient(IQServer())
        pipe = client.pipeline()
        assert isinstance(pipe, LocalPipeline)
        holder = client.gen_id()
        client.qar(holder, "contested")
        rival = client.gen_id()
        with pipe:
            pipe.gen_id().qaread("contested", rival).iq_get("k")
        fresh_tid, rejected, read = pipe.results
        assert isinstance(fresh_tid, int)
        assert isinstance(rejected, QuarantinedError)
        assert read.has_lease

    def test_wire_backend_gets_wire_pipeline(self, remote):
        from repro.net.client import Pipeline

        client = IQClient(remote)
        assert isinstance(client.pipeline(), Pipeline)
