"""Degraded mode: consistency clients with an unreachable cache.

The safety argument under test: a vanished KVS can only ever cause
misses or deletes, never stale hits.  Reads fall back to the SQL
engine, writes run SQL-only and journal their keys, and recovery
deletes every journaled key before the cache serves anything.
"""

import pytest

from repro.config import BackoffConfig, LeaseConfig, NetConfig
from repro.core.iq_client import IQClient
from repro.core.iq_server import IQServer
from repro.core.policies import (
    IQDeltaClient,
    IQInvalidateClient,
    IQRefreshClient,
    KeyChange,
)
from repro.errors import DegradedModeActive
from repro.faults import FaultAction, FaultInjector, FaultPlan, FaultRule
from repro.faults import RestartableServer
from repro.faults.injector import SITE_CLIENT_AFTER_SEND
from repro.net import ResilientIQServer
from repro.util.backoff import NoBackoff


def make_iq(tid_start=1):
    return IQServer(
        lease_config=LeaseConfig(i_lease_ttl=5, q_lease_ttl=5),
        tid_start=tid_start,
    )


@pytest.fixture
def chaos_server():
    server = RestartableServer(make_iq)
    server.start()
    yield server
    server.kill()


def resilient(server, injector=None):
    return ResilientIQServer(
        port=server.port,
        config=NetConfig(
            connect_timeout=1.0, operation_timeout=1.0, max_retries=1,
            breaker_failure_threshold=3, breaker_cooldown=0.02,
        ),
        backoff_config=BackoffConfig(
            initial_delay=0.005, max_delay=0.02, jitter=0.0
        ),
        injector=injector,
    )


def policy(cls, server, users_db, injector=None, **kwargs):
    remote = resilient(server, injector=injector)
    client = IQClient(remote, backoff=NoBackoff(max_attempts=50))
    return cls(client, users_db.connect, backoff=NoBackoff(), **kwargs), remote


def score_body(session):
    session.execute("UPDATE users SET score = score + 1 WHERE id = 1")
    return "done"


def read_score(users_db):
    fresh = users_db.connect()
    try:
        return fresh.query_scalar("SELECT score FROM users WHERE id = 1")
    finally:
        fresh.close()


class TestDegradedReads:
    def test_read_falls_back_to_sql(self, chaos_server, users_db):
        client, remote = policy(IQInvalidateClient, chaos_server, users_db)
        assert client.read("Profile1", lambda: b"computed") == b"computed"
        chaos_server.kill()
        assert client.read("Profile1", lambda: b"from-sql") == b"from-sql"
        assert client.degraded_reads == 1
        remote.close()

    def test_fallback_disabled_raises(self, chaos_server, users_db):
        client, remote = policy(
            IQInvalidateClient, chaos_server, users_db,
            degraded_fallback=False,
        )
        chaos_server.kill()
        with pytest.raises(DegradedModeActive):
            client.read("Profile1", lambda: b"v")
        assert client.degraded_reads == 0
        remote.close()


class TestDegradedWrites:
    @pytest.mark.parametrize(
        "cls", [IQInvalidateClient, IQRefreshClient, IQDeltaClient]
    )
    def test_write_runs_sql_only_and_journals(
        self, chaos_server, users_db, cls
    ):
        client, remote = policy(cls, chaos_server, users_db)
        chaos_server.kill()
        outcome = client.write(score_body, [KeyChange("Profile1")])
        assert outcome.result == "done"
        assert read_score(users_db) == 11
        assert client.degraded_writes == 1
        assert "Profile1" in client.degraded_keys
        assert "Profile1" in remote.journal.peek()
        remote.close()

    def test_fallback_disabled_raises_and_rolls_back_nothing(
        self, chaos_server, users_db
    ):
        client, remote = policy(
            IQInvalidateClient, chaos_server, users_db,
            degraded_fallback=False,
        )
        chaos_server.kill()
        with pytest.raises(DegradedModeActive):
            client.write(score_body, [KeyChange("Profile1")])
        # The SQL transaction never committed under the refusal policy.
        assert read_score(users_db) == 10
        remote.close()


class CountingConnections:
    """A connection factory that counts opens and closes."""

    def __init__(self, db):
        self.db = db
        self.opened = 0
        self.closed = 0

    def __call__(self):
        self.opened += 1
        connection = self.db.connect()
        close = connection.close

        def counted_close():
            self.closed += 1
            close()

        connection.close = counted_close
        return connection


class TestDegradedConnections:
    def test_whole_session_fallback_closes_every_connection(
        self, chaos_server, users_db
    ):
        # A dead cache cannot even mint the session's TID: the leased
        # attempt must close the connection it opened before the write
        # falls back to its SQL-only transaction.
        connections = CountingConnections(users_db)
        remote = resilient(chaos_server)
        client = IQInvalidateClient(
            IQClient(remote, backoff=NoBackoff(max_attempts=50)),
            connections, backoff=NoBackoff(),
        )
        chaos_server.kill()
        for _ in range(3):
            client.write(score_body, [KeyChange("Profile1")])
        assert client.degraded_writes == 3
        assert read_score(users_db) == 13
        assert connections.opened == connections.closed
        remote.close()


class TestPostCommitDetach:
    def test_cache_loss_after_sql_commit_never_reruns_sql(
        self, chaos_server, users_db
    ):
        # Every dar send is dropped: the write's SQL commit lands, then
        # the commit-time cache phase fails.  The session must detach --
        # journal the keys and let the Q leases expire -- not replay SQL.
        injector = FaultInjector(FaultPlan([FaultRule(
            SITE_CLIENT_AFTER_SEND, FaultAction.DROP_CONNECTION,
            every=1, count=None,
            match=lambda ctx: ctx.get("command") == "dar",
        )]))
        client, remote = policy(
            IQInvalidateClient, chaos_server, users_db, injector=injector,
        )
        remote.set("Profile1", b"pre-write-value")
        outcome = client.write(score_body, [KeyChange("Profile1")])
        assert outcome.result == "done"
        assert read_score(users_db) == 11  # exactly one increment
        assert client.detached_sessions == 1
        assert "Profile1" in remote.journal.peek()
        remote.close()


class TestRecovery:
    def test_reconciliation_restores_coherence(self, chaos_server, users_db):
        client, remote = policy(IQRefreshClient, chaos_server, users_db)

        def compute():
            return str(read_score(users_db)).encode()

        # Warm the cache with the pre-partition value.
        assert client.read("Score1", compute) == b"10"
        chaos_server.kill()
        # Degraded write: SQL moves to 11 while the cached copy says 10.
        client.write(score_body, [KeyChange("Score1")])
        assert read_score(users_db) == 11
        chaos_server.start()
        # The journaled key is purged before the cache serves anything,
        # so the next read recomputes from SQL instead of the stale hit.
        assert client.read("Score1", compute) == b"11"
        assert len(remote.journal) == 0
        assert remote.journal.total_reconciled >= 1
        remote.close()
