"""Batched Q-lease acquisition in the consistency clients (PR 5).

The growing phase collapses a known write-set into one ``qareg`` when
the backend allows.  The contract: semantics are *identical* to the
per-key loop -- an ``"abort"`` restarts the session (Fig. 5a/5b
unchanged), an ``"unavailable"`` key degrades individually and is
journaled only after ``commit_sql``, and a backend that cannot run the
batch at all silently falls back to sequential ``QaR``.
"""

import pytest

from repro.core.iq_client import IQClient
from repro.core.iq_server import IQServer
from repro.core.policies import (
    IQDeltaClient,
    IQInvalidateClient,
    IQRefreshClient,
    KeyChange,
)
from repro.core.session import AcquisitionMode
from repro.errors import CacheUnavailableError
from repro.util.backoff import NoBackoff


class ScriptedBatch:
    """An IQServer whose next ``qar_many`` calls are scripted.

    Each entry in :attr:`script` is a callable ``(server, tid, keys) ->
    status dict`` consumed once, in order; with an empty script the real
    ``qar_many`` runs.  Everything else passes straight through, so the
    sequential fallback path exercises the genuine server.
    """

    def __init__(self):
        self.server = IQServer()
        self.script = []
        self.batch_calls = 0

    def __getattr__(self, name):
        return getattr(self.server, name)

    def qar_many(self, tid, keys):
        self.batch_calls += 1
        if self.script:
            action = self.script.pop(0)
            return action(self.server, tid, keys)
        return self.server.qar_many(tid, keys)


def abort_on(victim):
    """Grant for real until ``victim``, then report the reject."""

    def action(server, tid, keys):
        results = {}
        for key in keys:
            if key == victim:
                results[key] = "abort"
                break
            server.qar(tid, key)
            results[key] = "granted"
        return results

    return action


def unavailable_on(victim):
    """One key's shard is away; the rest acquire for real."""

    def action(server, tid, keys):
        results = {}
        for key in keys:
            if key == victim:
                results[key] = "unavailable"
                continue
            server.qar(tid, key)
            results[key] = "granted"
        return results

    return action


def whole_backend_down(server, tid, keys):
    raise CacheUnavailableError("no shard reachable")


def make_client(cls, backend, users_db, **kwargs):
    client = IQClient(backend, backoff=NoBackoff(max_attempts=100))
    return cls(client, users_db.connect, backoff=NoBackoff(), **kwargs)


def score_body(session):
    session.execute("UPDATE users SET score = score + 1 WHERE id = 1")
    return "done"


@pytest.fixture
def backend():
    return ScriptedBatch()


class TestBatchedGrowingPhase:
    @pytest.mark.parametrize(
        "mode", [AcquisitionMode.PRIOR, AcquisitionMode.DURING]
    )
    def test_multi_key_write_uses_one_batch(self, backend, users_db, mode):
        policy = make_client(IQInvalidateClient, backend, users_db,
                             mode=mode)
        for key in ("a", "b", "c"):
            backend.store.set(key, b"cached")
        outcome = policy.write(
            score_body, [KeyChange(k) for k in ("a", "b", "c")]
        )
        assert outcome.result == "done"
        assert backend.batch_calls == 1
        assert backend.stats.get("batched_qar_grants") == 3
        for key in ("a", "b", "c"):
            assert backend.store.get(key) is None
        assert backend.session_count() == 0

    def test_single_key_write_stays_per_key(self, backend, users_db):
        policy = make_client(IQInvalidateClient, backend, users_db)
        backend.store.set("only", b"cached")
        policy.write(score_body, [KeyChange("only")])
        assert backend.batch_calls == 0
        assert backend.store.get("only") is None

    def test_abort_in_batch_restarts_the_session(self, backend, users_db):
        policy = make_client(IQInvalidateClient, backend, users_db)
        backend.script.append(abort_on("b"))
        for key in ("a", "b"):
            backend.store.set(key, b"cached")
        outcome = policy.write(
            score_body, [KeyChange("a"), KeyChange("b")]
        )
        # First attempt: "a" granted, "b" rejected -> QuarantinedError,
        # SQL rolled back, leases released, session restarted.  Second
        # attempt runs the real (clean) batch and commits.
        assert outcome.restarts == 1
        assert outcome.result == "done"
        assert backend.batch_calls == 2
        assert backend.store.get("a") is None
        assert backend.store.get("b") is None
        assert backend.session_count() == 0
        # The RDBMS applied the transaction exactly once.
        fresh = users_db.connect()
        assert fresh.query_scalar(
            "SELECT score FROM users WHERE id = 1"
        ) == 11

    def test_unavailable_key_degrades_individually(self, backend, users_db):
        policy = make_client(IQInvalidateClient, backend, users_db)
        backend.script.append(unavailable_on("down"))
        backend.store.set("up", b"cached")
        backend.store.set("down", b"stale-after-commit")
        outcome = policy.write(
            score_body, [KeyChange("up"), KeyChange("down")]
        )
        assert outcome.result == "done"
        assert outcome.restarts == 0
        # The healthy key was invalidated through its lease; the
        # degraded key was journaled (after commit_sql) for delete-on-
        # recover reconciliation and counted.
        assert backend.store.get("up") is None
        assert policy.degraded_key_changes == 1
        assert policy.degraded_keys == {"down"}

    def test_unavailable_without_fallback_degrades_whole_write(
        self, backend, users_db
    ):
        policy = make_client(IQInvalidateClient, backend, users_db,
                             degraded_fallback=False)
        backend.script.append(unavailable_on("down"))
        from repro.errors import DegradedModeActive

        with pytest.raises(DegradedModeActive):
            policy.write(
                score_body, [KeyChange("up"), KeyChange("down")]
            )

    def test_whole_backend_failure_falls_back_to_per_key(
        self, backend, users_db
    ):
        policy = make_client(IQInvalidateClient, backend, users_db)
        backend.script.append(whole_backend_down)
        for key in ("a", "b"):
            backend.store.set(key, b"cached")
        outcome = policy.write(
            score_body, [KeyChange("a"), KeyChange("b")]
        )
        assert outcome.result == "done"
        # The batch path was tried once, failed, and the per-key loop
        # took over in the same attempt -- no restart, real grants.
        assert outcome.restarts == 0
        assert backend.batch_calls == 1
        assert backend.stats.get("q_lease_grants") == 2
        assert backend.store.get("a") is None
        assert backend.store.get("b") is None


class TestRefreshAndDeltaSubsets:
    def test_refresh_batches_only_the_invalidation_subset(
        self, backend, users_db
    ):
        policy = make_client(IQRefreshClient, backend, users_db,
                             mode=AcquisitionMode.PRIOR)
        backend.store.set("inv1", b"x")
        backend.store.set("inv2", b"y")
        backend.store.set("score", b"10")
        changes = [
            KeyChange("inv1", invalidate=True),
            KeyChange("inv2"),  # no refresher: treated as invalidation
            KeyChange("score",
                      refresher=lambda old: str(int(old) + 1).encode()),
        ]
        policy.write(score_body, changes)
        # One batch for the two invalidations; the exclusive QaRead leg
        # stays per-key (it needs the old value back).
        assert backend.batch_calls == 1
        assert backend.stats.get("batched_qar_grants") == 2
        assert backend.store.get("inv1") is None
        assert backend.store.get("inv2") is None
        assert backend.store.get("score") == (b"11", 0)

    def test_delta_batches_only_the_invalidation_subset(
        self, backend, users_db
    ):
        policy = make_client(IQDeltaClient, backend, users_db,
                             mode=AcquisitionMode.PRIOR)
        backend.store.set("inv1", b"x")
        backend.store.set("inv2", b"y")
        backend.store.set("count", b"10")
        changes = [
            KeyChange("inv1", invalidate=True),
            KeyChange("inv2", invalidate=True),
            KeyChange("count", deltas=[("incr", 5)]),
        ]
        policy.write(score_body, changes)
        assert backend.batch_calls == 1
        assert backend.stats.get("batched_qar_grants") == 2
        assert backend.store.get("inv1") is None
        assert backend.store.get("inv2") is None
        assert backend.store.get("count") == (b"15", 0)

    def test_lone_invalidation_in_mixed_set_stays_per_key(
        self, backend, users_db
    ):
        policy = make_client(IQDeltaClient, backend, users_db,
                             mode=AcquisitionMode.PRIOR)
        backend.store.set("count", b"1")
        changes = [
            KeyChange("inv", invalidate=True),
            KeyChange("count", deltas=[("incr", 1)]),
        ]
        policy.write(score_body, changes)
        assert backend.batch_calls == 0  # one invalidation: no batch
        assert backend.store.get("count") == (b"2", 0)
