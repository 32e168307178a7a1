"""Consistency clients: IQ protocols and the raceful baselines."""

import pytest

from repro.core.iq_client import IQClient
from repro.core.policies import (
    BaselineDeltaClient,
    BaselineInvalidateClient,
    BaselineRefreshClient,
    DeleteTiming,
    IQDeltaClient,
    IQInvalidateClient,
    IQRefreshClient,
    KeyChange,
)
from repro.core.session import AcquisitionMode
from repro.errors import BadValueError
from repro.kvs.read_lease import ReadLeaseStore
from repro.util.backoff import NoBackoff


@pytest.fixture
def iq_client(iq):
    return IQClient(iq, backoff=NoBackoff(max_attempts=1000))


def increment_refresher(old):
    if old is None:
        return None
    return str(int(old) + 1).encode()


def score_body(session):
    session.execute("UPDATE users SET score = score + 1 WHERE id = 1")
    return "done"


class TestIQInvalidateClient:
    @pytest.mark.parametrize(
        "mode", [AcquisitionMode.PRIOR, AcquisitionMode.DURING]
    )
    def test_write_deletes_keys(self, iq, iq_client, users_db, mode):
        iq.store.set("Profile1", b"cached")
        client = IQInvalidateClient(
            iq_client, users_db.connect, mode=mode, backoff=NoBackoff()
        )
        outcome = client.write(score_body, [KeyChange("Profile1")])
        assert outcome.result == "done"
        assert iq.store.get("Profile1") is None
        fresh = users_db.connect()
        assert fresh.query_scalar("SELECT score FROM users WHERE id = 1") == 11

    def test_read_through(self, iq, iq_client, users_db):
        client = IQInvalidateClient(iq_client, users_db.connect)
        assert client.read("k", lambda: b"v") == b"v"
        assert client.is_strongly_consistent

    def test_missing_key_still_fine(self, iq, iq_client, users_db):
        client = IQInvalidateClient(iq_client, users_db.connect)
        outcome = client.write(score_body, [KeyChange("NeverCached")])
        assert outcome.restarts == 0


class TestIQRefreshClient:
    @pytest.mark.parametrize(
        "mode", [AcquisitionMode.PRIOR, AcquisitionMode.DURING]
    )
    def test_write_refreshes_value(self, iq, iq_client, users_db, mode):
        iq.store.set("Score1", b"10")
        client = IQRefreshClient(
            iq_client, users_db.connect, mode=mode, backoff=NoBackoff()
        )
        client.write(
            score_body, [KeyChange("Score1", refresher=increment_refresher)]
        )
        assert iq.store.get("Score1") == (b"11", 0)

    def test_skip_on_miss(self, iq, iq_client, users_db):
        client = IQRefreshClient(iq_client, users_db.connect)
        client.write(
            score_body, [KeyChange("Absent", refresher=increment_refresher)]
        )
        assert iq.store.get("Absent") is None
        # The Q lease must have been released.
        iq.qaread("Absent", iq.gen_id())

    def test_conflicting_sessions_serialize(self, iq, iq_client, users_db):
        """Two refresh sessions on the same key: the loser aborts and
        retries, and the final KVS value reflects both increments."""
        iq.store.set("Score1", b"10")
        client = IQRefreshClient(
            iq_client, users_db.connect, backoff=NoBackoff(max_attempts=100)
        )
        blocker = iq.gen_id()
        iq.qaread("Score1", blocker)
        state = {"attempts": 0}

        def body(session):
            state["attempts"] += 1
            if state["attempts"] == 2:
                # Mid-retry, the blocker finishes its own increment.
                iq.sar("Score1", b"11", blocker)
            return score_body(session)

        outcome = client.write(
            body, [KeyChange("Score1", refresher=increment_refresher)]
        )
        assert outcome.restarts >= 1
        assert iq.store.get("Score1") == (b"12", 0)


class TestIQDeltaClient:
    @pytest.mark.parametrize(
        "mode", [AcquisitionMode.PRIOR, AcquisitionMode.DURING]
    )
    def test_write_applies_deltas(self, iq, iq_client, users_db, mode):
        iq.store.set("List1", b"a,")
        client = IQDeltaClient(
            iq_client, users_db.connect, mode=mode, backoff=NoBackoff()
        )
        client.write(
            score_body, [KeyChange("List1", deltas=[("append", b"b,")])]
        )
        assert iq.store.get("List1") == (b"a,b,", 0)

    def test_invalidate_flagged_keys_deleted(self, iq, iq_client, users_db):
        iq.store.set("List1", b"a,")
        client = IQDeltaClient(iq_client, users_db.connect)
        client.write(score_body, [KeyChange("List1", invalidate=True)])
        assert iq.store.get("List1") is None

    def test_mixed_delta_and_invalidate(self, iq, iq_client, users_db):
        iq.store.set("Count1", b"5")
        iq.store.set("List1", b"a,")
        client = IQDeltaClient(iq_client, users_db.connect)
        client.write(
            score_body,
            [
                KeyChange("Count1", deltas=[("incr", 1)]),
                KeyChange("List1", invalidate=True),
            ],
        )
        assert iq.store.get("Count1") == (b"6", 0)
        assert iq.store.get("List1") is None


class TestBaselineClients:
    def test_invalidate_during_transaction(self, users_db):
        store = ReadLeaseStore()
        store.set("Profile1", b"cached")
        client = BaselineInvalidateClient(
            store, users_db.connect,
            timing=DeleteTiming.DURING_TRANSACTION,
        )
        outcome = client.write(score_body, [KeyChange("Profile1")])
        assert outcome.result == "done"
        assert store.get("Profile1") is None
        assert not client.is_strongly_consistent

    def test_invalidate_after_commit(self, users_db):
        store = ReadLeaseStore()
        store.set("Profile1", b"cached")
        client = BaselineInvalidateClient(
            store, users_db.connect, timing=DeleteTiming.AFTER_COMMIT
        )
        client.write(score_body, [KeyChange("Profile1")])
        assert store.get("Profile1") is None

    def test_invalidate_rolls_back_on_error(self, users_db):
        store = ReadLeaseStore()
        client = BaselineInvalidateClient(store, users_db.connect)

        def bad_body(session):
            session.execute("UPDATE users SET score = 0 WHERE id = 1")
            raise RuntimeError("constraint violation")

        with pytest.raises(RuntimeError):
            client.write(bad_body, [KeyChange("Profile1")])
        fresh = users_db.connect()
        assert fresh.query_scalar("SELECT score FROM users WHERE id = 1") == 10

    def test_refresh_cas_loop(self, users_db):
        store = ReadLeaseStore()
        store.set("Score1", b"10")
        client = BaselineRefreshClient(store, users_db.connect)
        client.write(
            score_body, [KeyChange("Score1", refresher=increment_refresher)]
        )
        assert store.get("Score1") == (b"11", 0)

    def test_refresh_skips_missing(self, users_db):
        store = ReadLeaseStore()
        client = BaselineRefreshClient(store, users_db.connect)
        client.write(
            score_body, [KeyChange("Absent", refresher=increment_refresher)]
        )
        assert store.get("Absent") is None

    def test_delta_direct_application(self, users_db):
        store = ReadLeaseStore()
        store.set("List1", b"a,")
        store.set("Count1", b"5")
        client = BaselineDeltaClient(store, users_db.connect)
        client.write(
            score_body,
            [
                KeyChange("List1", deltas=[("append", b"b,")]),
                KeyChange("Count1", deltas=[("incr", 2), ("decr", 1)]),
            ],
        )
        assert store.get("List1") == (b"a,b,", 0)
        assert store.get("Count1") == (b"6", 0)

    @pytest.mark.parametrize("leased", [False, True])
    def test_unknown_delta_op_is_refused(self, iq, iq_client, users_db,
                                         leased):
        """An op outside append/prepend/incr/decr never reaches a
        session: no SQL commits and the cached value stays."""
        if leased:
            cache = iq.store
            client = IQDeltaClient(iq_client, users_db.connect)
        else:
            cache = ReadLeaseStore()
            client = BaselineDeltaClient(cache, users_db.connect)
        cache.set("Count1", b"5")
        with pytest.raises(BadValueError):
            client.write(
                score_body, [KeyChange("Count1", deltas=[("multiply", 2)])]
            )
        assert cache.get("Count1") == (b"5", 0)
        fresh = users_db.connect()
        assert fresh.query_scalar("SELECT score FROM users WHERE id = 1") == 10

    def test_delta_invalidate_flag(self, users_db):
        store = ReadLeaseStore()
        store.set("List1", b"a,")
        client = BaselineDeltaClient(store, users_db.connect)
        client.write(score_body, [KeyChange("List1", invalidate=True)])
        assert store.get("List1") is None

    def test_baseline_read_uses_read_lease(self, users_db):
        store = ReadLeaseStore()
        client = BaselineInvalidateClient(store, users_db.connect)
        assert client.read("k", lambda: b"computed") == b"computed"
        assert store.get("k") == (b"computed", 0)
