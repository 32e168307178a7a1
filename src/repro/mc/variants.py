"""Rejected variants: a shipped client with one decision overridden.

Each class here is the shipped client (or gate proxy) with the single
override that reverts one design decision the repository once rejected.
Its scenario must be reported violating: that is the evidence the
checker can fail on the shipped code, and that the clean verdict of the
unmodified twin is not vacuous.
"""

from repro.core.policies import (
    BaselineDeltaClient,
    BaselineRefreshClient,
    IQDeltaClient,
    IQInvalidateClient,
)
from repro.core.session import SessionOutcome
from repro.core.singleflight import FillOutcome
from repro.mc.gate import GatedSingleFlight

__all__ = [
    "SequentialQaRClient",
    "JournalAtFailureClient",
    "UnpoisonedDeltaClient",
    "UnfencedSingleFlight",
    "GuessedCommitClock",
    "PrecommitRefreshClient",
    "PrecommitDeltaClient",
]


class SequentialQaRClient(IQInvalidateClient):
    """``qareg-sequential``: one ``QaR`` per key, never a batched
    ``qareg`` (the twin the batched acquisition must equal)."""

    def _batch_acquire(self, session, changes, pending):
        return False


class JournalAtFailureClient(SequentialQaRClient):
    """``pr2-journal-pre``: a key whose shard is away during the growing
    phase is journaled at failure time, not after the SQL commit.

    A reconcile pass can then consume the entry and delete the key
    before the commit, and a reader re-caches the pre-commit value:
    the journaling order the sharded tier rejected as unsafe.
    Acquisition is per key, because ``_guard_key`` is the per-key
    path's failure site.
    """

    def _guard_key(self, change, operation, pending=None):
        return super()._guard_key(change, operation)


class UnpoisonedDeltaClient(IQDeltaClient):
    """``pr2-poison-missing``: a multi-delta proposal that failed part
    way does not poison its shard's leg, so the commit applies a
    partial delta list (why the sharded tier poisons such legs)."""

    def _poison_shard(self, session, key):
        pass


class UnfencedSingleFlight(GatedSingleFlight):
    """``coalesced-unfenced``: waiters are told every resolved fill was
    applied, so one consumes a fill an invalidation refused (the fencing
    rule of :mod:`repro.core.singleflight`, removed)."""

    def _outcome(self, gated):
        outcome = super()._outcome(gated)
        if outcome is None:
            return None
        return FillOutcome(outcome.value, applied=True)


class GuessedCommitClock:
    """``clock-missized``: ``promise`` guesses ``[now, now + guess)``
    without registering a horizon, so a clock-keyed commit cannot jump
    past it and a stale fill stays servable inside the guessed window.

    Hand it to :func:`~repro.mc.clients.clock_client` as
    ``commit_clock=GuessedCommitClock.gated(guess)``.
    """

    def __init__(self, commit_clock, guess):
        self._commit_clock = commit_clock
        self._guess = guess

    def promise(self, key, ticks=None):
        start = self._commit_clock.now_of(key)
        return start, start + self._guess

    @classmethod
    def gated(cls, guess):
        return lambda world, real: world.gate.proxy(
            cls(real, guess), "clock.", sql=True
        )


class PrecommitRefreshClient(BaselineRefreshClient):
    """``fig6-baseline``: the refresh lands inside the transaction, so
    when the transaction aborts the uncommitted value stays cached and
    is served (Figure 6)."""

    def write(self, sql_body, changes):
        def refresh():
            for change in changes:
                cached = self.store.get(change.key)
                value = change.refresher(None if cached is None
                                         else cached[0])
                if value is not None:
                    self.store.set(change.key, value)

        return SessionOutcome(
            self._run_sql(sql_body, before_body=refresh), restarts=0
        )


class PrecommitDeltaClient(BaselineDeltaClient):
    """``fig7-baseline``: the deltas are applied inside the transaction,
    where a concurrent miss loses them and a stale fill overwrites the
    key (Figure 7)."""

    def write(self, sql_body, changes):
        def apply():
            for change in changes:
                for op, operand in change.deltas:
                    getattr(self.store, op)(change.key, operand)

        return SessionOutcome(
            self._run_sql(sql_body, before_body=apply), restarts=0
        )
