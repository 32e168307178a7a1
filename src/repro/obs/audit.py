"""Online IQ-invariant auditor: a lease-lifecycle state machine over traces.

The BG validation log proves consistency *after* a run by replaying
timelines; the auditor checks the lease protocol itself *while* the run
happens, by subscribing to the trace stream
(:meth:`~repro.obs.trace.Tracer.add_listener`) and replaying the paper's
lease rules as a state machine.  The two oracles are independent: BG
checks values, the auditor checks protocol steps, and a clean run must
satisfy both.

Invariants checked (violation categories):

``double-i-grant``
    At most one I lease per key (Section 3.1): a second ``lease.i.grant``
    while one is live means two readers both believe they may fill.
``q-grant-left-i-alive``
    Granting a Q lease must void any I lease on the key (Figure 5a, row
    I): a ``lease.q.grant`` arriving while the key's I lease is still
    live means a doomed reader's ``IQset`` could later install a stale
    value.
``apply-before-sql-commit``
    A write session's KVS changes (delete / delta / refresh / SaR) may
    only be applied after its RDBMS transaction committed (the 2PL
    discipline of Table 2): a ``kvs.apply`` on a trace with no prior
    ``session.sql_commit`` reorders the shrinking phase before the
    growing phase ended.
``release-without-terminator``
    Q leases are released by ``commit``/``abort``/``dar`` (or per-key by
    ``SaR``); any other ``lease.q.release`` would expose the pre-commit
    value while the writer is still in flight.
``exclusive-q-cogrant``
    Refresh and incremental-update sessions hold their Q leases
    exclusively (Figure 5b): two live holders on one key where either
    side is exclusive means the KVS can no longer follow the RDBMS
    serialization order.
``migration-quarantine-leak``
    A shard migration quarantines moving keys under migration Q leases
    (``migrate.quarantine``) and must release every one of them
    (``migrate.release``) before it ends: keys still quarantined at
    ``shard.rebalance.end`` are stranded until their lease TTL deletes
    them, blocking writers and readers alike on the old owner.
``clock-serve-past-bound``
    The precise-clock technique's one safety rule (:class:`~repro.core.policies.ClockClient`):
    a ``cget`` may serve a value only while the caller's commit-clock
    reading is below the entry's validity bound.  A ``clock.serve``
    whose ``clock`` is at or past its ``expiry`` -- or a ``clock.fill``
    that installed an empty interval -- means self-invalidation broke
    and a stale value can outlive the write it missed.

Lease and session state is keyed by ``(srv, key)`` / ``(srv, tid)`` --
``srv`` names the emitting IQ server -- so shards and restarted server
incarnations with overlapping TID spaces cannot alias each other.
Per-trace state is dropped on ``session.end``; lease state is dropped as
leases retire, so a long audited run stays bounded.
"""

import threading

__all__ = [
    "AuditReport",
    "IQAuditor",
    "Violation",
    "CATEGORY_DOUBLE_I",
    "CATEGORY_UNVOIDED_I",
    "CATEGORY_EARLY_APPLY",
    "CATEGORY_ORPHAN_RELEASE",
    "CATEGORY_EXCLUSIVE_COGRANT",
    "CATEGORY_QUARANTINE_LEAK",
    "CATEGORY_CLOCK_PAST_BOUND",
    "audited",
]

CATEGORY_DOUBLE_I = "double-i-grant"
CATEGORY_UNVOIDED_I = "q-grant-left-i-alive"
CATEGORY_EARLY_APPLY = "apply-before-sql-commit"
CATEGORY_ORPHAN_RELEASE = "release-without-terminator"
CATEGORY_EXCLUSIVE_COGRANT = "exclusive-q-cogrant"
CATEGORY_QUARANTINE_LEAK = "migration-quarantine-leak"
CATEGORY_CLOCK_PAST_BOUND = "clock-serve-past-bound"

ALL_CATEGORIES = (
    CATEGORY_DOUBLE_I,
    CATEGORY_UNVOIDED_I,
    CATEGORY_EARLY_APPLY,
    CATEGORY_ORPHAN_RELEASE,
    CATEGORY_EXCLUSIVE_COGRANT,
    CATEGORY_QUARANTINE_LEAK,
    CATEGORY_CLOCK_PAST_BOUND,
)

#: ``lease.q.grant`` mode field value for exclusive (refresh/delta) leases.
_EXCLUSIVE = "exclusive"


class Violation:
    """One detected protocol violation."""

    __slots__ = ("ts", "category", "key", "tid", "trace_id", "detail")

    def __init__(self, ts, category, key=None, tid=None, trace_id=None,
                 detail=""):
        self.ts = ts
        self.category = category
        self.key = key
        self.tid = tid
        self.trace_id = trace_id
        self.detail = detail

    def __repr__(self):
        return "Violation({} key={} tid={} trace={}: {})".format(
            self.category, self.key, self.tid, self.trace_id, self.detail
        )


class AuditReport:
    """Summary of one audited window."""

    def __init__(self, violations, events_seen):
        self.violations = list(violations)
        self.events_seen = events_seen

    @property
    def clean(self):
        return not self.violations

    def by_category(self):
        counts = {}
        for violation in self.violations:
            counts[violation.category] = counts.get(violation.category, 0) + 1
        return counts

    def categories(self):
        return set(self.by_category())

    def summary(self):
        if self.clean:
            return "audit clean: {} events, 0 violations".format(
                self.events_seen
            )
        parts = ", ".join(
            "{}={}".format(cat, count)
            for cat, count in sorted(self.by_category().items())
        )
        return "audit FAILED: {} events, {} violations ({})".format(
            self.events_seen, len(self.violations), parts
        )

    def __repr__(self):
        return "AuditReport({})".format(self.summary())


class IQAuditor:
    """Feed me trace events (``auditor.observe`` or ``auditor(event)``).

    Thread-safe: events may arrive from every worker and server handler
    thread; one internal lock serializes state transitions, which is
    correct because causally related events (same key's lease table,
    same session's thread) already reach the tracer in order.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._violations = []
        self._events_seen = 0
        #: (srv, key) -> live I-lease token
        self._i_leases = {}
        #: (srv, key) -> {tid: mode}
        self._q_holders = {}
        #: (srv, tid) currently inside commit/abort (release window open)
        self._terminating = set()
        #: (srv, tid, key) released per-key by SaR
        self._sar_ok = set()
        #: traces with a session.begin seen
        self._traces_begun = set()
        #: traces whose RDBMS transaction committed
        self._traces_committed = set()
        #: (shard, key) -> migration tid, while a migration holds the
        #: key's quarantine
        self._migration_quarantined = {}

    # -- wiring ---------------------------------------------------------------

    def attach(self, tracer):
        tracer.add_listener(self.observe)
        return self

    def detach(self, tracer):
        tracer.remove_listener(self.observe)
        return self

    def __call__(self, event):
        self.observe(event)

    # -- reporting ------------------------------------------------------------

    @property
    def violations(self):
        with self._lock:
            return list(self._violations)

    def report(self):
        with self._lock:
            return AuditReport(self._violations, self._events_seen)

    def _flag(self, event, category, detail):
        self._violations.append(Violation(
            event.ts, category, key=event.key, tid=event.tid,
            trace_id=event.trace_id, detail=detail,
        ))

    # -- the state machine ----------------------------------------------------

    def observe(self, event):
        handler = self._HANDLERS.get(event.name)
        if handler is None:
            return
        with self._lock:
            self._events_seen += 1
            handler(self, event)

    def _srv_key(self, event):
        return (event.get("srv"), event.key)

    def _srv_tid(self, event):
        return (event.get("srv"), event.tid)

    def _on_i_grant(self, event):
        slot = self._srv_key(event)
        if slot in self._i_leases:
            self._flag(event, CATEGORY_DOUBLE_I,
                       "I lease granted while token {} still live".format(
                           self._i_leases[slot]))
        self._i_leases[slot] = event.get("token")

    def _on_i_gone(self, event):
        self._i_leases.pop(self._srv_key(event), None)

    def _on_q_grant(self, event):
        slot = self._srv_key(event)
        if slot in self._i_leases:
            self._flag(event, CATEGORY_UNVOIDED_I,
                       "Q grant left I token {} live".format(
                           self._i_leases[slot]))
            # One violation per unvoided I; the lease is now considered
            # consumed so a later legitimate grant is not re-flagged.
            del self._i_leases[slot]
        holders = self._q_holders.setdefault(slot, {})
        mode = event.get("mode")
        others = [tid for tid in holders if tid != event.tid]
        if others and (mode == _EXCLUSIVE
                       or any(holders[t] == _EXCLUSIVE for t in others)):
            self._flag(event, CATEGORY_EXCLUSIVE_COGRANT,
                       "co-granted with sessions {} (mode={})".format(
                           sorted(others), mode))
        holders[event.tid] = mode

    def _drop_q(self, slot, tid):
        holders = self._q_holders.get(slot)
        if holders is not None:
            holders.pop(tid, None)
            if not holders:
                del self._q_holders[slot]

    def _on_q_release(self, event):
        slot = self._srv_key(event)
        srv_tid = self._srv_tid(event)
        sar_slot = (srv_tid[0], event.tid, event.key)
        if srv_tid not in self._terminating and sar_slot not in self._sar_ok:
            self._flag(event, CATEGORY_ORPHAN_RELEASE,
                       "Q released outside commit/abort/SaR")
        self._sar_ok.discard(sar_slot)
        self._drop_q(slot, event.tid)

    def _on_q_expire(self, event):
        self._drop_q(self._srv_key(event), event.tid)

    def _on_q_reject(self, event):
        pass  # counted via _events_seen only

    def _on_sar(self, event):
        srv = event.get("srv")
        self._sar_ok.add((srv, event.tid, event.key))
        if event.get("stored"):
            self._check_apply(event)

    def _on_terminator_begin(self, event):
        self._terminating.add(self._srv_tid(event))

    def _on_terminator_end(self, event):
        srv_tid = self._srv_tid(event)
        self._terminating.discard(srv_tid)
        self._sar_ok = {
            slot for slot in self._sar_ok
            if (slot[0], slot[1]) != srv_tid
        }

    def _check_apply(self, event):
        trace = event.trace_id
        if trace is None or trace not in self._traces_begun:
            # Untraced callers (raw server unit tests, baselines) carry
            # no session context; the 2PL check needs one.
            return
        if trace not in self._traces_committed:
            self._flag(event, CATEGORY_EARLY_APPLY,
                       "KVS {} applied before the trace's SQL commit".format(
                           event.get("op", "sar")))

    def _on_apply(self, event):
        self._check_apply(event)

    def _on_session_begin(self, event):
        if event.trace_id is not None:
            self._traces_begun.add(event.trace_id)

    def _on_sql_commit(self, event):
        if event.trace_id is not None:
            self._traces_committed.add(event.trace_id)

    def _on_session_end(self, event):
        if event.trace_id is not None:
            self._traces_begun.discard(event.trace_id)
            self._traces_committed.discard(event.trace_id)

    # -- precise-clock validity bounds -----------------------------------------

    def _on_clock_serve(self, event):
        clock = event.get("clock")
        expiry = event.get("expiry")
        if clock is None or expiry is None:
            return
        if clock >= expiry:
            self._flag(event, CATEGORY_CLOCK_PAST_BOUND,
                       "served at clock {} past validity bound {}".format(
                           clock, expiry))

    def _on_clock_extend(self, event):
        # An extension must still land ahead of the caller's reading;
        # the store only ever grows the bound, so the same check applies.
        self._on_clock_serve(event)

    def _on_clock_fill(self, event):
        if not event.get("applied"):
            return
        start = event.get("start")
        expiry = event.get("expiry")
        if start is None or expiry is None:
            return
        if expiry <= start:
            self._flag(event, CATEGORY_CLOCK_PAST_BOUND,
                       "empty validity interval [{}, {}) installed".format(
                           start, expiry))

    # -- migration quarantine tracking ----------------------------------------

    def _on_migrate_quarantine(self, event):
        slot = (event.get("shard"), event.key)
        self._migration_quarantined[slot] = event.tid

    def _on_migrate_release(self, event):
        self._migration_quarantined.pop((event.get("shard"), event.key),
                                        None)

    def _on_rebalance_end(self, event):
        shard = event.get("shard")
        for (held_shard, key), tid in sorted(
            self._migration_quarantined.items()
        ):
            self._violations.append(Violation(
                event.ts, CATEGORY_QUARANTINE_LEAK, key=key, tid=tid,
                trace_id=event.trace_id,
                detail="migration of {!r} ended with {!r} still "
                       "quarantined on {!r}".format(shard, key, held_shard),
            ))
        self._migration_quarantined.clear()

    def quarantined_keys(self):
        """``{(shard, key): tid}`` currently held by a live migration."""
        with self._lock:
            return dict(self._migration_quarantined)

    _HANDLERS = {
        "lease.i.grant": _on_i_grant,
        "lease.i.redeem": _on_i_gone,
        "lease.i.void": _on_i_gone,
        "lease.i.expire": _on_i_gone,
        "lease.q.grant": _on_q_grant,
        "lease.q.reject": _on_q_reject,
        "lease.q.release": _on_q_release,
        "lease.q.expire": _on_q_expire,
        "iq.sar": _on_sar,
        "kvs.apply": _on_apply,
        "iq.commit.begin": _on_terminator_begin,
        "iq.commit.end": _on_terminator_end,
        "iq.abort.begin": _on_terminator_begin,
        "iq.abort.end": _on_terminator_end,
        "session.begin": _on_session_begin,
        "session.sql_commit": _on_sql_commit,
        "session.end": _on_session_end,
        "migrate.quarantine": _on_migrate_quarantine,
        "migrate.release": _on_migrate_release,
        "shard.rebalance.end": _on_rebalance_end,
        "clock.serve": _on_clock_serve,
        "clock.extend": _on_clock_extend,
        "clock.fill": _on_clock_fill,
    }


class audited:
    """Context manager: attach a fresh auditor to the global tracer.

    ::

        with audited() as auditor:
            system.runner.run(threads=4, duration=1.0)
        assert auditor.report().clean, auditor.report().summary()
    """

    def __init__(self, tracer=None):
        from repro.obs.trace import get_tracer

        self.tracer = tracer or get_tracer()
        self.auditor = IQAuditor()

    def __enter__(self):
        self.auditor.attach(self.tracer)
        return self.auditor

    def __exit__(self, *exc):
        self.auditor.detach(self.tracer)
        return False
