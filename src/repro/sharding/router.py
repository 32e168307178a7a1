"""ShardedIQServer: N lease backends behind a consistent-hash router.

The paper deploys its CMTs against a *fleet* of IQ-Twemcached servers;
this module supplies the missing tier.  A :class:`ShardedIQServer` is
itself a :class:`~repro.core.backend.LeaseBackend`, so the IQ client,
the write-session model, the consistency clients, and the BG harness
run unchanged over any number of shards.

**Routing.**  Every key is owned by exactly one shard, resolved through
a :class:`~repro.sharding.ring.ConsistentHashRing` with virtual nodes.
All lease state for a key (I token, Q holders, buffered proposals)
therefore lives on a single shard, and the per-key protocol of the
paper is untouched -- the lease compatibility matrices never span
shards.

**Composite sessions.**  ``gen_id`` mints a router-local composite TID
without touching any shard; per-shard TIDs are minted lazily on the
first command that lands on a shard.  A session writing three keys that
hash to three shards holds three independent server-side sessions under
one application-visible identifier.  The paper's 2PL-like discipline is
preserved *per shard*: the growing phase (``qar``/``qaread``/
``iq_delta``) routes each acquisition to the owning shard before the
RDBMS commit, and the shrinking phase (``commit``/``dar``/``abort``)
fans out to every touched shard afterwards.

**Partial failure.**  A shard that cannot be reached during the
shrinking phase does not poison the others: its commit leg is skipped,
its keys are journaled for delete-on-recover reconciliation (through
the shard's own :class:`~repro.net.resilient.ReconciliationJournal`
when it has one), and its Q leases are left to expire server-side --
which deletes the quarantined keys (Section 4.2 condition 3).  The
healthy shards apply normally.  Degradation is therefore confined to
one shard's key range, never the whole cache.

A shard that failed *during* the growing phase of an incremental-update
session may hold a partial delta proposal; the client marks the leg via
:meth:`ShardedIQServer.poison` and the shrinking phase deletes that
shard's keys and aborts its TID instead of committing it, so a partial
proposal can never surface as a cached value.

**Topology changes.**  The ring is no longer static: a shard can join
or leave while sessions are in flight.  :meth:`ShardedIQServer.
begin_rebalance` opens a *dual-epoch routing window* -- the router keeps
routing reads by the current :class:`~repro.sharding.ring.RingView`
while every growing-phase lease acquisition on a key whose owner differs
between the current and the pending epoch takes **both** owners' legs.
A write session that spans the epoch flip therefore already holds the
leases it needs to invalidate (or apply) on whichever shard is routed
when its shrinking phase runs, so the flip can never strand a stale
value behind a committed transaction.  Routing snapshots the ring and
the window together under the router lock -- the same lock the flip
holds -- and every acquisition re-checks the route once it is recorded,
retroactively dual-legging a key whose window opened (or flipped) while
the command was in flight; between the snapshot and the re-check, one
side is guaranteed to see the other.  :meth:`commit_rebalance` flips
the live ring atomically (one locked splice) and closes the window; the
actual key movement -- quarantine, copy-or-drop, release -- is driven by
:class:`~repro.sharding.rebalance.Rebalancer` on top of this surface.
:meth:`promote_replica` swaps a dead shard's backend for a warm standby
under the same ring name, rebuilding in-flight composite legs on the
standby as invalidation sessions so their commits still delete at the
right time.

**Batching and parallel fan-out.**  The multi-key commands route by
shard: :meth:`ShardedIQServer.qar_many` groups a session's write-set by
owning shard and issues one bulk acquisition per shard (stopping at the
first reject, like the sequential protocol), and
:meth:`ShardedIQServer.iq_mget` reassembles per-shard bulk reads in the
caller's key order.  The shrinking phase runs its per-shard commit and
abort legs through a bounded :class:`_FanoutPool` when more than one
shard was touched -- the legs are independent by construction (each
shard holds disjoint key state), so parallelism changes latency, never
outcomes.  ``fanout_workers=0`` (or 1) forces the serial order, which
the model checker relies on for determinism.
"""

import queue
import threading

from repro.core.backend import LeaseBackend
from repro.errors import CacheUnavailableError, LeaseError, QuarantinedError
from repro.kvs.stats import MergedCacheStats
from repro.obs.trace import current_trace_id, get_tracer, trace_context
from repro.sharding.ring import ConsistentHashRing
from repro.util.tokens import TokenGenerator


class ShardedJournal:
    """Routes journaled keys to the owning shard's recovery journal.

    The consistency clients journal keys whose cached value may be
    stale after degraded writes.  Under sharding each key must reach
    the journal of the backend that owns it -- that is the journal
    whose delete-on-recover pass runs against the right shard.  Keys
    owned by a backend with no journal of its own (e.g. an in-process
    :class:`~repro.core.iq_server.IQServer`) are held in a local set,
    reconciled by :meth:`ShardedIQServer.reconcile_local`.
    """

    def __init__(self, router):
        self._router = router
        self._lock = threading.Lock()
        self._local = set()
        #: every key ever journaled locally.  Counting off this set --
        #: rather than on each insertion -- keeps a key that was drained
        #: by :meth:`drain_local` and re-added by a failed
        #: ``reconcile_local`` pass from inflating ``total_journaled``.
        self._local_seen = set()

    def _shard_journals(self):
        seen = []
        for name in self._router.shard_names:
            journal = getattr(self._router.backend(name), "journal", None)
            if journal is not None:
                seen.append(journal)
        return seen

    def add(self, keys):
        for key in keys:
            journal = getattr(self._router.shard_for(key), "journal", None)
            if journal is not None:
                journal.add([key])
            else:
                with self._lock:
                    self._local.add(key)
                    self._local_seen.add(key)

    def peek(self):
        """Every key currently awaiting reconciliation, across shards."""
        with self._lock:
            keys = set(self._local)
        for journal in self._shard_journals():
            keys.update(journal.peek())
        return sorted(keys)

    def drain_local(self):
        """Atomically empty the local (journal-less backend) set."""
        with self._lock:
            keys = sorted(self._local)
            self._local.clear()
            return keys

    @property
    def total_journaled(self):
        with self._lock:
            total = len(self._local_seen)
        return total + sum(j.total_journaled for j in self._shard_journals())

    def __len__(self):
        return len(self.peek())

    def __bool__(self):
        return len(self) > 0


class _RebalanceWindow:
    """Dual-epoch routing state while one topology migration is in flight."""

    __slots__ = ("target", "joining", "leaving")

    def __init__(self, target, joining=None, leaving=None):
        #: the pending :class:`~repro.sharding.ring.RingView`
        self.target = target
        self.joining = joining
        self.leaving = leaving

    @property
    def subject(self):
        return self.joining if self.joining is not None else self.leaving


class _ShardSession:
    """Router-side bookkeeping for one composite session."""

    __slots__ = ("tid", "shard_tids", "keys_by_shard", "poisoned", "lock")

    def __init__(self, tid):
        self.tid = tid
        #: shard name -> TID minted on that shard
        self.shard_tids = {}
        #: shard name -> keys this session touched there
        self.keys_by_shard = {}
        #: shards holding a possibly-partial proposal for this session;
        #: their legs are deleted-and-aborted at commit, never committed
        self.poisoned = set()
        self.lock = threading.Lock()


class _FanoutPool:
    """A bounded pool of daemon workers for parallel shard legs.

    Threads are grown lazily up to ``workers`` on first use, so a
    router that never commits across shards never spawns any.
    :meth:`run` executes every closure and returns results in slot
    order; if any leg raised, the first (by slot) exception is
    re-raised only after *all* legs have finished -- a commit fan-out
    must never leave a leg running unobserved.
    """

    def __init__(self, workers):
        self._max = max(1, workers)
        self._jobs = queue.SimpleQueue()
        self._threads = []
        self._lock = threading.Lock()
        self._closed = False

    def _grow(self, wanted):
        with self._lock:
            if self._closed:
                raise RuntimeError("fan-out pool is closed")
            target = min(wanted, self._max)
            while len(self._threads) < target:
                thread = threading.Thread(
                    target=self._worker,
                    name="iq-fanout-{}".format(len(self._threads)),
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def _worker(self):
        while True:
            job = self._jobs.get()
            if job is None:
                return
            fn, slot, results, errors, done = job
            try:
                results[slot] = fn()
            except BaseException as exc:  # re-raised by run()
                errors[slot] = exc
            done.release()

    def run(self, fns):
        """Run every closure; results come back in submission order."""
        fns = list(fns)
        if not fns:
            return []
        if len(fns) == 1:
            return [fns[0]()]
        self._grow(len(fns))
        results = [None] * len(fns)
        errors = [None] * len(fns)
        done = threading.Semaphore(0)
        for slot, fn in enumerate(fns):
            self._jobs.put((fn, slot, results, errors, done))
        for _ in fns:
            done.acquire()
        for exc in errors:
            if exc is not None:
                raise exc
        return results

    def close(self):
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._threads)
        for _ in threads:
            self._jobs.put(None)
        for thread in threads:
            thread.join(timeout=1.0)


class ShardedIQServer(LeaseBackend):
    """A consistent-hash router over N :class:`LeaseBackend` shards.

    ``shards`` is a sequence of backends; ``names`` optionally labels
    them (defaults to ``shard0..shardN-1``).  With one shard the router
    degenerates to pure pass-through plus TID indirection -- behaviour
    is identical to driving the backend directly.

    ``fanout_workers`` bounds the thread pool used to parallelize the
    shrinking-phase commit/abort legs across shards.  ``None`` picks
    ``min(8, shard count)`` for multi-shard deployments; ``0`` or ``1``
    keeps the fan-out strictly serial (shard-name order), which the
    model checker requires for deterministic replay.
    """

    def __init__(self, shards, names=None, vnodes=64, fanout_workers=None):
        shards = list(shards)
        if not shards:
            raise ValueError("at least one shard is required")
        if names is None:
            names = ["shard{}".format(i) for i in range(len(shards))]
        if len(names) != len(shards) or len(set(names)) != len(names):
            raise ValueError("names must be unique, one per shard")
        self._backends = dict(zip(names, shards))
        self.ring = ConsistentHashRing(names, vnodes=vnodes)
        self._tids = TokenGenerator(start=1)
        self._sessions = {}
        # Composite TIDs at or below the watermark were retired by a
        # flush_all; growing-phase commands quoting one are zombies of
        # pre-flush sessions and abort instead of minting fresh
        # post-flush shard TIDs (mirrors IQServer._check_tid_live).
        self._tid_watermark = 0
        self._lock = threading.Lock()
        self.journal = ShardedJournal(self)
        self._tracer = get_tracer()
        if fanout_workers is None:
            fanout_workers = min(8, len(shards)) if len(shards) > 1 else 0
        self._fanout_workers = fanout_workers
        self._fanout = None
        #: commit/abort legs that found their shard unreachable
        self.degraded_shard_commits = 0
        self.degraded_shard_aborts = 0
        #: keys journaled because their shard failed mid-shrinking-phase
        self.journaled_commit_keys = 0
        #: shard legs aborted because a partial delta proposal poisoned them
        self.poisoned_shard_aborts = 0
        #: shrinking-phase legs that ran through the parallel fan-out pool
        self.parallel_commit_legs = 0
        self.parallel_abort_legs = 0
        #: in-flight dual-epoch routing window (None outside a rebalance)
        self._window = None
        #: topology rebalances begun (shard add or remove)
        self.migrations = 0
        #: growing-phase acquisitions that took a second (pending-owner) leg
        self.dual_acquisitions = 0
        #: warm-standby promotions that replaced a shard backend in place
        self.replica_promotions = 0

    # -- topology ------------------------------------------------------------

    @property
    def shard_names(self):
        return sorted(self._backends)

    @property
    def shard_count(self):
        return len(self._backends)

    def backend(self, name):
        return self._backends[name]

    def shard_name_for(self, key):
        return self.ring.node_for(key)

    def shard_for(self, key):
        """The backend owning ``key``."""
        return self._backends[self.ring.node_for(key)]

    # -- topology changes ------------------------------------------------------

    @property
    def epoch(self):
        """The current ring topology epoch."""
        return self.ring.epoch

    @property
    def rebalance_active(self):
        return self._window is not None

    def pending_view(self):
        """The target :class:`RingView` of the in-flight rebalance, or None."""
        with self._lock:
            window = self._window
            return window.target if window is not None else None

    def _route(self, key):
        """Routed owner names for ``key``: one normally, two in a window.

        Inside a dual-epoch window a key whose owner differs between the
        current ring and the pending view resolves to ``(current,
        pending)`` -- in that order, so the current owner stays the
        authoritative read/primary leg.
        """
        return self._route_snapshot(key)[0]

    def _route_snapshot(self, key):
        """``(routed names, epoch)`` captured atomically under the lock.

        The ring owner and the window are read under the router lock --
        the same lock :meth:`commit_rebalance` flips both under -- so a
        route can never observe the post-flip ring with the window
        already cleared (which would resolve a moving key to the losing
        epoch's owner alone).  The epoch lets :meth:`_dual_leg_if_moved`
        detect a transition that began *after* this snapshot.
        """
        with self._lock:
            current = self.ring.node_for(key)
            epoch = self.ring.epoch
            window = self._window
            if window is None:
                return (current,), epoch
            pending = window.target.node_for(key)
            if pending == current:
                return (current,), epoch
            return (current, pending), epoch

    def begin_rebalance(self, add=None, remove=None):
        """Open a dual-epoch routing window for one topology change.

        ``add=(name, backend)`` attaches a joining backend (kept off the
        ring until the flip); ``remove=name`` marks a routed shard as
        leaving.  Exactly one of the two must be given, and only one
        rebalance may be in flight at a time.  Returns the pending
        :class:`~repro.sharding.ring.RingView` the window routes against.
        """
        if (add is None) == (remove is None):
            raise ValueError("exactly one of add= or remove= is required")
        with self._lock:
            if self._window is not None:
                raise RuntimeError("a rebalance is already in flight")
            current = self.ring.view()
            if add is not None:
                name, backend = add
                kind = "add"
                if name in current:
                    raise ValueError(
                        "shard {!r} is already routed".format(name)
                    )
                if backend is None:
                    backend = self._backends.get(name)
                if backend is None:
                    raise ValueError(
                        "shard {!r} has no backend to attach".format(name)
                    )
                self._backends[name] = backend
                target = current.with_node(name)
                window = _RebalanceWindow(target, joining=name)
            else:
                name = remove
                kind = "remove"
                if name not in current:
                    raise ValueError("shard {!r} is not routed".format(name))
                target = current.without_node(name)
                if not len(target):
                    raise ValueError("cannot remove the last shard")
                window = _RebalanceWindow(target, leaving=name)
            self._window = window
            self.migrations += 1
        self._dual_upgrade_inflight()
        if self._tracer.active:
            self._tracer.emit("shard.rebalance.begin", shard=name, kind=kind,
                              epoch=current.epoch, target_epoch=target.epoch)
        return target

    def _dual_upgrade_inflight(self):
        """Extend live in-flight legs onto the window's pending owners.

        A session that quarantined a moving key *before* the window
        opened holds only the current owner's leg, so its shrinking
        phase would never touch the pending owner -- after the flip, a
        reader could fill the pre-commit value there and nothing would
        ever invalidate it.  Re-quarantining such keys on the pending
        owner (shared-invalidate mode, like :meth:`promote_replica`'s
        rebuild) closes the hole: readers back off on the new owner
        until the session ends, and its commit/DaR deletes there too.
        No conflicting co-grant can exist on the pending owner, because
        any competing session's dual acquisition takes the current
        owner's leg first -- where this session's lease already rejects
        it.  A pending owner that cannot be acquired poisons the leg
        instead: delete, never apply.  Keys whose source lease was
        already released are skipped when the source backend can be
        asked (``leases.q_held_by``); wire backends without
        introspection upgrade conservatively, bounded by the lease TTL.
        """
        with self._lock:
            sessions = list(self._sessions.values())
        for session in sessions:
            with session.lock:
                held = sorted({
                    key
                    for keys in session.keys_by_shard.values()
                    for key in keys
                })
            for key in held:
                route = self._route(key)
                if len(route) == 1:
                    continue
                current, pending = route
                with session.lock:
                    source_tid = session.shard_tids.get(current)
                if source_tid is None:
                    continue
                leases = getattr(self._backends[current], "leases", None)
                if leases is not None and not leases.q_held_by(
                    key, source_tid
                ):
                    continue
                self._acquire_invalidation_leg(session, pending, key)

    def _acquire_invalidation_leg(self, session, name, key):
        """Add a shared-invalidate leg for ``key`` on shard ``name``.

        The leg's commit deletes the key there -- always safe, whatever
        the session's mode on its primary leg.  A shard that rejects or
        cannot be reached poisons the leg instead: delete, never apply.
        A leg the session already holds is left alone (re-``qar`` of a
        held lease would merely refresh it).
        """
        with session.lock:
            if key in session.keys_by_shard.get(name, ()):
                return
        try:
            shard_tid = self._shard_tid(session, name)
            self._backends[name].qar(shard_tid, key)
        except (CacheUnavailableError, QuarantinedError):
            with session.lock:
                session.poisoned.add(name)
                session.keys_by_shard.setdefault(name, set()).add(key)
            return
        self._record_key(session, name, key)
        self._count_dual(session.tid, key, name)

    def _dual_leg_if_moved(self, session, key, routed, epoch):
        """Close the acquisition-vs-transition race, post hoc.

        ``routed`` and ``epoch`` are the :meth:`_route_snapshot` this
        acquisition ran against.  A rebalance window that opened after
        the snapshot may have missed the key in
        :meth:`_dual_upgrade_inflight` (the leg was not recorded yet
        when the upgrade walked the session), and a window that opened
        *and flipped* since leaves the key acquired only on the losing
        epoch's owner.  Re-checking under the router lock after the
        acquisition is recorded guarantees one side sees the other:
        either this re-check observes the window/flip and takes the
        missing owner's leg, or the upgrade observes the recorded leg
        and dual-legs it itself.
        """
        with self._lock:
            window = self._window
            if window is None and self.ring.epoch == epoch:
                return
            needed = {self.ring.node_for(key)}
            if window is not None:
                needed.add(window.target.node_for(key))
        for name in sorted(needed.difference(routed)):
            self._acquire_invalidation_leg(session, name, key)

    def commit_rebalance(self):
        """Atomically flip the live ring to the window's target epoch.

        The flip and the window close happen under one lock acquisition,
        so no concurrent router call can observe the post-flip ring with
        the window still open.  Returns the list of
        :class:`~repro.sharding.ring.OwnershipChange` arcs that moved.
        """
        with self._lock:
            window = self._window
            if window is None:
                raise RuntimeError("no rebalance in flight")
            if window.joining is not None:
                changes = self.ring.add_node(window.joining)
            else:
                changes = self.ring.remove_node(window.leaving)
            self._window = None
        if self._tracer.active:
            self._tracer.emit("shard.rebalance.flip", shard=window.subject,
                              epoch=self.ring.epoch, arcs=len(changes))
        return changes

    def abort_rebalance(self):
        """Close the window without flipping (failed/cancelled migration).

        A joining backend stays attached but unrouted (in-flight dual
        legs must still resolve it); :meth:`detach_shard` drops it once
        drained.  Returns True when a window was actually open.
        """
        with self._lock:
            window, self._window = self._window, None
        if window is not None and self._tracer.active:
            self._tracer.emit("shard.rebalance.abort", shard=window.subject)
        return window is not None

    def detach_shard(self, name):
        """Drop an attached-but-unrouted backend; returns the backend.

        Only legal once the shard is off the ring (after a removal flip
        or an aborted join): in-flight shrinking-phase legs resolve
        backends by name, so the caller is responsible for draining its
        sessions first.
        """
        if name in self.ring.nodes:
            raise ValueError("shard {!r} is still routed".format(name))
        with self._lock:
            window = self._window
            if window is not None and name == window.subject:
                raise ValueError(
                    "shard {!r} has a rebalance in flight".format(name)
                )
            return self._backends.pop(name)

    def promote_replica(self, name, standby):
        """Swap shard ``name``'s backend for its warm standby, in place.

        The standby keeps the ring name, so key ownership is unchanged
        (the epoch still advances for observers).  Every in-flight
        composite session with a leg on the shard is rebuilt on the
        standby as an *invalidation* session: a fresh TID re-quarantines
        the leg's keys with shared-invalidate Q leases, so the session's
        commit deletes them on the standby after its SQL commit -- the
        conservative translation (deltas and refreshes degrade to
        delete-then-refill) that can never surface a stale or partial
        value.  A leg the standby cannot re-quarantine is poisoned and
        its keys journaled, exactly like a degraded shard.  Returns the
        number of rebuilt legs.
        """
        with self._lock:
            if name not in self._backends:
                raise KeyError("unknown shard {!r}".format(name))
            self._backends[name] = standby
            sessions = list(self._sessions.values())
            self.replica_promotions += 1
        rebuilt = 0
        for session in sessions:
            with session.lock:
                keys = sorted(session.keys_by_shard.get(name, ()))
                had_leg = keys or name in session.shard_tids
            if not had_leg:
                continue
            new_tid = None
            try:
                new_tid = standby.gen_id()
                for key in keys:
                    standby.qar(new_tid, key)
            except (CacheUnavailableError, QuarantinedError):
                # The standby could not re-quarantine the leg; degrade
                # it like a failed shard: journal the keys and poison
                # the leg so the shrinking phase deletes, never applies.
                # The partially-built TID is aborted best-effort so the
                # keys it did re-quarantine don't stay Q-leased --
                # blocking readers and writers -- until TTL expiry.
                if new_tid is not None:
                    try:
                        standby.abort(new_tid)
                    except (CacheUnavailableError, LeaseError):
                        pass
                self.journal.add(keys)
                with self._lock:
                    self.journaled_commit_keys += len(keys)
                with session.lock:
                    session.poisoned.add(name)
                    session.shard_tids.pop(name, None)
                continue
            with session.lock:
                session.shard_tids[name] = new_tid
            rebuilt += 1
        epoch = self.ring.bump_epoch()
        if self._tracer.active:
            self._tracer.emit("shard.replica.promote", shard=name,
                              epoch=epoch, rebuilt=rebuilt)
        return rebuilt

    # -- composite-session plumbing -------------------------------------------

    def _composite(self, tid, key):
        """The live composite session for ``tid`` (growing phase only).

        A TID at or below the flush watermark belongs to a session
        retired by :meth:`flush_all`; silently recreating it would mint
        fresh post-flush shard TIDs and resurrect server-side state, so
        the zombie is aborted like a lease conflict instead -- the same
        treatment ``IQServer._check_tid_live`` gives its own zombies.
        """
        with self._lock:
            session = self._sessions.get(tid)
            if session is None:
                if tid <= self._tid_watermark:
                    raise QuarantinedError(key)
                session = _ShardSession(tid)
                self._sessions[tid] = session
            return session

    def _lookup(self, tid):
        with self._lock:
            return self._sessions.get(tid)

    def _shard_tid(self, session, name):
        """The session's TID on shard ``name``, minted on first touch."""
        with session.lock:
            tid = session.shard_tids.get(name)
            if tid is None:
                tid = self._backends[name].gen_id()
                session.shard_tids[name] = tid
            return tid

    def _record_key(self, session, name, key):
        with session.lock:
            session.keys_by_shard.setdefault(name, set()).add(key)
        if self._tracer.active:
            # Emitted in the caller's ambient trace context, so each
            # per-shard leg of a composite session carries the router
            # session's trace id.
            self._tracer.emit("shard.route", key=key, tid=session.tid,
                              shard=name)

    def _translate(self, session_tid, name):
        """Existing shard TID for read-your-own-update, or ``None``.

        A read only needs the shard-local TID when the session already
        holds state on that shard; minting one eagerly would waste a
        server-side session per read.
        """
        if session_tid is None:
            return None
        with self._lock:
            session = self._sessions.get(session_tid)
        if session is None:
            return None
        with session.lock:
            return session.shard_tids.get(name)

    # -- session identity -----------------------------------------------------

    def gen_id(self):
        """Mint a composite TID locally; shard TIDs follow lazily."""
        tid = self._tids.next()
        with self._lock:
            self._sessions[tid] = _ShardSession(tid)
        return tid

    def session_count(self):
        with self._lock:
            return len(self._sessions)

    # -- reads ---------------------------------------------------------------

    def iq_get(self, key, session=None):
        name = self.ring.node_for(key)
        if session is None:
            return self._backends[name].iq_get(key)
        return self._backends[name].iq_get(
            key, session=self._translate(session, name))

    def iq_mget(self, keys, session=None):
        """Bulk ``IQget``: one batched call per owning shard.

        Keys are grouped by shard and fetched with each shard's own
        ``iq_mget`` (one pipelined round trip for a wire backend), then
        reassembled in the caller's key order.  Each shard leg carries
        the session's shard-local TID, preserving the read-your-own-
        update view exactly as per-key :meth:`iq_get` would.
        """
        keys = list(keys)
        if not keys:
            return {}
        by_shard = {}
        for key in keys:
            by_shard.setdefault(self.ring.node_for(key), []).append(key)
        fetched = {}
        for name, shard_keys in by_shard.items():
            shard_session = self._translate(session, name)
            fetched.update(
                self._backends[name].iq_mget(shard_keys, session=shard_session)
            )
        return {key: fetched[key] for key in keys}

    def iq_set(self, key, value, token):
        # The token was minted by the owning shard's iq_get, so routing
        # by key always lands it back where it is valid.
        return self.shard_for(key).iq_set(key, value, token)

    def release_i(self, key, token):
        return self.shard_for(key).release_i(key, token)

    # -- precise-clock commands (sessionless, pure per-key routing) ------------

    def cget(self, key, clock_now, extend=None):
        return self.shard_for(key).cget(key, clock_now, extend=extend)

    def cset(self, key, value, valid_from, valid_until):
        return self.shard_for(key).cset(key, value, valid_from, valid_until)

    # -- growing phase: per-key lease acquisition ------------------------------

    def _count_dual(self, tid, key, name):
        with self._lock:
            self.dual_acquisitions += 1
        if self._tracer.active:
            self._tracer.emit("shard.route.dual", key=key, tid=tid,
                              shard=name)

    def _fan_acquire(self, session, key, command):
        """Run one growing-phase acquisition on every routed owner of ``key``.

        ``command(backend, shard_tid)`` issues the actual lease command.
        Outside a rebalance window there is exactly one owner.  Inside
        the window a moving key acquires on the current owner *and* the
        pending owner, in that order, so a session spanning the epoch
        flip holds the leases needed on whichever shard ends up routed.
        The current owner's result is returned; a pending-owner
        rejection or failure propagates -- the client aborts or degrades
        the key exactly as for a single-owner failure, and both recorded
        legs are released by the shrinking phase.  After the acquisition
        is recorded the route is re-checked: a window or flip that
        interleaved retroactively dual-legs the key (see
        :meth:`_dual_leg_if_moved`).
        """
        route, epoch = self._route_snapshot(key)
        result = None
        for position, name in enumerate(route):
            leg = command(self._backends[name],
                          self._shard_tid(session, name))
            self._record_key(session, name, key)
            if position == 0:
                result = leg
            else:
                self._count_dual(session.tid, key, name)
        self._dual_leg_if_moved(session, key, route, epoch)
        return result

    def qaread(self, key, tid):
        session = self._composite(tid, key)
        return self._fan_acquire(
            session, key, lambda backend, st: backend.qaread(key, st)
        )

    def qar(self, tid, key):
        session = self._composite(tid, key)
        return self._fan_acquire(
            session, key, lambda backend, st: backend.qar(st, key)
        )

    def qar_many(self, tid, keys):
        """Bulk invalidation ``QaR``: one batched acquisition per shard.

        Keys are grouped by owning shard in first-appearance order and
        each group goes out as one ``qar_many`` call (one ``qareg``
        round trip for a wire backend).  The sequential contract is
        preserved: an ``"abort"`` stops acquisition -- later shards'
        keys are never attempted and stay absent from the result -- and
        a shard that cannot be reached (including a failure minting its
        shard TID) marks all of its keys ``"unavailable"`` without
        stopping the healthy shards, mirroring per-key :meth:`qar`
        under degradation.
        """
        keys = list(keys)
        if not keys:
            return {}
        with self._lock:
            window = self._window
            epoch = self.ring.epoch
        if window is not None:
            # Dual-epoch window: fall back to the per-key loop so every
            # moving key acquires both owners' legs.  Costs the batched
            # round trip for the window's duration only.
            return LeaseBackend.qar_many(self, tid, keys)
        session = self._composite(tid, keys[0])
        by_shard = {}
        for key in keys:
            by_shard.setdefault(self.ring.node_for(key), []).append(key)
        results = {}
        granted_legs = []
        for name, shard_keys in by_shard.items():
            backend = self._backends[name]
            try:
                shard_tid = self._shard_tid(session, name)
            except CacheUnavailableError:
                for key in shard_keys:
                    results[key] = "unavailable"
                continue
            bulk = getattr(backend, "qar_many", None)
            try:
                if bulk is not None:
                    shard_results = bulk(shard_tid, shard_keys)
                else:
                    shard_results = LeaseBackend.qar_many(
                        backend, shard_tid, shard_keys
                    )
            except CacheUnavailableError:
                for key in shard_keys:
                    results[key] = "unavailable"
                continue
            aborted = False
            for key, status in shard_results.items():
                results[key] = status
                if status == "granted":
                    self._record_key(session, name, key)
                    granted_legs.append((key, name))
                elif status == "abort":
                    aborted = True
            if aborted:
                # Stop-at-first-reject across shards, like the
                # sequential loop: the session is about to restart, so
                # acquiring further shards' leases only to abort them
                # wastes round trips.
                break
        for key, name in granted_legs:
            # A window that opened (or flipped) mid-bulk missed these
            # keys; retroactively dual-leg each granted acquisition.
            self._dual_leg_if_moved(session, key, (name,), epoch)
        return results

    def iq_delta(self, tid, key, op, operand):
        session = self._composite(tid, key)
        return self._fan_acquire(
            session, key,
            lambda backend, st: backend.iq_delta(st, key, op, operand),
        )

    def sar(self, key, value, tid):
        session = self._lookup(tid)
        if session is None:
            # Parity with IQServer.sar: an unknown or retired session
            # holds no lease anywhere -- the write is ignored, and no
            # shard TID is minted on its behalf.
            return False
        return self._fan_acquire(
            session, key, lambda backend, st: backend.sar(key, value, st)
        )

    def propose_refresh(self, key, value, tid):
        session = self._lookup(tid)
        if session is None:
            return False
        return self._fan_acquire(
            session, key,
            lambda backend, st: backend.propose_refresh(key, value, st),
        )

    def poison(self, tid, key):
        """Mark ``key``'s shard so this session's leg there aborts.

        Called by the incremental-update client when a shard fails
        partway through a key's multi-delta proposal: the shard may hold
        only some of the deltas, and committing its TID would surface a
        value with the partial proposal applied.  The shrinking phase
        deletes the poisoned leg's keys and aborts its TID instead (see
        :meth:`_abort_poisoned`).  Returns False for an unknown session.

        During a rebalance window a moving key poisons both owners'
        legs -- either epoch's copy could be routed after the flip, so
        both must be deleted rather than committed.
        """
        session = self._lookup(tid)
        if session is None:
            return False
        for name in self._route(key):
            with session.lock:
                session.poisoned.add(name)
                # Recorded even when the failing command never reached
                # the shard: the key's cached value is stale once the
                # SQL commits, so the poisoned leg must delete it.
                session.keys_by_shard.setdefault(name, set()).add(key)
            if self._tracer.active:
                self._tracer.emit("shard.poison", key=key, tid=tid,
                                  shard=name)
        return True

    # -- shrinking phase: fan-out across touched shards ------------------------

    def _pop_composite(self, tid):
        with self._lock:
            return self._sessions.pop(tid, None)

    def _detach_shard(self, session, name):
        """One shard failed mid-shrinking-phase: journal only its keys.

        The shard's Q leases expire server-side and delete the keys
        (Section 4.2 condition 3); the journal repairs the alive-but-
        unreachable case once the shard is reachable again.
        """
        with session.lock:
            keys = sorted(session.keys_by_shard.get(name, ()))
        self.journal.add(keys)
        with self._lock:
            self.journaled_commit_keys += len(keys)

    def _shard_delete(self, name, key):
        backend = self._backends[name]
        delete = getattr(backend, "delete", None)
        if delete is None:
            delete = backend.store.delete
        return delete(key)

    def _abort_poisoned(self, session, name, shard_tid):
        """Delete-and-abort one poisoned shard leg.

        The shard may hold a partial delta proposal for this session,
        so its TID must never commit.  The keys are deleted first --
        while the Q leases are still held, so no reader can slip in
        between and observe the pre-commit value after the leases are
        gone -- then the abort releases the leases without applying
        anything.  If the shard is unreachable the keys are journaled
        instead: the leases expire server-side and delete the
        quarantined keys (Section 4.2 condition 3).
        """
        with session.lock:
            keys = sorted(session.keys_by_shard.get(name, ()))
        try:
            for key in keys:
                self._shard_delete(name, key)
            if shard_tid is not None:
                self._backends[name].abort(shard_tid)
        except CacheUnavailableError:
            self.journal.add(keys)
            with self._lock:
                self.journaled_commit_keys += len(keys)
        with self._lock:
            self.poisoned_shard_aborts += 1

    def _fan_out(self, legs, counter):
        """Run shrinking-phase leg closures, in parallel when allowed.

        Shard legs touch disjoint key state, so ordering between them is
        immaterial; parallelism kicks in only for multi-leg fan-outs
        under a multi-worker configuration.  The caller's ambient trace
        id is re-bound inside each pool thread so every leg's events
        stay attributed to the composite session's trace.  ``counter``
        names the router statistic credited with the parallel legs.
        """
        if len(legs) > 1 and self._fanout_workers > 1:
            trace_id = current_trace_id()
            if trace_id is not None:
                legs = [self._bind_trace(leg, trace_id) for leg in legs]
            results = self._pool().run(legs)
            with self._lock:
                setattr(self, counter, getattr(self, counter) + len(legs))
            return results
        return [leg() for leg in legs]

    @staticmethod
    def _bind_trace(leg, trace_id):
        def bound():
            with trace_context(trace_id):
                return leg()

        return bound

    def _pool(self):
        with self._lock:
            if self._fanout is None:
                self._fanout = _FanoutPool(self._fanout_workers)
            return self._fanout

    def _commit_leg(self, session, tid, name, shard_tid, is_poisoned,
                    tracing):
        """One shard's commit leg as a closure for :meth:`_fan_out`.

        Returns True when the shard applied its changes; poisoned and
        degraded legs return False after their respective cleanup
        (delete-and-abort, or journal-and-detach).
        """

        def leg():
            if is_poisoned:
                if tracing:
                    self._tracer.emit("shard.commit.leg", tid=tid, shard=name,
                                      outcome="poisoned")
                self._abort_poisoned(session, name, shard_tid)
                return False
            try:
                self._backends[name].commit(shard_tid)
            except CacheUnavailableError:
                with self._lock:
                    self.degraded_shard_commits += 1
                if tracing:
                    self._tracer.emit("shard.commit.leg", tid=tid, shard=name,
                                      outcome="degraded")
                self._detach_shard(session, name)
                return False
            if tracing:
                self._tracer.emit("shard.commit.leg", tid=tid, shard=name,
                                  outcome="applied")
            return True

        return leg

    def commit(self, tid):
        session = self._pop_composite(tid)
        if session is None:
            return True
        with session.lock:
            touched = sorted(session.shard_tids.items())
            poisoned = set(session.poisoned)
        legs = list(touched)
        for name in sorted(poisoned.difference(n for n, _ in touched)):
            # The shard failed before its TID was even minted; it holds
            # no leases or proposals, but its cached keys are stale now
            # that the SQL has committed.
            legs.append((name, None))
        tracing = self._tracer.active
        closures = [
            self._commit_leg(session, tid, name, shard_tid,
                             name in poisoned, tracing)
            for name, shard_tid in legs
        ]
        return all(self._fan_out(closures, "parallel_commit_legs"))

    def _abort_leg(self, tid, name, shard_tid, tracing):
        def leg():
            try:
                self._backends[name].abort(shard_tid)
            except CacheUnavailableError:
                # The shard's leases expire on their own; nothing is
                # applied either way, so no journaling is needed.
                with self._lock:
                    self.degraded_shard_aborts += 1
                if tracing:
                    self._tracer.emit("shard.abort.leg", tid=tid, shard=name,
                                      outcome="degraded")
                return False
            if tracing:
                self._tracer.emit("shard.abort.leg", tid=tid, shard=name,
                                  outcome="released")
            return True

        return leg

    def abort(self, tid):
        session = self._pop_composite(tid)
        if session is None:
            return True
        tracing = self._tracer.active
        with session.lock:
            touched = sorted(session.shard_tids.items())
        closures = [
            self._abort_leg(tid, name, shard_tid, tracing)
            for name, shard_tid in touched
        ]
        return all(self._fan_out(closures, "parallel_abort_legs"))

    # -- plumbing ---------------------------------------------------------------

    def mdelete(self, keys):
        """Bulk delete routed by shard; returns the total hit count.

        During a rebalance window a moving key is deleted on both its
        current and pending owner -- so a reconcile pass that races the
        flip can never leave the soon-to-be-routed copy standing -- but
        counted as at most one hit, keeping the count comparable to the
        number of keys passed.
        """
        keys = list(keys)
        if not keys:
            return 0
        by_shard = {}
        dual = []
        for key in keys:
            route = self._route(key)
            if len(route) == 1:
                by_shard.setdefault(route[0], []).append(key)
            else:
                dual.append((key, route))
        hits = 0
        for name, shard_keys in by_shard.items():
            backend = self._backends[name]
            bulk = getattr(backend, "mdelete", None)
            if bulk is not None:
                hits += bulk(shard_keys)
                continue
            for key in shard_keys:
                if self._shard_delete(name, key):
                    hits += 1
        for key, route in dual:
            # Both legs are always deleted; the list keeps any() from
            # short-circuiting past the second owner.
            legs = [bool(self._shard_delete(name, key)) for name in route]
            if any(legs):
                hits += 1
        return hits

    def _router_counters(self):
        """Router-level fan-out counters for the merged stats view."""
        with self._lock:
            return {
                "parallel_commit_legs": self.parallel_commit_legs,
                "parallel_abort_legs": self.parallel_abort_legs,
                "ring_epoch": self.ring.epoch,
                "migrations": self.migrations,
                "dual_acquisitions": self.dual_acquisitions,
                "replica_promotions": self.replica_promotions,
            }

    @property
    def stats(self):
        """A merged read-only view over every shard's counters.

        Besides the per-shard sums, the view carries the router's own
        fan-out counters (:attr:`parallel_commit_legs` /
        :attr:`parallel_abort_legs`) as an extra callable source.
        """
        sources = []
        for name in self.shard_names:
            stats = getattr(self._backends[name], "stats", None)
            if stats is not None:
                sources.append(stats)
        sources.append(self._router_counters)
        return MergedCacheStats(sources)

    def shard_stats(self):
        """Per-shard counter snapshots, keyed by shard name."""
        view = {}
        for name in self.shard_names:
            stats = getattr(self._backends[name], "stats", None)
            if stats is None:
                continue
            view[name] = MergedCacheStats([stats]).snapshot()
        return view

    def reconcile_local(self):
        """Delete locally-journaled keys (journal-less backends) by routing.

        Returns the number of keys deleted; keys whose shard is still
        unreachable are re-journaled for the next pass.
        """
        keys = self.journal.drain_local()
        done = 0
        for index, key in enumerate(keys):
            try:
                # Both owners during a rebalance window: the journaled
                # key may be stale on either epoch's shard.
                for name in self._route(key):
                    self._shard_delete(name, key)
            except CacheUnavailableError:
                self.journal.add(keys[index:])
                break
            done += 1
        return done

    def flush_all(self):
        """Flush every shard and retire every composite session.

        The watermark advances to the last composite TID minted before
        the flush, so a pre-flush session resurfacing afterwards with a
        growing-phase command aborts instead of minting fresh post-flush
        shard TIDs -- composite TIDs cannot leak across flushes any more
        than direct-server TIDs can.
        """
        with self._lock:
            self._sessions.clear()
            self._tid_watermark = self._tids.last
        for name in self.shard_names:
            self._backends[name].flush_all()
        return True

    def close(self):
        """Close any shard backends that hold connections + the pool."""
        with self._lock:
            pool, self._fanout = self._fanout, None
        if pool is not None:
            pool.close()
        for name in self.shard_names:
            close = getattr(self._backends[name], "close", None)
            if close is not None:
                close()
