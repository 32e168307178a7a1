"""The model checker's world: one fresh environment per explored schedule.

Stateless model checking re-executes the system from its initial state
once per schedule, so everything a schedule can touch lives behind one
:class:`World`: a fresh in-process RDBMS, a fresh cache tier (unleased
:class:`~repro.kvs.read_lease.ReadLeaseStore` baseline, a single
:class:`~repro.core.iq_server.IQServer`, or a 2+-shard
:class:`~repro.sharding.ShardedIQServer`), deterministic logical time,
and the bookkeeping the oracles need (committed-value history, observed
reads, per-program flags).

**Fingerprints.**  :meth:`World.fingerprint` summarizes the shared state
-- committed SQL rows, per-shard KVS contents, lease tables, server-side
session state, journals, fault state, observations -- normalized so that
incidental identifiers (TIDs, lease token numbers) minted in different
orders by equivalent schedules cannot distinguish equivalent states.
TIDs are rewritten to the *program names* that own them via
:meth:`bind_tid`.  The fingerprint also carries the :attr:`gate`'s
per-program call-result histories and flight registries, and the
explorer adds each program's label history, which is what makes
fingerprint deduplication sound: two prefixes with equal fingerprints
have run the same per-program histories against the same shared state,
so every continuation of a client that is deterministic given its call
results behaves identically (``tests/mc`` verifies this by replaying
deduped states both ways).

**Faults as schedule steps.**  A world can carry fault controls that a
fault pseudo-program flips at its own schedule step: shard gates
(:class:`GatedShard`) that make a shard unreachable, an armed
:class:`~repro.faults.injector.FaultInjector` whose ``server.lease.void``
SUPPRESS rule only fires once :meth:`arm_fault` has run, and logical
clock jumps that expire leases.  Fault *delivery* thereby becomes an
explorable interleaving step routed through the real ``repro.faults``
hook sites.
"""

from repro.config import LeaseConfig
from repro.core.iq_server import IQServer
from repro.errors import CacheUnavailableError
from repro.mc.gate import Gate
from repro.faults.injector import (
    SITE_LEASE_VOID,
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.kvs.read_lease import ReadLeaseStore
from repro.obs.trace import get_tracer
from repro.sharding import ShardedIQServer
from repro.sql.engine import Database
from repro.util.clock import LogicalClock

__all__ = ["World", "GatedShard"]


class GatedShard:
    """An in-process shard whose commands can be made unreachable.

    Like the ``FlakyShard`` harness of ``tests/sharding`` but switchable
    from a *schedule step*: ``down`` fails every command, and
    ``fail_after[command] = k`` lets the first ``k`` calls of one
    command through before failing later ones -- the partial-proposal
    shape.  Everything else passes through to the wrapped
    :class:`IQServer`.
    """

    _COMMANDS = (
        "gen_id", "iq_get", "iq_mget", "iq_set", "release_i", "qaread",
        "sar", "propose_refresh", "qar", "qar_many", "iq_delta",
        "commit", "abort", "flush_all", "cget", "cset",
    )

    def __init__(self, server):
        self.server = server
        self.down = False
        self.fail_after = {}
        self._calls = {}

    def _gate(self, name):
        if self.down:
            raise CacheUnavailableError("shard down ({})".format(name))
        limit = self.fail_after.get(name)
        if limit is not None and self._calls.get(name, 0) >= limit:
            raise CacheUnavailableError("{} unreachable".format(name))
        self._calls[name] = self._calls.get(name, 0) + 1

    def __getattr__(self, name):
        if name in self._COMMANDS:
            server_method = getattr(self.server, name)

            def gated(*args, __name=name, __method=server_method, **kwargs):
                self._gate(__name)
                return __method(*args, **kwargs)

            return gated
        return getattr(self.server, name)

    def delete(self, key):
        """Router-visible delete; unreachable while the shard is down.

        Without this the router's poisoned-leg/reconcile deletes would
        fall through to ``store.delete`` and silently succeed against a
        "dead" shard.
        """
        self._gate("delete")
        return self.server.store.delete(key)

    def fault_state(self):
        return (self.down, tuple(sorted(self.fail_after.items())),
                tuple(sorted(self._calls.items())))


class World:
    """One fresh, fully deterministic execution environment.

    ``keys`` is the closed key universe of the scenario; key ``i`` maps
    to row ``i+1`` of the ``items`` table.  ``backend`` selects the
    cache tier: ``"baseline"`` (unleased read-lease store), ``"iq"``
    (one IQ server), or ``"sharded"`` (``shards`` gated IQ servers
    behind a consistent-hash router).
    """

    def __init__(self, keys=("k0",), backend="iq", shards=2, spare_shards=0,
                 serve_pending=True, text_values=False, lease_ttl=1000.0,
                 suppressible_void=False):
        self.keys = tuple(keys)
        self.kind = backend
        self.text_values = text_values
        self.clock = LogicalClock()
        self.lease_ttl = lease_ttl
        self.db = Database()
        self._setup_rows = {}
        self.shard_gates = {}
        self.spare_gates = {}
        self.fault_injector = None
        self._fault_armed = False
        self._fault_log = []
        lease_config = LeaseConfig(
            i_lease_ttl=lease_ttl, q_lease_ttl=lease_ttl,
            serve_pending_versions=serve_pending,
        )
        if backend == "baseline":
            self.backend = ReadLeaseStore(
                lease_config=lease_config, clock=self.clock
            )
            self.servers = {}
        elif backend == "iq":
            server = IQServer(lease_config=lease_config, clock=self.clock)
            if suppressible_void:
                self._arm_suppressible_void([server])
            self.backend = server
            self.servers = {"iq": server}
        elif backend == "sharded":
            total = shards + spare_shards
            servers = [
                IQServer(lease_config=lease_config, clock=self.clock)
                for _ in range(total)
            ]
            if suppressible_void:
                self._arm_suppressible_void(servers)
            gates = [GatedShard(server) for server in servers]
            # Serial fan-out: a schedule must replay deterministically,
            # so the router's shrinking phase may not spawn pool threads.
            self.backend = ShardedIQServer(gates[:shards], fanout_workers=0)
            names = list(self.backend.shard_names) + [
                "shard{}".format(i) for i in range(shards, total)
            ]
            self.shard_gates = dict(zip(names, gates))
            self.servers = dict(zip(names, servers))
            # Spare gated shards for rebalance scenarios: fully built but
            # not yet joined to the ring -- a migration program hands one
            # to Rebalancer.steps_add at an explored schedule point.
            self.spare_gates = dict(zip(names[shards:], gates[shards:]))
        else:
            raise ValueError("unknown backend {!r}".format(backend))
        #: program name -> ordered (kind, key, value) observations
        self.observations = {}
        #: key -> every value the RDBMS ever committed for it
        self.committed_history = {}
        #: free-form per-scenario flags (e.g. "sql_committed:W1")
        self.flags = {}
        #: (server name, tid) -> owning program name.  Keyed per server
        #: because every shard mints TIDs from its own generator, so the
        #: raw integers collide across shards.
        self._tid_owner = {}
        self._trace_ids = {}
        self._tracer = get_tracer()
        self._create_schema()
        #: the proxies gate programs see the world through
        self.gate = Gate(self)

    # -- faults ----------------------------------------------------------------

    def _arm_suppressible_void(self, servers):
        """Install a gated SUPPRESS rule at the ``server.lease.void`` site.

        The rule's ``match`` predicate keeps it cold until
        :meth:`arm_fault` flips the gate from a fault program's schedule
        step, so the protocol hole opens at an *explored* point in the
        interleaving, delivered through the real injector hook.
        """
        plan = FaultPlan([FaultRule(
            SITE_LEASE_VOID, FaultAction.SUPPRESS,
            match=lambda ctx: self._fault_armed, count=None,
            label="mc-suppress-i-void",
        )])
        self.fault_injector = FaultInjector(plan, seed=0, clock=self.clock)
        for server in servers:
            server.leases.fault_injector = self.fault_injector

    def arm_fault(self, label="fault"):
        """Open the gated injector rule (fault program step)."""
        self._fault_armed = True
        self._fault_log.append(label)

    def kill_shard(self, name, label=None):
        """Make one shard unreachable (fault program step)."""
        self.shard_gates[name].down = True
        self._fault_log.append(label or "kill:{}".format(name))

    def heal_shard(self, name, label=None):
        self.shard_gates[name].down = False
        self._fault_log.append(label or "heal:{}".format(name))

    def expire_leases(self, label="expire-leases"):
        """Jump past every lease TTL and sweep (frozen-holder fault)."""
        self.clock.advance(self.lease_ttl + 1.0)
        for server in self.servers.values():
            server.leases.sweep_expired()
        self._fault_log.append(label)

    # -- schema / SQL helpers --------------------------------------------------

    def _create_schema(self):
        value_type = "TEXT" if self.text_values else "INTEGER"
        connection = self.db.connect()
        connection.execute(
            "CREATE TABLE items (id INTEGER PRIMARY KEY, val {})".format(
                value_type
            )
        )
        connection.close()

    def row_id(self, key):
        return self.keys.index(key) + 1

    def seed(self, key, value):
        """Install an initial committed row + cached value for ``key``."""
        connection = self.db.connect()
        connection.execute(
            "INSERT INTO items (id, val) VALUES (?, ?)",
            (self.row_id(key), value),
        )
        connection.close()
        self.committed_history.setdefault(key, set()).add(value)
        encoded = str(value).encode()
        if self.kind == "baseline":
            self.backend.set(key, encoded)
        elif self.kind == "iq":
            self.backend.store.set(key, encoded)
        else:
            self.backend.shard_for(key).store.set(key, encoded)

    def seed_db_only(self, key, value):
        """Committed row without a cached value (cold-cache scenarios)."""
        connection = self.db.connect()
        connection.execute(
            "INSERT INTO items (id, val) VALUES (?, ?)",
            (self.row_id(key), value),
        )
        connection.close()
        self.committed_history.setdefault(key, set()).add(value)

    def query_committed(self, key):
        """The latest committed value of ``key`` (fresh connection)."""
        connection = self.db.connect()
        try:
            return connection.query_scalar(
                "SELECT val FROM items WHERE id = ?", (self.row_id(key),)
            )
        finally:
            connection.close()

    def record_commit(self):
        """Fold the now-committed values into the per-key history."""
        for key in self.keys:
            value = self.query_committed(key)
            if value is not None:
                self.committed_history.setdefault(key, set()).add(value)

    # -- program bookkeeping ---------------------------------------------------

    def new_trace_id(self, program):
        trace_id = self._tracer.new_trace()
        self._trace_ids[program] = trace_id
        return trace_id

    def bind_tid(self, program, tid, server=None):
        """Map a minted TID to its owning program (fingerprint aliasing).

        ``server`` defaults to the front door the program called
        ``gen_id`` on: the router for a sharded world, the lone server
        otherwise.  Shard-level TIDs minted lazily by the router are
        aliased automatically (:meth:`_sync_shard_tid_aliases`).
        """
        if server is None:
            server = "router" if self.kind == "sharded" else "iq"
        self._tid_owner[(server, tid)] = program

    def owner_of(self, server, tid):
        return self._tid_owner.get((server, tid), "?tid{}".format(tid))

    def _sync_shard_tid_aliases(self):
        """Propagate composite-TID ownership to lazily minted shard TIDs.

        Called before every snapshot, i.e. after every explored step, so
        shard-level sessions stay attributable even after the router
        pops its composite session at commit/abort.
        """
        if self.kind != "sharded":
            return
        with self.backend._lock:
            sessions = list(self.backend._sessions.items())
        for tid, session in sessions:
            owner = self.owner_of("router", tid)
            with session.lock:
                shard_tids = dict(session.shard_tids)
            for shard_name, shard_tid in shard_tids.items():
                self._tid_owner[(shard_name, shard_tid)] = owner

    def observe(self, program, kind, key, value):
        """Record a value a program read (cache hit, lease fill, qaread)."""
        if isinstance(value, (bytes, bytearray)):
            value = value.decode("utf-8", "replace")
        self.observations.setdefault(program, []).append((kind, key, value))

    def cache_reads(self, program=None):
        """Every ``(program, key, value)`` served from the cache tier."""
        reads = []
        for name, entries in sorted(self.observations.items()):
            if program is not None and name != program:
                continue
            for kind, key, value in entries:
                if kind == "cache":
                    reads.append((name, key, value))
        return reads

    # -- state snapshots -------------------------------------------------------

    def _store_of(self, shard_name):
        if self.kind == "baseline":
            return self.backend.store
        if self.kind == "iq":
            return self.backend.store
        return self.servers[shard_name].store

    def kvs_contents(self):
        """{key: decoded cached value or None} over the key universe."""
        contents = {}
        for key in self.keys:
            if self.kind == "sharded":
                store = self.servers[self.backend.shard_name_for(key)].store
            else:
                store = self.backend.store
            hit = store.get(key)
            contents[key] = (
                None if hit is None else hit[0].decode("utf-8", "replace")
            )
        return contents

    def sql_contents(self):
        """{key: committed value} over the key universe."""
        return {key: self.query_committed(key) for key in self.keys}

    def interval_stamps(self):
        """{key: (valid_from, valid_until) or None} on the owner store.

        The precise-clock validity stamps (:meth:`~repro.kvs.store.
        CacheStore.interval_of`): what a future ``cget`` would consult.
        """
        stamps = {}
        for key in self.keys:
            if self.kind == "sharded":
                store = self.servers[self.backend.shard_name_for(key)].store
            else:
                store = self.backend.store
            stamps[key] = store.interval_of(key)
        return stamps

    def _clock_snapshot(self):
        """Clock state: sequence, key clocks, horizons, interval stamps.

        All three decide future behaviour -- a validity interval decides
        whether a later ``cget`` serves or self-invalidates, a live
        horizon decides where the next clock-keyed commit's sequence
        lands -- so equivalent prefixes must agree on them.
        """
        txmanager = self.db.txmanager
        return (
            txmanager.current_commit_seq(),
            txmanager.key_clock_snapshot(),
            txmanager.horizon_snapshot(),
            tuple(sorted(self.interval_stamps().items())),
        )

    def _kvs_versions(self):
        """{key: cas id or None} -- a held ``gets`` token's validity is
        part of the shared state (it decides a future ``cas``), so the
        fingerprint must distinguish entries re-set under a new id."""
        versions = {}
        for key in self.keys:
            if self.kind == "sharded":
                store = self.servers[self.backend.shard_name_for(key)].store
            else:
                store = self.backend.store
            hit = store.gets(key)
            versions[key] = None if hit is None else hit[2]
        return versions

    def _topology_snapshot(self):
        """Ring epoch + open rebalance window, part of the shared state.

        Two states that agree on every store but differ in routing --
        mid-window vs flipped -- must not dedup: every continuation
        routes differently.
        """
        if self.kind != "sharded":
            return ()
        window = self.backend._window
        pending = () if window is None else (
            window.joining, window.leaving, window.target.epoch,
        )
        return (self.backend.epoch, tuple(self.backend.shard_names), pending)

    def _per_shard_contents(self):
        """Every shard's copy of every key, including unrouted residuals.

        :meth:`kvs_contents` is the *owner's-eye* view the oracles check;
        during a migration the destination's shadow copy (and any stale
        residual on a non-owner) is invisible there, yet it decides what
        a post-flip read returns -- so the fingerprint must carry the
        whole grid.
        """
        if self.kind != "sharded":
            return ()
        snapshot = []
        for name in sorted(self.servers):
            store = self.servers[name].store
            for key in self.keys:
                hit = store.get(key)
                if hit is not None:
                    snapshot.append((name, key, bytes(hit[0])))
        return tuple(snapshot)

    def journaled_keys(self):
        if self.kind == "sharded":
            return set(self.backend.journal.peek())
        journal = getattr(self.backend, "journal", None)
        return set(journal.peek()) if journal is not None else set()

    def _lease_snapshot(self):
        snapshot = []
        if self.kind == "baseline":
            for key in self.keys:
                snapshot.append(
                    (key, self.backend.lease_outstanding(key), ())
                )
            return tuple(snapshot)
        self._sync_shard_tid_aliases()
        for server_name in sorted(self.servers):
            server = self.servers[server_name]
            for key in self.keys:
                has_i, q_tids = server.leases.leases_on(key)
                holders = tuple(sorted(
                    self.owner_of(server_name, t) for t in q_tids
                ))
                if has_i or holders:
                    snapshot.append((server_name, key, has_i, holders))
        return tuple(snapshot)

    def _session_snapshot(self):
        """Server-side session state, normalized tid -> program name."""
        snapshot = []
        self._sync_shard_tid_aliases()
        for server_name in sorted(self.servers):
            server = self.servers[server_name]
            with server._lock:
                states = list(server._sessions.items())
            for tid, state in sorted(
                states, key=lambda item: self.owner_of(server_name, item[0])
            ):
                deltas = tuple(sorted(
                    (key, tuple(ops)) for key, ops in state.deltas.items()
                ))
                refreshed = tuple(sorted(
                    (key, bytes(value)) for key, value in
                    state.refreshed.items()
                ))
                snapshot.append((
                    server_name, self.owner_of(server_name, tid),
                    tuple(sorted(state.q_keys)),
                    tuple(sorted(state.invalidated)),
                    deltas, refreshed,
                ))
        if self.kind == "sharded":
            with self.backend._lock:
                sessions = list(self.backend._sessions.items())
            for tid, session in sorted(
                sessions, key=lambda item: self.owner_of("router", item[0])
            ):
                with session.lock:
                    snapshot.append((
                        "router", self.owner_of("router", tid),
                        tuple(sorted(session.shard_tids)),
                        tuple(sorted(
                            (name, tuple(sorted(keys)))
                            for name, keys in session.keys_by_shard.items()
                        )),
                        tuple(sorted(session.poisoned)),
                    ))
        return tuple(snapshot)

    def fingerprint(self):
        """Canonical summary of all shared state (see module docstring)."""
        observations = tuple(
            (name, tuple(entries))
            for name, entries in sorted(self.observations.items())
        )
        history = tuple(
            (key, tuple(sorted(str(v) for v in values)))
            for key, values in sorted(self.committed_history.items())
        )
        fault_state = (
            self._fault_armed,
            tuple(self._fault_log),
            tuple(
                (name, gate.fault_state())
                for name, gate in sorted(self.shard_gates.items())
            ),
        )
        return (
            tuple(sorted(self.sql_contents().items())),
            tuple(sorted(self.kvs_contents().items())),
            tuple(sorted(self._kvs_versions().items())),
            self._per_shard_contents(),
            self._topology_snapshot(),
            self._lease_snapshot(),
            self._session_snapshot(),
            tuple(sorted(self.journaled_keys())),
            observations,
            history,
            tuple(sorted(self.flags.items())),
            fault_state,
            round(self.clock.now(), 6),
            self._clock_snapshot(),
            self.gate.fingerprint(),
        )
