"""Cache statistics, mirroring the counters memcached exposes via ``stats``.

The counters are plain ints.  Each lock that guards cache state -- a
store stripe, a lease-table stripe, the IQ server's session lock, an
event loop's thread -- owns one :class:`Counts` cell and bumps it under
that lock, so a hit pays two attribute increments and no lock of its
own.  :class:`CacheStats` sums the cells when read, and mirrors the sums
into a :class:`repro.obs.registry.MetricsRegistry` only at export.
"""

import threading

from repro.obs.registry import MetricsRegistry

COUNTERS = (
    "get_hits",
    "get_misses",
    "cmd_get",
    "cmd_set",
    "cas_hits",
    "cas_misses",
    "cas_badval",
    "delete_hits",
    "delete_misses",
    "incr_hits",
    "incr_misses",
    "decr_hits",
    "decr_misses",
    "evictions",
    "expirations",
    "total_items",
    # Lease protocol counters (IQ framework / read leases):
    "i_lease_grants",
    "i_lease_voids",
    "q_lease_grants",
    "q_lease_rejects",
    "lease_backoffs",
    "lease_aborts",
    "lease_expirations",
    "ignored_sets",
    # Batching / pipelining counters (PR 5):
    "pipelined_commands",
    "batched_qar_grants",
    # Event-loop transport counters (PR 7):
    "evloop_connections",
    "evloop_flushes",
    "evloop_overflow_closes",
    # Precise-clock self-invalidation counters (PR 8): hits served
    # inside a validity interval vs entries lazily dropped because
    # the commit clock passed their bound, plus dynamic extensions
    # and fills refused in favour of a longer-lived interval.
    "cmd_cget",
    "cmd_cset",
    "interval_hits",
    "interval_expiries",
    "interval_extensions",
    "interval_ignored_sets",
)


class Counts:
    """One lock's worth of counters: an int attribute per name in
    :data:`COUNTERS`, bumped only under the lock of the code that owns
    the cell."""

    __slots__ = COUNTERS

    def __init__(self):
        for name in COUNTERS:
            setattr(self, name, 0)


class CacheStats:
    """Monotonic counters for cache activity, summed over cells.

    The counter names follow memcached's ``stats`` output where an
    equivalent exists (``get_hits``, ``get_misses``, ``evictions`` ...) and
    add lease-protocol counters used by the evaluation (``lease_backoffs``,
    ``lease_aborts``).

    Each instance is one stats domain (one server, matching a memcached
    process).  Components that bump counters on a hot path take a
    :meth:`cell` each; :meth:`incr` serves everyone else under the
    instance's own lock.
    """

    COUNTERS = COUNTERS

    def __init__(self):
        self._cells = []
        self._lock = threading.Lock()
        self._own = self.cell()

    def cell(self):
        """A fresh zeroed :class:`Counts`, included in every read from
        now on.  The caller bumps it only under one lock of its own."""
        cell = Counts()
        self._cells.append(cell)
        return cell

    def incr(self, name, amount=1):
        """Increment counter ``name`` by ``amount``."""
        own = self._own
        with self._lock:
            setattr(own, name, getattr(own, name) + amount)

    def get(self, name):
        """Read a single counter."""
        return sum(getattr(cell, name) for cell in self._cells)

    def snapshot(self):
        """Return a point-in-time copy of all counters."""
        cells = list(self._cells)
        return {
            name: sum(getattr(cell, name) for cell in cells)
            for name in COUNTERS
        }

    def export(self):
        """A fresh :class:`MetricsRegistry` holding every counter as
        ``cache_<name>``: the Prometheus view, built when asked for."""
        registry = MetricsRegistry()
        for name, value in self.snapshot().items():
            registry.counter("cache_" + name).inc(value)
        return registry

    def hit_rate(self):
        """Fraction of ``get`` commands that hit, or ``None`` if no gets."""
        total = self.get("cmd_get")
        if total == 0:
            return None
        return self.get("get_hits") / total


class MergedCacheStats:
    """Read-only aggregate view over several shards' counters.

    ``sources`` may mix :class:`CacheStats` instances (in-process
    shards) and zero-argument callables returning counter dicts (the
    ``stats()`` method of a networked backend).  Counters are summed at
    read time, so the view is always live; a source that is currently
    unreachable contributes nothing rather than failing the whole view.

    Besides the per-shard :attr:`CacheStats.COUNTERS`, the snapshot
    always carries the router-level fan-out counters (parallel
    commit/abort legs) so batch observability does not depend on which
    sources happen to be reachable.
    """

    #: Router-level counters always present in a merged snapshot, even
    #: when no source reports them (single shard, serial fan-out).
    ROUTER_COUNTERS = (
        "parallel_commit_legs",
        "parallel_abort_legs",
    )

    def __init__(self, sources):
        self._sources = list(sources)

    def snapshot(self):
        """Point-in-time sum of every reachable source's counters."""
        from repro.errors import CacheUnavailableError

        merged = {name: 0 for name in CacheStats.COUNTERS}
        for name in self.ROUTER_COUNTERS:
            merged[name] = 0
        for source in self._sources:
            try:
                counts = source() if callable(source) else source.snapshot()
            except CacheUnavailableError:
                continue
            for name, value in counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def get(self, name):
        return self.snapshot().get(name, 0)

    def hit_rate(self):
        snapshot = self.snapshot()
        total = snapshot.get("cmd_get", 0)
        if total == 0:
            return None
        return snapshot.get("get_hits", 0) / total
