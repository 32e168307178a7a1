"""The cache store: memcached command semantics over a hash table + LRU.

Each public method is one memcached command and executes atomically under
its key's stripe lock, exactly matching the per-command atomicity a
memcached server provides.  Anything *across* commands -- the
read-modify-write of Figure 1b, a session's invalidations -- is **not**
atomic, which is precisely the gap the paper's IQ framework closes.

The table is split over ``config.stripe_count`` hash stripes, each with
its own reentrant lock, hash table, LRU list, and slab accounting, so
concurrent commands on keys in different stripes never contend.
Whole-store operations (``flush_all``, :meth:`locked`) acquire every
stripe in fixed index order -- the one global ordering that makes the
all-stripes path deadlock-free against itself and reentrant against the
per-key path.  A store with ``memory_limit_bytes`` set collapses to a
single stripe: LRU eviction keeps one exact global recency order
instead of approximating it with per-stripe budgets.
"""

import enum
import re
import threading

from repro.config import KVSConfig
from repro.errors import BadValueError, KeyFormatError, ValueTooLargeError
from repro.kvs.entry import CacheEntry
from repro.kvs.lru import LRUList
from repro.kvs.slab import SlabClassTable
from repro.kvs.stats import CacheStats
from repro.obs.trace import get_tracer
from repro.util.clock import SystemClock

#: memcached caps incr/decr values at 2**64 - 1 and wraps increments.
_UINT64_MASK = (1 << 64) - 1

#: First character a key may not hold: whitespace (what ``str.isspace``
#: calls whitespace, which is what ``\s`` matches) or anything below 0x21.
_BAD_KEY_CHAR = re.compile(r"[\s\x00-\x20]").search


class StoreResult(enum.Enum):
    """Outcome of a storage command, mirroring the wire protocol replies."""

    STORED = "STORED"
    NOT_STORED = "NOT_STORED"
    EXISTS = "EXISTS"
    NOT_FOUND = "NOT_FOUND"


class ClockGetResult:
    """Outcome of a ``cget`` (interval read, precise-clock technique).

    ``expired`` distinguishes a self-invalidation (the entry existed but
    the commit clock passed its validity bound, so it was dropped) from
    a plain miss; ``extended`` reports that a dynamic-extension request
    pushed the stored expiry forward.
    """

    __slots__ = ("value", "flags", "valid_from", "valid_until", "expired",
                 "extended")

    def __init__(self, value=None, flags=0, valid_from=None,
                 valid_until=None, expired=False, extended=False):
        self.value = value
        self.flags = flags
        self.valid_from = valid_from
        self.valid_until = valid_until
        self.expired = expired
        self.extended = extended

    @property
    def is_hit(self):
        return self.value is not None

    def __repr__(self):
        return ("ClockGetResult(value={!r}, interval=[{}, {}), expired={}"
                ", extended={})").format(
            self.value, self.valid_from, self.valid_until, self.expired,
            self.extended,
        )


class _Stripe:
    """One lock's worth of store state: table + LRU + slab accounting.

    CAS identifiers are per stripe; a key never changes stripes, so the
    memcached contract (every mutation of a key yields a fresh cas id,
    compare-and-swap detects any interleaved change) holds exactly.
    ``counts`` is the stripe's cell of the store's
    :class:`~repro.kvs.stats.CacheStats`, bumped under ``lock``.
    """

    __slots__ = ("lock", "table", "lru", "slabs", "memory_used",
                 "cas_counter", "counts")

    def __init__(self, max_chunk, counts):
        self.lock = threading.RLock()
        self.table = {}
        self.lru = LRUList()
        self.slabs = SlabClassTable(max_chunk=max_chunk)
        self.memory_used = 0
        self.cas_counter = 0
        self.counts = counts


class _AllStripes:
    """Reentrant whole-store lock: every stripe, in fixed index order."""

    __slots__ = ("_stripes",)

    def __init__(self, stripes):
        self._stripes = stripes

    def __enter__(self):
        for stripe in self._stripes:
            stripe.lock.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        for stripe in reversed(self._stripes):
            stripe.lock.release()
        return False

    # threading.RLock duck-typing for callers that acquire explicitly.
    def acquire(self):
        self.__enter__()

    def release(self):
        self.__exit__(None, None, None)


class CacheStore:
    """Thread-safe in-memory cache with Twemcache semantics.

    Values are ``bytes``.  ``incr``/``decr`` interpret the value as an ASCII
    unsigned decimal, per memcached.  ``cas`` identifiers are unique per
    mutation.  When ``config.memory_limit_bytes`` is set, storing a new item
    evicts least-recently-used entries (charged at slab-chunk granularity)
    until the item fits.
    """

    def __init__(self, config=None, clock=None, stats=None):
        self.config = config or KVSConfig()
        self.clock = clock or SystemClock()
        #: One :class:`CacheStats` over every stripe: each stripe bumps its
        #: own cell under its own lock, and reads sum the cells.
        self.stats = stats or CacheStats()
        max_chunk = self.config.max_item_bytes + 512
        count = max(1, int(getattr(self.config, "stripe_count", 1) or 1))
        if self.config.memory_limit_bytes is not None:
            count = 1
        self._stripes = tuple(
            _Stripe(max_chunk, self.stats.cell()) for _ in range(count)
        )
        self._stripe_mask = count - 1 if count & (count - 1) == 0 else None
        self._all = _AllStripes(self._stripes)
        #: Called with the evicted/expired entry; the IQ server hooks this
        #: to drop leases attached to keys that vanish underneath them.
        self.on_entry_removed = None
        #: Called with ``(key, value)`` after every store/replace --
        #: including arithmetic rewrites.  Warm replicas tail this to
        #: mirror the owner's values.
        self.on_entry_stored = None
        #: Optional :class:`repro.faults.FaultInjector`; arms the
        #: ``store.get``/``store.set``/``store.delete`` sites (temporal
        #: faults: a slow or frozen cache node).  ``None`` costs one
        #: attribute check per command.
        self.fault_injector = None
        self._tracer = get_tracer()

    @property
    def stripe_count(self):
        """Number of lock stripes actually in effect."""
        return len(self._stripes)

    def _stripe_for(self, key):
        if self._stripe_mask is not None:
            return self._stripes[hash(key) & self._stripe_mask]
        return self._stripes[hash(key) % len(self._stripes)]

    # -- validation --------------------------------------------------------

    def _check_key(self, key):
        if not isinstance(key, str) or not key:
            raise KeyFormatError("key must be a non-empty str")
        if len(key) > self.config.max_key_length:
            raise KeyFormatError(
                "key exceeds {} characters".format(self.config.max_key_length)
            )
        if _BAD_KEY_CHAR(key) is not None:
            raise KeyFormatError("key contains whitespace/control characters")

    def _check_value(self, value):
        if not isinstance(value, bytes):
            raise BadValueError("values must be bytes, got {}".format(type(value)))
        if len(value) > self.config.max_item_bytes:
            raise ValueTooLargeError(
                "value of {} bytes exceeds limit of {}".format(
                    len(value), self.config.max_item_bytes
                )
            )

    # -- internal helpers (caller holds the stripe lock) ---------------------

    def _next_cas(self, stripe):
        stripe.cas_counter += 1
        return stripe.cas_counter

    def _expiry_for(self, ttl):
        if ttl is None:
            ttl = self.config.default_ttl
        if not ttl:
            return 0.0
        return self.clock.now() + ttl

    def _lookup_live(self, stripe, key):
        """Return the live entry for ``key``, expiring it lazily if stale."""
        entry = stripe.table.get(key)
        if entry is not None and entry.expires_at:
            if self._expire_due(stripe, entry):
                return None
        return entry

    def _expire_due(self, stripe, entry):
        """Drop ``entry``, which carries a TTL, if the TTL has elapsed;
        True when it did.  Only entries with a TTL cost a clock read."""
        if self.clock.now() < entry.expires_at:
            return False
        self._unlink(stripe, entry)
        stripe.counts.expirations += 1
        if self._tracer.active:
            self._tracer.emit("store.expire", key=entry.key)
        self._notify_removed(entry)
        return True

    def _unlink(self, stripe, entry):
        del stripe.table[entry.key]
        stripe.lru.remove(entry)
        stripe.memory_used -= stripe.slabs.release(entry.size())

    def _notify_removed(self, entry):
        if self.on_entry_removed is not None:
            self.on_entry_removed(entry.key)

    def _notify_stored(self, entry):
        if self.on_entry_stored is not None:
            self.on_entry_stored(entry.key, entry.value)

    def _insert(self, stripe, entry):
        chunk = stripe.slabs.chunk_size_for(entry.size())
        self._ensure_room(stripe, chunk)
        stripe.table[entry.key] = entry
        stripe.lru.push_front(entry)
        stripe.memory_used += stripe.slabs.charge(entry.size())
        stripe.counts.total_items += 1
        self._notify_stored(entry)

    def _replace_value(self, stripe, entry, value, flags=None,
                       expires_at=None):
        """Swap an existing entry's value in place, re-accounting memory."""
        stripe.memory_used -= stripe.slabs.release(entry.size())
        entry.value = value
        if flags is not None:
            entry.flags = flags
        if expires_at is not None:
            entry.expires_at = expires_at
        # Any mutation voids a validity interval: the stamped promise
        # described the *old* value.  ``cset`` re-stamps after this.
        entry.valid_from = None
        entry.valid_until = None
        entry.cas_id = self._next_cas(stripe)
        chunk = stripe.slabs.chunk_size_for(entry.size())
        self._ensure_room(stripe, chunk, exclude=entry)
        stripe.memory_used += stripe.slabs.charge(entry.size())
        stripe.lru.touch(entry)
        self._notify_stored(entry)

    def _ensure_room(self, stripe, chunk_bytes, exclude=None):
        limit = self.config.memory_limit_bytes
        if limit is None:
            return
        while stripe.memory_used + chunk_bytes > limit:
            victim = None
            for candidate in stripe.lru.items_lru_first():
                if candidate is not exclude:
                    victim = candidate
                    break
            if victim is None:
                raise ValueTooLargeError(
                    "item of {} chunk bytes cannot fit in a {}-byte cache".format(
                        chunk_bytes, limit
                    )
                )
            self._unlink(stripe, victim)
            stripe.counts.evictions += 1
            if self._tracer.active:
                self._tracer.emit("store.evict", key=victim.key)
            self._notify_removed(victim)

    # -- retrieval ----------------------------------------------------------

    def get(self, key):
        """``get``: return ``(value, flags)`` or ``None`` on a miss."""
        self._check_key(key)
        if self.fault_injector is not None:
            self.fault_injector.perform("store.get", key=key)
        mask = self._stripe_mask
        if mask is not None:
            stripe = self._stripes[hash(key) & mask]
        else:
            stripe = self._stripes[hash(key) % len(self._stripes)]
        with stripe.lock:
            counts = stripe.counts
            counts.cmd_get += 1
            entry = stripe.table.get(key)
            if entry is None or (entry.expires_at
                                 and self._expire_due(stripe, entry)):
                counts.get_misses += 1
                return None
            stripe.lru.touch(entry)
            counts.get_hits += 1
            return entry.value, entry.flags

    def gets(self, key):
        """``gets``: return ``(value, flags, cas_id)`` or ``None``."""
        self._check_key(key)
        stripe = self._stripe_for(key)
        with stripe.lock:
            counts = stripe.counts
            counts.cmd_get += 1
            entry = self._lookup_live(stripe, key)
            if entry is None:
                counts.get_misses += 1
                return None
            stripe.lru.touch(entry)
            counts.get_hits += 1
            return entry.value, entry.flags, entry.cas_id

    def cget(self, key, clock_now, extend=None):
        """Interval read (precise-clock technique): serve only while the
        commit clock reads below the entry's validity bound.

        ``clock_now`` is the caller's commit-clock reading.  An entry
        whose bound has passed is dropped here -- lazy self-invalidation,
        mirroring TTL expiry in :meth:`_lookup_live` -- and reported as
        ``expired``.  ``extend`` (a freshly *promised* horizon) pushes a
        hit's stored expiry forward: Misra et al.'s dynamic
        self-invalidation.  Unstamped entries are misses; ``cget`` never
        serves a value no promise covers.
        """
        self._check_key(key)
        if self.fault_injector is not None:
            self.fault_injector.perform("store.get", key=key)
        stripe = self._stripe_for(key)
        with stripe.lock:
            stripe.counts.cmd_cget += 1
            entry = self._lookup_live(stripe, key)
            if entry is None or entry.valid_until is None:
                return ClockGetResult()
            if entry.interval_expired(clock_now):
                self._unlink(stripe, entry)
                stripe.counts.interval_expiries += 1
                if self._tracer.active:
                    self._tracer.emit("store.interval_expire", key=key,
                                      expiry=entry.valid_until,
                                      clock=clock_now)
                self._notify_removed(entry)
                return ClockGetResult(expired=True)
            extended = False
            if extend is not None and extend > entry.valid_until:
                entry.valid_until = extend
                stripe.counts.interval_extensions += 1
                extended = True
            stripe.lru.touch(entry)
            stripe.counts.interval_hits += 1
            return ClockGetResult(
                entry.value, entry.flags, entry.valid_from,
                entry.valid_until, extended=extended,
            )

    def get_multi(self, keys):
        """Fetch several keys at once; returns ``{key: value}`` for hits."""
        result = {}
        for key in keys:
            hit = self.get(key)
            if hit is not None:
                result[key] = hit[0]
        return result

    # -- storage ------------------------------------------------------------

    def set(self, key, value, flags=0, ttl=None):
        """``set``: unconditionally store the value."""
        self._check_key(key)
        self._check_value(value)
        if self.fault_injector is not None:
            self.fault_injector.perform("store.set", key=key)
        stripe = self._stripe_for(key)
        with stripe.lock:
            stripe.counts.cmd_set += 1
            entry = self._lookup_live(stripe, key)
            expires_at = self._expiry_for(ttl)
            if entry is None:
                new_entry = CacheEntry(
                    key, value, flags, expires_at, self._next_cas(stripe)
                )
                self._insert(stripe, new_entry)
            else:
                self._replace_value(stripe, entry, value, flags, expires_at)
            if self._tracer.active:
                self._tracer.emit("store.set", key=key, bytes=len(value))
            return StoreResult.STORED

    def cset(self, key, value, valid_from, valid_until, flags=0, ttl=None):
        """Interval fill: store ``value`` stamped ``[valid_from, valid_until)``.

        Refused (``NOT_STORED``, wire ``IGNORED``) when the existing
        entry's interval already lasts at least as long -- both values
        are provably current over their intervals, so keeping the
        longer-lived one is safe and strictly better -- or when the
        proposed interval is empty.  A plain (unstamped or lease-filled)
        entry is overwritten: the cset carries a promise, the old entry
        carries none.
        """
        self._check_key(key)
        self._check_value(value)
        if self.fault_injector is not None:
            self.fault_injector.perform("store.set", key=key)
        stripe = self._stripe_for(key)
        with stripe.lock:
            stripe.counts.cmd_cset += 1
            if valid_until <= valid_from:
                stripe.counts.interval_ignored_sets += 1
                return StoreResult.NOT_STORED
            entry = self._lookup_live(stripe, key)
            if (entry is not None and entry.valid_until is not None
                    and entry.valid_until >= valid_until):
                stripe.counts.interval_ignored_sets += 1
                return StoreResult.NOT_STORED
            expires_at = self._expiry_for(ttl)
            if entry is None:
                entry = CacheEntry(key, value, flags, expires_at,
                                   self._next_cas(stripe))
                self._insert(stripe, entry)
            else:
                self._replace_value(stripe, entry, value, flags, expires_at)
            entry.valid_from = valid_from
            entry.valid_until = valid_until
            if self._tracer.active:
                self._tracer.emit("store.cset", key=key, bytes=len(value),
                                  start=valid_from, expiry=valid_until)
            return StoreResult.STORED

    def add(self, key, value, flags=0, ttl=None):
        """``add``: store only if the key does not already hold a value."""
        self._check_key(key)
        self._check_value(value)
        stripe = self._stripe_for(key)
        with stripe.lock:
            stripe.counts.cmd_set += 1
            if self._lookup_live(stripe, key) is not None:
                return StoreResult.NOT_STORED
            entry = CacheEntry(key, value, flags, self._expiry_for(ttl),
                               self._next_cas(stripe))
            self._insert(stripe, entry)
            return StoreResult.STORED

    def replace(self, key, value, flags=0, ttl=None):
        """``replace``: store only if the key already holds a value."""
        self._check_key(key)
        self._check_value(value)
        stripe = self._stripe_for(key)
        with stripe.lock:
            stripe.counts.cmd_set += 1
            entry = self._lookup_live(stripe, key)
            if entry is None:
                return StoreResult.NOT_STORED
            self._replace_value(stripe, entry, value, flags,
                                self._expiry_for(ttl))
            return StoreResult.STORED

    def append(self, key, suffix):
        """``append``: concatenate ``suffix`` after the existing value."""
        self._check_key(key)
        self._check_value(suffix)
        stripe = self._stripe_for(key)
        with stripe.lock:
            stripe.counts.cmd_set += 1
            entry = self._lookup_live(stripe, key)
            if entry is None:
                return StoreResult.NOT_STORED
            new_value = entry.value + suffix
            if len(new_value) > self.config.max_item_bytes:
                raise ValueTooLargeError("append would exceed item size limit")
            self._replace_value(stripe, entry, new_value)
            return StoreResult.STORED

    def prepend(self, key, prefix):
        """``prepend``: concatenate ``prefix`` before the existing value."""
        self._check_key(key)
        self._check_value(prefix)
        stripe = self._stripe_for(key)
        with stripe.lock:
            stripe.counts.cmd_set += 1
            entry = self._lookup_live(stripe, key)
            if entry is None:
                return StoreResult.NOT_STORED
            new_value = prefix + entry.value
            if len(new_value) > self.config.max_item_bytes:
                raise ValueTooLargeError("prepend would exceed item size limit")
            self._replace_value(stripe, entry, new_value)
            return StoreResult.STORED

    def cas(self, key, value, cas_id, flags=0, ttl=None):
        """``cas``: store only if the entry's version still equals ``cas_id``.

        Returns ``STORED`` on success, ``EXISTS`` when the value changed
        since it was fetched with ``gets``, and ``NOT_FOUND`` when the key
        no longer holds a value.
        """
        self._check_key(key)
        self._check_value(value)
        stripe = self._stripe_for(key)
        with stripe.lock:
            stripe.counts.cmd_set += 1
            entry = self._lookup_live(stripe, key)
            if entry is None:
                stripe.counts.cas_misses += 1
                return StoreResult.NOT_FOUND
            if entry.cas_id != cas_id:
                stripe.counts.cas_badval += 1
                return StoreResult.EXISTS
            self._replace_value(stripe, entry, value, flags,
                                self._expiry_for(ttl))
            stripe.counts.cas_hits += 1
            return StoreResult.STORED

    # -- deletion / arithmetic / misc ----------------------------------------

    def delete(self, key):
        """``delete``: remove the value; returns True when a value existed."""
        self._check_key(key)
        if self.fault_injector is not None:
            self.fault_injector.perform("store.delete", key=key)
        stripe = self._stripe_for(key)
        with stripe.lock:
            entry = self._lookup_live(stripe, key)
            if entry is None:
                stripe.counts.delete_misses += 1
                return False
            self._unlink(stripe, entry)
            stripe.counts.delete_hits += 1
            if self._tracer.active:
                self._tracer.emit("store.delete", key=key)
            self._notify_removed(entry)
            return True

    def _arith(self, key, delta, sign):
        self._check_key(key)
        stripe = self._stripe_for(key)
        with stripe.lock:
            counts = stripe.counts
            entry = self._lookup_live(stripe, key)
            if entry is None:
                if sign > 0:
                    counts.incr_misses += 1
                else:
                    counts.decr_misses += 1
                return None
            try:
                current = int(entry.value.decode("ascii"))
                if current < 0:
                    raise ValueError
            except (UnicodeDecodeError, ValueError):
                raise BadValueError(
                    "cannot increment or decrement non-numeric value"
                )
            if sign > 0:
                new = (current + delta) & _UINT64_MASK
            else:
                # memcached clamps decrements at zero rather than wrapping.
                new = max(0, current - delta)
            self._replace_value(stripe, entry, str(new).encode("ascii"))
            if sign > 0:
                counts.incr_hits += 1
            else:
                counts.decr_hits += 1
            return new

    def incr(self, key, delta=1):
        """``incr``: add ``delta`` to an ASCII-decimal value (wraps at 2^64)."""
        if delta < 0:
            raise BadValueError("incr delta must be non-negative")
        return self._arith(key, delta, +1)

    def decr(self, key, delta=1):
        """``decr``: subtract ``delta``, clamping at zero."""
        if delta < 0:
            raise BadValueError("decr delta must be non-negative")
        return self._arith(key, delta, -1)

    def touch(self, key, ttl):
        """``touch``: update an entry's TTL without reading its value."""
        self._check_key(key)
        stripe = self._stripe_for(key)
        with stripe.lock:
            entry = self._lookup_live(stripe, key)
            if entry is None:
                return False
            entry.expires_at = self._expiry_for(ttl)
            stripe.lru.touch(entry)
            return True

    def flush_all(self):
        """``flush_all``: drop every entry, atomically across stripes."""
        with self._all:
            entries = []
            for stripe in self._stripes:
                stripe_entries = list(stripe.table.values())
                for entry in stripe_entries:
                    self._unlink(stripe, entry)
                entries.extend(stripe_entries)
            for entry in entries:
                self._notify_removed(entry)

    # -- introspection --------------------------------------------------------

    def locked(self):
        """A reentrant whole-store lock, for atomic multi-command use.

        Acquires every stripe in fixed index order.  Mutation hooks
        (:attr:`on_entry_stored` / :attr:`on_entry_removed`) fire while
        the affected key's stripe lock is held, so a mirror can install
        its hooks and copy the current contents under one acquisition
        with no gap a racing write or delete could slip through.
        """
        return self._all

    def __len__(self):
        with self._all:
            return sum(len(stripe.table) for stripe in self._stripes)

    def __contains__(self, key):
        stripe = self._stripe_for(key)
        with stripe.lock:
            return self._lookup_live(stripe, key) is not None

    def memory_used(self):
        """Chunk bytes currently charged against the budget."""
        with self._all:
            return sum(stripe.memory_used for stripe in self._stripes)

    def keys(self):
        """Snapshot of live keys (test/diagnostic helper)."""
        with self._all:
            now = self.clock.now()
            return [
                k
                for stripe in self._stripes
                for k, e in stripe.table.items()
                if not e.is_expired(now)
            ]

    def interval_of(self, key):
        """The live entry's ``(valid_from, valid_until)`` stamp, or ``None``.

        ``None`` covers absent, TTL-expired, and unstamped entries alike
        -- every case where a ``cget`` cannot serve.  Pure introspection
        (model-checker fingerprints, oracles): no LRU touch, no stats,
        no lazy expiry.
        """
        self._check_key(key)
        stripe = self._stripe_for(key)
        with stripe.lock:
            entry = stripe.table.get(key)
            if entry is None or entry.is_expired(self.clock.now()):
                return None
            if entry.valid_until is None:
                return None
            return entry.valid_from, entry.valid_until
