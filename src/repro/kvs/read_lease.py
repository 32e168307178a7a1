"""Facebook-style read leases (Nishtala et al., NSDI'13).

The paper's baseline -- labelled *Twemcache* in its evaluation -- is
"Twemcache extended with read leases of [27]".  The mechanism:

* ``lease_get`` on a miss hands the caller a *lease token* bound to the key,
  but only when no token is outstanding; concurrent missing readers get a
  *hot miss* telling them to back off.  This serializes RDBMS re-computation
  of a missing value (and stops thundering herds).
* ``lease_set`` stores the value only when the supplied token is still the
  key's outstanding token.
* ``delete`` voids any outstanding token, so a reader whose token predates
  an invalidation cannot install its (possibly stale) value.

Crucially -- and this is the gap Section 7 of the paper demonstrates -- a
token granted *after* the invalidation is perfectly valid, so a reader
whose RDBMS query ran against an old snapshot (Figure 3 with triggers) can
still install stale data.  The IQ framework's Q lease closes that hole.
"""

import threading

from repro.config import KVSConfig, LeaseConfig
from repro.kvs.store import CacheStore, StoreResult
from repro.util.clock import SystemClock
from repro.util.tokens import TokenGenerator


class LeaseGetResult:
    """Outcome of :meth:`ReadLeaseStore.lease_get`.

    Exactly one of the following shapes:

    * hit: ``value`` is the bytes payload, ``token`` is ``None``;
    * miss with lease: ``value`` is ``None``, ``token`` identifies the lease;
    * hot miss: both ``None`` -- the caller must back off and retry.
    """

    __slots__ = ("value", "token", "backoff")

    def __init__(self, value=None, token=None, backoff=False):
        self.value = value
        self.token = token
        self.backoff = backoff

    @property
    def is_hit(self):
        return self.value is not None

    @property
    def has_lease(self):
        return self.token is not None

    def __repr__(self):
        if self.is_hit:
            return "LeaseGetResult(hit, value={!r})".format(self.value)
        if self.has_lease:
            return "LeaseGetResult(miss, token={})".format(self.token)
        return "LeaseGetResult(hot miss, backoff)"


class _ReadLease:
    __slots__ = ("token", "expires_at")

    def __init__(self, token, expires_at):
        self.token = token
        self.expires_at = expires_at


class _TokenStripe:
    """One lock's worth of outstanding read-lease tokens, with its cell
    of the store's :class:`~repro.kvs.stats.CacheStats`."""

    __slots__ = ("lock", "leases", "counts")

    def __init__(self, counts):
        self.lock = threading.Lock()
        self.leases = {}
        self.counts = counts


class ReadLeaseStore:
    """A :class:`CacheStore` wrapped with Facebook read-lease semantics.

    All plain commands pass straight through to the underlying store;
    ``lease_get`` / ``lease_set`` implement the lease protocol, and
    ``delete`` additionally voids the key's outstanding token.

    Outstanding tokens live in ``lease_config.stripe_count`` hash
    stripes (the wrapped store stripes its own table independently), so
    lease traffic on unrelated keys never shares a lock.
    """

    def __init__(self, config=None, lease_config=None, clock=None):
        self.clock = clock or SystemClock()
        self.store = CacheStore(config or KVSConfig(), clock=self.clock)
        self.lease_config = lease_config or LeaseConfig()
        self._tokens = TokenGenerator()
        count = max(
            1, int(getattr(self.lease_config, "stripe_count", 1) or 1)
        )
        self._stripes = tuple(
            _TokenStripe(self.store.stats.cell()) for _ in range(count)
        )
        self._stripe_mask = count - 1 if count & (count - 1) == 0 else None
        self.store.on_entry_removed = self._void_lease

    def _stripe_for(self, key):
        if self._stripe_mask is not None:
            return self._stripes[hash(key) & self._stripe_mask]
        return self._stripes[hash(key) % len(self._stripes)]

    # -- lease protocol ------------------------------------------------------

    def lease_get(self, key):
        """Read ``key``; on a miss, try to acquire the read lease."""
        hit = self.store.get(key)
        if hit is not None:
            return LeaseGetResult(value=hit[0])
        stripe = self._stripe_for(key)
        with stripe.lock:
            lease = self._live_lease(stripe, key)
            if lease is not None:
                stripe.counts.lease_backoffs += 1
                return LeaseGetResult(backoff=True)
            token = self._tokens.next()
            expires = self.clock.now() + self.lease_config.i_lease_ttl
            stripe.leases[key] = _ReadLease(token, expires)
            stripe.counts.i_lease_grants += 1
            return LeaseGetResult(token=token)

    def lease_set(self, key, value, token, flags=0, ttl=None):
        """Store ``value`` only if ``token`` is the key's live lease token.

        Returns ``True`` when the value was stored.  A stale token (voided
        by a delete or expired) causes the set to be silently ignored,
        which is how the original design prevents set-after-delete races.
        """
        stripe = self._stripe_for(key)
        with stripe.lock:
            lease = self._live_lease(stripe, key)
            if lease is None or lease.token != token:
                stripe.counts.ignored_sets += 1
                return False
            del stripe.leases[key]
        self.store.set(key, value, flags=flags, ttl=ttl)
        return True

    def _live_lease(self, stripe, key):
        """Caller holds the stripe lock.  Expire a stale lease lazily."""
        lease = stripe.leases.get(key)
        if lease is None:
            return None
        if self.clock.now() >= lease.expires_at:
            del stripe.leases[key]
            stripe.counts.lease_expirations += 1
            return None
        return lease

    def lease_outstanding(self, key):
        """True when a token is outstanding on ``key`` (expired or not).

        Pure introspection for model-checker fingerprints and oracles:
        no lazy expiry, no stats.
        """
        stripe = self._stripe_for(key)
        with stripe.lock:
            return key in stripe.leases

    def _void_lease(self, key):
        stripe = self._stripe_for(key)
        with stripe.lock:
            if key in stripe.leases:
                del stripe.leases[key]
                stripe.counts.i_lease_voids += 1

    # -- pass-through commands -------------------------------------------------

    def get(self, key):
        return self.store.get(key)

    def gets(self, key):
        return self.store.gets(key)

    def set(self, key, value, flags=0, ttl=None):
        return self.store.set(key, value, flags=flags, ttl=ttl)

    def cas(self, key, value, cas_id, flags=0, ttl=None):
        return self.store.cas(key, value, cas_id, flags=flags, ttl=ttl)

    def add(self, key, value, flags=0, ttl=None):
        return self.store.add(key, value, flags=flags, ttl=ttl)

    def append(self, key, suffix):
        return self.store.append(key, suffix)

    def prepend(self, key, prefix):
        return self.store.prepend(key, prefix)

    def incr(self, key, delta=1):
        return self.store.incr(key, delta)

    def decr(self, key, delta=1):
        return self.store.decr(key, delta)

    def delete(self, key):
        """Delete the value and void any outstanding read lease."""
        self._void_lease(key)
        return self.store.delete(key)

    def flush_all(self):
        for stripe in self._stripes:
            with stripe.lock:
                stripe.leases.clear()
        self.store.flush_all()

    @property
    def stats(self):
        return self.store.stats

    def __contains__(self, key):
        return key in self.store

    def __len__(self):
        return len(self.store)


# Re-export for convenience in tests that poke at raw results.
__all__ = ["LeaseGetResult", "ReadLeaseStore", "StoreResult"]
