"""Twemcache-semantics key-value store substrate.

This package reimplements the slice of Twitter memcached (Twemcache 2.5.3)
behaviour that the paper's evaluation depends on:

* the full basic command set -- ``get``, ``gets``, ``set``, ``add``,
  ``replace``, ``append``, ``prepend``, ``cas``, ``delete``, ``incr``,
  ``decr``, ``touch``, ``flush_all`` -- with memcached's exact semantics
  (values are byte strings; ``incr``/``decr`` operate on ASCII decimals;
  ``cas`` compares unique 64-bit-style version numbers);
* per-item TTLs and lazy expiry;
* LRU eviction under a memory budget with slab-class accounting;
* hit/miss/eviction statistics;
* the Facebook-style *read lease* of Nishtala et al. (NSDI'13), which the
  paper's baseline ("Twemcache extended with read leases of [27]") uses.

The IQ framework of :mod:`repro.core` layers the I/Q leases on top of
:class:`CacheStore`.
"""

from repro.kvs.entry import CacheEntry
from repro.kvs.read_lease import LeaseGetResult, ReadLeaseStore
from repro.kvs.stats import CacheStats
from repro.kvs.store import CacheStore, StoreResult

__all__ = [
    "CacheEntry",
    "CacheStats",
    "CacheStore",
    "LeaseGetResult",
    "ReadLeaseStore",
    "StoreResult",
]
