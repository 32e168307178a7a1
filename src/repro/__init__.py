"""Reproduction of *Strong Consistency in Cache Augmented SQL Systems*.

The package implements, from scratch and in pure Python:

* :mod:`repro.kvs` -- a Twemcache-semantics key-value store (get, set, cas,
  delete, add, replace, append, prepend, incr, decr; LRU eviction; TTLs)
  plus the Facebook-style read lease used as the paper's baseline.
* :mod:`repro.sql` -- an in-process relational engine with multi-version
  concurrency control providing snapshot isolation, a small SQL dialect,
  secondary indexes, and triggers.
* :mod:`repro.core` -- the paper's contribution: the IQ framework (Inhibit
  and Quarantine leases), the IQ-Server commands (IQget, IQset, QaRead,
  SaR, GenID, QaR, DaR, IQ-delta, Commit, Abort), the IQ-Client, and the
  session programming model for the invalidate / refresh / incremental
  update consistency techniques.
* :mod:`repro.casql` -- the cache-augmented-SQL application facade.
* :mod:`repro.bg` -- the BG social-networking benchmark: graph generation,
  the nine interactive actions, workload mixes, validation of
  unpredictable (stale) reads, and SoAR rating.
* :mod:`repro.mc` -- a stateless model checker: it replays the exact
  interleavings of the paper's race-condition figures and explores every
  other interleaving of the same sessions.
* :mod:`repro.net` -- a memcached ASCII wire-protocol server and client
  with the IQ lease extensions.
"""

from repro.errors import (
    CacheMissError,
    LeaseConflictError,
    QuarantinedError,
    ReproError,
    SessionAbortedError,
    TransactionAbortedError,
)

__version__ = "1.0.0"

__all__ = [
    "CacheMissError",
    "LeaseConflictError",
    "QuarantinedError",
    "ReproError",
    "SessionAbortedError",
    "TransactionAbortedError",
    "__version__",
]
