"""Tunable parameters shared across the reproduction.

The defaults mirror the paper's experimental setup where a concrete value is
given (lease lifetimes are only described as "finite"; memcached's historic
defaults are used where the paper is silent).
"""

from dataclasses import dataclass, field


@dataclass
class KVSConfig:
    """Configuration of the Twemcache-semantics store."""

    #: Maximum bytes of value payload the store may hold before LRU eviction.
    #: ``None`` disables eviction (useful for deterministic tests).
    memory_limit_bytes: int = None

    #: Maximum size of a single item's value (memcached default: 1 MiB).
    max_item_bytes: int = 1024 * 1024

    #: Maximum key length in characters (memcached: 250).
    max_key_length: int = 250

    #: Default item time-to-live in seconds; ``0`` means "never expires".
    default_ttl: float = 0.0

    #: Number of independently locked hash stripes the store's table is
    #: split over.  Concurrent operations on keys in different stripes
    #: never contend.  A store with ``memory_limit_bytes`` set always
    #: runs a single stripe: LRU eviction needs one global recency order
    #: to keep its guarantees exact.
    stripe_count: int = 16


@dataclass
class LeaseConfig:
    """Configuration of I/Q lease behaviour on the IQ-Server."""

    #: Lifetime of an Inhibit lease, seconds.  On expiry the lease is simply
    #: released (the reader's eventual IQset is ignored).
    i_lease_ttl: float = 10.0

    #: Lifetime of a Quarantine lease, seconds.  On expiry the IQ-Server
    #: *deletes the key-value pair* (Section 4.2 condition 3), guaranteeing
    #: safety when an application node fails while holding leases.
    q_lease_ttl: float = 10.0

    #: Section 3.3 / 4.2.2 optimization: keep the old version of a pair that
    #: is being invalidated/updated visible to other sessions until commit.
    serve_pending_versions: bool = True

    #: Number of independently locked hash stripes the lease table is
    #: split over (per-key I/Q state only ever touches its own stripe).
    stripe_count: int = 16


@dataclass
class BackoffConfig:
    """Exponential backoff used when a lease request is refused."""

    initial_delay: float = 0.001
    multiplier: float = 2.0
    max_delay: float = 0.1
    #: Add up to this fraction of the delay as jitter to avoid lockstep.
    jitter: float = 0.5
    #: Use *full jitter* (AWS style): each delay is drawn uniformly from
    #: ``[0, d]`` where ``d`` is the exponential envelope, instead of
    #: ``d`` plus a fractional jitter tail.  Full jitter de-synchronizes
    #: a thundering herd of retriers far more aggressively.
    full_jitter: bool = False
    #: Give up (raise :class:`~repro.errors.StarvationError`) after this
    #: many attempts; ``None`` retries forever.
    max_attempts: int = None


@dataclass
class NetConfig:
    """Resilient networked-client behaviour (:mod:`repro.net.resilient`)."""

    #: Seconds allowed for establishing a TCP connection.
    connect_timeout: float = 2.0

    #: Per-operation deadline, seconds.  A request/response exchange that
    #: takes longer raises :class:`~repro.errors.OperationTimeout`.
    operation_timeout: float = 5.0

    #: How many times an *idempotent* operation is retried on a fresh
    #: connection after a connection loss or timeout.  Non-idempotent
    #: operations (``qaread``, ``sar``, ``iq_delta``, storage commands)
    #: are never blindly retried.
    max_retries: int = 3

    #: Consecutive failures that trip the circuit breaker open.
    breaker_failure_threshold: int = 3

    #: Seconds the breaker stays open before letting one probe through.
    breaker_cooldown: float = 0.5

    #: Delete keys journaled during degraded operation when the circuit
    #: closes again (delete-on-recover reconciliation).
    reconcile_on_recover: bool = True

    #: Maximum live connections in the :class:`ResilientIQServer` pool.
    #: Callers beyond this many concurrent operations wait for a
    #: connection instead of dialing more sockets.
    pool_size: int = 4

    #: Per-connection cap, in bytes, on buffered pipelined data held by
    #: the wire server.  Unconsumed request bytes past it (a frame that
    #: never terminates, or an announced data block larger than this)
    #: draw an error reply and a close; replies queued past it for a peer
    #: that never reads them cut the connection.
    max_pipeline_buffer: int = 4 * 1024 * 1024


@dataclass
class ClockConfig:
    """Precise-clock self-invalidation (:class:`~repro.core.policies.ClockClient`).

    Intervals are in commit-clock *ticks* (commits), not seconds: the
    clock only moves when transactions commit, so a quiescent system
    serves cached intervals forever and a write-hot key ages the tier
    exactly as fast as it changes.
    """

    #: Promise length for a key with no observed write history.
    default_interval_ticks: int = 8

    #: Floor on any promise (a zero-length interval could never serve).
    min_interval_ticks: int = 1

    #: Cap on any promise.  A promise is a pledge the committer must
    #: honour -- a clock-keyed commit jumps the key's clock past its
    #: highest live horizon -- so over-promising a write-hot key makes
    #: its writes look artificially old to interval sizing; the cap
    #: bounds how far any single promise can reach.
    max_interval_ticks: int = 64

    #: Re-promise on every read and ask the server to extend a hit's
    #: expiry to the fresh horizon (Misra et al.'s dynamic
    #: self-invalidation); ``False`` serves only the fill-time interval.
    dynamic_extension: bool = True

    #: Client-side inter-transaction cache (Misra et al.'s headline
    #: trick): each client retains up to this many interval-stamped
    #: values and serves a read with **zero** round trips while the
    #: promised clock reading stays inside the local copy's interval.
    #: No cross-client purge exists or is needed -- a write jumps the
    #: key's clock, expiring every copy anywhere by arithmetic.  ``0``
    #: disables the local tier (every read consults the cache server).
    local_cache_entries: int = 1024


@dataclass
class BGConfig:
    """Parameters of the BG benchmark's social graph and SLA.

    The paper: "The social graph ... consists of M members, phi friends per
    member, and rho resources per member. ... 100 resources and 100 friends
    per member in all experiments"; SLA: 95% of actions faster than 100 ms.
    """

    members: int = 10_000
    friends_per_member: int = 100
    resources_per_member: int = 100
    #: Zipfian skew: "70% of requests referencing 20% of data
    #: (Zipfian distribution with theta = 0.27)".
    zipfian_theta: float = 0.27
    sla_percentile: float = 0.95
    sla_latency: float = 0.100
    seed: int = 42


@dataclass
class ReproConfig:
    """Aggregate configuration object."""

    kvs: KVSConfig = field(default_factory=KVSConfig)
    lease: LeaseConfig = field(default_factory=LeaseConfig)
    backoff: BackoffConfig = field(default_factory=BackoffConfig)
    net: NetConfig = field(default_factory=NetConfig)
    bg: BGConfig = field(default_factory=BGConfig)
    clock: ClockConfig = field(default_factory=ClockConfig)


DEFAULT_CONFIG = ReproConfig()
