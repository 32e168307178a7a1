"""One-call assembly of a complete CASQL + BG deployment.

The evaluation compares many configurations -- {invalidate, refresh,
delta} x {IQ-leased, unleased baseline} x {Q-acquisition prior/during} x
graph sizes -- and every benchmark, example, and integration test needs
the same plumbing: database, loaded graph, cache server, consistency
client, actions, validation log, registry, runner.  :func:`build_bg_system`
builds it all.
"""

from repro.bg.actions import BGActions, Technique
from repro.bg.graph import SocialGraph
from repro.bg.registry import FriendshipRegistry
from repro.bg.runner import WorkloadRunner
from repro.bg.validation import ValidationLog
from repro.casql.keys import KeySpace
from repro.config import BGConfig, KVSConfig, LeaseConfig
from repro.core.iq_client import IQClient
from repro.core.iq_server import IQServer
from repro.core.policies import (
    BaselineDeltaClient,
    BaselineInvalidateClient,
    BaselineRefreshClient,
    ClockClient,
    DeleteTiming,
    IQDeltaClient,
    IQInvalidateClient,
    IQRefreshClient,
)
from repro.core.session import AcquisitionMode
from repro.kvs.read_lease import ReadLeaseStore
from repro.sharding import ShardedIQServer


#: technique -> (IQ-leased consistency client, unleased baseline); the
#: lease-free clock technique has no baseline
CLIENT_CLASSES = {
    Technique.INVALIDATE: (IQInvalidateClient, BaselineInvalidateClient),
    Technique.REFRESH: (IQRefreshClient, BaselineRefreshClient),
    Technique.DELTA: (IQDeltaClient, BaselineDeltaClient),
    Technique.CLOCK: (ClockClient, None),
}


class BGSystem:
    """The assembled components of one benchmark configuration."""

    def __init__(self, db, cache, consistency_client, actions, registry,
                 runner, log, graph, recorder=None, auditor=None):
        self.db = db
        #: the lease backend (IQServer or ShardedIQServer router, leased)
        #: or ReadLeaseStore (baseline)
        self.cache = cache
        self.consistency_client = consistency_client
        self.actions = actions
        self.registry = registry
        self.runner = runner
        self.log = log
        self.graph = graph
        #: ring-buffer trace recorder when built with ``trace=True``
        self.recorder = recorder
        #: online IQ-invariant auditor when built with ``audit=True``
        self.auditor = auditor

    @property
    def stats(self):
        return self.cache.stats

    def trace_events(self):
        """Buffered trace events (empty when built without ``trace=True``)."""
        return self.recorder.events() if self.recorder is not None else []

    def audit_report(self):
        """The auditor's report so far, or ``None`` without ``audit=True``."""
        return self.auditor.report() if self.auditor is not None else None

    def stop_observability(self):
        """Detach this system's recorder/auditor from the global tracer.

        Only the hooks *this* builder installed are removed; a recorder
        installed by someone else is left in place.
        """
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        if self.auditor is not None:
            self.auditor.detach(tracer)
        if self.recorder is not None and tracer.recorder is self.recorder:
            tracer.set_recorder(None)


def build_bg_system(members=200, friends_per_member=10,
                    resources_per_member=3, technique=Technique.INVALIDATE,
                    leased=True, mode=AcquisitionMode.DURING,
                    mix=None, compute_delay=0.0, write_delay=0.0,
                    delete_timing=DeleteTiming.DURING_TRANSACTION,
                    serve_pending_versions=True, validate=True, seed=42,
                    comments_per_resource=1, hotspot=(0.2, 0.7),
                    backoff=None, hot_writes=False, iq_server=None,
                    shards=None, shard_vnodes=64, trace=False,
                    trace_capacity=8192, audit=False, clock_config=None,
                    member_sampler=None):
    """Build and load a full BG deployment; returns a :class:`BGSystem`.

    ``leased`` selects the IQ framework; otherwise the unleased baseline
    (Twemcache with Facebook read leases) runs the same technique and
    exhibits the paper's races.  Defaults are laptop-scale; the Table 7
    benchmarks pass the paper's 10K/100K-member graph shapes (scaled).

    ``iq_server`` substitutes any :class:`~repro.core.backend.
    LeaseBackend` for the in-process :class:`IQServer` -- e.g. a
    :class:`~repro.net.resilient.ResilientIQServer` dialing a remote
    cache, which is how the chaos benchmark runs BG over a killable
    server (``leased`` only).  A *sequence* of backends is wrapped in a
    :class:`~repro.sharding.ShardedIQServer` (one shard per element).

    ``shards=N`` builds the cache tier as N in-process IQ servers
    behind a consistent-hash router (``shard_vnodes`` virtual nodes per
    shard).  ``shards=None`` (default) keeps the direct single-server
    path; ``shards=1`` routes through a one-shard router, which behaves
    identically to the direct path.

    ``trace=True`` activates the process-global tracer with a
    ``trace_capacity``-event ring buffer (the tracer is a process-wide
    singleton, so tracing covers every system in the process while the
    recorder is installed; ``BGSystem.stop_observability`` removes it).
    ``audit=True`` additionally attaches an online
    :class:`~repro.obs.audit.IQAuditor` checking the IQ lease-protocol
    invariants as the workload runs -- query it any time through
    ``BGSystem.audit_report()``.

    ``member_sampler`` -- ``factory(seed, members) -> callable() ->
    member id`` -- replaces the runner's default Zipfian popularity
    model; the scenario catalogue's workload families (flash crowds,
    thundering herds, multi-tenant skew, zipf-theta sweeps) plug in
    through it.
    """
    from repro.bg.workload import LOW_WRITE_MIX

    recorder = None
    auditor = None
    if trace or audit:
        from repro.obs import IQAuditor, RingBufferRecorder
        from repro.obs.trace import get_tracer

        tracer = get_tracer()
        if trace:
            recorder = RingBufferRecorder(capacity=trace_capacity)
            tracer.set_recorder(recorder)
        if audit:
            auditor = IQAuditor()
            auditor.attach(tracer)

    config = BGConfig(
        members=members,
        friends_per_member=friends_per_member,
        resources_per_member=resources_per_member,
        seed=seed,
    )
    graph = SocialGraph(config)
    db = graph.load(comments_per_resource=comments_per_resource)
    log = ValidationLog() if validate else None
    keyspace = KeySpace()

    lease_config = LeaseConfig(serve_pending_versions=serve_pending_versions)

    if leased:
        if iq_server is not None:
            if isinstance(iq_server, (list, tuple)):
                server = ShardedIQServer(iq_server, vnodes=shard_vnodes)
            else:
                server = iq_server
        elif shards is not None:
            backends = [
                IQServer(kvs_config=KVSConfig(), lease_config=lease_config)
                for _ in range(shards)
            ]
            server = ShardedIQServer(backends, vnodes=shard_vnodes)
        else:
            server = IQServer(
                kvs_config=KVSConfig(), lease_config=lease_config
            )
        iq_client = IQClient(server, backoff=backoff)
        client_class = CLIENT_CLASSES[technique][0]
        extra = {}
        if technique is Technique.CLOCK and clock_config is not None:
            # Interval sizing is workload tuning (a longer interval
            # survives more unrelated commits before re-promising).
            extra["config"] = clock_config
        consistency_client = client_class(
            iq_client, db.connect, mode=mode, backoff=backoff, **extra
        )
        cache = server
    else:
        store = ReadLeaseStore(lease_config=lease_config)
        client_class = CLIENT_CLASSES[technique][1]
        extra = {}
        if technique is Technique.INVALIDATE:
            extra["timing"] = delete_timing
        consistency_client = client_class(
            store, db.connect, backoff=backoff, **extra
        )
        cache = store

    actions = BGActions(
        db, consistency_client, graph, keyspace=keyspace, log=log,
        technique=technique, compute_delay=compute_delay,
        write_delay=write_delay,
    )
    actions.register_validation()
    registry = FriendshipRegistry(graph)
    runner = WorkloadRunner(
        actions, mix or LOW_WRITE_MIX, registry=registry, seed=seed,
        hotspot=hotspot, hot_writes=hot_writes,
        member_sampler=member_sampler,
    )
    return BGSystem(
        db, cache, consistency_client, actions, registry, runner, log, graph,
        recorder=recorder, auditor=auditor,
    )
