"""Assemble one deployment under test from the repo's public constructors.

Every workload runs the same graph (200 members, 10 friends, 3 resources
each), a cache that holds the whole working set, and a fully pre-warmed
cache -- the paper's warm-cache Table 8 set-up.  What differs is the
cache tier: one in-process ``IQServer``, or two ``ShardProcess`` workers
(async transport, ephemeral ports) behind ``ShardedIQServer`` over
``ResilientIQServer``.  The cluster shares one CPU with its generator:
on a virtual machine a wake-up that crosses CPUs is an inter-processor
interrupt through the hypervisor (~100 us against ~10 us on one CPU,
measured here), and left unpinned the scheduler flips between the two
at random, which moves every wall-clock metric by 2-3x.

With a tracer, every seam gets its span proxy (``spans``); without one
the only thing between the layers is the statement counter on
``db.connect()``.
"""

import atexit
import os
import time

from repro.bg.actions import BGActions, Technique
from repro.bg.graph import SocialGraph
from repro.bg.registry import FriendshipRegistry
from repro.bg.runner import WorkloadRunner
from repro.bg.validation import ValidationLog
from repro.config import BGConfig
from repro.core.iq_client import IQClient
from repro.core.iq_server import IQServer
from repro.core.policies import IQInvalidateClient, IQRefreshClient
from repro.net.cluster import ShardProcess
from repro.net.resilient import ResilientIQServer
from repro.sharding import ShardedIQServer

import spans
from stream import SamplerState

MEMBERS, FRIENDS, RESOURCES = 200, 10, 3
SHARDS = 2
POLICY_CLIENTS = {
    Technique.INVALIDATE: IQInvalidateClient,
    Technique.REFRESH: IQRefreshClient,
}

#: shard processes started and not yet stopped; reaped at interpreter
#: exit whatever happened to the run that started them
_live_shards = set()


def _reap_shards():
    for proc in list(_live_shards):
        proc.stop(graceful=False)
    _live_shards.clear()


atexit.register(_reap_shards)


class Deployment:
    """One assembled system plus the outside counters the harness reads."""

    def __init__(self, workload, seed, tracer=None):
        self.tracer = tracer
        self.shards = []
        self.clients = []
        self._affinity = os.sched_getaffinity(0)
        started = time.perf_counter()
        try:
            self._assemble(workload, seed)
            self.prewarm()
        except BaseException:
            self.close()
            raise
        #: build + load + cluster start + pre-warm, seconds
        self.setup_s = time.perf_counter() - started

    def _assemble(self, workload, seed):
        tracer = self.tracer
        graph = SocialGraph(BGConfig(
            members=MEMBERS, friends_per_member=FRIENDS,
            resources_per_member=RESOURCES,
        ))
        self.graph = graph
        self.db = spans.CountedDatabase(
            graph.load(comments_per_resource=1), tracer
        )
        self.log = ValidationLog()
        if workload.cluster:
            for index in range(SHARDS):
                proc = ShardProcess("shard{}".format(index))
                _live_shards.add(proc)
                self.shards.append(proc)
                proc.start()
            cpu = {max(self._affinity)}
            os.sched_setaffinity(0, cpu)
            for proc in self.shards:
                os.sched_setaffinity(proc.proc.pid, cpu)
            self.clients = [
                ResilientIQServer(proc.host, proc.port)
                for proc in self.shards
            ]
            legs = self.clients
            if tracer is not None:
                legs = [
                    spans.span_backend(c, tracer, spans.NET) for c in legs
                ]
            self.tier = ShardedIQServer(
                legs, names=[proc.name for proc in self.shards]
            )
            root_layer = spans.ROUTER
        else:
            self.tier = IQServer()
            root_layer = spans.IQ_SERVER
        backend = self.tier
        if tracer is not None:
            backend = spans.span_backend(backend, tracer, root_layer)
        iq_client = IQClient(backend)
        if tracer is not None:
            iq_client = spans.span_iq_client(iq_client, tracer)
        policy = POLICY_CLIENTS[workload.technique](
            iq_client, self.db.connect
        )
        if tracer is not None:
            policy = spans.SpannedPolicy(policy, tracer)
        self.actions = BGActions(
            self.db, policy, graph, log=self.log,
            technique=workload.technique,
        )
        self.actions.register_validation()
        self.runner = WorkloadRunner(
            self.actions, workload.mix,
            registry=FriendshipRegistry(graph), seed=seed,
        )
        self.seed = seed

    def sampler(self, worker=0):
        """A fresh operand sampler for one generator thread."""
        return SamplerState(
            self.seed + 7919 * worker, MEMBERS, self.runner.hot_exponent
        )

    # -- cache warm-up -------------------------------------------------------

    def _read_everything(self):
        actions = self.actions
        for member in self.graph.member_ids():
            actions.view_profile(member)
            actions.list_friends(member)
            actions.view_friend_requests(member)
            actions.view_top_k_resources(member)
            for resource in self.graph.resource_ids_of(member):
                actions.view_comments_on_resource(resource)

    def prewarm(self):
        """Fill every key, then prove it: a second pass must hit."""
        self._read_everything()
        before = self.cache_counters()
        self._read_everything()
        after = self.cache_counters()
        gets = after["cmd_get"] - before["cmd_get"]
        hits = after["get_hits"] - before["get_hits"]
        if gets == 0 or hits / gets < 0.99:
            raise RuntimeError(
                "pre-warm probe hit ratio {}/{} is below 0.99".format(
                    hits, gets
                )
            )

    # -- outside counters ----------------------------------------------------

    def cache_counters(self):
        """``stats()`` of the cache tier (over the wire on the cluster)."""
        return self.tier.stats.snapshot()

    def net_retries(self):
        return sum(client.retries for client in self.clients)

    def shards_alive(self):
        return all(proc.alive for proc in self.shards)

    def cpu_seconds(self):
        """``(generator, shards)`` CPU seconds used so far: this process,
        and every shard's on-CPU nanoseconds from
        ``/proc/<pid>/schedstat`` (a shard worker on the async transport
        is one thread; ``/proc/<pid>/stat`` counts in 10 ms ticks, too
        coarse for a round of a tenth of a second)."""
        shards = 0
        for proc in self.shards:
            with open("/proc/{}/schedstat".format(proc.proc.pid)) as handle:
                shards += int(handle.read().split()[0])
        return time.process_time(), shards / 1e9

    def peak_rss_mb(self):
        """Peak resident set of the generator process plus the shards."""
        pids = ["self"] + [str(proc.proc.pid) for proc in self.shards]
        total_kb = 0
        for pid in pids:
            with open("/proc/{}/status".format(pid)) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    # -- teardown ------------------------------------------------------------

    def close(self):
        """Close the wire clients and stop the shard processes."""
        tier = getattr(self, "tier", None)
        if self.shards and tier is not None:
            tier.close()
        for proc in self.shards:
            proc.stop()
            _live_shards.discard(proc)
        self.shards = []
        os.sched_setaffinity(0, self._affinity)
