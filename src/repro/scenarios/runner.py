"""Live execution of catalogue entries.

``run_live(spec)`` assembles the exact deployment the spec declares --
technique, shard count, transport, fault plan, workload family -- out
of the building blocks every other suite already trusts
(:func:`~repro.bg.harness.build_bg_system`,
:class:`~repro.faults.chaos.RestartableServer`,
:class:`~repro.net.resilient.ResilientIQServer`,
:class:`~repro.sharding.Rebalancer`), drives the BG workload through
it with real threads, and folds the oracle verdicts into a
:class:`~repro.scenarios.report.ScenarioReport`.

Transports:

* ``inproc`` -- the consistency client calls the backend directly
  (single :class:`IQServer` or an N-shard router);
* ``wire`` -- every shard is a real TCP server (on a
  :class:`RestartableServer` so fault plans can kill it) reached
  through a pooled :class:`ResilientIQServer`, exercising the full
  wire protocol.

Fault plans run on controller threads beside the workload:
``commit-drop`` arms the PR 1 injector's commit-phase connection
drops, ``kill-restart`` cold-restarts a server mid-run,
``rebalance-add`` migrates onto a joining shard through the PR 6
rebalancer, and ``flush-herd`` issues periodic ``flush_all`` calls
(the thundering-herd trigger).
"""

import threading
import time

from repro.bg.actions import Technique
from repro.bg.harness import build_bg_system
from repro.bg.workload import mix_by_name
from repro.config import BackoffConfig, KVSConfig, LeaseConfig, NetConfig
from repro.core.iq_server import IQServer
from repro.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RestartableServer,
)
from repro.faults.injector import SITE_CLIENT_AFTER_SEND
from repro.net import ResilientIQServer
from repro.scenarios.report import OracleVerdict, ScenarioReport
from repro.scenarios.spec import check_bounds

__all__ = ["Sizing", "SIZINGS", "run_live"]

TECHNIQUE_BY_NAME = {
    "invalidate": Technique.INVALIDATE,
    "refresh": Technique.REFRESH,
    "delta": Technique.DELTA,
    "clock": Technique.CLOCK,
}


class Sizing:
    """Workload dimensions for one execution tier."""

    def __init__(self, threads, ops, members, fault_duration, mc_max_states):
        self.threads = threads
        self.ops = ops
        self.members = members
        #: fault-plan entries run duration-based so the fault is
        #: guaranteed to land mid-workload
        self.fault_duration = fault_duration
        self.mc_max_states = mc_max_states


SIZINGS = {
    # tiny: runs inside the tier-1 pytest suite
    "pytest": Sizing(threads=2, ops=16, members=36, fault_duration=0.7,
                     mc_max_states=40000),
    # the CI smoke tier
    "smoke": Sizing(threads=3, ops=30, members=48, fault_duration=0.9,
                    mc_max_states=80000),
    # the full sweep
    "sweep": Sizing(threads=4, ops=90, members=80, fault_duration=1.5,
                    mc_max_states=400000),
}

#: Short TTLs so leases abandoned by a killed server's clients expire
#: within the run (Section 4.2 condition 3), as in the chaos suites.
CHAOS_LEASE = LeaseConfig(i_lease_ttl=0.3, q_lease_ttl=0.3)


def _commit_drop_plan():
    """Drop the connection after every 6th commit-phase send."""
    return FaultPlan([FaultRule(
        SITE_CLIENT_AFTER_SEND, FaultAction.DROP_CONNECTION,
        every=6, count=None,
        match=lambda ctx: ctx.get("command") in ("dar", "sar", "commit"),
    )])


def _stats_snapshot(cache):
    """Counter dict from any backend shape (direct, router, wire)."""
    stats = getattr(cache, "stats", None)
    if stats is None:
        return {}
    if callable(stats):
        try:
            return dict(stats())
        except Exception:
            return {}
    snapshot = getattr(stats, "snapshot", None)
    if snapshot is None:
        return {}
    try:
        return dict(snapshot())
    except Exception:
        return {}


class _Deployment:
    """The cache tier a spec asked for, plus its teardown."""

    def __init__(self, spec, sizing, seed):
        self.spec = spec
        self.servers = []
        self.remotes = []
        self.injector = None
        self.iq_server = None   # build_bg_system(iq_server=...) argument
        self.shards_arg = None  # build_bg_system(shards=...) argument
        lease = CHAOS_LEASE if spec.fault_plan in (
            "commit-drop", "kill-restart"
        ) else None
        kvs = (KVSConfig(stripe_count=spec.stripes)
               if spec.stripes is not None else None)
        if spec.transport == "inproc":
            if spec.shards > 1:
                self.shards_arg = spec.shards
            elif lease is not None or kvs is not None:
                self.iq_server = IQServer(
                    kvs_config=kvs or KVSConfig(),
                    lease_config=lease or LeaseConfig(),
                )
            return
        if spec.fault_plan == "commit-drop":
            self.injector = FaultInjector(_commit_drop_plan(), seed=seed)
        count = max(spec.shards, 1)
        for index in range(count):
            server = RestartableServer(self._factory(lease, kvs))
            server.start()
            self.servers.append(server)
            remote = ResilientIQServer(
                port=server.port,
                config=NetConfig(
                    connect_timeout=1.0, operation_timeout=2.0,
                    max_retries=2, breaker_failure_threshold=3,
                    breaker_cooldown=0.02,
                ),
                backoff_config=BackoffConfig(
                    initial_delay=0.002, max_delay=0.02, jitter=0.0,
                ),
                # Only the first shard's client carries the injector, so
                # multi-shard drop plans stay deterministic per client.
                injector=self.injector if index == 0 else None,
            )
            self.remotes.append(remote)
        self.iq_server = (
            self.remotes[0] if count == 1 else list(self.remotes)
        )

    @staticmethod
    def _factory(lease, kvs=None):
        def build(tid_start=1):
            return IQServer(
                kvs_config=kvs or KVSConfig(),
                lease_config=lease or LeaseConfig(), tid_start=tid_start,
            )
        return build

    @property
    def kills(self):
        return sum(server.kills for server in self.servers)

    def close(self):
        for remote in self.remotes:
            try:
                remote.close()
            except Exception:
                pass
        for server in self.servers:
            try:
                server.kill()
            except Exception:
                pass


class _Controller:
    """The fault-plan side thread running beside the workload."""

    def __init__(self, spec, deployment, system, sizing):
        self.spec = spec
        self.deployment = deployment
        self.system = system
        self.sizing = sizing
        self.stop = threading.Event()
        self.thread = None
        self.flushes = 0
        self.migration_report = None
        self.error = None

    def start(self):
        plan = self.spec.fault_plan
        run = None
        if plan == "kill-restart":
            run = self._kill_restart
        elif plan == "flush-herd":
            run = self._flush_herd
        elif plan == "rebalance-add":
            run = self._rebalance_add
        if run is None:
            return
        self.thread = threading.Thread(target=self._guard(run), daemon=True)
        self.thread.start()

    def _guard(self, run):
        def wrapped():
            try:
                run()
            except Exception as exc:  # surfaced through the verdict
                self.error = exc
        return wrapped

    def _kill_restart(self):
        duration = self.sizing.fault_duration
        if self.stop.wait(duration * 0.3):
            return
        server = self.deployment.servers[0]
        server.kill()
        if self.stop.wait(duration * 0.15):
            pass
        server.start()

    def _flush_herd(self):
        interval = 0.2
        family = self.spec.family
        if family is not None and getattr(family, "flush_interval", None):
            interval = family.flush_interval
        # Let the cache warm before the first flush so it genuinely
        # discards served-from state.
        if self.stop.wait(interval):
            return
        while not self.stop.is_set():
            self.system.cache.flush_all()
            self.flushes += 1
            if self.stop.wait(interval):
                return

    def _rebalance_add(self):
        from repro.sharding import Rebalancer

        if self.stop.wait(self.sizing.fault_duration * 0.15):
            return
        rebalancer = Rebalancer(self.system.cache, quarantine_attempts=2)
        joining = "shard{}".format(self.spec.shards)
        for step in rebalancer.steps_add(joining, IQServer()):
            step.run()
            time.sleep(0.001)
        self.migration_report = rebalancer.report

    def finish(self):
        self.stop.set()
        if self.thread is not None:
            self.thread.join(timeout=10.0)


def _evaluate_oracles(spec, system, result, deployment, controller,
                      sizing, metrics):
    verdicts = []
    stale = system.log.unpredictable_reads() if system.log else 0
    metrics["stale"] = stale
    for oracle in spec.oracles:
        if oracle == "zero-stale":
            verdicts.append(OracleVerdict(
                "zero-stale", stale == 0, count=stale,
                detail="" if stale == 0 else str(system.log.breakdown()),
            ))
        elif oracle == "zero-errors":
            verdicts.append(OracleVerdict(
                "zero-errors", result.errors == 0, count=result.errors,
            ))
        elif oracle == "progress":
            verdicts.append(OracleVerdict(
                "progress", result.actions > 0, count=result.actions,
            ))
        elif oracle == "audit-clean":
            report = system.audit_report()
            ok = report is not None and report.clean
            verdicts.append(OracleVerdict(
                "audit-clean", ok,
                count=0 if report is None else len(report.violations),
                detail="" if ok else (
                    "auditor not attached" if report is None
                    else report.summary()
                ),
            ))
        elif oracle == "faults-fired":
            fired = deployment.kills + (
                deployment.injector.fired() if deployment.injector else 0
            )
            verdicts.append(OracleVerdict(
                "faults-fired", fired > 0, count=fired,
                detail="" if fired else "the fault plan never bit",
            ))
        elif oracle == "herd-misses":
            misses = metrics.get("get_misses", 0)
            ok = controller.flushes >= 1 and misses > sizing.threads
            verdicts.append(OracleVerdict(
                "herd-misses", ok, count=misses,
                detail="{} flushes, {} misses".format(
                    controller.flushes, misses
                ),
            ))
        elif oracle == "coalesced-gets":
            # The singleflight claim, live: herd waiters park on the one
            # in-flight fill, so server-side misses stay O(fills + one
            # first-touch poll per waiter) instead of O(backoff polls x
            # waiters).  Every install is a set, every parked waiter
            # polled once before joining, a refused fence costs one
            # retry loop, and each flush can strand one first poll per
            # worker thread -- anything beyond that budget is repoll
            # amplification the coalescer should have absorbed.
            coalesced = metrics.get("coalesced_fills", 0)
            refused = metrics.get("refused_fills", 0)
            misses = metrics.get("get_misses", 0)
            threads = spec.threads or sizing.threads
            # The slack term covers first polls that race the filler's
            # flight registration (a few per worker per flush window);
            # uncoalesced backoff repolling costs several misses per
            # waiter per flush and blows through it.
            budget = (metrics.get("cmd_set", 0) + coalesced + 2 * refused
                      + 3 * threads * (controller.flushes + 2))
            ok = coalesced > 0 and misses <= budget
            verdicts.append(OracleVerdict(
                "coalesced-gets", ok, count=coalesced,
                detail="{} misses vs budget {} ({} coalesced, {} refused, "
                       "{} sets, {} flushes)".format(
                           misses, budget, coalesced, refused,
                           metrics.get("cmd_set", 0), controller.flushes,
                       ),
            ))
        elif oracle == "migration-done":
            report = controller.migration_report
            ok = (controller.error is None and report is not None
                  and report.completed)
            verdicts.append(OracleVerdict(
                "migration-done", ok,
                count=report.copied if report else 0,
                detail=str(controller.error) if controller.error else "",
            ))
    bound_failures = check_bounds(spec.bounds, metrics)
    if spec.bounds:
        verdicts.append(OracleVerdict(
            "bounds", not bound_failures, count=len(bound_failures),
            detail="; ".join(bound_failures),
        ))
    return verdicts


def run_live(spec, sizing="smoke", seed=13):
    """Execute one catalogue entry through the live system."""
    if "live" not in spec.modes:
        return ScenarioReport(
            spec.name, "live", tier=sizing, verdict="skipped",
            skipped_reason="entry has no live mode", seed=seed,
        )
    size = SIZINGS[sizing] if isinstance(sizing, str) else sizing
    tier_name = sizing if isinstance(sizing, str) else "custom"
    started = time.perf_counter()
    deployment = _Deployment(spec, size, seed)
    system = None
    try:
        family = spec.family
        mix = family.mix() if family is not None else mix_by_name(spec.mix)
        system = build_bg_system(
            members=spec.members or size.members,
            friends_per_member=6, resources_per_member=2,
            technique=TECHNIQUE_BY_NAME[spec.technique],
            leased=True, mix=mix, seed=seed,
            iq_server=deployment.iq_server,
            shards=deployment.shards_arg,
            hot_writes=spec.hot_writes,
            compute_delay=spec.compute_delay,
            audit="audit-clean" in spec.oracles,
            member_sampler=(
                family.sampler_factory() if family is not None else None
            ),
        )
        controller = _Controller(spec, deployment, system, size)
        controller.start()
        try:
            # Every fault plan runs duration-based so the fault is
            # guaranteed to land while the workload is in flight.
            if spec.fault_plan is not None:
                result = system.runner.run(
                    threads=spec.threads or size.threads,
                    duration=size.fault_duration,
                )
            else:
                result = system.runner.run(
                    threads=spec.threads or size.threads,
                    ops_per_thread=spec.ops or size.ops,
                )
        finally:
            controller.finish()

        snapshot = _stats_snapshot(system.cache)
        metrics = {
            "actions": result.actions,
            "reads": result.reads,
            "writes": result.writes,
            "errors": result.errors,
            "throughput": result.throughput,
            "reads_per_s": (result.reads / result.duration
                            if result.duration else 0.0),
            "p99_ms": (result.latency.percentile(0.99) or 0.0) * 1000.0,
            "kills": deployment.kills,
            "flushes": controller.flushes,
            "get_misses": snapshot.get("get_misses", 0),
            "get_hits": snapshot.get("get_hits", 0),
            "cmd_get": snapshot.get("cmd_get", 0),
            "cmd_set": snapshot.get("cmd_set", 0),
        }
        flights = getattr(
            getattr(system.consistency_client, "client", None),
            "flights", None,
        )
        if flights is not None:
            metrics["coalesced_fills"] = flights.coalesced
            metrics["refused_fills"] = flights.refused
        if controller.migration_report is not None:
            metrics["migration_moved"] = controller.migration_report.copied
            metrics["migration_dropped"] = (
                controller.migration_report.dropped
            )
        verdicts = _evaluate_oracles(
            spec, system, result, deployment, controller, size, metrics
        )
        verdict = "pass" if all(v.ok for v in verdicts) else "fail"
        return ScenarioReport(
            spec.name, "live", tier=tier_name, verdict=verdict,
            oracles=verdicts, metrics=metrics,
            duration=time.perf_counter() - started, seed=seed,
        )
    finally:
        if system is not None:
            system.stop_observability()
        deployment.close()
