"""Announce-then-perform programs with no shipped client behind them.

Every session of the paper's techniques runs as the shipped client
itself, stepped by the gate (:mod:`repro.mc.clients`).  What remains
here are the scenario steps no client performs: delivering a fault,
draining the router's journal, and driving a topology migration.  Each
announces its :class:`Op` (label plus footprint) before performing it,
so the explorer can tell which orders commute.
"""

from repro.mc.program import MCProgram, Op

__all__ = ["fault_program", "reconciler", "migration_program"]


def fault_program(name, label, action, keys):
    """A one-step pseudo-program that delivers a fault.

    ``action(world)`` flips a world-level fault control (arm an injector
    rule, gate a shard, expire leases); ``keys`` is the set of keys whose
    cache state the fault can affect, i.e. the op's write footprint --
    that is what lets DPOR treat fault delivery like any other
    conflicting operation.
    """

    def factory(world):
        yield Op("{}:{}".format(name, label), kvs=keys)
        action(world)
        return "delivered"

    return MCProgram(name, factory)


def reconciler(name, rounds=1):
    """Drain the sharded router's local journal (one pass per step)."""

    def factory(world):
        backend = world.backend
        for _ in range(rounds):
            yield Op("{}:reconcile".format(name), kvs=world.keys)
            backend.reconcile_local()
        return "reconciled"

    return MCProgram(name, factory)


def migration_program(name, plan):
    """Drive a :class:`~repro.sharding.Rebalancer` step sequence.

    ``plan(world)`` binds the rebalancer to the world and returns
    ``(rebalancer, step_iterator)``, e.g.::

        def plan(world):
            reb = Rebalancer(world.backend, quarantine_attempts=2)
            return reb, reb.steps_add("shard2", world.spare_gates["shard2"])

    Every yielded :class:`~repro.sharding.MigrationStep` becomes one
    announced :class:`Op` whose footprint is the step's key list; a
    ``None`` footprint (begin / flip, which re-route *every* key) widens
    to the scenario's whole key universe.  Migration TIDs are aliased to
    this program per source shard, so lease fingerprints stay
    schedule-independent.  The rebalancer's own step functions absorb
    ``QuarantinedError`` / ``CacheUnavailableError`` (retry, drop,
    journal), so the program terminates in every interleaving.
    """

    def factory(world):
        rebalancer, steps = plan(world)
        rebalancer.tid_hook = (
            lambda shard, tid: world.bind_tid(name, tid, server=shard)
        )
        for step in steps:
            keys = world.keys if step.keys is None else tuple(step.keys)
            yield Op("{}:{}".format(name, step.label), kvs=keys)
            step.run()
        return "migrated" if rebalancer.report.completed else "incomplete"

    return MCProgram(name, factory)
