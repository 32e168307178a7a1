"""The committed scenario catalogue.

One declarative entry per verified configuration: the four-technique
figure parity rows (each runnable through the live system *and* the
model checker from the same spec), the Table 5 mix matrix, the wire
server, sharded routers, the chaos fault plans, and the workload
families (flash crowds, thundering herds, multi-tenant skew, zipf-theta
sweeps).  ``repro scenarios --list`` renders this module; the sweep
tiers execute it.

Conventions:

* every entry in the ``smoke`` tier must pass with all-clean oracles on
  a developer laptop in a couple of seconds -- smoke is the CI gate;
* ``sweep``-only entries are larger or slower variants;
* ``expect_violation`` rows (the ``race-*`` entries) pin the *checker's*
  sensitivity: they pass only when the explorer finds the paper's race
  in the unleased baseline.
"""

from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.workloads import (
    FlashCrowd,
    MultiTenantSkew,
    ThunderingHerd,
    ZipfSweep,
)

__all__ = ["CATALOGUE", "catalogue", "by_name", "filter_catalogue"]

_CHAOS_ORACLES = ("zero-stale", "progress", "faults-fired")

CATALOGUE = (
    # -- figure parity: one spec, two execution paths ---------------------
    ScenarioSpec(
        "figure-invalidate",
        "Figure 3 contention (trigger invalidate vs concurrent reads) "
        "live, plus the canonical writer/reader race model-checked",
        technique="invalidate", modes=("live", "mc"), mc_scenario="auto",
        tags=("figure", "parity"),
    ),
    ScenarioSpec(
        "figure-refresh",
        "Figure 2 contention (R-M-W refresh) live + model-checked",
        technique="refresh", modes=("live", "mc"), mc_scenario="auto",
        tags=("figure", "parity"),
    ),
    ScenarioSpec(
        "figure-delta",
        "Figures 7/8 contention (incremental delta) live + model-checked",
        technique="delta", modes=("live", "mc"), mc_scenario="auto",
        tags=("figure", "parity"),
    ),
    ScenarioSpec(
        "figure-clock",
        "Precise-clock self-invalidation live + model-checked",
        technique="clock", modes=("live", "mc"), mc_scenario="auto",
        tags=("figure", "parity"),
    ),
    # -- the mix matrix (Table 5) -----------------------------------------
    ScenarioSpec(
        "inproc-high-invalidate",
        "High (10% write) mix through invalidate, direct backend",
        technique="invalidate", mix="10%", tags=("mix",),
    ),
    ScenarioSpec(
        "inproc-verylow-refresh",
        "Very Low (0.1% write) mix through refresh",
        technique="refresh", mix="0.1%", tags=("mix",),
    ),
    ScenarioSpec(
        "inproc-extended-delta",
        "Extended comment-write mix through IQ-delta",
        technique="delta", mix="extended_comments", tags=("mix",),
    ),
    ScenarioSpec(
        "audited-invalidate",
        "Low mix under the online IQ lease-protocol auditor",
        technique="invalidate",
        oracles=("zero-stale", "zero-errors", "progress", "audit-clean"),
        tags=("mix", "audit"),
    ),
    # -- the wire ----------------------------------------------------------
    ScenarioSpec(
        "wire-invalidate",
        "Low mix over the TCP server",
        technique="invalidate", transport="wire", tags=("wire",),
    ),
    ScenarioSpec(
        "wire-clock",
        "Precise clocks over the TCP server",
        technique="clock", transport="wire", tags=("wire",),
    ),
    ScenarioSpec(
        "wire-refresh",
        "Refresh over the TCP server",
        technique="refresh", transport="wire", tags=("wire",),
    ),
    ScenarioSpec(
        "wire-invalidate-high",
        "High (10% write) mix over the TCP server",
        technique="invalidate", mix="10%", transport="wire",
        tags=("wire",),
    ),
    ScenarioSpec(
        "wire-delta",
        "IQ-delta over the TCP server",
        technique="delta", transport="wire", tiers=("sweep",),
        tags=("wire",),
    ),
    # -- sharded routers ---------------------------------------------------
    ScenarioSpec(
        "sharded2-invalidate",
        "Low mix across a 2-shard consistent-hash router",
        technique="invalidate", shards=2, tags=("sharded",),
    ),
    ScenarioSpec(
        "sharded4-delta",
        "IQ-delta across a 4-shard router",
        technique="delta", shards=4, tags=("sharded",),
    ),
    ScenarioSpec(
        "sharded2-clock",
        "Precise clocks across a 2-shard router",
        technique="clock", shards=2, tags=("sharded",),
    ),
    # -- fault plans -------------------------------------------------------
    ScenarioSpec(
        "chaos-commit-drop-invalidate",
        "Connections dropped at the commit phase every 6th send; the "
        "lease protocol must fail slow, never stale",
        technique="invalidate", mix="10%", transport="wire",
        fault_plan="commit-drop", oracles=_CHAOS_ORACLES, tags=("chaos",),
    ),
    ScenarioSpec(
        "chaos-kill-restart-refresh",
        "Cache server killed and cold-restarted mid-run under refresh",
        technique="refresh", transport="wire",
        fault_plan="kill-restart", oracles=_CHAOS_ORACLES, tags=("chaos",),
    ),
    ScenarioSpec(
        "chaos-kill-restart-clock",
        "Cache server killed and cold-restarted mid-run under precise "
        "clocks",
        technique="clock", transport="wire",
        fault_plan="kill-restart", oracles=_CHAOS_ORACLES, tags=("chaos",),
    ),
    ScenarioSpec(
        "chaos-kill-restart-striped",
        "Kill-restart chaos against a 32-stripe cache store: the lock "
        "striping must not change what a cold restart may serve",
        technique="invalidate", transport="wire", stripes=32,
        fault_plan="kill-restart", oracles=_CHAOS_ORACLES,
        tags=("chaos", "hotpath"),
    ),
    ScenarioSpec(
        "rebalance-add-invalidate",
        "A third shard joins mid-run through the lease-safe rebalancer",
        technique="invalidate", shards=2, fault_plan="rebalance-add",
        oracles=("zero-stale", "progress", "migration-done"),
        tags=("chaos", "rebalance"),
    ),
    # -- workload families -------------------------------------------------
    ScenarioSpec(
        "flash-crowd-invalidate",
        "85% of accesses on 2 hot members (celebrity flash crowd)",
        technique="invalidate",
        family=FlashCrowd("flash-crowd-x2", hot_members=2,
                          hot_fraction=0.85),
        tags=("family",),
    ),
    ScenarioSpec(
        "flash-crowd-clock",
        "Flash crowd under precise clocks (client-local interval tier "
        "absorbs the hot keys)",
        technique="clock",
        family=FlashCrowd("flash-crowd-x1", hot_members=1,
                          hot_fraction=0.9),
        tags=("family",),
    ),
    ScenarioSpec(
        "herd-after-flush-invalidate",
        "95% of reads on one member while flush_all fires periodically: "
        "every flush is a thundering herd of concurrent misses on one "
        "key; exactly one I lease may win the fill",
        technique="invalidate",
        family=ThunderingHerd("herd-invalidate", herd_fraction=0.95,
                              flush_interval=0.2),
        fault_plan="flush-herd",
        oracles=("zero-stale", "progress", "herd-misses"),
        tags=("family", "chaos"),
    ),
    ScenarioSpec(
        "herd-after-flush-coalesced",
        "The same post-flush thundering herd with a slow RDBMS compute: "
        "backed-off readers must park on the one in-flight fill "
        "(client miss coalescing), keeping server get traffic O(fills) "
        "instead of O(backoff polls x waiters)",
        technique="invalidate",
        family=ThunderingHerd("herd-coalesced", herd_fraction=0.95,
                              flush_interval=0.2),
        fault_plan="flush-herd", compute_delay=0.005,
        oracles=("zero-stale", "progress", "herd-misses",
                 "coalesced-gets"),
        tags=("family", "chaos", "hotpath"),
    ),
    ScenarioSpec(
        "herd-after-flush-refresh",
        "Thundering herd after flush_all under refresh",
        technique="refresh",
        family=ThunderingHerd("herd-refresh", herd_fraction=0.95,
                              flush_interval=0.2),
        fault_plan="flush-herd",
        oracles=("zero-stale", "progress", "herd-misses"),
        tags=("family", "chaos"),
    ),
    ScenarioSpec(
        "tenant-skew-invalidate",
        "4 tenants with power-law traffic shares (noisy neighbour)",
        technique="invalidate",
        family=MultiTenantSkew("tenant-skew-4", tenants=4,
                               share_exponent=1.0),
        tags=("family",),
    ),
    ScenarioSpec(
        "tenant-skew-delta",
        "Multi-tenant skew under IQ-delta",
        technique="delta",
        family=MultiTenantSkew("tenant-skew-4d", tenants=4,
                               share_exponent=1.5),
        tags=("family",),
    ),
    ScenarioSpec(
        "zipf-theta-03-invalidate",
        "Zipf theta=0.3 (mild skew)",
        technique="invalidate", family=ZipfSweep(0.3), tags=("family",),
    ),
    ScenarioSpec(
        "zipf-theta-06-invalidate",
        "Zipf theta=0.6 (moderate skew)",
        technique="invalidate", family=ZipfSweep(0.6), tags=("family",),
    ),
    ScenarioSpec(
        "zipf-theta-09-invalidate",
        "Zipf theta=0.9 (hotspot regime)",
        technique="invalidate", family=ZipfSweep(0.9), tags=("family",),
    ),
    ScenarioSpec(
        "zipf-theta-09-clock",
        "Hotspot regime under precise clocks",
        technique="clock", family=ZipfSweep(0.9, name="zipf-clock-0.9"),
        tags=("family",),
    ),
    # -- checker-sensitivity pins (mc only; must FIND the race) -----------
    ScenarioSpec(
        "race-fig3-baseline",
        "The unleased Figure 3 race: the checker must find the stale "
        "snapshot fill",
        technique="invalidate", modes=("mc",),
        mc_scenario="fig3-baseline", oracles=("mc-verdict",),
        tags=("race", "figure"),
    ),
    ScenarioSpec(
        "race-fig6-baseline",
        "The unleased Figure 6 dirty read: the checker must find it",
        technique="refresh", modes=("mc",),
        mc_scenario="fig6-baseline", oracles=("mc-verdict",),
        tags=("race", "figure"),
    ),
)


def catalogue():
    """The committed entries, in catalogue order."""
    return list(CATALOGUE)


def by_name(name):
    for spec in CATALOGUE:
        if spec.name == name:
            return spec
    raise KeyError("no catalogue entry named {!r}; see repro scenarios "
                   "--list".format(name))


def filter_catalogue(technique=None, transport=None, tag=None, family=None,
                     tier=None, mode=None):
    """Entries matching every given filter (None = don't care)."""
    return [
        spec for spec in CATALOGUE
        if spec.matches(technique=technique, transport=transport, tag=tag,
                        family=family, tier=tier, mode=mode)
    ]
