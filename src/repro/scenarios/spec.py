"""The declarative scenario specification.

A :class:`ScenarioSpec` is one row of the verification matrix the
paper's own evaluation sweeps (technique x workload mix x fault plan,
Tables 1/6/7): it names *what* to run -- workload, consistency
technique, shard count, transport, fault plan, oracle set, expected
bounds -- and says nothing about *how*.  The same spec can execute
through the live system (:mod:`repro.scenarios.runner`: real threads,
real sockets, the BG validation log and `IQAuditor` as oracles) or be
compiled into a bounded :mod:`repro.mc` model-checking problem
(:mod:`repro.scenarios.mc_bridge`), and both paths emit the same
:class:`~repro.scenarios.report.ScenarioReport` shape.
"""

import dataclasses

TECHNIQUES = ("invalidate", "refresh", "delta", "clock")
TRANSPORTS = ("inproc", "wire")
MODES = ("live", "mc")
TIERS = ("smoke", "sweep")

#: fault plans the live runner knows how to orchestrate
FAULT_PLANS = (
    "commit-drop",      # drop the connection after commit-phase sends
    "kill-restart",     # kill the cache server mid-run, cold-restart it
    "rebalance-add",    # migrate onto a joining shard mid-run
    "flush-herd",       # periodic flush_all (thundering-herd trigger)
)

#: oracle names the runner can evaluate
ORACLES = (
    "zero-stale",       # BG validation log: no unpredictable reads
    "zero-errors",      # no failed actions
    "progress",         # the run completed actions
    "audit-clean",      # online IQAuditor protocol verdict
    "faults-fired",     # the fault plan actually bit
    "herd-misses",      # a flush produced misses on the herd key
    "coalesced-gets",   # herd fills coalesced; server polls stayed O(fills)
    "migration-done",   # the mid-run migration completed
    "mc-verdict",       # model-checker exploration verdict (mc mode)
)

DEFAULT_ORACLES = ("zero-stale", "zero-errors", "progress")


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One declarative catalogue entry.

    ``bounds`` are expected-value bands over the report's metrics:
    ``(metric, lo, hi)`` with ``None`` for an open end -- e.g.
    ``("actions", 1, None)``.  ``mc_scenario`` selects the model-checker
    path: ``"auto"`` compiles writer+reader programs for the spec's
    technique from scratch; any other string names an existing
    :mod:`repro.mc` catalogue scenario to run under this entry's flag.
    """

    name: str
    description: str = ""
    technique: str = "invalidate"
    mix: str = "1%"
    family: object = None          # WorkloadFamily instance or None
    shards: int = 0                # 0 = direct single backend
    transport: str = "inproc"
    fault_plan: str = None
    oracles: tuple = DEFAULT_ORACLES
    bounds: tuple = ()             # ((metric, lo, hi), ...)
    modes: tuple = ("live",)
    mc_scenario: str = None        # "auto" or a repro.mc scenario name
    tiers: tuple = ("smoke", "sweep")
    tags: tuple = ()
    #: sizing overrides (None = tier default)
    threads: int = None
    ops: int = None
    members: int = None
    #: BG write-delay / acquisition knobs for read-hot configurations
    hot_writes: bool = False
    #: cache-store lock stripes (None = the KVSConfig default)
    stripes: int = None
    #: per-fill RDBMS compute delay (seconds); widens the fill window
    #: so herd entries exercise miss coalescing
    compute_delay: float = 0.0

    def __post_init__(self):
        if self.technique not in TECHNIQUES:
            raise ValueError("unknown technique {!r}".format(self.technique))
        if self.transport not in TRANSPORTS:
            raise ValueError("unknown transport {!r}".format(self.transport))
        if self.fault_plan is not None and self.fault_plan not in FAULT_PLANS:
            raise ValueError("unknown fault plan {!r}".format(self.fault_plan))
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError("unknown mode {!r}".format(mode))
        for tier in self.tiers:
            if tier not in TIERS:
                raise ValueError("unknown tier {!r}".format(tier))
        for oracle in self.oracles:
            if oracle not in ORACLES:
                raise ValueError("unknown oracle {!r}".format(oracle))
        if "mc" in self.modes and self.mc_scenario is None:
            raise ValueError(
                "{}: mc mode requires mc_scenario".format(self.name)
            )
        if self.fault_plan == "rebalance-add" and self.shards < 2:
            raise ValueError("rebalance-add needs shards >= 2")
        if self.stripes is not None and self.stripes < 1:
            raise ValueError("stripes must be >= 1")
        if (self.fault_plan in ("commit-drop", "kill-restart")
                and self.transport == "inproc"):
            raise ValueError(
                "{} exercises the wire path; pick the wire "
                "transport".format(self.fault_plan)
            )

    @property
    def families(self):
        """The family tag, for filters (empty when mix-driven)."""
        return (self.family.family,) if self.family is not None else ()

    def matches(self, technique=None, transport=None, tag=None, family=None,
                tier=None, mode=None):
        """Catalogue filter predicate (``repro scenarios --list`` etc.)."""
        if technique is not None and self.technique != technique:
            return False
        if transport is not None and self.transport != transport:
            return False
        if tag is not None and tag not in self.tags:
            return False
        if family is not None and family not in self.families:
            return False
        if tier is not None and tier not in self.tiers:
            return False
        if mode is not None and mode not in self.modes:
            return False
        return True

    def workload_label(self):
        if self.family is not None:
            return self.family.name
        return self.mix

    def __repr__(self):
        return "ScenarioSpec({!r})".format(self.name)


def check_bounds(bounds, metrics):
    """Evaluate ``(metric, lo, hi)`` bands; returns failure messages."""
    messages = []
    for metric, lo, hi in bounds:
        value = metrics.get(metric)
        if value is None:
            messages.append("bound on missing metric {!r}".format(metric))
            continue
        if lo is not None and value < lo:
            messages.append(
                "{} = {} below expected floor {}".format(metric, value, lo)
            )
        if hi is not None and value > hi:
            messages.append(
                "{} = {} above expected ceiling {}".format(metric, value, hi)
            )
    return messages
