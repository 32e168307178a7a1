"""The model checker's scenario catalogue.

A :class:`Scenario` bundles a world factory with its oracles:

* ``check_state(world, runs)`` runs after *every* explored step -- for
  invariants that must hold in every reachable state (e.g. "nothing is
  journaled before the writer's SQL commit");
* ``check_final(world, runs)`` runs at every terminal state (all
  programs finished).  The default combines the paper's two read
  guarantees: **no stale final value** (every cached value equals the
  committed row, or the key is absent / pending reconciliation) and
  **no dirty read** (every value a program was served from the cache
  was committed at *some* point -- an uncommitted value in a response
  is Figure 6's bug).  The explorer adds the
  :class:`~repro.obs.audit.IQAuditor` as an independent second opinion.

The catalogue covers the six figure races (each as an unleased-baseline
scenario the checker must find violations in, and an IQ scenario it must
prove clean over the same bounded space; both carry the figure's paper
``schedule``, which :func:`figure_outcomes` replays), 3-session
technique mixes, 2-shard configurations, fault-delivery scenarios, and
the PR 2 regression semantics (post-commit journaling, ``poison``
partial-proposal abort) -- each of those paired with its rejected "buggy"
variant so the suite demonstrates the checker *would have caught* the
original bug.
"""

from collections import namedtuple

from repro.core.policies import (
    BaselineDeltaClient,
    BaselineRefreshClient,
    IQDeltaClient,
    IQInvalidateClient,
)
from repro.mc.clients import (
    baseline_client,
    baseline_reader,
    clock_reader,
    clock_writer,
    delta_writer,
    invalidate_writer,
    iq_reader,
    refresh_writer,
)
from repro.mc.explorer import replay
from repro.mc.gate import GatedSingleFlight
from repro.mc.sessions import fault_program, migration_program, reconciler
from repro.mc.variants import (
    GuessedCommitClock,
    JournalAtFailureClient,
    PrecommitDeltaClient,
    PrecommitRefreshClient,
    SequentialQaRClient,
    UnfencedSingleFlight,
    UnpoisonedDeltaClient,
)
from repro.mc.world import World
from repro.sharding import Rebalancer
from repro.sharding.ring import ConsistentHashRing

__all__ = [
    "Scenario",
    "default_final_checks",
    "clock_final_checks",
    "coalesced_final_checks",
    "get_scenario",
    "scenario_names",
    "SCENARIOS",
    "FIGURE_PAIRS",
    "FigureOutcome",
    "figure_outcomes",
]


def default_final_checks(world, runs, allow_journaled_stale=False):
    """The two value oracles over a terminal state."""
    messages = []
    kvs = world.kvs_contents()
    sql = world.sql_contents()
    journaled = world.journaled_keys() if allow_journaled_stale else set()
    for key in world.keys:
        cached = kvs[key]
        if cached is None:
            continue
        committed = sql[key]
        if str(cached) != str(committed):
            if key in journaled:
                continue
            messages.append(
                "stale-final: kvs[{}]={!r} but rdbms committed {!r}".format(
                    key, cached, committed
                )
            )
    for program, key, value in world.cache_reads():
        history = {
            str(v) for v in world.committed_history.get(key, ())
        }
        if str(value) not in history:
            messages.append(
                "dirty-read: {} was served {!r} for {}, which was never "
                "committed (history: {})".format(
                    program, value, key, sorted(history)
                )
            )
    return messages


def clock_final_checks(world, runs):
    """The terminal oracle for precise-clock scenarios.

    Self-invalidation is *lazy*: after a clock-keyed commit a stale value
    may linger in the store, but its validity interval has expired, so no
    ``cget`` can ever serve it again -- the plain stale-final check would
    false-positive on exactly the technique's safe divergence.  A cached
    value is therefore only held against the RDBMS while its interval is
    still live at the key's final validity-clock reading; a live-interval
    mismatch is a real violation (the value would be served to the next
    reader).  Unstamped entries never serve through ``cget`` and are
    ignored.  The dirty-read oracle applies unchanged.
    """
    messages = []
    txmanager = world.db.txmanager
    kvs = world.kvs_contents()
    sql = world.sql_contents()
    stamps = world.interval_stamps()
    for key in world.keys:
        cached = kvs[key]
        if cached is None:
            continue
        stamp = stamps.get(key)
        if stamp is None:
            continue
        until = stamp[1]
        now = txmanager.key_clock(key)
        if until <= now:
            continue
        committed = sql[key]
        if str(cached) != str(committed):
            messages.append(
                "clock-stale: kvs[{}]={!r} is valid until clock {} "
                "(clock now {}) but the rdbms committed {!r}".format(
                    key, cached, until, now, committed
                )
            )
    for program, key, value in world.cache_reads():
        history = {
            str(v) for v in world.committed_history.get(key, ())
        }
        if str(value) not in history:
            messages.append(
                "dirty-read: {} was served {!r} for {}, which was never "
                "committed (history: {})".format(
                    program, value, key, sorted(history)
                )
            )
    return messages


def coalesced_final_checks(world, runs):
    """Default oracles plus the coalesced-read freshness check.

    A coalesced serve hands one filler's computed value to co-located
    waiters without touching the server, so a stale hand-off leaves no
    trace in the store (stale-final is blind to it) and the value *was*
    committed at some point (dirty-read is blind too).  The ``expect``
    observation a coalesced reader records at its first step -- the
    committed value, snapshotted only when no write session was pending
    on the key -- supplies the missing baseline: every value that read
    is later served from the cache must be the expected value or a
    newer committed one.  The scenarios below change each key once, so
    "newer committed" is exactly the final committed value and the
    check is exact.
    """
    messages = default_final_checks(world, runs)
    sql = world.sql_contents()
    for program in sorted(world.observations):
        expected = {}
        for kind, key, value in world.observations[program]:
            if kind == "expect":
                expected[key] = str(value)
            elif kind == "cache" and key in expected:
                served = str(value)
                if served != expected[key] and served != str(sql[key]):
                    messages.append(
                        "coalesced-stale: {} began after {!r} was "
                        "committed for {} yet was served {!r} (final "
                        "committed {!r})".format(
                            program, expected[key], key, value, sql[key]
                        )
                    )
    return messages


class Scenario:
    """One model-checking problem: programs, world, oracles."""

    def __init__(self, name, build, description="", check_state=None,
                 check_final=None, allow_journaled_stale=False,
                 expect_violation=False, audit=True, tags=(),
                 technique="invalidate", schedule=""):
        self.name = name
        self._build = build
        self.description = description
        self._check_state = check_state
        self._check_final = check_final
        self.allow_journaled_stale = allow_journaled_stale
        #: True when the *point* of the scenario is that the checker must
        #: find violations (baseline races, rejected buggy semantics).
        self.expect_violation = expect_violation
        #: feed the auditor's verdict into the terminal oracle
        self.audit = audit
        self.tags = tuple(tags)
        #: the consistency technique under test (``repro mc --list``)
        self.technique = technique
        #: a figure scenario's paper interleaving, one program name per
        #: announced step (:func:`figure_outcomes`); empty elsewhere.
        #: Passed as a space-separated string.
        self.schedule = tuple(schedule.split())

    def build(self):
        """Fresh ``(world, [MCProgram])`` for one execution."""
        return self._build()

    def check_state(self, world, runs):
        if self._check_state is None:
            return []
        return list(self._check_state(world, runs))

    def check_final(self, world, runs):
        if self._check_final is not None:
            return list(self._check_final(world, runs))
        return default_final_checks(
            world, runs, allow_journaled_stale=self.allow_journaled_stale
        )

    def __repr__(self):
        return "Scenario({!r})".format(self.name)


# ---------------------------------------------------------------------------
# figure scenarios: baseline (must race) and IQ (must prove clean)
# ---------------------------------------------------------------------------

def _fig2_baseline():
    world = World(keys=("k0",), backend="baseline")
    world.seed("k0", 100)
    return world, [
        refresh_writer("S1", "k0", "val + 50", lambda old: int(old) + 50,
                       make=baseline_client(BaselineRefreshClient),
                       retries=2),
        refresh_writer("S2", "k0", "val * 10", lambda old: int(old) * 10,
                       make=baseline_client(BaselineRefreshClient),
                       retries=2),
    ]


def _fig2_iq():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 100)
    return world, [
        refresh_writer("S1", "k0", "val + 50", lambda old: int(old) + 50,
                       attempts=3),
        refresh_writer("S2", "k0", "val * 10", lambda old: int(old) * 10,
                       attempts=3),
    ]


def _fig3_baseline():
    world = World(keys=("k0",), backend="baseline")
    world.seed("k0", 0)
    return world, [
        invalidate_writer("S1", {"k0": "1"}, make=baseline_client()),
        baseline_reader("S2", "k0", attempts=2),
    ]


def _fig3_iq():
    # Eager-delete variant (optimization off): exercises back-off.
    world = World(keys=("k0",), backend="iq", serve_pending=False)
    world.seed("k0", 0)
    return world, [
        invalidate_writer("S1", {"k0": "1"}, attempts=2),
        iq_reader("S2", "k0", attempts=4),
    ]


def _fig4_baseline():
    # The rearrangement window as a 3-session race: while S1's delete
    # and commit are in flight, filler R1 can install the pre-commit
    # value, which observer R2 then consumes after S1 committed.
    world = World(keys=("k0",), backend="baseline")
    world.seed("k0", 0)
    return world, [
        invalidate_writer("S1", {"k0": "1"}, make=baseline_client()),
        baseline_reader("R1", "k0", attempts=2),
        baseline_reader("R2", "k0", attempts=2),
    ]


def _fig4_iq():
    # Deferred-delete optimization on: readers inside the window serve
    # the pending (old) version -- they serialize before the writer --
    # and no interleaving may leave a stale value behind.
    world = World(keys=("k0",), backend="iq", serve_pending=True)
    world.seed("k0", 0)
    return world, [
        invalidate_writer("S1", {"k0": "1"}, attempts=2),
        iq_reader("R1", "k0", attempts=4),
        iq_reader("R2", "k0", attempts=4),
    ]


def _fig6_baseline():
    world = World(keys=("k0",), backend="baseline")
    world.seed("k0", 0)
    return world, [
        refresh_writer("S1", "k0", "val + 1", lambda old: int(old) + 1,
                       make=baseline_client(PrecommitRefreshClient),
                       abort=True),
        baseline_reader("S2", "k0", attempts=2),
    ]


def _fig6_iq():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 0)
    return world, [
        refresh_writer("S1", "k0", "val + 1", lambda old: int(old) + 1,
                       attempts=1, abort=True),
        iq_reader("S2", "k0", attempts=4),
    ]


def _fig7_baseline():
    world = World(keys=("k0",), backend="baseline", text_values=True)
    world.seed_db_only("k0", "x")  # cold cache: the figure starts on a miss
    return world, [
        delta_writer("S1", [("k0", "append", b"d")],
                     make=baseline_client(PrecommitDeltaClient)),
        baseline_reader("S2", "k0", attempts=2),
    ]


def _fig7_iq():
    world = World(keys=("k0",), backend="iq", text_values=True)
    world.seed_db_only("k0", "x")
    return world, [
        delta_writer("S1", [("k0", "append", b"d")], attempts=2),
        iq_reader("S2", "k0", attempts=4),
    ]


def _fig8_baseline():
    world = World(keys=("k0",), backend="baseline", text_values=True)
    world.seed_db_only("k0", "x")
    return world, [
        delta_writer("S1", [("k0", "append", b"d")],
                     make=baseline_client(BaselineDeltaClient)),
        baseline_reader("S2", "k0", attempts=2),
    ]


def _fig8_iq():
    # Same programs as Figure 7 under IQ; the bounded space includes the
    # Figure 8 order (fill after commit, delta applied once via the Q
    # lease fencing) -- no interleaving doubles the delta.
    world = World(keys=("k0",), backend="iq", text_values=True)
    world.seed_db_only("k0", "x")
    return world, [
        delta_writer("S1", [("k0", "append", b"d")], attempts=2),
        iq_reader("S2", "k0", attempts=4),
    ]


# ---------------------------------------------------------------------------
# 3-session technique mixes under IQ (exhaustive, must be clean)
# ---------------------------------------------------------------------------

def _mix3_inv_refresh_read():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 10)
    return world, [
        invalidate_writer("inv", {"k0": "val + 100"}, attempts=2),
        refresh_writer("ref", "k0", "val + 7", lambda old: int(old) + 7,
                       attempts=2),
        iq_reader("r", "k0", attempts=3),
    ]


def _mix3_inv_delta_read():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 10)
    return world, [
        invalidate_writer("inv", {"k0": "val + 100"}, attempts=2),
        delta_writer("d", [("k0", "incr", 3)], attempts=2),
        iq_reader("r", "k0", attempts=3),
    ]


def _mix3_refresh_delta_read():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 10)
    return world, [
        refresh_writer("ref", "k0", "val + 7", lambda old: int(old) + 7,
                       attempts=2),
        delta_writer("d", [("k0", "incr", 3)], attempts=2),
        iq_reader("r", "k0", attempts=3),
    ]


# ---------------------------------------------------------------------------
# 2-shard configurations
# ---------------------------------------------------------------------------

def _two_keys_on_distinct_shards(count=2):
    """Deterministic key names that land on different shards of a 2-ring."""
    ring = ConsistentHashRing(["shard0", "shard1"], vnodes=64)
    chosen = []
    owners = set()
    index = 0
    while len(chosen) < count and index < 256:
        key = "k{}".format(index)
        owner = ring.node_for(key)
        if owner not in owners:
            owners.add(owner)
            chosen.append(key)
        index += 1
    return tuple(chosen)


def _sharded_mix():
    key_a, key_b = _two_keys_on_distinct_shards()
    world = World(keys=(key_a, key_b), backend="sharded", shards=2)
    world.seed(key_a, 10)
    world.seed(key_b, 20)
    return world, [
        invalidate_writer("inv", {key_a: "val + 100",
                                     key_b: "val + 100"}, attempts=2),
        delta_writer("d", [(key_b, "incr", 3)], attempts=2),
        iq_reader("r", key_a, attempts=3),
    ]


# ---------------------------------------------------------------------------
# fault delivery as an explored schedule step
# ---------------------------------------------------------------------------

def _fault_suppressed_void():
    # The repro.faults injector suppresses the I-lease void at the
    # server.lease.void hook site once the fault program's step has
    # armed it.  From that point a doomed reader's token stays live, so
    # its stale fill is accepted after the writer's delete -- the
    # checker must find the interleaving, and the auditor must flag the
    # q-grant-left-i-alive protocol breach.
    world = World(keys=("k0",), backend="iq", suppressible_void=True)
    world.seed_db_only("k0", 0)
    return world, [
        fault_program("F", "arm-suppress-i-void",
                      lambda w: w.arm_fault("suppress-i-void"), ("k0",)),
        invalidate_writer("S1", {"k0": "1"}, attempts=2),
        iq_reader("S2", "k0", attempts=3),
    ]


def _fault_expired_leases():
    # A refresh writer's leases expire mid-session (clock jump delivered
    # as a schedule step).  Section 4.2 condition 3 deletes the key and
    # ignores the writer's late SaR -- but the writer's *RDBMS*
    # transaction is outside the KVS's reach.  The checker finds the
    # consequence: once the Q lease is gone, a reader can I-lease the
    # deleted key, fill the pre-commit value, and the writer's commit no
    # longer invalidates anything -- the Figure 3 window reopens.  This
    # is the paper's lease-duration assumption (leases must outlive
    # sessions) surfaced as a concrete interleaving.
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 10)
    return world, [
        fault_program("F", "expire-leases",
                      lambda w: w.expire_leases(), ("k0",)),
        refresh_writer("S1", "k0", "val + 7", lambda old: int(old) + 7,
                       attempts=2),
        iq_reader("S2", "k0", attempts=3),
    ]


def _fuzz_sharded_fault():
    # The fuzz target: too many programs to exhaust (4 sessions across 2
    # shards plus kill/heal/reconcile steps), so the random-schedule
    # fuzzer samples it with the auditor as the oracle.  Under the
    # reviewed semantics (post-commit journaling, poison) every sampled
    # schedule must be clean.
    key_healthy, key_victim = _two_keys_on_distinct_shards()
    world = World(keys=(key_healthy, key_victim), backend="sharded",
                  shards=2)
    world.seed(key_healthy, 10)
    world.seed(key_victim, 20)
    victim = world.backend.shard_name_for(key_victim)
    return world, [
        invalidate_writer(
            "W", {key_healthy: "val + 100", key_victim: "val + 100"},
            attempts=2,
        ),
        delta_writer("D", [(key_victim, "incr", 3)], attempts=2),
        iq_reader("R1", key_victim, attempts=3),
        iq_reader("R2", key_healthy, attempts=3),
        fault_program("F", "kill:{}".format(victim),
                      lambda w: w.kill_shard(victim), (key_victim,)),
        fault_program("H", "heal:{}".format(victim),
                      lambda w: w.heal_shard(victim), (key_victim,)),
        reconciler("Rec"),
    ]


# ---------------------------------------------------------------------------
# batched Q-lease acquisition (PR 5): one qareg step vs per-key qar steps
# ---------------------------------------------------------------------------

def _qareg_invalidate(batched):
    """Two-key invalidate writer vs a delta writer and a reader.

    The batched variant acquires its whole write-set through one
    ``qar_many`` schedule step (the wire's ``qareg``); the sequential
    twin is the classic per-key ``qar`` loop with an interleaving point
    between the keys.  Both must explore clean, and ``tests/mc``
    asserts their terminal outcome sets are identical.
    """
    cls = IQInvalidateClient if batched else SequentialQaRClient

    def build():
        world = World(keys=("k0", "k1"), backend="iq")
        world.seed("k0", 10)
        world.seed("k1", 20)
        return world, [
            invalidate_writer("W", {"k0": "val + 100", "k1": "val + 100"},
                              attempts=2, cls=cls),
            delta_writer("d", [("k1", "incr", 3)], attempts=2),
            iq_reader("r", "k0", attempts=3),
        ]

    return build


# ---------------------------------------------------------------------------
# client-side miss coalescing (singleflight): fenced vs unfenced waiters
# ---------------------------------------------------------------------------

def _coalesced_fill(serve_pending):
    """Two co-located coalescing readers racing an invalidate writer.

    Both readers share one flight registry, so either may serve the
    other's fill without a wire round trip; the applied fence must keep
    every interleaving clean, including the figure windows (eager delete
    with ``serve_pending=False``, the deferred-delete rearrangement
    window with ``True``).  The cache starts cold so fills -- and hence
    flights -- actually happen.
    """

    def build():
        world = World(keys=("k0",), backend="iq",
                      serve_pending=serve_pending)
        world.seed_db_only("k0", 0)
        flights = GatedSingleFlight(world.gate)
        return world, [
            invalidate_writer("W", {"k0": "1"}, attempts=2),
            iq_reader("F", "k0", attempts=3, flights=flights, expect=True),
            iq_reader("R", "k0", attempts=3, flights=flights, expect=True),
        ]

    return build


def _coalesced_witness(fenced):
    """The hand-off race the applied fence exists for.

    Filler F computes the pre-commit value under an I lease and leaves
    its flight registered across the fill window; writer W's Q lease
    voids that I lease, commits, and deletes; plain reader G then takes
    a fresh I lease, which forces late-starting reader R into back-off
    -- where R joins F's still-registered flight.  F's install is
    refused (``applied=False``).  An *unfenced* R consumes F's value
    anyway: a read that began after W's session fully ended is served
    the pre-write value.  Neither classic oracle can see it -- the
    value was once committed and never reaches the store -- which is
    what the ``expect`` baseline is for.  The fenced twin must explore
    clean over the identical program set.
    """

    def build():
        world = World(keys=("k0",), backend="iq", serve_pending=False)
        world.seed_db_only("k0", 0)
        registry = GatedSingleFlight if fenced else UnfencedSingleFlight
        flights = registry(world.gate)
        return world, [
            invalidate_writer("W", {"k0": "1"}, attempts=1),
            iq_reader("F", "k0", attempts=2, flights=flights),
            iq_reader("G", "k0", attempts=2),
            iq_reader("R", "k0", attempts=2, flights=flights, expect=True),
        ]

    return build


# ---------------------------------------------------------------------------
# PR 2 regression semantics, explored exhaustively
# ---------------------------------------------------------------------------

def _journal_invariant(world, runs):
    """Post-commit journaling: nothing may be journaled pre-commit."""
    journaled = world.journaled_keys()
    if journaled and not world.flags.get("sql_committed:W"):
        return [
            "journal-before-commit: {} journaled while W's RDBMS "
            "transaction is still uncommitted".format(sorted(journaled))
        ]
    return []


def _pr2_journal(journal_timing):
    def build():
        key_healthy, key_victim = _two_keys_on_distinct_shards()
        world = World(keys=(key_healthy, key_victim), backend="sharded",
                      shards=2)
        world.seed(key_healthy, 0)
        world.seed(key_victim, 0)
        victim = world.backend.shard_name_for(key_victim)
        world.kill_shard(victim, label="setup-kill:{}".format(victim))
        world._fault_log.clear()  # setup, not an explored fault step
        return world, [
            invalidate_writer(
                "W", {key_healthy: "1", key_victim: "1"}, attempts=2,
                cls=(IQInvalidateClient if journal_timing == "post"
                     else JournalAtFailureClient),
            ),
            fault_program("H", "heal",
                          lambda w: w.heal_shard(victim), (key_victim,)),
            reconciler("Rec"),
            iq_reader("R", key_victim, attempts=3),
        ]
    return build


def _pr2_poison(poison):
    def build():
        key_healthy, key_victim = _two_keys_on_distinct_shards()
        world = World(keys=(key_healthy, key_victim), backend="sharded",
                      shards=2)
        world.seed(key_healthy, 0)
        world.seed(key_victim, 10)
        victim = world.backend.shard_name_for(key_victim)
        # The victim shard accepts one delta proposal, then fails: the
        # partial-proposal shape poison() exists for.
        world.shard_gates[victim].fail_after["iq_delta"] = 1
        return world, [
            delta_writer(
                "W",
                [(key_victim, "incr", 1), (key_victim, "incr", 2),
                 (key_healthy, "incr", 5)],
                attempts=1,
                cls=IQDeltaClient if poison else UnpoisonedDeltaClient,
            ),
            iq_reader("R", key_victim, attempts=3),
        ]
    return build


# ---------------------------------------------------------------------------
# online rebalancing: topology changes racing live sessions
# ---------------------------------------------------------------------------

def _rebalance_keys():
    """Deterministic keys for the 2-shard <-> 3-shard scenarios.

    Returns ``(moving, staying, victim)``: ``moving`` changes owner when
    ``shard2`` joins the ``{shard0, shard1}`` ring, ``staying`` is owned
    by ``shard0`` on both rings, and ``victim`` is owned by ``shard1``
    on both -- the key that migrates to a survivor when ``shard1``
    leaves.
    """
    two = ConsistentHashRing(["shard0", "shard1"], vnodes=64)
    three = ConsistentHashRing(["shard0", "shard1", "shard2"], vnodes=64)
    moving = staying = victim = None
    for index in range(512):
        key = "k{}".format(index)
        old, new = two.node_for(key), three.node_for(key)
        if moving is None and new == "shard2":
            moving = key
        elif staying is None and old == new == "shard0":
            staying = key
        elif victim is None and old == new == "shard1":
            victim = key
        if moving and staying and victim:
            return moving, staying, victim
    raise RuntimeError("no suitable rebalance keys among 512 candidates")


def _add_plan(world, safe=True):
    rebalancer = Rebalancer(world.backend, quarantine_attempts=2, safe=safe)
    return rebalancer, rebalancer.steps_add(
        "shard2", world.spare_gates["shard2"]
    )


def _rebalance_add():
    # 2->3 shards while an invalidate writer and a reader race the
    # migration on the moving key.  Every interleaving -- writer before
    # the quarantine, between release and flip, across the flip -- must
    # end with the cache matching the RDBMS and no dirty read.
    moving, staying, _ = _rebalance_keys()
    world = World(keys=(moving, staying), backend="sharded", shards=2,
                  spare_shards=1)
    world.seed(moving, 10)
    world.seed(staying, 20)
    return world, [
        migration_program("M", _add_plan),
        invalidate_writer("W", {moving: "val + 100"}, attempts=2),
        iq_reader("R", moving, attempts=3),
    ]


def _rebalance_add_kill():
    # Same migration, plus a kill of the moving key's *source* shard
    # delivered at an explored step.  The writer degrades to post-commit
    # journaling, the reader to direct RDBMS reads, the migrator to
    # drop-and-journal -- journaled keys are the only tolerated
    # divergence (pending delete-on-recover), and nothing served from
    # the cache may ever be uncommitted.
    moving, staying, _ = _rebalance_keys()
    world = World(keys=(moving, staying), backend="sharded", shards=2,
                  spare_shards=1)
    world.seed(moving, 10)
    world.seed(staying, 20)
    source = world.backend.shard_name_for(moving)
    return world, [
        migration_program("M", _add_plan),
        invalidate_writer("W", {moving: "val + 100"}, attempts=2),
        iq_reader("R", moving, attempts=2),
        fault_program("F", "kill:{}".format(source),
                      lambda w: w.kill_shard(source), (moving, staying)),
    ]


def _rebalance_remove():
    # 2->1 shards: shard1's keys migrate to the survivor while a refresh
    # writer R-M-Ws the migrating key.  The writer's dual-legged growing
    # phase must keep whichever copy ends up routed in lockstep with the
    # RDBMS across the flip.
    _, staying, victim = _rebalance_keys()
    world = World(keys=(victim, staying), backend="sharded", shards=2)
    world.seed(victim, 10)
    world.seed(staying, 20)

    def plan(w):
        rebalancer = Rebalancer(w.backend, quarantine_attempts=2)
        return rebalancer, rebalancer.steps_remove("shard1")

    return world, [
        migration_program("M", plan),
        refresh_writer("W", victim, "val + 7", lambda old: int(old) + 7,
                       attempts=2),
        iq_reader("R", victim, attempts=2),
    ]


def _rebalance_unquarantined():
    # The naive operator move -- copy values, then flip the ring, with
    # no quarantine and no dual-epoch window.  A writer that commits
    # between the copy and the flip invalidates only the old owner's
    # copy; the flip then routes the new owner's pre-write copy -- the
    # checker must find that stale final state (and thereby show the
    # safe protocol is not vacuously passing).
    moving, _, _ = _rebalance_keys()
    world = World(keys=(moving,), backend="sharded", shards=2,
                  spare_shards=1)
    world.seed(moving, 10)
    return world, [
        migration_program("M", lambda w: _add_plan(w, safe=False)),
        invalidate_writer("W", {moving: "val + 100"}, attempts=2),
    ]


# ---------------------------------------------------------------------------
# precise-clock scenarios (ClockClient): the figure races, lease-free
# ---------------------------------------------------------------------------

def _fig2_clock():
    # Two R-M-W writers under precise clocks: the RDBMS alone serializes
    # them (clock writes take no leases, touch no cache); the reader's
    # promise/cget pair brackets their commits in every explored order.
    world = World(keys=("k0",), backend="iq")
    world.seed_db_only("k0", 100)
    return world, [
        clock_writer("S1", {"k0": "val + 50"}, attempts=3),
        clock_writer("S2", {"k0": "val * 10"}, attempts=3),
        clock_reader("R", "k0", attempts=2),
    ]


def _fig3_clock():
    # Figure 3's invalidate+read race: the commit's clock jump past the
    # reader's promised horizon replaces the trigger-delete -- a fill
    # stamped before the commit is expired the moment the commit lands.
    world = World(keys=("k0",), backend="iq")
    world.seed_db_only("k0", 0)
    return world, [
        clock_writer("S1", {"k0": "1"}, attempts=2),
        clock_reader("S2", "k0", attempts=2),
    ]


def _fig4_clock():
    # Figure 4's rearrangement window with two readers: one reader's
    # pre-commit fill may be served to the other *at a pre-commit clock
    # reading* (both serialize before the writer) but never after the
    # commit's jump.
    world = World(keys=("k0",), backend="iq")
    world.seed_db_only("k0", 0)
    return world, [
        clock_writer("S1", {"k0": "1"}, attempts=2),
        clock_reader("R1", "k0", attempts=2),
        clock_reader("R2", "k0", attempts=2),
    ]


def _fig6_clock():
    # Figure 6's aborting writer: nothing to undo -- no lease, no cache
    # write, no clock movement; the uncommitted value never escapes the
    # aborted snapshot.
    world = World(keys=("k0",), backend="iq")
    world.seed_db_only("k0", 0)
    return world, [
        clock_writer("S1", {"k0": "val + 1"}, abort=True),
        clock_reader("S2", "k0", attempts=2),
    ]


def _fig7_clock():
    # The delta figures degrade to plain writes: precise clocks carry no
    # incremental updates, the append is a clock-keyed SQL write whose
    # commit self-invalidates any interval covering the key.
    world = World(keys=("k0",), backend="iq", text_values=True)
    world.seed_db_only("k0", "x")
    return world, [
        clock_writer("S1", {"k0": "val + 'd'"}, attempts=2),
        clock_reader("S2", "k0", attempts=2),
    ]


def _clock_missized():
    # The rejected variant: the reader guesses its interval instead of
    # registering a promise, so the writer's commit advances the clock a
    # single tick instead of jumping the guessed bound -- the stale fill
    # stays servable inside the guessed window, and the checker must
    # find that state (the precise-clock rebalance-unquarantined).
    world = World(keys=("k0",), backend="iq")
    world.seed_db_only("k0", 0)
    return world, [
        clock_writer("W", {"k0": "1"}, attempts=2),
        clock_reader("R", "k0", attempts=2,
                     commit_clock=GuessedCommitClock.gated(8)),
    ]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SCENARIOS = {}


def _register(scenario):
    SCENARIOS[scenario.name] = scenario
    return scenario


_register(Scenario(
    "fig2-baseline", _fig2_baseline, expect_violation=True,
    technique="refresh",
    description="Figure 2: R-M-W with gets/cas; KVS order can diverge "
                "from RDBMS serialization order",
    schedule="S1 S1 S1 S2 S2 S2 S2 S2 S1 S1",
    tags=("figure", "baseline"),
))
_register(Scenario(
    "fig2-iq", _fig2_iq, technique="refresh",
    description="Figure 2 under IQ refresh: QaRead/SaR serialize the "
                "two writers",
    schedule="S1 S1 S2 S2 S2 S1 S1 S1 S1 S1 S2 S2 S2 S2 S2 S2 S2",
    tags=("figure", "iq"),
))
_register(Scenario(
    "fig3-baseline", _fig3_baseline, expect_violation=True,
    description="Figure 3: trigger invalidate + snapshot read; a read "
                "lease granted after the delete fills a stale snapshot",
    schedule="S1 S1 S1 S2 S2 S1 S2",
    tags=("figure", "baseline"),
))
_register(Scenario(
    "fig3-iq", _fig3_iq,
    description="Figure 3 under IQ invalidate (eager delete): readers "
                "back off against the Q lease",
    schedule="S1 S1 S1 S1 S2 S1 S1 S2 S2 S2",
    tags=("figure", "iq"),
))
_register(Scenario(
    "fig4-baseline", _fig4_baseline, expect_violation=True,
    description="Figure 4's window, unleased: a filler installs the "
                "pre-commit value mid-invalidation and it survives",
    schedule="S1 S1 S1 R1 R1 R1 S1 R2",
    tags=("figure", "baseline"),
))
_register(Scenario(
    "fig4-iq", _fig4_iq,
    description="Figure 4: the deferred-delete rearrangement window "
                "serves pending versions yet never leaks a stale final "
                "state",
    schedule="S1 S1 S1 S1 R1 R2 S1 S1",
    tags=("figure", "iq"),
))
_register(Scenario(
    "fig6-baseline", _fig6_baseline, expect_violation=True,
    technique="refresh",
    description="Figure 6: pre-commit refresh + RDBMS abort = dirty read",
    schedule="S1 S1 S1 S2",
    tags=("figure", "baseline"),
))
_register(Scenario(
    "fig6-iq", _fig6_iq, technique="refresh",
    description="Figure 6 under IQ: Abort(TID) releases the Q lease "
                "without installing the uncommitted value",
    schedule="S1 S1 S1 S1 S2 S1 S1",
    tags=("figure", "iq"),
))
_register(Scenario(
    "fig7-baseline", _fig7_baseline, expect_violation=True,
    technique="delta",
    description="Figure 7: unleased delta lost on a miss, then "
                "overwritten by a stale fill",
    schedule="S2 S2 S1 S1 S1 S1 S2",
    tags=("figure", "baseline"),
))
_register(Scenario(
    "fig7-iq", _fig7_iq, technique="delta",
    description="Figure 7 under IQ-delta: the Q lease voids the "
                "doomed fill's I lease",
    schedule="S2 S2 S1 S1 S1 S1 S1 S1 S2",
    tags=("figure", "iq"),
))
_register(Scenario(
    "fig8-baseline", _fig8_baseline, expect_violation=True,
    technique="delta",
    description="Figure 8: post-commit unleased delta applied on top of "
                "a fresh fill that already contains it",
    schedule="S1 S1 S1 S2 S2 S2 S1",
    tags=("figure", "baseline"),
))
_register(Scenario(
    "fig8-iq", _fig8_iq, technique="delta",
    description="Figure 8 under IQ-delta: commit applies the delta "
                "exactly once",
    schedule="S1 S1 S1 S1 S2 S1 S1 S2 S2 S2",
    tags=("figure", "iq"),
))

_register(Scenario(
    "mix3-inv-refresh-read", _mix3_inv_refresh_read, technique="mixed",
    description="3 sessions: invalidate writer + refresh writer + "
                "reader on one key, exhaustively under IQ",
    tags=("mix", "iq"),
))
_register(Scenario(
    "mix3-inv-delta-read", _mix3_inv_delta_read, technique="mixed",
    description="3 sessions: invalidate writer + delta writer + reader",
    tags=("mix", "iq"),
))
_register(Scenario(
    "mix3-refresh-delta-read", _mix3_refresh_delta_read, technique="mixed",
    description="3 sessions: refresh writer + delta writer + reader",
    tags=("mix", "iq"),
))

_register(Scenario(
    "sharded-mix", _sharded_mix, technique="mixed",
    description="2-shard router: multi-shard invalidate + delta + reader",
    tags=("mix", "iq", "sharded"),
))

_register(Scenario(
    "fault-suppressed-i-void", _fault_suppressed_void,
    expect_violation=True,
    description="Fault step arms a SUPPRESS rule at server.lease.void; "
                "the un-voided I lease admits a stale fill (auditor "
                "flags q-grant-left-i-alive)",
    tags=("fault", "iq"),
))
_register(Scenario(
    "fault-expired-leases", _fault_expired_leases,
    expect_violation=True, technique="refresh",
    description="Fault step expires a live writer's leases mid-session: "
                "the late SaR is correctly ignored, but a reader can "
                "re-fill the pre-commit value -- the lease-duration "
                "assumption, found as a concrete schedule",
    tags=("fault", "iq"),
))

_register(Scenario(
    "fuzz-sharded-fault", _fuzz_sharded_fault,
    allow_journaled_stale=True, technique="mixed",
    description="Fuzz target: 4 sessions across 2 shards with a "
                "kill/heal/reconcile fault sequence as schedule steps; "
                "sampled randomly, auditor as oracle",
    tags=("fuzz", "fault", "sharded"),
))

_register(Scenario(
    "qareg-batched", _qareg_invalidate(True),
    description="PR 5 semantics: one batched qar_many acquisition for a "
                "two-key write-set, racing a delta writer and a reader",
    tags=("pr5", "iq", "batch"),
))
_register(Scenario(
    "qareg-sequential", _qareg_invalidate(False),
    description="The sequential twin of qareg-batched: per-key qar steps "
                "with an interleaving point between the keys",
    tags=("pr5", "iq", "batch"),
))

_register(Scenario(
    "coalesced-fill-fig3", _coalesced_fill(False),
    check_final=coalesced_final_checks,
    description="Two co-located coalescing readers share a flight "
                "registry against an invalidate writer (eager delete): "
                "the applied fence keeps every hand-off fresh",
    tags=("coalesce", "iq"),
))
_register(Scenario(
    "coalesced-fill-fig4", _coalesced_fill(True),
    check_final=coalesced_final_checks,
    description="The same coalescing readers inside the deferred-delete "
                "rearrangement window (pending versions served): still "
                "no stale hand-off",
    tags=("coalesce", "iq"),
))
_register(Scenario(
    "coalesced-fenced-guard", _coalesced_witness(True),
    check_final=coalesced_final_checks,
    description="The 4-session hand-off race with the applied fence ON: "
                "a waiter joining a doomed filler's flight refuses the "
                "refused-install outcome and retries clean",
    tags=("coalesce", "iq"),
))
_register(Scenario(
    "coalesced-unfenced", _coalesced_witness(False),
    check_final=coalesced_final_checks, expect_violation=True,
    description="Rejected variant: a waiter consuming a flight outcome "
                "without the applied fence is served the pre-write value "
                "after the writer's session ended -- invisible to the "
                "store, caught by the expect baseline",
    tags=("coalesce", "iq"),
))

_register(Scenario(
    "pr2-journal-post", _pr2_journal("post"),
    check_state=_journal_invariant, allow_journaled_stale=True,
    description="PR 2 semantics: growing-phase shard failures journal "
                "only after the SQL commit (explored with kill/heal/"
                "reconcile as schedule steps)",
    tags=("pr2", "sharded"),
))
_register(Scenario(
    "pr2-journal-pre", _pr2_journal("pre"),
    check_state=_journal_invariant, allow_journaled_stale=True,
    expect_violation=True,
    description="Rejected PR 2 behaviour: journaling at failure time "
                "lets a reconcile pass consume the entry pre-commit",
    tags=("pr2", "sharded"),
))
_register(Scenario(
    "pr2-poison", _pr2_poison(True), technique="delta",
    description="PR 2 semantics: a shard failing partway through a "
                "multi-delta proposal is poisoned; its commit leg "
                "aborts instead of applying a partial delta list",
    tags=("pr2", "sharded"),
))
_register(Scenario(
    "pr2-poison-missing", _pr2_poison(False), expect_violation=True,
    technique="delta",
    description="Rejected PR 2 behaviour: without poison() the victim "
                "leg commits a partial proposal",
    tags=("pr2", "sharded"),
))

_register(Scenario(
    "rebalance-add", _rebalance_add,
    description="2->3 shards online: quarantine-copy-flip migration "
                "racing an invalidate writer and a reader on the moving "
                "key; every interleaving must end clean",
    tags=("rebalance", "sharded"),
))
_register(Scenario(
    "rebalance-add-kill", _rebalance_add_kill,
    allow_journaled_stale=True,
    description="The same migration with the source shard killed at an "
                "explored step: drop-and-journal, degraded reads, "
                "post-commit journaling -- still no stale or dirty read",
    tags=("rebalance", "sharded", "fault"),
))
_register(Scenario(
    "rebalance-remove", _rebalance_remove, technique="refresh",
    description="2->1 shards online: the leaving shard's key migrates "
                "to the survivor under quarantine while a refresh "
                "writer R-M-Ws it",
    tags=("rebalance", "sharded"),
))
_register(Scenario(
    "rebalance-unquarantined", _rebalance_unquarantined,
    expect_violation=True,
    description="Rejected naive move: copy-then-flip without quarantine "
                "or a dual-epoch window resurrects a pre-write value "
                "after the flip",
    tags=("rebalance", "sharded"),
))

_register(Scenario(
    "fig2-clock", _fig2_clock, check_final=clock_final_checks,
    technique="clock",
    description="Figure 2 under precise clocks: the RDBMS serializes "
                "both R-M-W writers; the reader's interval never "
                "outlives their commits",
    tags=("clock",),
))
_register(Scenario(
    "fig3-clock", _fig3_clock, check_final=clock_final_checks,
    technique="clock",
    description="Figure 3 under precise clocks: the commit's clock jump "
                "past the promised horizon expires any pre-commit fill",
    tags=("clock",),
))
_register(Scenario(
    "fig4-clock", _fig4_clock, check_final=clock_final_checks,
    technique="clock",
    description="Figure 4's window with two readers: a pre-commit fill "
                "serves only at pre-commit clock readings, never after "
                "the jump",
    tags=("clock",),
))
_register(Scenario(
    "fig6-clock", _fig6_clock, check_final=clock_final_checks,
    technique="clock",
    description="Figure 6 under precise clocks: an aborting writer has "
                "nothing to undo -- no lease, no cache write, no clock "
                "movement",
    tags=("clock",),
))
_register(Scenario(
    "fig7-clock", _fig7_clock, check_final=clock_final_checks,
    technique="clock",
    description="Figures 7/8 degraded to a clock-keyed append: the "
                "commit self-invalidates any interval covering the key",
    tags=("clock",),
))
_register(Scenario(
    "clock-missized", _clock_missized, check_final=clock_final_checks,
    expect_violation=True, technique="clock",
    description="Rejected variant: intervals guessed without a promise; "
                "the commit cannot jump the bound, so a stale fill "
                "stays servable inside the guessed window",
    tags=("clock",),
))

#: (baseline scenario, iq scenario) per figure -- the acceptance sweep.
FIGURE_PAIRS = (
    ("fig2-baseline", "fig2-iq"),
    ("fig3-baseline", "fig3-iq"),
    ("fig4-baseline", "fig4-iq"),
    ("fig6-baseline", "fig6-iq"),
    ("fig7-baseline", "fig7-iq"),
    ("fig8-baseline", "fig8-iq"),
)


#: One row of :func:`figure_outcomes`: the final committed rows and
#: cached values (``None`` for an absent key), whether every cached value
#: agrees with its row, the replay verdict, and whether the scenario
#: expects a violation (``ok`` must be its negation).
FigureOutcome = namedtuple(
    "FigureOutcome", "figure variant rdbms kvs consistent ok expect_violation"
)


def figure_outcomes():
    """Replay each :data:`FIGURE_PAIRS` scenario under its paper schedule.

    Returns one :class:`FigureOutcome` per scenario, baseline before IQ.
    Cached values come back decoded as ``str``, so they are compared
    with the committed rows as strings, as :func:`default_final_checks`
    does.
    """
    rows = []
    for name in (name for pair in FIGURE_PAIRS for name in pair):
        scenario = SCENARIOS[name]
        result = replay(scenario, scenario.schedule, complete=True)
        rdbms = result.world.sql_contents()
        kvs = result.world.kvs_contents()
        figure, variant = name.split("-")
        rows.append(FigureOutcome(
            "Figure " + figure[len("fig"):], variant, rdbms, kvs,
            all(kvs[key] is None or str(kvs[key]) == str(rdbms[key])
                for key in rdbms),
            result.ok, scenario.expect_violation,
        ))
    return rows


def get_scenario(name):
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            "unknown scenario {!r}; known: {}".format(
                name, ", ".join(sorted(SCENARIOS))
            )
        )


def scenario_names(tag=None):
    if tag is None:
        return sorted(SCENARIOS)
    return sorted(
        name for name, scenario in SCENARIOS.items()
        if tag in scenario.tags
    )
