"""Workload definitions and the measurement of one of them.

``measure`` sets a deployment up (several times, when set-up time is
being reported), proves the inputs repeat, runs one timed window and
returns everything the metrics are computed from.  ``end_to_end`` and
``per_layer`` turn that into the named metrics of ``BENCHMARK.json``.
"""

import statistics
from dataclasses import dataclass

from repro.bg.actions import Technique
from repro.bg.workload import (
    HIGH_WRITE_MIX,
    LOW_WRITE_MIX,
    VERY_LOW_WRITE_MIX,
)

import loops
import spans
from deploy import Deployment
from stream import ActionStream, poisson_arrivals
from summary import percentile, tail_percentile

#: open loop: p99 from due time must stay within this at a passing rate
SLO_MS = 25.0
#: the rate latency is reported at (about a quarter of capacity), the
#: ladder above it, and a rate no deployment here sustains: what the
#: system completes under it is its capacity
REFERENCE_RATE = 2000
STEP_RATES = (4000, 8000)
OVERLOAD_RATE = 16000
#: reference and overload alternate this many times, so that a noisy
#: spell on the host cannot cover every sample of either
CYCLES = 3
#: "growing backlog": the median action of a step's last tenth still
#: starts this late
BACKLOG_LATE_MS = 5.0
#: the open loop's stand-in for rounds: windows of its schedule (for
#: latency) and of its running time (for capacity)
OPEN_WINDOW_S = 0.25
#: actions replayed after every set-up to prove the inputs repeat
FINGERPRINT_ACTIONS = 1000
#: spans of this many actions go to the trace file; all of them count
TRACE_FILE_ACTIONS = 5000


@dataclass(frozen=True)
class Workload:
    name: str
    mix: object
    technique: Technique
    cluster: bool
    open_loop: bool
    #: closed loop: actions per round -- a multiple of the mix's write
    #: stratum, so every round holds the same writes; 0.1-0.2 s long
    round_actions: int
    stresses: str
    bypasses: str
    why: str

    @property
    def sizes(self):
        tier = "2 shard processes" if self.cluster else "in-process IQServer"
        if self.open_loop:
            load = "open loop: {} x ({}/s, overload at {}/s), then {}/s".format(
                CYCLES, REFERENCE_RATE, OVERLOAD_RATE,
                ", ".join(str(r) for r in STEP_RATES),
            )
        else:
            load = "closed loop, 1 thread, rounds of {}".format(
                self.round_actions
            )
        return "{} ({:g}% writes), {}, {}, {}".format(
            self.mix.name, self.mix.write_fraction(),
            self.technique.value, tier, load,
        )


WORKLOADS = (
    Workload(
        "bg-read-inproc", VERY_LOW_WRITE_MIX, Technique.INVALIDATE,
        cluster=False, open_loop=False, round_actions=5_000,
        stresses="bg, core.policies, core.iq_client, core.iq_server, kvs",
        bypasses="sql (0.1% writes), sharding.router, net",
        why="0.1%-write mix on an in-process IQServer: 99%+ hits, so bg, "
            "core.policies, core.iq_client, core.iq_server and kvs do the "
            "work; sql and net do almost none",
    ),
    Workload(
        "bg-write-inproc", HIGH_WRITE_MIX, Technique.INVALIDATE,
        cluster=False, open_loop=False, round_actions=500,
        stresses="sql (write sessions and the refills they cause), "
                 "core.policies/core.iq_server QaR + commit path",
        bypasses="sharding.router, net",
        why="10%-write mix, same deployment: write sessions and the refills "
            "their invalidations cause put most of an action in repro.sql; "
            "a read-path gain that taxes QaR/commit shows here",
    ),
    Workload(
        "bg-read-cluster", VERY_LOW_WRITE_MIX, Technique.INVALIDATE,
        cluster=True, open_loop=False, round_actions=1_000,
        stresses="sharding.router, net (wire client, async transport, "
                 "dispatch); same action stream as bg-read-inproc",
        bypasses="sql",
        why="the same action stream as bg-read-inproc against 2 shard "
            "processes behind the router: the difference between the two "
            "is sharding.router plus net; sql is idle",
    ),
    Workload(
        "bg-open-cluster", LOW_WRITE_MIX, Technique.REFRESH,
        cluster=True, open_loop=True, round_actions=0,
        stresses="concurrent sessions (Q-Q aborts, restarts, pool "
                 "multiplexing), qaread/sar, queueing",
        bypasses="nothing: every layer runs, sql least",
        why="1%-write refresh mix offered open-loop by 2 workers to the "
            "2-shard cluster: the only workload with concurrent sessions, "
            "qaread/sar and queueing; latency is from due time.  Not gated: "
            "its run-to-run spread here is up to 35% in a quiet hour",
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def fingerprint(dep, stream, execute):
    """Counts of a fixed replay on a fresh deployment.  One thread, so
    the same seed must give the same tuple on every set-up."""
    before_cache, before_sql = dep.cache_counters(), dep.db.counts()
    stats = loops.new_stats()
    state = dep.sampler()
    kinds = [
        execute(name, state, stats)
        for name in stream.take(FINGERPRINT_ACTIONS)
    ]
    cache, sql = dep.cache_counters(), dep.db.counts()
    return state, (
        kinds.count("read"), kinds.count("write"),
        cache["get_hits"] - before_cache["get_hits"],
        cache["get_misses"] - before_cache["get_misses"],
        sql[0] - before_sql[0],
    )


class Measurement:
    """One workload measured once: raw window plus counter deltas."""

    def __init__(self, workload):
        self.workload = workload
        self.setup_times = []
        self.fingerprints = []
        self.rounds = []          # loops.Slice per closed-loop round
        self.steps = []           # loops.StepResult, reference step first
        self.stats = []           # execute_one counters, one per worker
        self.delta = {}           # outside counters over the window
        self.tracer = None
        self.peak_rss_mb = 0.0
        self.invalid = []         # reasons this run cannot be trusted

    # -- what the window did -------------------------------------------------

    @property
    def actions(self):
        if self.rounds:
            return len(self.rounds) * self.workload.round_actions
        return sum(step.completed for step in self.steps)

    @property
    def quiet_rounds(self):
        return loops.quiet_tenth(self.rounds, lambda r: -r.rate)

    @property
    def failed(self):
        return sum(stats["errors"] for stats in self.stats)

    @property
    def restarts(self):
        return [r for stats in self.stats for r in stats["restarts"]]

    @property
    def actions_per_s(self):
        """Closed loop: the median quiet round.  Open loop: completions
        per second while overloaded -- the system's capacity -- over the
        quiet tenth of the windows the overload steps ran for."""
        if self.rounds:
            return statistics.median(r.rate for r in self.quiet_rounds)
        rates = [
            rate for step in self.steps_at(OVERLOAD_RATE)
            for rate in loops.completion_rates(step, OPEN_WINDOW_S)
        ]
        return statistics.median(loops.quiet_tenth(rates, lambda r: -r))

    def steps_at(self, rate):
        return [step for step in self.steps if step.rate == rate]

    @property
    def reference_steps(self):
        return self.steps_at(REFERENCE_RATE)

    def step_ok(self, step):
        """Did the step meet the SLO with no failures or growing backlog?"""
        p99 = tail_percentile(step.latency, 0.99)
        by_due = sorted(zip(step.due, step.late))
        tail = [late for _, late in by_due[-max(1, len(by_due) // 10):]]
        return (
            not step.saturated
            and p99 is not None and p99 * 1e3 <= SLO_MS
            and statistics.median(tail) * 1e3 <= BACKLOG_LATE_MS
        )

    def step_rows(self):
        """Per step, in the order run: achieved rate, latency from due
        time, how late the generator started actions, and the verdict."""
        rows = []
        for step in self.steps:
            ordered = sorted(step.latency)
            rows.append({
                "rate": step.rate, "seconds": step.seconds,
                "completed": step.completed,
                "achieved_rate": step.achieved_rate,
                "p50_ms": percentile(ordered, 0.50) * 1e3,
                "p99_ms": (tail_percentile(ordered, 0.99) or 0.0) * 1e3,
                "late_p99_ms": (tail_percentile(step.late, 0.99) or 0.0)
                * 1e3,
                "abandoned": step.abandoned, "ok": self.step_ok(step),
            })
        return rows

    @property
    def max_rate_ok(self):
        """The highest offered rate that was ok, with every lower rate
        ok too; a rate offered several times is ok if most of them were."""
        best = 0
        for rate in sorted({step.rate for step in self.steps}):
            verdicts = [self.step_ok(step) for step in self.steps_at(rate)]
            if 2 * sum(verdicts) <= len(verdicts):
                break
            best = rate
        return best


def _snapshot(dep):
    generator_cpu, shard_cpu = dep.cpu_seconds()
    statements, commits, aborts = dep.db.counts()
    snap = dict(dep.cache_counters())
    snap.update(
        generator_cpu=generator_cpu, shard_cpu=shard_cpu,
        statements=statements, commits=commits, aborts=aborts,
        validated=dep.log.reads(), unpredictable=dep.log.unpredictable_reads(),
        net_retries=dep.net_retries(),
    )
    return snap


def _open_window(dep, stream, execute, states, stats, seconds, seed):
    """Alternate reference rate and overload, then climb the ladder."""
    ladder_s = seconds / 16.0
    overload_s = seconds / 20.0
    reference_s = (
        seconds - len(STEP_RATES) * ladder_s
    ) / CYCLES - 2 * overload_s   # an overload step takes twice its schedule
    plan = [
        (REFERENCE_RATE, reference_s), (OVERLOAD_RATE, overload_s),
    ] * CYCLES + [(rate, ladder_s) for rate in STEP_RATES]
    steps = []
    for index, (rate, step_seconds) in enumerate(plan):
        due = poisson_arrivals(rate, step_seconds, seed + index)
        names = stream.take(len(due))
        shard_cpu = dep.cpu_seconds()[1]
        step = loops.open_step(
            execute, states, stats, names, due, rate, step_seconds
        )
        step.shard_cpu_s = dep.cpu_seconds()[1] - shard_cpu
        steps.append(step)
    return steps


def measure(workload, seed, seconds, traced=False, setups=1):
    """Set up ``setups`` times, keep the last deployment, run one window."""
    result = Measurement(workload)
    tracer = result.tracer = spans.Tracer() if traced else None
    dep = None
    try:
        for _ in range(setups):
            if dep is not None:
                dep.close()
            dep = Deployment(workload, seed, tracer)
            result.setup_times.append(dep.setup_s)
            execute = dep.runner.execute_one
            if tracer is not None:
                execute = tracer.wrap(spans.BG, "action", execute)
            stream = ActionStream(workload.mix, seed)
            state, counts = fingerprint(dep, stream, execute)
            result.fingerprints.append(counts)
        if tracer is not None:
            tracer.clear()
        before = _snapshot(dep)
        if workload.open_loop:
            workers = loops.workers_available()
            states = [state] + [dep.sampler(i) for i in range(1, workers)]
            result.stats = [loops.new_stats() for _ in states]
            result.steps = _open_window(
                dep, stream, execute, states, result.stats, seconds, seed
            )
        else:
            result.stats = [loops.new_stats()]
            result.rounds = loops.closed_loop(
                execute, state, result.stats[0], stream,
                workload.round_actions, seconds,
                lambda: sum(dep.cpu_seconds()),
            )
        after = _snapshot(dep)
        result.delta = {key: after[key] - before[key] for key in after}
        result.peak_rss_mb = dep.peak_rss_mb()
        _validate(result, dep)
    finally:
        if dep is not None:
            dep.close()
    return result


def _validate(result, dep):
    """Everything that makes a run untrustworthy, by name."""
    invalid = result.invalid
    if result.delta["unpredictable"]:
        invalid.append("{} stale reads".format(result.delta["unpredictable"]))
    if result.failed:
        invalid.append("{} failed actions".format(result.failed))
    if len(set(result.fingerprints)) > 1:
        invalid.append("count fingerprint differs between set-ups: {}".format(
            result.fingerprints
        ))
    if not dep.shards_alive():
        invalid.append("a shard process died")
    if result.delta["net_retries"]:
        invalid.append("{} wire retries".format(result.delta["net_retries"]))
    if not result.workload.open_loop and (
        any(result.restarts) or result.delta["lease_backoffs"]
    ):
        # one thread cannot conflict with itself
        invalid.append("restarts or lease back-offs on a one-thread run")


# -- named metrics -----------------------------------------------------------


def _slices(m):
    """The rounds of a closed loop, or the windows of the open loop's
    reference steps (latency from each action's due time)."""
    return m.rounds or [
        window for step in m.reference_steps
        for window in loops.windows(step, OPEN_WINDOW_S)
    ]


def _latencies(m):
    """``(read p50, read p99, write latencies, reads behind the p99)``,
    each over the tenth of the slices where it is best.

    The median read is the median over the slices with the lowest
    median.  The p99 is that of every read in the slices with the
    lightest tail: a host preemption of 200 us ruins the tail of a
    round without moving its throughput, so ranking by throughput does
    not find the rounds it missed.  A slice holds a handful of writes
    at most, so writes are pooled from the slices quiet by throughput
    (by median read on the open loop, whose throughput the schedule
    fixes).
    """
    slices = _slices(m)
    by_p50 = loops.quiet_tenth(slices, lambda s: s.p50)
    by_tail = loops.quiet_tenth(slices, lambda s: s.tail)
    reads = sorted(latency for s in by_tail for latency in s.reads)
    writes = [
        latency for s in (m.quiet_rounds if m.rounds else by_p50)
        for latency in s.writes
    ]
    return (
        statistics.median(s.p50 for s in by_p50),
        tail_percentile(reads, 0.99), writes, len(reads),
    )


def _cpu_per_action(m):
    """CPU seconds per action.  Closed loop: generator plus shards per
    round, median of the tenth of rounds that used least.  Open loop:
    the worker threads' CPU inside actions (not their waiting for the
    schedule) plus the shards', over the reference steps."""
    if m.rounds:
        quiet = loops.quiet_tenth(m.rounds, lambda r: r.cpu_s)
        return statistics.median(
            r.cpu_s for r in quiet
        ) / m.workload.round_actions
    steps = m.reference_steps
    return sum(sum(step.cpu) + step.shard_cpu_s for step in steps) / sum(
        step.completed for step in steps
    )


def end_to_end(m):
    """The end-to-end metrics of one untraced measurement, by name."""
    read_p50, read_p99, writes, tail_reads = _latencies(m)
    if read_p99 is None or len(writes) < 2:
        raise RuntimeError(
            "{}: window too short for its percentiles".format(m.workload.name)
        )
    values = {
        "setup_s": min(m.setup_times),
        "actions_per_s": m.actions_per_s,
        "read_p50_us": read_p50 * 1e6,
        "read_p99_us": read_p99 * 1e6,
        "write_p50_us": statistics.median(writes) * 1e6,
        "cpu_us_per_action": _cpu_per_action(m) * 1e6,
        "sql_statements_per_action": m.delta["statements"] / m.actions,
        "peak_rss_mb": m.peak_rss_mb,
    }
    samples = {
        "read_p99_us": tail_reads, "write_p50_us": len(writes),
        "setup_s": len(m.setup_times), "actions_per_s": m.actions,
    }
    return values, samples


def per_layer(traced, plain):
    """The per-layer metrics: spans and counters of the traced
    measurement, plus the figures only an untraced window may give."""
    tracer = traced.tracer
    own = spans.self_times(
        tracer.start, tracer.end, tracer.parent, tracer.adopted
    )
    # Spans count only from the actions of the quiet rounds (closed
    # loop: action ids run in order, so id // round size is the round);
    # counters below are whole-window, counts do not depend on speed.
    per_round = traced.workload.round_actions
    if traced.rounds:
        quiet = {
            index for index, _ in loops.quiet_tenth(
                list(enumerate(traced.rounds)), lambda pair: -pair[1].rate
            )
        }
        span_actions = len(quiet) * per_round
    else:
        quiet, span_actions = None, traced.actions
    self_s = [0.0] * len(spans.LAYERS)
    calls = [0] * len(spans.LAYERS)
    root_s = 0.0
    statement_ops = {tracer.op_id(name) for name in spans.STATEMENT_COMMANDS}
    statement_s, statements = 0.0, 0
    leaf_calls = []
    net_calls_window = 0
    for i, layer in enumerate(tracer.layer):
        net_calls_window += layer == spans.NET
        if quiet is not None and tracer.action[i] // per_round not in quiet:
            continue
        self_s[layer] += own[i]
        calls[layer] += 1
        duration = tracer.end[i] - tracer.start[i]
        if tracer.parent[i] < 0:
            root_s += duration
        if layer == spans.NET:
            leaf_calls.append(duration)
        elif layer == spans.SQL and tracer.op[i] in statement_ops:
            statement_s += duration
            statements += 1

    actions = traced.actions

    def per_action(seconds):
        return seconds / span_actions * 1e6

    def calls_per_action(layer_calls):
        return layer_calls / span_actions

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    delta = traced.delta
    tier_calls = calls[spans.IQ_SERVER] + calls[spans.ROUTER]
    writes = len(traced.restarts)
    rtt_p50 = tail_percentile(leaf_calls, 0.50)
    rtt_p99 = tail_percentile(leaf_calls, 0.99)
    if plain.rounds:
        write_latencies = [
            latency for r in plain.rounds for latency in r.writes
        ]
    else:
        write_latencies = [
            latency for step in plain.reference_steps
            for latency in step.latencies(write=True)
        ]
    write_p99 = tail_percentile(write_latencies, 0.99)
    if not traced.rounds:
        reference = traced.reference_steps
        late_p99 = tail_percentile(
            [late for step in reference for late in step.late], 0.99
        ) or 0.0
        achieved = ratio(sum(step.completed for step in reference),
                         sum(step.scheduled for step in reference))
    else:
        late_p99, achieved = 0.0, 1.0
    values = {
        "bg.self_us_per_action": per_action(self_s[spans.BG]),
        "bg.write_p99_us": (write_p99 or 0.0) * 1e6,
        "bg.failed_ratio": ratio(traced.failed, actions + traced.failed),
        "bg.stale_read_ratio": ratio(delta["unpredictable"],
                                     delta["validated"]),
        "core.policies.self_us_per_action": per_action(
            self_s[spans.POLICIES]),
        "core.policies.calls_per_action": calls_per_action(
            calls[spans.POLICIES]),
        "core.iq_client.self_us_per_action": per_action(
            self_s[spans.IQ_CLIENT]),
        "core.iq_client.backend_calls_per_action": calls_per_action(
            tier_calls),
        "core.session.restarts_per_write": ratio(sum(traced.restarts),
                                                 writes),
        "core.iq_server.self_us_per_action": per_action(
            self_s[spans.IQ_SERVER]),
        "core.iq_server.us_per_call": ratio(
            self_s[spans.IQ_SERVER], calls[spans.IQ_SERVER]) * 1e6,
        "core.leases.i_grants_per_action": ratio(delta["i_lease_grants"],
                                                 actions),
        "core.leases.q_grants_per_action": ratio(delta["q_lease_grants"],
                                                 actions),
        "core.leases.q_rejects_per_action": ratio(delta["q_lease_rejects"],
                                                  actions),
        "core.leases.backoffs_per_action": ratio(delta["lease_backoffs"],
                                                 actions),
        "kvs.hit_ratio": ratio(delta["get_hits"], delta["cmd_get"]),
        "kvs.misses_per_action": ratio(delta["get_misses"], actions),
        "sharding.router.self_us_per_action": per_action(
            self_s[spans.ROUTER]),
        "sharding.router.legs_per_call": ratio(calls[spans.NET],
                                               calls[spans.ROUTER]),
        "net.self_us_per_action": per_action(self_s[spans.NET]),
        "net.round_trips_per_action": calls_per_action(calls[spans.NET]),
        "net.rtt_p50_us": (rtt_p50 or 0.0) * 1e6,
        "net.rtt_p99_us": (rtt_p99 or 0.0) * 1e6,
        "net.server_cpu_us_per_call": ratio(delta["shard_cpu"],
                                            net_calls_window) * 1e6,
        "net.retries": delta["net_retries"],
        "sql.self_us_per_action": per_action(self_s[spans.SQL]),
        "sql.us_per_statement": ratio(statement_s, statements) * 1e6,
        "sql.commits_per_action": ratio(delta["commits"], actions),
        "sql.aborts_per_action": ratio(delta["aborts"], actions),
        "gen.late_p99_ms": late_p99 * 1e3,
        "gen.achieved_ratio": achieved,
        "gen.max_rate_ok": plain.max_rate_ok,
        "trace.overhead_ratio": ratio(traced.actions_per_s,
                                      plain.actions_per_s),
        "trace.self_sum_ratio": ratio(sum(self_s), root_s),
    }
    return values
