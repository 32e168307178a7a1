"""Stateless schedule exploration with DPOR-lite pruning.

The explorer walks the tree of schedules (sequences of program names)
depth-first.  Being *stateless*, it keeps no snapshots: each tree node
is reconstructed by re-executing its schedule prefix against a fresh
:class:`~repro.mc.world.World`, which is cheap because model-checking
scenarios are a handful of sessions with a dozen steps each.

Two reductions keep the tree tractable, and both are counted in the
:class:`ExplorationReport` so tests can assert they actually bite:

**Sleep sets (DPOR-lite).**  After exploring program ``p`` from a state,
its siblings need not re-explore orders that merely commute with ``p``:
a program ``q`` whose pending operation is independent of ``p``'s (per
the announced :class:`~repro.mc.program.Op` footprints) goes to sleep in
the subtree of the sibling explored next, because the schedule ``..q,p..``
reaches the same state as the already-explored ``..p,q..``.

**State-fingerprint deduplication.**  Two different prefixes can reach
the same state (same shared world fingerprint *and* same per-program
histories); the subtree is explored once.  Combining naive state caching
with sleep sets is famously unsound -- a state first visited with a
small sleep set may later be reached with a larger one, and pruning then
would lose schedules -- so the cache stores the sleep set each state was
explored under and prunes a revisit only when the new sleep set is a
superset (everything the revisit would explore was explored before).
Otherwise the state is re-explored with the intersection.
``tests/mc/test_dedup_soundness.py`` replays recorded dedup pairs both
ways and asserts identical KVS + SQL contents.

Oracles: ``scenario.check_state`` after every step, and at each terminal
state ``scenario.check_final`` plus (``scenario.audit``) a fresh
:class:`~repro.obs.audit.IQAuditor` that listened to the whole
execution's trace stream.
"""

from repro.mc.program import MCRun, ProgramCrash, independent
from repro.obs.audit import IQAuditor
from repro.obs.trace import get_tracer

__all__ = [
    "ExplorationReport",
    "MCViolation",
    "ReplayResult",
    "explore",
    "replay",
]


class MCViolation:
    """One violating (or crashing) schedule found during exploration."""

    __slots__ = ("schedule", "messages", "kind", "steps")

    def __init__(self, schedule, messages, kind, steps=()):
        self.schedule = tuple(schedule)
        self.messages = list(messages)
        self.kind = kind  # "final" | "invariant" | "auditor" | "crash"
        #: the executed (program, step-label) pairs, for readable reports
        self.steps = tuple(steps)

    def __repr__(self):
        return "MCViolation({}, schedule={!r}, {} message(s))".format(
            self.kind, list(self.schedule), len(self.messages)
        )


class ExplorationReport:
    """Counters and findings of one exhaustive exploration."""

    def __init__(self, scenario_name):
        self.scenario = scenario_name
        #: complete schedules executed to a terminal state
        self.schedules_explored = 0
        #: distinct tree nodes expanded (one replay each)
        self.states_visited = 0
        #: branches skipped because their program was asleep
        self.sleep_pruned = 0
        #: subtrees cut because an equal state was already explored
        self.deduped = 0
        #: total violating schedules (only the first few carry details)
        self.violation_count = 0
        self.violations = []
        #: sampled (earlier prefix, later prefix) pairs that deduped
        self.dedup_pairs = []
        self.truncated = False

    @property
    def ok(self):
        return self.violation_count == 0 and not self.truncated

    def summary(self):
        status = "clean" if self.violation_count == 0 else (
            "{} violating schedule(s)".format(self.violation_count)
        )
        line = (
            "{}: {} schedules explored, {} states visited, "
            "{} sleep-pruned, {} deduped -- {}"
        ).format(
            self.scenario, self.schedules_explored, self.states_visited,
            self.sleep_pruned, self.deduped, status,
        )
        if self.truncated:
            line += " (TRUNCATED: state budget exhausted)"
        return line

    def __repr__(self):
        return "ExplorationReport({})".format(self.summary())


class ReplayResult:
    """Outcome of replaying one explicit schedule."""

    __slots__ = ("schedule", "violations", "world", "runs", "crash",
                 "steps", "audit_report")

    def __init__(self, schedule, violations, world, runs, crash, steps,
                 audit_report):
        self.schedule = tuple(schedule)
        self.violations = list(violations)
        self.world = world
        self.runs = runs
        self.crash = crash
        self.steps = tuple(steps)
        self.audit_report = audit_report

    @property
    def ok(self):
        return not self.violations and self.crash is None


class _Execution:
    """One live execution: world + program runs + listening auditor.

    A :class:`ProgramCrash` is captured in ``crash``, not raised -- also
    one raised while a program runs to its first announcement, which
    crashes the execution at schedule ``()``.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.tracer = get_tracer()
        self.auditor = IQAuditor() if scenario.audit else None
        if self.auditor is not None:
            self.auditor.attach(self.tracer)
        self.executed = []
        self.steps = []
        self.crash = None
        self.runs = {}
        try:
            self.world, programs = scenario.build()
            self.order = []
            for program in programs:
                if program.name in self.runs:
                    raise ValueError(
                        "duplicate program name {!r}".format(program.name)
                    )
                self.runs[program.name] = MCRun(program, self.world)
                self.order.append(program.name)
        except ProgramCrash as crash:
            self.crash = crash
        except BaseException:
            self.close()
            raise

    def close(self):
        for run in self.runs.values():
            run.close()
        if self.auditor is not None:
            self.auditor.detach(self.tracer)
            self.auditor = None

    def step(self, name):
        run = self.runs[name]
        label = run.step(list(self.executed))
        self.executed.append(name)
        self.steps.append((name, label))

    def run(self, names, check_state=False):
        """Step each of ``names`` until one crashes.

        ``names`` may be lazy: it is drawn one name per step.  With
        ``check_state`` the scenario's invariant runs after every step;
        returns its messages.
        """
        messages = []
        if self.crash is not None:
            return messages
        try:
            for name in names:
                self.step(name)
                if check_state:
                    messages.extend(
                        self.scenario.check_state(self.world, self.runs)
                    )
        except ProgramCrash as crash:
            self.crash = crash
        return messages

    def alive(self):
        return [n for n in self.order if not self.runs[n].finished]

    def pending(self, name):
        return self.runs[name].pending

    def fingerprint(self):
        programs = tuple(
            (name, self.runs[name].finished,
             tuple(self.runs[name].history),
             self.runs[name].pending.label
             if self.runs[name].pending is not None else None)
            for name in self.order
        )
        return (programs, self.world.fingerprint())

    def audit_messages(self):
        if self.auditor is None:
            return [], None
        report = self.auditor.report()
        return [
            "auditor: {}".format(violation)
            for violation in report.violations
        ], report


def _run_prefix(scenario, prefix):
    """Execute ``prefix`` from a fresh world; returns the live execution.

    A :class:`ProgramCrash` mid-prefix is captured, not raised: the
    caller inspects ``crash``.
    """
    execution = _Execution(scenario)
    execution.run(prefix)
    return execution


def _scheduled_then_drained(execution, schedule, complete):
    """The names :func:`replay` steps, decided one step at a time."""
    for name in schedule:
        if not execution.runs[name].finished:
            yield name
    alive = execution.alive() if complete else []
    while alive:
        for name in alive:
            if not execution.runs[name].finished:
                yield name
        alive = execution.alive()


def replay(scenario, schedule, complete=True):
    """Replay an explicit schedule; optionally drain to a terminal state.

    With ``complete=True`` (what the shrinker and fuzz artifacts use),
    programs left unfinished when the schedule runs out are drained
    round-robin in program order, so any schedule prefix extends to a
    deterministic terminal state.  Schedule entries naming finished
    programs are skipped (lenient), which keeps delta-debugged
    subsequences executable.
    """
    execution = _Execution(scenario)
    try:
        violations = execution.run(
            _scheduled_then_drained(execution, schedule, complete),
            check_state=True,
        )
        audit_report = None
        if execution.crash is not None:
            violations.append("crash: {}".format(execution.crash))
        elif not execution.alive():
            violations.extend(
                scenario.check_final(execution.world, execution.runs)
            )
            audit_messages, audit_report = execution.audit_messages()
            violations.extend(audit_messages)
        return ReplayResult(
            schedule, violations, execution.world, execution.runs,
            execution.crash, execution.steps, audit_report,
        )
    finally:
        execution.close()


class _Budget(Exception):
    """Internal: the state budget ran out; unwind the DFS."""


class _Explorer:
    def __init__(self, scenario, max_states, max_violations,
                 record_dedup_pairs):
        self.scenario = scenario
        self.max_states = max_states
        self.max_violations = max_violations
        self.record_dedup_pairs = record_dedup_pairs
        self.report = ExplorationReport(scenario.name)
        #: fingerprint -> (sleep set explored with, sample prefix)
        self.seen = {}

    def run(self):
        try:
            self._explore((), frozenset())
        except _Budget:
            self.report.truncated = True
        return self.report

    def _record(self, schedule, messages, kind, steps):
        self.report.violation_count += 1
        if len(self.report.violations) < self.max_violations:
            self.report.violations.append(
                MCViolation(schedule, messages, kind, steps)
            )

    def _explore(self, prefix, sleep):
        if (self.max_states is not None
                and self.report.states_visited >= self.max_states):
            raise _Budget()
        execution = _run_prefix(self.scenario, prefix)
        try:
            self.report.states_visited += 1
            if execution.crash is not None:
                self._record(
                    prefix, ["crash: {}".format(execution.crash)],
                    "crash", execution.steps,
                )
                return
            invariant = self.scenario.check_state(
                execution.world, execution.runs
            )
            if invariant:
                self._record(prefix, invariant, "invariant",
                             execution.steps)
                return
            alive = execution.alive()
            if not alive:
                self.report.schedules_explored += 1
                messages = self.scenario.check_final(
                    execution.world, execution.runs
                )
                audit_messages, _ = execution.audit_messages()
                if messages or audit_messages:
                    kind = "final" if messages else "auditor"
                    self._record(prefix, messages + audit_messages, kind,
                                 execution.steps)
                return
            fingerprint = execution.fingerprint()
            stored = self.seen.get(fingerprint)
            if stored is not None:
                stored_sleep, stored_prefix = stored
                if stored_sleep <= sleep:
                    self.report.deduped += 1
                    if len(self.report.dedup_pairs) < self.record_dedup_pairs:
                        self.report.dedup_pairs.append(
                            (stored_prefix, prefix)
                        )
                    return
                # Unsound to prune: the earlier visit slept on programs
                # we are now awake for.  Re-explore; afterwards the state
                # is covered for the intersection.
                sleep = frozenset(stored_sleep & sleep)
            self.seen[fingerprint] = (sleep, prefix)
            self.report.sleep_pruned += sum(
                1 for name in alive if name in sleep
            )
            awake = [name for name in alive if name not in sleep]
            pending = {name: execution.pending(name) for name in alive}
            # Children replay from scratch: release this execution (its
            # auditor and any parked program threads) before recursing.
            execution.close()
            explored = []
            for name in awake:
                child_sleep = frozenset(
                    other for other in (set(sleep) | set(explored))
                    if other != name and independent(
                        pending.get(other), pending[name]
                    )
                )
                self._explore(prefix + (name,), child_sleep)
                explored.append(name)
        finally:
            execution.close()


def explore(scenario, max_states=None, max_violations=25,
            record_dedup_pairs=0):
    """Exhaustively explore ``scenario``'s bounded schedule space.

    ``max_states`` caps the number of expanded tree nodes (the report is
    marked ``truncated`` when it bites); ``max_violations`` caps how
    many violating schedules carry full details (all are *counted*);
    ``record_dedup_pairs`` samples that many (earlier, later) prefix
    pairs that hit the fingerprint cache, for the soundness tests.
    """
    return _Explorer(
        scenario, max_states, max_violations, record_dedup_pairs
    ).run()
