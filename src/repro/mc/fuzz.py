"""Seedable random-schedule fuzzer with automatic shrink-on-failure.

For schedule spaces too large to exhaust (4+ sessions, multiple shards,
fault steps), the fuzzer samples random complete schedules: at every
step it picks a uniformly random unfinished program and advances it.
The walk executes directly (no replay needed) while recording the
chosen schedule, so a failure is immediately reproducible; it is then
handed to the delta-debugging shrinker, and the minimal schedule is
rendered as a replayable artifact (:func:`repro.mc.shrink.emit_script`).

Determinism: one ``seed`` fixes the whole campaign -- run ``i`` uses
``random.Random(seed + i)``, so a failing run can be re-fuzzed alone.
"""

import random

from repro.mc.explorer import _Execution, replay
from repro.mc.shrink import emit_script, shrink

__all__ = ["FuzzFailure", "FuzzReport", "fuzz"]


class FuzzFailure:
    """One failing fuzz run, already shrunk."""

    __slots__ = ("seed", "schedule", "violations", "shrunk", "script")

    def __init__(self, seed, schedule, violations, shrunk, script):
        self.seed = seed
        self.schedule = tuple(schedule)
        self.violations = list(violations)
        self.shrunk = shrunk
        self.script = script

    def __repr__(self):
        return "FuzzFailure(seed={}, {} -> {} steps)".format(
            self.seed, len(self.schedule), len(self.shrunk.schedule)
        )


class FuzzReport:
    """Outcome of one fuzz campaign."""

    def __init__(self, scenario_name, seed, runs):
        self.scenario = scenario_name
        self.seed = seed
        self.runs = runs
        self.failures = []
        self.schedules_seen = 0

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        return "{}: {} random schedules (seed {}) -- {}".format(
            self.scenario, self.schedules_seen, self.seed,
            "all clean" if self.ok else "{} failure(s), shrunk".format(
                len(self.failures)
            ),
        )

    def artifact(self):
        """Concatenated repro scripts for every failure (or '' if clean)."""
        return "\n".join(failure.script for failure in self.failures)


def _random_schedule(scenario, rng, max_steps):
    """One random complete walk; returns the schedule it took."""
    # The walk must pick from *unfinished* programs only, so it executes
    # live; fuzz() then replays the recorded schedule -- twice the work,
    # one code path for oracles.
    execution = _Execution(scenario)
    schedule = []

    def walk():
        while len(schedule) < max_steps and execution.alive():
            schedule.append(rng.choice(execution.alive()))
            yield schedule[-1]

    try:
        execution.run(walk())
    finally:
        execution.close()
    return schedule


def fuzz(scenario, runs=50, seed=0, max_steps=200, max_failures=3):
    """Fuzz ``scenario`` with ``runs`` random schedules; shrink failures."""
    report = FuzzReport(scenario.name, seed, runs)
    for index in range(runs):
        rng = random.Random(seed + index)
        schedule = _random_schedule(scenario, rng, max_steps)
        report.schedules_seen += 1
        result = replay(scenario, schedule, complete=True)
        if result.ok:
            continue
        shrunk = shrink(scenario, schedule)
        report.failures.append(FuzzFailure(
            seed + index, schedule, result.violations, shrunk,
            emit_script(shrunk),
        ))
        if len(report.failures) >= max_failures:
            break
    return report
