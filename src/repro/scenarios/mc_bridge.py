"""Compile a declarative spec into a model-checking problem.

The live runner asks "did a race *happen*?"; this bridge asks the
:mod:`repro.mc` explorer whether a race *can* happen anywhere in the
bounded schedule space of the same configuration.  ``mc_scenario="auto"``
compiles the spec's technique into its canonical two-session
writer/reader race -- the same contention the live BG workload drives at
scale -- so one catalogue entry can execute through both paths and the
verdicts must agree.  Any other ``mc_scenario`` string names an entry of
the :data:`repro.mc.SCENARIOS` catalogue to run under this spec's flag
(used to fold the figure races into the sweep).
"""

import time

from repro.mc import (
    Scenario,
    World,
    clock_final_checks,
    explore,
    get_scenario,
)
from repro.mc.clients import (
    clock_reader,
    clock_writer,
    delta_writer,
    invalidate_writer,
    iq_reader,
    refresh_writer,
)
from repro.scenarios.report import OracleVerdict, ScenarioReport
from repro.scenarios.runner import SIZINGS

__all__ = ["compile_spec", "run_mc"]


def _auto_invalidate():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 10)
    return world, [
        invalidate_writer("W", {"k0": "val + 100"}, attempts=2),
        iq_reader("R", "k0", attempts=3),
    ]


def _auto_refresh():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 100)
    return world, [
        refresh_writer("W", "k0", "val + 50", lambda old: int(old) + 50,
                       attempts=3),
        iq_reader("R", "k0", attempts=3),
    ]


def _auto_delta():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 10)
    return world, [
        delta_writer("W", [("k0", "incr", 1)], attempts=3),
        iq_reader("R", "k0", attempts=3),
    ]


def _auto_clock():
    world = World(keys=("k0",), backend="iq")
    world.seed_db_only("k0", 100)
    return world, [
        clock_writer("W", {"k0": "val + 50"}, attempts=2),
        clock_reader("R", "k0", attempts=2),
    ]


_AUTO_BUILDS = {
    "invalidate": _auto_invalidate,
    "refresh": _auto_refresh,
    "delta": _auto_delta,
    "clock": _auto_clock,
}


def compile_spec(spec):
    """The :class:`repro.mc.Scenario` a declarative spec denotes."""
    if spec.mc_scenario is None:
        raise ValueError("{} has no mc mode".format(spec.name))
    if spec.mc_scenario != "auto":
        return get_scenario(spec.mc_scenario)
    build = _AUTO_BUILDS[spec.technique]
    return Scenario(
        "{}:auto-{}".format(spec.name, spec.technique),
        build,
        description=("canonical {} writer/reader race compiled from "
                     "spec {!r}".format(spec.technique, spec.name)),
        check_final=(clock_final_checks if spec.technique == "clock"
                     else None),
        technique=spec.technique,
        tags=("scenario-bridge",),
    )


def run_mc(spec, sizing="smoke", seed=13):
    """Explore the compiled scenario; fold the verdict into a report.

    The entry *passes* when the exploration outcome matches the mc
    scenario's expectation: clean for IQ/clock configurations, at
    least one violating schedule for ``expect_violation`` baselines.
    A truncated exploration never passes -- an unfinished proof is not
    a proof.
    """
    if "mc" not in spec.modes:
        return ScenarioReport(
            spec.name, "mc", tier=sizing if isinstance(sizing, str)
            else "custom", verdict="skipped",
            skipped_reason="entry has no mc mode", seed=seed,
        )
    size = SIZINGS[sizing] if isinstance(sizing, str) else sizing
    tier_name = sizing if isinstance(sizing, str) else "custom"
    scenario = compile_spec(spec)
    started = time.perf_counter()
    report = explore(scenario, max_states=size.mc_max_states)
    if scenario.expect_violation:
        ok = report.violation_count > 0
        detail = ("" if ok else
                  "expected the race, explored clean: " + report.summary())
    else:
        ok = report.violation_count == 0 and not report.truncated
        detail = "" if ok else report.summary()
    verdicts = [OracleVerdict(
        "mc-verdict", ok, count=report.violation_count, detail=detail,
    )]
    metrics = {
        "schedules_explored": report.schedules_explored,
        "states_visited": report.states_visited,
        "violations": report.violation_count,
        "truncated": int(report.truncated),
        "expect_violation": int(scenario.expect_violation),
    }
    return ScenarioReport(
        spec.name, "mc", tier=tier_name,
        verdict="pass" if ok else "fail", oracles=verdicts,
        metrics=metrics, duration=time.perf_counter() - started, seed=seed,
    )
