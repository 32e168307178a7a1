"""repro.mc: a stateless model checker for IQ sessions.

The one engine that interleaves session programs.  It replays the
paper's race figures under their exact interleavings (each figure
scenario's ``schedule``, :func:`figure_outcomes`) and turns them into
*systematic* evidence: it enumerates every interleaving of a bounded
scenario (N shipped clients stepped call by call through the thread
gate, :mod:`repro.mc.gate`, optionally beside fault-delivery
pseudo-programs), prunes commuting orders with sleep sets (DPOR-lite)
and state-fingerprint deduplication, and checks two oracles at every
terminal state -- the no-stale/no-dirty value checks and the
:class:`~repro.obs.audit.IQAuditor` protocol state machine.  Any
violating schedule is delta-debugged down to a 1-minimal replayable
script.

Entry points::

    from repro.mc import (explore, figure_outcomes, fuzz, get_scenario,
                          replay, shrink)

    figure_outcomes()       # the figures under their paper schedules
    report = explore(get_scenario("fig3-baseline"))
    report.summary()        # schedules/states/pruned/deduped counts
    report.violations[0]    # a violating schedule
    shrink(get_scenario("fig3-baseline"),
           report.violations[0].schedule)   # -> minimal script

or ``python -m repro figures`` / ``python -m repro mc`` on the command
line.
"""

from repro.mc.explorer import (
    ExplorationReport,
    MCViolation,
    ReplayResult,
    explore,
    replay,
)
from repro.mc.fuzz import FuzzFailure, FuzzReport, fuzz
from repro.mc.program import MCProgram, MCRun, Op, ProgramCrash, independent
from repro.mc.scenarios import (
    FIGURE_PAIRS,
    SCENARIOS,
    FigureOutcome,
    Scenario,
    clock_final_checks,
    default_final_checks,
    figure_outcomes,
    get_scenario,
    scenario_names,
)
from repro.mc.shrink import ShrinkResult, emit_script, shrink
from repro.mc.world import GatedShard, World

__all__ = [
    "ExplorationReport",
    "MCViolation",
    "ReplayResult",
    "explore",
    "replay",
    "FuzzFailure",
    "FuzzReport",
    "fuzz",
    "MCProgram",
    "MCRun",
    "Op",
    "ProgramCrash",
    "independent",
    "FIGURE_PAIRS",
    "SCENARIOS",
    "FigureOutcome",
    "Scenario",
    "clock_final_checks",
    "default_final_checks",
    "figure_outcomes",
    "get_scenario",
    "scenario_names",
    "ShrinkResult",
    "emit_script",
    "shrink",
    "GatedShard",
    "World",
]
