"""Driving session programs: schedule order, drain, results, crashes.

:func:`repro.mc.replay` steps announce-then-perform programs in the
order a schedule names them and drains the rest round-robin;
:func:`repro.mc.explore` enumerates every schedule.  A program's
exception becomes a replayable :class:`~repro.mc.ProgramCrash`.  These
tests pin that driver on programs whose steps only count or log.
"""

import pytest

from repro.errors import ReproError
from repro.mc import (
    MCProgram,
    MCRun,
    Op,
    ProgramCrash,
    Scenario,
    World,
    explore,
    fuzz,
    replay,
)


def counting(name, steps, crash=False):
    """``steps`` local steps, then return -- or raise, with ``crash``."""

    def factory(world):
        for index in range(steps):
            yield Op("{}-step{}".format(name, index), local=True)
        if crash:
            raise RuntimeError("boom in {}".format(name))
        return "{}-done".format(name)

    return MCProgram(name, factory)


def make_world():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 0)
    return world


def scenario(*programs, check_final=None):
    def build():
        return make_world(), list(programs)

    return Scenario("stepping", build, check_final=check_final)


def labels(result):
    return [label for _name, label in result.steps]


class TestInterleaver:
    def test_schedule_order_is_honored(self):
        result = replay(
            scenario(counting("A", 2), counting("B", 2)),
            ["A", "B", "A", "B"], complete=False,
        )
        assert labels(result) == ["A-step0", "B-step0", "A-step1", "B-step1"]

    def test_results_returned(self):
        result = replay(scenario(counting("A", 1)), ["A"])
        assert result.runs["A"].result == "A-done"

    def test_finish_remaining(self):
        result = replay(scenario(counting("A", 3), counting("B", 1)), ["A"])
        assert result.ok
        assert labels(result) == ["A-step0", "A-step1", "B-step0", "A-step2"]
        assert all(run.finished for run in result.runs.values())

    def test_unknown_program_rejected(self):
        with pytest.raises(KeyError):
            replay(scenario(), ["ghost"])

    def test_advancing_finished_program_rejected(self):
        run = MCRun(counting("A", 1), make_world())
        run.step([])
        assert run.finished
        with pytest.raises(ProgramCrash) as exc_info:
            run.step(["A"])
        assert "stepping a finished program" in str(exc_info.value)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            replay(scenario(counting("A", 1), counting("A", 1)), [])

    def test_steps_recorded(self):
        result = replay(scenario(counting("A", 2)), ["A", "A"], complete=False)
        assert result.runs["A"].history == ["A-step0", "A-step1"]


class TestProgramCrash:
    def test_crash_carries_schedule_context(self):
        result = replay(
            scenario(counting("A", 3), counting("B", 2, crash=True)),
            ["A", "B", "A", "B"],
        )
        crash = result.crash
        assert isinstance(crash, ProgramCrash)
        assert crash.program == "B"
        assert crash.step_label == "B-step1"
        assert crash.schedule_prefix == ("A", "B", "A")
        assert isinstance(crash.original, RuntimeError)
        assert crash.__cause__ is crash.original
        assert result.violations == ["crash: {}".format(crash)]

    def test_crash_message_is_replayable_context(self):
        result = replay(scenario(counting("X", 1, crash=True)), ["X"])
        message = str(result.crash)
        assert "'X'" in message
        assert "'X-step0'" in message
        assert "RuntimeError: boom in X" in message

    def test_crash_during_drain_includes_scheduled_prefix(self):
        result = replay(scenario(counting("B", 2, crash=True)), ["B"])
        assert result.crash.step_label == "B-step1"
        assert result.crash.schedule_prefix == ("B",)

    def test_crash_is_a_schedule_error(self):
        # Callers that catch the package's base error catch crashes too.
        assert issubclass(ProgramCrash, ReproError)

    def test_schedule_errors_not_double_wrapped(self):
        result = replay(
            scenario(counting("A", 1), counting("B", 1, crash=True)),
            ["B", "A"],
        )
        assert not isinstance(result.crash.original, ProgramCrash)
        assert str(result.crash).count("crashed") == 1

    def test_crashed_program_is_finished(self):
        result = replay(scenario(counting("B", 1, crash=True)), ["B", "B"])
        assert result.runs["B"].finished
        assert result.steps == ()

    def test_explore_records_the_crashing_schedule(self):
        report = explore(
            scenario(counting("A", 1), counting("B", 1, crash=True))
        )
        assert report.violation_count > 0
        assert {v.kind for v in report.violations} == {"crash"}
        assert all(v.schedule[-1] == "B" for v in report.violations)

    def test_crash_before_the_first_yield_is_recorded(self):
        crashing = scenario(counting("A", 1), counting("X", 0, crash=True))
        result = replay(crashing, [])
        assert result.crash.program == "X"
        assert result.crash.step_label is None
        assert result.crash.schedule_prefix == ()
        assert isinstance(result.crash.__cause__, RuntimeError)
        assert not result.ok
        report = explore(crashing)
        assert report.violation_count == 1
        violation = report.violations[0]
        assert (violation.kind, violation.schedule) == ("crash", ())
        assert "boom in X" in violation.messages[0]
        failure = fuzz(crashing, runs=1).failures[0]
        assert failure.schedule == () and failure.shrunk.schedule == ()
        assert "boom in X" in failure.violations[0]


def appending(name, steps):
    """``steps`` steps, each appending ``name`` to one shared log.

    Every step writes the log, so no two steps commute and no two
    orders reach the same state: :func:`explore` must run them all.
    """

    def factory(world):
        for index in range(steps):
            yield Op("{}-step{}".format(name, index), writes=["log"])
            world.flags["log"] = world.flags.get("log", "") + name

    return MCProgram(name, factory)


def explored_orders(**steps):
    """The log of every terminal schedule :func:`explore` reaches."""
    orders = []

    def check_final(world, runs):
        orders.append(world.flags["log"])
        return []

    report = explore(scenario(
        *(appending(name, count) for name, count in sorted(steps.items())),
        check_final=check_final,
    ))
    assert report.ok
    assert report.schedules_explored == len(orders)
    return orders


class TestAllInterleavings:
    def test_count_is_multinomial(self):
        assert len(explored_orders(A=2, B=2)) == 6  # C(4,2)

    def test_each_schedule_has_right_multiplicity(self):
        for order in explored_orders(A=1, B=3):
            assert order.count("A") == 1
            assert order.count("B") == 3

    def test_unique(self):
        orders = explored_orders(A=2, B=1, C=1)
        assert len(orders) == len(set(orders)) == 12
