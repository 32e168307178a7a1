"""The thread gate: shipped clients stepped by the model checker.

Every IQ, baseline and clock scenario runs the shipped clients through
:mod:`repro.mc.gate`.  These tests pin what the gate itself promises:
each scenario program is a gate program (or one of the few programs no
client performs), no thread outlives its execution, a client that
raises mid-call becomes a replayable crash, and each rejected variant
is a one-decision override of a shipped class.
"""

import inspect
import threading

import pytest

from repro.core.iq_client import IQClient
from repro.core.policies import _BaselineBase, _IQClientBase
from repro.mc import (
    SCENARIOS,
    ProgramCrash,
    Scenario,
    World,
    explore,
    replay,
)
from repro.mc import variants
from repro.mc.clients import invalidate_writer
from repro.mc.gate import (
    NO_SLEEP,
    GatedSingleFlight,
    GateProgram,
    client_program,
)
from repro.scenarios.catalogue import CATALOGUE
from repro.scenarios.mc_bridge import compile_spec
from repro.util.backoff import NoBackoff

pytestmark = pytest.mark.mc

#: the programs no shipped client performs (``repro.mc.sessions``)
NON_CLIENT_PROGRAMS = {"fault_program", "reconciler", "migration_program"}


def every_scenario():
    scenarios = list(SCENARIOS.values())
    scenarios += [compile_spec(spec) for spec in CATALOGUE
                  if spec.mc_scenario == "auto"]
    return scenarios


def test_every_program_is_a_shipped_client_or_a_non_client_step():
    for scenario in every_scenario():
        _world, programs = scenario.build()
        for program in programs:
            if isinstance(program, GateProgram):
                continue
            builder = program.factory.__qualname__.split(".")[0]
            assert builder in NON_CLIENT_PROGRAMS, (scenario.name, program)


def test_every_variant_overrides_a_shipped_class():
    shipped = (_IQClientBase, _BaselineBase, GatedSingleFlight)
    for name in variants.__all__:
        cls = getattr(variants, name)
        if name == "GuessedCommitClock":
            # Not a client: the promise proxy handed to a shipped
            # ClockClient in place of its CommitClock.
            assert callable(cls.gated(8))
            continue
        assert issubclass(cls, shipped), name
        overridden = [attr for attr in vars(cls)
                      if inspect.isfunction(vars(cls)[attr])]
        assert overridden, name


def test_no_thread_outlives_an_exploration():
    # Truncated explorations close executions with programs parked
    # mid-session -- the teardown path that must cancel and join them.
    before = threading.active_count()
    for scenario in every_scenario():
        explore(scenario, max_states=150)
    assert threading.active_count() == before


def _crashing_reader(name):
    """A read session whose ``compute`` fails right after its query."""

    def fn(world):
        client = IQClient(world.gate.backend,
                          backoff=NoBackoff(max_attempts=2), clock=NO_SLEEP)
        connection = world.gate.connect()

        def compute():
            connection.query_scalar("SELECT val FROM items WHERE id = 1")
            raise RuntimeError("compute failed")

        try:
            return client.read_through("k0", compute)
        finally:
            connection.close()

    return client_program(name, fn)


def _crash_scenario():
    def build():
        world = World(keys=("k0",), backend="iq")
        world.seed_db_only("k0", 0)
        return world, [
            invalidate_writer("W", {"k0": "1"}, attempts=2),
            _crashing_reader("R"),
        ]

    return Scenario("gate-crash", build)


def test_a_client_raising_mid_call_is_a_replayable_crash():
    scenario = _crash_scenario()
    before = threading.active_count()
    report = explore(scenario)
    crashes = [v for v in report.violations if v.kind == "crash"]
    assert crashes
    result = replay(scenario, crashes[0].schedule, complete=False)
    crash = result.crash
    assert isinstance(crash, ProgramCrash)
    assert crash.program == "R"
    assert crash.step_label == "R:sql.query_scalar"
    assert isinstance(crash.original, RuntimeError)
    # The crash's own prefix, plus one more step of the crashing
    # program, reproduces it.
    again = replay(scenario, crash.schedule_prefix + (crash.program,),
                   complete=False).crash
    assert (again.program, again.step_label) == ("R", "R:sql.query_scalar")
    assert threading.active_count() == before


def test_calls_from_the_explorer_thread_pass_straight_through():
    world = World(keys=("k0",), backend="iq")
    world.seed("k0", 7)
    assert world.gate.backend.iq_get("k0").value == b"7"
    connection = world.gate.connect()
    assert connection.query_scalar("SELECT val FROM items WHERE id = 1") == 7
    connection.close()
    assert world.gate.histories == {}
