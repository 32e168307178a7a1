"""Random and client-level schedules never leave stale data.

Hypothesis samples schedules of *three* sessions -- an invalidate writer
and a refresh writer contending for one key, and a reader (the
``mix3-inv-refresh-read`` scenario) -- and :func:`repro.mc.replay` runs
each to completion: the IQ framework must never leave stale data, and
the RDBMS must hold exactly the writes whose sessions committed.  The
writer pair also exercises the Q-Q reject path (Figure 5b) inside
arbitrary schedules.

The reader is the shipped :meth:`IQClient.read_through`, stepped call
by call through the gate, and is also explored against a refresh writer
exhaustively.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.mc import Scenario, World, explore, get_scenario, replay
from repro.mc.clients import iq_reader, refresh_writer

MIX = get_scenario("mix3-inv-refresh-read")


@given(
    choices=st.lists(
        st.sampled_from(["inv", "ref", "r"]), min_size=6, max_size=40
    )
)
@settings(max_examples=80, deadline=None)
def test_random_three_session_schedules_never_leave_stale_data(choices):
    result = replay(MIX, choices)
    assert result.ok, (choices, result.violations)
    # Seeded with 10: the invalidate writer adds 100, the refresh writer 7.
    expected = (
        10
        + (100 if result.runs["inv"].result == "invalidated" else 0)
        + (7 if result.runs["ref"].result == "refreshed" else 0)
    )
    assert result.world.sql_contents() == {"k0": expected}


def test_reader_through_client_api_matches_low_level():
    """The property holds for the shipped read session: the reader is
    :meth:`IQClient.read_through` itself, stepped call by call."""

    def build():
        world = World(keys=("k0",), backend="iq")
        world.seed("k0", 100)
        return world, [
            refresh_writer("W", "k0", "val * 2", lambda old: int(old) * 2,
                           attempts=2),
            iq_reader("R", "k0"),
        ]

    report = explore(Scenario("read-through", build))
    assert report.ok, [v.messages for v in report.violations]
    assert report.schedules_explored > 1
