"""Exhaustive interleaving check: IQ admits *no* stale outcome.

For a read session racing one invalidating write session,
:func:`repro.mc.explore` runs every interleaving of their steps and
asserts:

* with the IQ framework -- deferred delete (Section 3.3) on or off --
  the writer commits and the terminal KVS state agrees with the RDBMS
  in every single interleaving;
* with the unleased baseline, at least one interleaving leaves a stale
  KVS value and at least one does not -- the race is real, and the
  harness tells it apart from the benign orders.

This is the strongest qualitative statement of the paper ("reduces the
amount of stale data to zero") made mechanically checkable at small scale.
"""

from repro.mc import Scenario, World, default_final_checks, explore
from repro.mc.clients import (
    baseline_client,
    baseline_reader,
    invalidate_writer,
    iq_reader,
)


def writer_committed(world, runs):
    messages = default_final_checks(world, runs)
    if world.sql_contents() != {"k0": 1}:
        messages.append("writer did not commit: {}".format(
            world.sql_contents()
        ))
    return messages


def reader_vs_invalidator(backend, serve_pending=True):
    def build():
        world = World(keys=("k0",), backend=backend,
                      serve_pending=serve_pending)
        world.seed("k0", 0)
        if backend == "iq":
            programs = [invalidate_writer("W", {"k0": "1"}, attempts=2),
                        iq_reader("R", "k0", attempts=4)]
        else:
            programs = [invalidate_writer("W", {"k0": "1"},
                                          make=baseline_client()),
                        baseline_reader("R", "k0", attempts=2)]
        return world, programs

    return Scenario("reader-vs-invalidator", build,
                    check_final=writer_committed)


def assert_clean(report):
    assert report.ok, [
        (list(v.schedule), v.messages) for v in report.violations
    ]
    assert report.schedules_explored > 1


class TestExhaustive:
    def test_iq_no_interleaving_leaves_stale_data(self):
        assert_clean(explore(reader_vs_invalidator("iq", serve_pending=True)))

    def test_iq_no_stale_data_with_eager_delete(self):
        assert_clean(explore(reader_vs_invalidator("iq", serve_pending=False)))

    def test_baseline_has_at_least_one_stale_interleaving(self):
        report = explore(reader_vs_invalidator("baseline"))
        assert not report.truncated
        assert report.violation_count > 0, (
            "the baseline race never materialized"
        )
        assert report.violation_count < report.schedules_explored, (
            "some interleavings must be benign"
        )
        for violation in report.violations:
            assert violation.kind == "final"
            assert all(m.startswith("stale-final") for m in violation.messages)
