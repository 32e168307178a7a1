"""Batched Q-lease acquisition, pinned under exhaustive exploration.

PR 5's ``qar_many`` collapses a write-set's growing phase into one
schedule step (the wire's ``qareg`` round trip).  The claim that makes
that safe: batching removes *interleaving points*, never *outcomes* --
a batched acquisition must be observably equivalent to the sequential
per-key loop.  The suite explores the batched scenario and its
sequential twin exhaustively, proves both clean, and asserts their
terminal outcome sets (committed rows + final cache contents +
observed reads) are identical.
"""

import pytest

from repro.mc import explore, get_scenario
from repro.mc.scenarios import Scenario, default_final_checks

pytestmark = pytest.mark.mc


def _outcome_set(name, max_states=200000):
    """Explore ``name`` with a terminal-outcome collector attached.

    Returns ``(report, outcomes)`` where each outcome is the canonical
    ``(sql rows, cache contents, cache reads)`` triple of one terminal
    state -- the externally observable result of a schedule.
    """
    base = get_scenario(name)
    outcomes = set()

    def collect(world, runs):
        outcomes.add((
            tuple(sorted(world.sql_contents().items())),
            tuple(sorted(world.kvs_contents().items())),
            tuple(sorted(world.cache_reads())),
        ))
        return default_final_checks(world, runs)

    probe = Scenario(name + "-probe", base.build, check_final=collect)
    return explore(probe, max_states=max_states), outcomes


class TestBatchedQaregEquivalence:
    def test_batched_explores_clean(self, explored):
        report = explored(get_scenario("qareg-batched"))
        print(report.summary())
        assert not report.truncated
        assert report.violation_count == 0, [
            (list(v.schedule), v.messages) for v in report.violations
        ]

    def test_sequential_twin_explores_clean(self, explored):
        report = explored(get_scenario("qareg-sequential"))
        print(report.summary())
        assert not report.truncated
        assert report.violation_count == 0, [
            (list(v.schedule), v.messages) for v in report.violations
        ]

    def test_outcome_sets_identical(self):
        batched_report, batched = _outcome_set("qareg-batched")
        sequential_report, sequential = _outcome_set("qareg-sequential")
        assert batched_report.ok and sequential_report.ok
        # Batching removes interleaving points, so the batched schedule
        # space is smaller -- but every outcome it can produce must be
        # producible sequentially, and vice versa.
        assert batched == sequential, (
            "batched-only: {}\nsequential-only: {}".format(
                sorted(batched - sequential), sorted(sequential - batched)
            )
        )
