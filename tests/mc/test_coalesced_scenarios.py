"""Client-side miss coalescing under exhaustive exploration.

The singleflight fencing rule (``repro.core.singleflight``): a waiter
may consume a coalesced fill only when the fill was *applied* -- the
filler's I lease was still live at install time, which proves no
invalidation crossed the fill window.  Exploration proves the fenced
readers clean over the figure windows (including the deferred-delete
rearrangement window), proves the hand-off actually happens (the clean
verdicts are not vacuous), and proves the deliberately unfenced waiter
loses -- via the ``expect`` freshness baseline, because the stale
hand-off is invisible to both classic oracles: the value was committed
once (no dirty read) and never reaches the store (no stale final).
"""

import pytest

from repro.mc import explore, get_scenario, replay
from repro.mc.scenarios import Scenario, coalesced_final_checks
from repro.mc.shrink import shrink

pytestmark = pytest.mark.mc

FENCED_SCENARIOS = [
    "coalesced-fill-fig3",
    "coalesced-fill-fig4",
    "coalesced-fenced-guard",
]


MAX_STATES = 200000


@pytest.fixture(scope="module")
def fig3_explored():
    """``(report, terminal statuses)`` of one coalesced-fill-fig3 run.

    The collector returns ``coalesced_final_checks`` unchanged, so the
    verdict is the registered scenario's and both tests below share it.
    """
    base = get_scenario("coalesced-fill-fig3")
    statuses = set()

    def collect(world, runs):
        statuses.update(run.result for run in runs.values())
        return coalesced_final_checks(world, runs)

    probe = Scenario(base.name, base.build, check_final=collect)
    return explore(probe, max_states=MAX_STATES), statuses


@pytest.fixture(scope="module")
def unfenced_report(explored):
    return explored(get_scenario("coalesced-unfenced"))


@pytest.mark.parametrize("name", FENCED_SCENARIOS)
def test_fenced_coalescing_explores_clean(name, request, explored):
    if name == "coalesced-fill-fig3":
        report, _statuses = request.getfixturevalue("fig3_explored")
    else:
        report = explored(get_scenario(name))
    print(report.summary())
    assert not report.truncated
    assert report.violation_count == 0, [
        (list(v.schedule), v.messages) for v in report.violations
    ]


def test_coalesced_serves_actually_happen(fig3_explored):
    # Some explored schedule must end with a reader having been served
    # from a co-located flight, or the clean verdicts above say nothing
    # about coalescing.
    report, statuses = fig3_explored
    assert report.ok
    assert "coalesced" in statuses, statuses


def test_unfenced_waiter_loses_and_is_caught(unfenced_report):
    scenario = get_scenario("coalesced-unfenced")
    report = unfenced_report
    assert not report.truncated
    assert report.violation_count > 0
    messages = [m for v in report.violations for m in v.messages]
    # Only the expect baseline can see the stale hand-off.
    assert any("coalesced-stale" in m for m in messages), messages
    assert not any("dirty-read" in m for m in messages), messages
    assert not any("stale-final" in m for m in messages), messages
    # The losing schedule replays deterministically to the same verdict.
    violation = report.violations[0]
    replayed = replay(scenario, violation.schedule, complete=True)
    assert not replayed.ok


def test_unfenced_violation_shrinks_to_the_full_handoff(unfenced_report):
    scenario = get_scenario("coalesced-unfenced")
    result = shrink(scenario, unfenced_report.violations[0].schedule)
    assert result.minimal
    # The 1-minimal counterexample needs all four sessions: the filler's
    # stale flight, the writer that voids it, the plain reader whose I
    # lease forces the waiter into back-off after the writer is done,
    # and the unfenced waiter itself.
    assert set(result.schedule) == {"W", "F", "G", "R"}
    replayed = replay(scenario, list(result.schedule), complete=True)
    assert not replayed.ok


def test_coalesced_scenarios_are_labelled():
    for name in FENCED_SCENARIOS + ["coalesced-unfenced"]:
        assert "coalesce" in get_scenario(name).tags
