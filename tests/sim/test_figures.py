"""The paper's race figures, replayed under their fixed schedules.

Every figure scenario carries the figure's interleaving as its
``schedule``, one program name per announced step, and
:func:`repro.mc.figure_outcomes` replays each.  A baseline must end with
the figure's stale value and a violating verdict, its IQ counterpart
consistent and clean.  Cached values come back decoded as ``str``, and
``None`` is an absent key.
"""

import pytest

from repro.mc import FIGURE_PAIRS, SCENARIOS, figure_outcomes, replay

NAMES = [name for pair in FIGURE_PAIRS for name in pair]


@pytest.fixture(scope="module")
def outcomes():
    return dict(zip(NAMES, figure_outcomes()))


def assert_replays_to(outcomes, name, rdbms, kvs):
    """``name`` ends with ``rdbms`` committed and ``kvs`` cached for k0;
    a baseline inconsistent and violating, an IQ row neither."""
    row = outcomes[name]
    figure, variant = name.split("-")
    assert (row.figure, row.variant) == ("Figure " + figure[3:], variant)
    assert (row.rdbms, row.kvs) == ({"k0": rdbms}, {"k0": kvs})
    ok = variant == "iq"
    assert row.ok == row.consistent == ok
    assert row.expect_violation == (not ok)


def replay_paper_schedule(name):
    scenario = SCENARIOS[name]
    return replay(scenario, scenario.schedule)


class TestFigure2:
    def test_baseline_cas_diverges_exactly_as_paper(self, outcomes):
        # (100 + 50) * 10 committed, (100 * 10) + 50 cached
        assert_replays_to(outcomes, "fig2-baseline", 1500, "1050")

    def test_iq_refresh_converges(self, outcomes):
        assert_replays_to(outcomes, "fig2-iq", 1500, "1500")


class TestFigure3:
    def test_baseline_inserts_stale_value(self, outcomes):
        # the reader's pre-commit snapshot lands after the trigger's delete
        assert_replays_to(outcomes, "fig3-baseline", 1, "0")

    def test_iq_backoff_prevents_stale_insert(self, outcomes):
        assert_replays_to(outcomes, "fig3-iq", 1, "1")
        reader = replay_paper_schedule("fig3-iq").runs["S2"]
        assert reader.history == [
            "S2:iq_get", "S2:iq_get", "S2:sql.query_scalar", "S2:iq_set",
        ]  # backed off once against the writer's Q lease


class TestFigure4:
    def test_rearrangement_window_serves_old_version(self, outcomes):
        # window reads serve the pending 0; DaR deletes it afterwards
        assert_replays_to(outcomes, "fig4-iq", 1, None)
        world = replay_paper_schedule("fig4-iq").world
        assert world.cache_reads() == [("R1", "k0", "0"), ("R2", "k0", "0")]

    def test_baseline_filler_installs_pre_commit_value(self, outcomes):
        assert_replays_to(outcomes, "fig4-baseline", 1, "0")


class TestFigure6:
    def test_baseline_dirty_read(self, outcomes):
        # the aborted refresh's value stays cached and is served
        assert_replays_to(outcomes, "fig6-baseline", 0, "1")
        violations = replay_paper_schedule("fig6-baseline").violations
        assert any(v.startswith("dirty-read: S2") for v in violations)

    def test_iq_abort_leaves_old_value(self, outcomes):
        assert_replays_to(outcomes, "fig6-iq", 0, "0")


class TestFigure7:
    def test_baseline_stale_overwrite(self, outcomes):
        # the delta is lost on a miss, then the stale fill lands
        assert_replays_to(outcomes, "fig7-baseline", "xd", "x")

    def test_iq_voids_readers_lease(self, outcomes):
        # the Q lease voids the doomed fill's I lease
        assert_replays_to(outcomes, "fig7-iq", "xd", None)


class TestFigure8:
    def test_baseline_double_append(self, outcomes):
        # the post-commit delta applies on top of a fill that has it
        assert_replays_to(outcomes, "fig8-baseline", "xd", "xdd")

    def test_iq_backoff_until_commit(self, outcomes):
        assert_replays_to(outcomes, "fig8-iq", "xd", "xd")


class TestRunAll:
    def test_every_baseline_races_every_iq_holds(self, outcomes):
        assert len(outcomes) == 12
        for name, row in outcomes.items():
            assert row.consistent == row.ok == (row.variant == "iq"), name

    def test_outcomes_are_reproducible(self, outcomes):
        assert sorted(
            name for name, scenario in SCENARIOS.items() if scenario.schedule
        ) == sorted(NAMES)
        assert figure_outcomes() == list(outcomes.values())
