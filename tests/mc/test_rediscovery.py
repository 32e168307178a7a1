"""The checker must *rediscover* the paper's six figure races.

Each figure scenario carries the paper's exact interleaving as its
``schedule`` (``tests/sim/test_figures.py`` replays it).  Here the model
checker ignores that schedule -- it gets only the session programs --
and must find each race on its own, then prove the IQ counterpart clean
over the same bounded space, and shrink every baseline violation to a
minimal replayable script.
"""

import pytest

from repro.mc import (
    FIGURE_PAIRS,
    emit_script,
    explore,
    get_scenario,
    replay,
    shrink,
)

pytestmark = pytest.mark.mc


class TestBaselineRacesAreFound:
    @pytest.mark.parametrize("baseline,_iq", FIGURE_PAIRS)
    def test_race_rediscovered(self, baseline, _iq):
        report = explore(get_scenario(baseline), max_states=100000)
        print(report.summary())
        assert not report.truncated
        assert report.violation_count > 0, (
            "{} should race but explored clean".format(baseline)
        )

    @pytest.mark.parametrize("baseline,_iq", FIGURE_PAIRS)
    def test_violation_shrinks_to_replayable_script(self, baseline, _iq):
        scenario = get_scenario(baseline)
        report = explore(scenario, max_states=100000)
        result = shrink(scenario, report.violations[0].schedule)
        assert result.minimal
        assert len(result.schedule) <= len(result.original)
        assert result.violations
        # The emitted artifact is a self-contained executable repro.
        script = emit_script(result)
        assert "Minimal violating schedule" in script
        exec(compile(script, "<shrunk {}>".format(baseline), "exec"), {})


class TestIQCounterpartsAreClean:
    @pytest.mark.parametrize("_baseline,iq", FIGURE_PAIRS)
    def test_zero_violations_exhaustively(self, _baseline, iq):
        report = explore(get_scenario(iq), max_states=100000)
        print(report.summary())
        assert not report.truncated
        assert report.violation_count == 0, [
            (list(v.schedule), v.messages) for v in report.violations
        ]


class TestStaleValuesMatchTheFigures:
    def test_fig2_lost_update_value(self):
        # Figure 2: S1's cas installs a value computed before S2's
        # serialization, so the KVS diverges from 100 -> +50 -> *10.
        report = explore(get_scenario("fig2-baseline"))
        messages = [m for v in report.violations for m in v.messages]
        assert any("stale-final" in m for m in messages)

    def test_fig6_dirty_read_flagged(self):
        report = explore(get_scenario("fig6-baseline"))
        messages = [m for v in report.violations for m in v.messages]
        assert any("dirty-read" in m for m in messages)

    def test_fig8_double_delta(self):
        report = explore(get_scenario("fig8-baseline"))
        messages = [m for v in report.violations for m in v.messages]
        assert any("'xdd'" in m for m in messages)

    def test_fig3_found_schedule_replays(self):
        scenario = get_scenario("fig3-baseline")
        report = explore(scenario)
        result = replay(scenario, report.violations[0].schedule,
                        complete=True)
        assert not result.ok
