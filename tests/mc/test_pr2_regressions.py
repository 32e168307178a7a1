"""PR 2 review semantics, pinned under exhaustive exploration.

Two behaviours were settled in PR 2's review: a growing-phase shard
failure journals its keys only *after* the RDBMS commit, and a shard
failing partway through a multi-delta proposal is poisoned so its
commit leg aborts rather than applying a partial delta list.  Each is
explored exhaustively here, paired with its rejected variant -- the
checker must prove the reviewed semantics clean and flag the rejected
ones, demonstrating it would have caught the original bugs.
"""

import pytest

from repro.mc import explore, get_scenario

pytestmark = pytest.mark.mc


class TestPostCommitJournaling:
    def test_reviewed_semantics_explore_clean(self, explored):
        report = explored(get_scenario("pr2-journal-post"))
        print(report.summary())
        assert not report.truncated
        assert report.violation_count == 0, [
            (list(v.schedule), v.messages) for v in report.violations
        ]

    def test_pre_commit_journaling_is_flagged(self):
        report = explore(get_scenario("pr2-journal-pre"),
                         max_states=200000)
        assert report.violation_count > 0
        messages = [m for v in report.violations for m in v.messages]
        assert any("journal-before-commit" in m for m in messages)
        # The invariant fires mid-schedule, not just at terminal states.
        assert any(v.kind == "invariant" for v in report.violations)


class TestPoisonedPartialProposals:
    def test_reviewed_semantics_explore_clean(self):
        report = explore(get_scenario("pr2-poison"), max_states=200000)
        print(report.summary())
        assert not report.truncated
        assert report.violation_count == 0, [
            (list(v.schedule), v.messages) for v in report.violations
        ]

    def test_missing_poison_commits_partial_deltas(self):
        report = explore(get_scenario("pr2-poison-missing"),
                         max_states=200000)
        assert report.violation_count > 0
        messages = [m for v in report.violations for m in v.messages]
        # 10 + first delta (1) only: the partial proposal's value.
        assert any("'11'" in m for m in messages)
