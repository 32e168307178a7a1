"""Report schema round-trips."""

import pytest

from repro.scenarios.report import OracleVerdict, ScenarioReport

pytestmark = pytest.mark.scenario


class TestReportRoundTrip:
    def make_report(self):
        return ScenarioReport(
            "wire-invalidate", "live", tier="smoke",
            verdict="fail",
            oracles=[
                OracleVerdict("zero-stale", True),
                OracleVerdict("zero-errors", False, count=3,
                              detail="3 failed actions"),
            ],
            metrics={"actions": 120, "throughput": 512.5},
            duration=1.25, seed=13,
        )

    def test_json_round_trip_preserves_everything(self):
        report = self.make_report()
        back = ScenarioReport.from_json(report.to_json())
        assert back.to_dict() == report.to_dict()
        assert back.verdict == "fail"
        assert not back.ok
        assert back.oracle("zero-errors").count == 3
        assert [v.name for v in back.failures()] == ["zero-errors"]
        assert back.metrics["throughput"] == 512.5

    def test_skipped_report(self):
        report = ScenarioReport("x", "mc", verdict="skipped",
                                skipped_reason="entry has no mc mode")
        assert report.skipped
        assert report.ok  # skipped is not a failure
        assert "skipped" in report.summary()
        assert ScenarioReport.from_json(report.to_json()).skipped_reason \
            == "entry has no mc mode"

    def test_newer_schema_rejected(self):
        data = self.make_report().to_dict()
        data["schema"] = 99
        with pytest.raises(ValueError, match="newer"):
            ScenarioReport.from_dict(data)
