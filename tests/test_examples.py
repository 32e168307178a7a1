"""Examples must keep working: each runs end to end in-process."""

import os
import runpy
import sys

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)


def run_example(name, monkeypatch, capsys):
    """Execute an example script with __main__ semantics."""
    path = os.path.join(EXAMPLES_DIR, name)
    assert os.path.exists(path), path
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        output = run_example("quickstart.py", monkeypatch, capsys)
        assert "KVS/RDBMS agree" in output
        assert "stock': 99" in output or "'stock': 99" in output

    def test_race_conditions(self, monkeypatch, capsys):
        output = run_example("race_conditions.py", monkeypatch, capsys)
        assert output.count("STALE") >= 5
        assert "Every baseline run diverges" in output

    def test_techniques_tour(self, monkeypatch, capsys):
        output = run_example("techniques_tour.py", monkeypatch, capsys)
        assert "invalidate (QaR / DaR)" in output
        assert "refresh (QaRead / SaR)" in output
        assert "incremental update (IQ-delta / Commit)" in output

    def test_networked_cache(self, monkeypatch, capsys):
        output = run_example("networked_cache.py", monkeypatch, capsys)
        assert "KVS agrees with RDBMS: 16" in output

    def test_chaos_demo(self, monkeypatch, capsys):
        output = run_example("chaos_demo.py", monkeypatch, capsys)
        assert "killing the cache server" in output
        assert "unpredictable (stale) reads: 0" in output

    @pytest.mark.slow
    def test_social_network(self, monkeypatch, capsys):
        output = run_example("social_network.py", monkeypatch, capsys)
        assert "the IQ framework produced exactly 0%" in output
