"""CLI surface tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 11211
        assert args.i_ttl == 10.0

    def test_bench_choices(self):
        args = build_parser().parse_args(
            ["bench", "--experiment", "table1"]
        )
        assert args.experiment == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--experiment", "nope"])

    def test_demo_options(self):
        args = build_parser().parse_args(
            ["demo", "--threads", "2", "--ops", "5", "--members", "40"]
        )
        assert (args.threads, args.ops, args.members) == (2, 5, 40)

    def test_mc_defaults(self):
        args = build_parser().parse_args(["mc"])
        assert args.scenario is None
        assert args.fuzz == 0
        assert args.fuzz_scenario == "fuzz-sharded-fault"
        assert args.max_states == 500000

    def test_scenarios_defaults(self):
        args = build_parser().parse_args(["scenarios", "--list"])
        assert args.mode == "both"
        assert args.seed == 13
        assert not args.sweep and not args.smoke
        assert args.technique is None

    def test_scenarios_choice_validation(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenarios", "--technique", "hope"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--mode", "psychic"])

    def test_docstring_documents_every_subcommand(self):
        # Guard against --help drift: each registered subcommand must
        # appear in the module docstring's usage block.
        import repro.cli as cli

        sub = build_parser()._subparsers._group_actions[0]
        for command in sub.choices:
            assert "python -m repro {}".format(command) in cli.__doc__


class TestCommands:
    def test_figures_command_runs_clean(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "STALE" in output        # baselines race
        assert "consistent" in output   # IQ holds

    def test_figures_command_fails_when_a_baseline_stops_racing(
            self, monkeypatch, capsys):
        from repro.mc import get_scenario

        # The reader runs to completion before the writer starts: benign.
        monkeypatch.setattr(get_scenario("fig3-baseline"), "schedule",
                            ("S2",))
        assert main(["figures"]) == 1
        assert "UNEXPECTED" in capsys.readouterr().out

    def test_demo_command_runs(self, capsys):
        assert main(
            ["demo", "--threads", "2", "--ops", "10", "--members", "40"]
        ) == 0
        output = capsys.readouterr().out
        assert "IQ-Twemcached" in output
        assert "Twemcache baseline" in output

    def test_mc_list(self, capsys):
        assert main(["mc", "--list"]) == 0
        output = capsys.readouterr().out
        assert "fig3-baseline" in output
        assert "[races]" in output
        assert "[clean]" in output

    def test_mc_single_scenario(self, capsys):
        assert main(["mc", "--scenario", "fig3-iq"]) == 0
        output = capsys.readouterr().out
        assert "fig3-iq" in output
        assert "clean" in output
        assert "model checker: OK" in output

    def test_mc_baseline_scenario_prints_shrunk_script(self, capsys):
        assert main(["mc", "--scenario", "fig3-baseline"]) == 0
        output = capsys.readouterr().out
        assert "Minimal violating schedule" in output
        assert "[forced]" in output

    def test_mc_unexpectedly_clean_expected_race_fails(self, capsys):
        # A clean result on an expect_violation scenario is a failure:
        # the checker lost its ability to find the race.
        assert main(["mc", "--scenario", "fig2-iq"]) == 0
        assert main(["mc", "--scenario", "fig2-iq", "--max-states", "1"]) == 1
        output = capsys.readouterr().out
        assert "state budget exhausted" in output

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        output = capsys.readouterr().out
        assert "figure-invalidate" in output
        assert "herd-after-flush-invalidate" in output
        assert "[live,mc]" in output

    def test_scenarios_list_honours_filters(self, capsys):
        assert main(["scenarios", "--list", "--technique", "clock",
                     "--transport", "wire"]) == 0
        output = capsys.readouterr().out
        assert "wire-clock" in output
        assert "figure-clock" not in output
        assert "wire-invalidate" not in output

    def test_scenarios_run_both_modes_with_parity(self, capsys, tmp_path):
        out = tmp_path / "reports.json"
        assert main(["scenarios", "--run", "figure-invalidate", "--smoke",
                     "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "[live]" in output and "[mc]" in output
        assert "parity: live/mc verdicts agree" in output

        import json

        reports = json.loads(out.read_text())
        assert {r["mode"] for r in reports} == {"live", "mc"}
        assert all(r["verdict"] == "pass" for r in reports)

    def test_scenarios_without_action_explains_usage(self, capsys):
        assert main(["scenarios"]) == 2
        assert "--sweep" in capsys.readouterr().out
