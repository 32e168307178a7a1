"""Verdict goldens: what every scenario proves, pinned as literals.

Each scenario of :data:`repro.mc.SCENARIOS` (except the fuzz-only
``fuzz-sharded-fault``) and each ``auto-*`` scenario the catalogue
bridge compiles is explored exhaustively; its verdict -- violating or
clean, never truncated, and the set of violation kinds found -- must
equal the literal below.  The paper's figure table (``repro figures``)
is pinned row by row the same way.

These literals are the contract a change to the programs the checker
runs must keep: swapping one implementation of a session for another
may move state counts (printed, never pinned) but not a verdict.
"""

import re

import pytest

from repro.mc import SCENARIOS, figure_outcomes
from repro.scenarios.catalogue import CATALOGUE
from repro.scenarios.mc_bridge import compile_spec

pytestmark = pytest.mark.mc

#: name -> (violating, violation kinds)
GOLDEN = {
    "clock-missized": (True, ("clock-stale",)),
    "coalesced-fenced-guard": (False, ()),
    "coalesced-fill-fig3": (False, ()),
    "coalesced-fill-fig4": (False, ()),
    "coalesced-unfenced": (True, ("coalesced-stale",)),
    "fault-expired-leases": (True, ("stale-final",)),
    "fault-suppressed-i-void": (
        True, ("auditor:q-grant-left-i-alive", "stale-final"),
    ),
    "fig2-baseline": (True, ("stale-final",)),
    "fig2-clock": (False, ()),
    "fig2-iq": (False, ()),
    "fig3-baseline": (True, ("stale-final",)),
    "fig3-clock": (False, ()),
    "fig3-iq": (False, ()),
    "fig4-baseline": (True, ("stale-final",)),
    "fig4-clock": (False, ()),
    "fig4-iq": (False, ()),
    "fig6-baseline": (True, ("dirty-read", "stale-final")),
    "fig6-clock": (False, ()),
    "fig6-iq": (False, ()),
    "fig7-baseline": (True, ("stale-final",)),
    "fig7-clock": (False, ()),
    "fig7-iq": (False, ()),
    "fig8-baseline": (True, ("stale-final",)),
    "fig8-iq": (False, ()),
    "mix3-inv-delta-read": (False, ()),
    "mix3-inv-refresh-read": (False, ()),
    "mix3-refresh-delta-read": (False, ()),
    "pr2-journal-post": (False, ()),
    "pr2-journal-pre": (True, ("journal-before-commit",)),
    "pr2-poison": (False, ()),
    "pr2-poison-missing": (True, ("dirty-read", "stale-final")),
    "qareg-batched": (False, ()),
    "qareg-sequential": (False, ()),
    "rebalance-add": (False, ()),
    "rebalance-add-kill": (False, ()),
    "rebalance-remove": (False, ()),
    "rebalance-unquarantined": (True, ("stale-final",)),
    "sharded-mix": (False, ()),
    "figure-invalidate:auto-invalidate": (False, ()),
    "figure-refresh:auto-refresh": (False, ()),
    "figure-delta:auto-delta": (False, ()),
    "figure-clock:auto-clock": (False, ()),
}

#: ``repro figures``: figure, variant, rdbms, kvs, consistent, race/clean
FIGURE_ROWS = [
    ("Figure 2", "baseline", {"k0": 1500}, {"k0": "1050"}, "STALE", "race"),
    ("Figure 2", "iq", {"k0": 1500}, {"k0": "1500"}, "consistent", "clean"),
    ("Figure 3", "baseline", {"k0": 1}, {"k0": "0"}, "STALE", "race"),
    ("Figure 3", "iq", {"k0": 1}, {"k0": "1"}, "consistent", "clean"),
    ("Figure 4", "baseline", {"k0": 1}, {"k0": "0"}, "STALE", "race"),
    ("Figure 4", "iq", {"k0": 1}, {"k0": None}, "consistent", "clean"),
    ("Figure 6", "baseline", {"k0": 0}, {"k0": "1"}, "STALE", "race"),
    ("Figure 6", "iq", {"k0": 0}, {"k0": "0"}, "consistent", "clean"),
    ("Figure 7", "baseline", {"k0": "xd"}, {"k0": "x"}, "STALE", "race"),
    ("Figure 7", "iq", {"k0": "xd"}, {"k0": None}, "consistent", "clean"),
    ("Figure 8", "baseline", {"k0": "xd"}, {"k0": "xdd"}, "STALE", "race"),
    ("Figure 8", "iq", {"k0": "xd"}, {"k0": "xd"}, "consistent", "clean"),
]


def _scenarios():
    scenarios = {
        name: scenario for name, scenario in SCENARIOS.items()
        if name != "fuzz-sharded-fault"
    }
    for spec in CATALOGUE:
        if spec.mc_scenario == "auto":
            scenario = compile_spec(spec)
            scenarios[scenario.name] = scenario
    return scenarios


def violation_kinds(report):
    """The kind of every violation message: its prefix, or
    ``auditor:<rule>`` for an auditor finding."""
    kinds = set()
    for violation in report.violations:
        for message in violation.messages:
            audit = re.match(r"auditor: Violation\((\S+)", message)
            kinds.add("auditor:" + audit.group(1) if audit
                      else message.split(":")[0])
    return tuple(sorted(kinds))


def test_every_scenario_has_a_golden():
    assert sorted(_scenarios()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_verdict_matches_golden(name, explored):
    # ``explored`` keeps every violation's details: the kind set is
    # complete.
    report = explored(_scenarios()[name])
    print(report.summary())  # state counts are reported, not pinned
    assert not report.truncated
    assert (report.violation_count > 0, violation_kinds(report)) == (
        GOLDEN[name]
    )


def test_figure_table_matches_golden():
    rows = [
        (row.figure, row.variant, row.rdbms, row.kvs,
         "consistent" if row.consistent else "STALE",
         "race" if row.expect_violation else "clean")
        for row in figure_outcomes()
    ]
    assert rows == FIGURE_ROWS
    assert all(row.ok != row.expect_violation for row in figure_outcomes())
