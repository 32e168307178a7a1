"""The catalogue's smoke tier as plain pytest parametrizations.

``repro scenarios --sweep --smoke`` is the CI sweep; this suite makes
the same entries reachable as individual pytest cases (``-m scenario``)
at the smaller ``pytest`` sizing.  Fast inproc entries all run; the
slower duration-based fault entries are covered by one representative
per controller so the tier-1 wall clock stays flat.
"""

import pytest

from repro.scenarios import CATALOGUE, by_name, run_live

pytestmark = pytest.mark.scenario


def _fast_inproc_names():
    return [
        spec.name for spec in CATALOGUE
        if "smoke" in spec.tiers and "live" in spec.modes
        and spec.transport == "inproc" and spec.fault_plan is None
    ]


def _assert_clean(report):
    assert report.ok, "{} failed: {}".format(
        report.name, "; ".join(
            "{}: {}".format(v.name, v.detail or v.count)
            for v in report.failures()
        )
    )
    for verdict in report.oracles:
        assert verdict.ok


@pytest.mark.parametrize("name", _fast_inproc_names())
def test_inproc_smoke_entry(name):
    _assert_clean(run_live(by_name(name), sizing="pytest"))


def test_wire_smoke_entry():
    report = run_live(by_name("wire-invalidate"), sizing="pytest")
    _assert_clean(report)
    assert report.metrics["actions"] > 0


@pytest.mark.slow
def test_flush_herd_controller_entry():
    report = run_live(by_name("herd-after-flush-invalidate"),
                      sizing="pytest")
    _assert_clean(report)
    assert report.metrics["flushes"] >= 1
    assert report.metrics["get_misses"] > 0


@pytest.mark.slow
def test_rebalance_controller_entry():
    report = run_live(by_name("rebalance-add-invalidate"), sizing="pytest")
    _assert_clean(report)
    assert report.oracle("migration-done").ok


@pytest.mark.slow
def test_kill_restart_controller_entry():
    report = run_live(by_name("chaos-kill-restart-refresh"),
                      sizing="pytest")
    _assert_clean(report)
    assert report.metrics["kills"] >= 1


@pytest.mark.slow
def test_coalesced_herd_controller_entry():
    report = run_live(by_name("herd-after-flush-coalesced"),
                      sizing="pytest")
    _assert_clean(report)
    assert report.oracle("coalesced-gets").ok
    assert report.metrics["coalesced_fills"] > 0


@pytest.mark.slow
def test_striped_kill_restart_controller_entry():
    report = run_live(by_name("chaos-kill-restart-striped"),
                      sizing="pytest")
    _assert_clean(report)
    assert report.metrics["kills"] >= 1
