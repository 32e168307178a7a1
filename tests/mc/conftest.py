"""Shared fixtures for the model-checker suites."""

import pytest

from repro.mc import explore


@pytest.fixture(scope="session")
def explored():
    """``explored(scenario)``: one exhaustive exploration per scenario
    name per test session, with every violation's details and up to 50
    dedup pairs kept.

    Suites that only read a report share it instead of re-running the
    same exploration.
    """
    reports = {}

    def run(scenario):
        if scenario.name not in reports:
            reports[scenario.name] = explore(
                scenario, max_states=200000, max_violations=10 ** 9,
                record_dedup_pairs=50,
            )
        return reports[scenario.name]

    return run
