"""Figures 2, 3, 4, 6, 7, 8: the race-condition scenarios, deterministic.

Each figure's baseline and IQ model-checker scenario is replayed under
the figure's exact interleaving -- the unleased baseline exhibits the
race, the IQ framework prevents it -- and the resulting RDBMS/KVS values
are printed as the figure-reproduction table.
"""

from _common import emit, format_table

from repro.mc import figure_outcomes


def run_experiment():
    outcomes = figure_outcomes()
    rows = [
        [
            o.figure,
            o.variant,
            repr(o.rdbms),
            repr(o.kvs),
            "yes" if o.consistent else "STALE",
        ]
        for o in outcomes
    ]
    return outcomes, rows


def test_figures(benchmark):
    outcomes, rows = benchmark.pedantic(
        run_experiment, iterations=1, rounds=3
    )
    emit("figures", format_table(
        "Figures 2/3/4/6/7/8: final RDBMS vs KVS value per interleaving",
        ["Figure", "Variant", "RDBMS", "KVS", "Consistent"],
        rows,
    ))
    for outcome in outcomes:
        assert outcome.consistent != outcome.expect_violation, outcome
        assert outcome.ok != outcome.expect_violation, outcome
    # Spot-check the paper's concrete Figure 2 numbers.
    figure2 = outcomes[0]
    assert figure2.rdbms == {"k0": 1500} and figure2.kvs == {"k0": "1050"}


if __name__ == "__main__":
    _outcomes, rows = run_experiment()
    emit("figures", format_table(
        "Figures 2/3/4/6/7/8: final RDBMS vs KVS value per interleaving",
        ["Figure", "Variant", "RDBMS", "KVS", "Consistent"],
        rows,
    ))
