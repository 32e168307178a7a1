"""Replay every race condition figure from the paper, deterministically.

Each figure is a pair of model-checker scenarios replayed under the
figure's exact interleaving: first the unleased baseline (Twemcache +
Facebook read leases), which exhibits the race, then the IQ framework,
which prevents it.

Run:  python examples/race_conditions.py
"""

from repro.mc import figure_outcomes


def main():
    print("Scenario".ljust(10), "Variant".ljust(9), "RDBMS".ljust(14),
          "KVS".ljust(15), "Outcome")
    print("-" * 62)
    for outcome in figure_outcomes():
        status = "consistent" if outcome.consistent else "*** STALE ***"
        print(
            outcome.figure.ljust(10),
            outcome.variant.ljust(9),
            repr(outcome.rdbms).ljust(14),
            repr(outcome.kvs).ljust(15),
            status,
        )
        assert outcome.ok != outcome.expect_violation, outcome
    print()
    print("Every baseline run diverges; every IQ run ends consistent.")


if __name__ == "__main__":
    main()
