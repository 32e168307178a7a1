"""Same seed, same inputs; another seed, other inputs; exact mixes."""

from collections import Counter

from repro.bg.workload import (
    HIGH_WRITE_MIX,
    LOW_WRITE_MIX,
    VERY_LOW_WRITE_MIX,
    WRITE_ACTIONS,
)
from stream import CYCLE, ActionStream, SamplerState, poisson_arrivals


def test_same_seed_same_stream_other_seed_other_stream():
    first = ActionStream(LOW_WRITE_MIX, 7).take(25_000)
    again = ActionStream(LOW_WRITE_MIX, 7).take(25_000)
    other = ActionStream(LOW_WRITE_MIX, 8).take(25_000)
    assert first == again
    assert first != other


def test_take_sizes_do_not_change_the_sequence():
    whole = ActionStream(HIGH_WRITE_MIX, 3).take(12_000)
    stream = ActionStream(HIGH_WRITE_MIX, 3)
    pieces = stream.take(500) + stream.take(9_500) + stream.take(2_000)
    assert pieces == whole


def test_every_cycle_holds_the_exact_mix():
    for mix in (VERY_LOW_WRITE_MIX, LOW_WRITE_MIX, HIGH_WRITE_MIX):
        counts = Counter(ActionStream(mix, 1).take(CYCLE))
        for name, pct in mix.percentages.items():
            assert counts[name] == round(pct * CYCLE / 100)


def test_writes_are_stratified():
    # 0.1% writes: exactly one per 1000 actions, whatever the seed
    for seed in range(5):
        names = ActionStream(VERY_LOW_WRITE_MIX, seed).take(3 * CYCLE)
        for start in range(0, len(names), 1000):
            block = names[start:start + 1000]
            assert sum(name in WRITE_ACTIONS for name in block) == 1


def test_samplers_and_arrivals_repeat():
    def draws(seed):
        state = SamplerState(seed, 200, 0.5)
        return [state.popular_member() for _ in range(50)] + [
            state.rng.random() for _ in range(5)
        ]

    assert draws(4) == draws(4)
    assert draws(4) != draws(5)
    assert poisson_arrivals(1000, 2.0, 9) == poisson_arrivals(1000, 2.0, 9)
    assert poisson_arrivals(1000, 2.0, 9) != poisson_arrivals(1000, 2.0, 10)
    due = poisson_arrivals(1000, 2.0, 9)
    assert due == sorted(due) and 0 < due[0] and due[-1] < 2.0
    assert 1800 < len(due) < 2200
