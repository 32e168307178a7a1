"""Seed-generated inputs: action streams, operand samplers, arrival times.

The program under test only ever sees what this module generates.  The
same seed gives the same action names in the same order, the same
Zipfian member draws and the same Poisson arrival schedule.

A stream is not sampled action by action.  A write action costs ~150x a
cached read here, so the binomial noise of "how many writes fell into
this round" would swamp the signal.  Instead each cycle of
:data:`CYCLE` actions holds *exactly* the mix's share of every action
(10 000 is the shortest cycle in which every Table 5 percentage is a
whole count), and the writes are stratified: one per ``CYCLE / writes``
consecutive actions, at a seeded offset inside its stratum.  Every round
that is a multiple of the stratum therefore carries the same number of
writes.
"""

import random

from repro.bg.workload import WRITE_ACTIONS
from repro.bg.zipfian import ZipfianGenerator

CYCLE = 10_000


def cycle_names(mix, rng):
    """One cycle of action names: exact counts, stratified writes."""
    reads, writes = [], []
    for name, pct in mix.percentages.items():
        count = round(pct * CYCLE / 100)
        (writes if name in WRITE_ACTIONS else reads).extend([name] * count)
    if len(reads) + len(writes) != CYCLE or CYCLE % len(writes):
        raise ValueError("mix {!r} does not divide a cycle".format(mix.name))
    rng.shuffle(reads)
    rng.shuffle(writes)
    stratum = CYCLE // len(writes)
    slots = {
        index * stratum + rng.randrange(stratum): name
        for index, name in enumerate(writes)
    }
    fill = iter(reads)
    return [slots.get(i) or next(fill) for i in range(CYCLE)]


class ActionStream:
    """An endless, seed-determined sequence of BG action names."""

    def __init__(self, mix, seed):
        self._mix = mix
        self._rng = random.Random(seed)
        self._pending = []

    def take(self, count):
        """The next ``count`` action names."""
        while len(self._pending) < count:
            self._pending.extend(cycle_names(self._mix, self._rng))
        names, self._pending = self._pending[:count], self._pending[count:]
        return names


class SamplerState:
    """The per-thread operand state ``WorkloadRunner.execute_one`` reads:
    an ``rng`` and a ``popular_member()`` Zipfian draw."""

    def __init__(self, seed, members, exponent):
        self.rng = random.Random(seed)
        self.popular_member = ZipfianGenerator(
            members, exponent=exponent, rng=random.Random(seed ^ 0x5EED),
            scramble=True,
        ).next


def poisson_arrivals(rate, seconds, seed):
    """Due times (seconds from the step's start) of a Poisson process of
    ``rate`` arrivals/s over ``seconds``."""
    rng = random.Random(seed)
    due, now = [], rng.expovariate(rate)
    while now < seconds:
        due.append(now)
        now += rng.expovariate(rate)
    return due
