"""The two load generators: a closed loop and an open loop.

Closed loop: one thread issues the next action the moment the previous
one returns, in short rounds of a fixed number of actions, so that the
rounds a noisy neighbour disturbed can be told from the ones it did not.

Open loop: arrivals are due on a seeded Poisson schedule whether or not
the system keeps up.  ``min(2, nproc)`` workers pull the next due action
and wait for its time; latency runs from the *due* time, so a stall is
charged to every request it delays, and the generator's own lateness
(start minus due) is reported beside it.  A step is abandoned once an
action starts more than a second late: the backlog is growing and
nothing more is learned by letting it.
"""

import gc
import itertools
import os
import threading
import time
from array import array

from summary import MIN_BEYOND, percentile

ABANDON_LATE_S = 1.0
#: a step that completes less than this share of its schedule in its own
#: time is saturated
SATURATED_BELOW = 0.95
#: sleep until this long before an action is due, then spin on
#: ``sched_yield`` (which drops the GIL): a bare sleep overshoots by
#: ~160 us on this host, several times a cached read
SPIN_S = 0.0004


def new_stats():
    """The counters ``WorkloadRunner.execute_one`` accumulates into."""
    return {"restarts": [], "fallbacks": 0, "errors": 0}


def workers_available():
    return min(2, os.cpu_count() or 1)


class Slice:
    """A short stretch of a run -- one closed-loop round, or the actions
    due in one window of an open-loop step -- short enough that a noisy
    spell on the host either hits it or does not."""

    __slots__ = ("reads", "writes", "rate", "cpu_s")

    def __init__(self, reads, writes, rate=None, cpu_s=None):
        self.reads = array("d", sorted(reads))   # latencies, s, ascending
        self.writes = writes
        self.rate = rate             # actions/s (closed loop)
        self.cpu_s = cpu_s           # generator + shards (closed loop)

    @property
    def p50(self):
        return percentile(self.reads, 0.50)

    @property
    def tail(self):
        """The slowest read that still has ten slower ones beyond it."""
        return self.reads[-(MIN_BEYOND + 1)]


def quiet_tenth(items, loudness):
    """The tenth of ``items`` with the lowest ``loudness``.

    This host slows down for seconds at a time (the same work takes
    50-80% more CPU: a neighbour, not us), and such a spell can cover
    most of a run.  Interference only ever makes a figure worse, so the
    tenth of a run's slices where a figure is best is the best estimate
    of what the program does when left alone, and every figure is taken
    over its own quiet tenth.
    """
    ranked = sorted(items, key=loudness)
    return ranked[:max(1, len(ranked) // 10)]


def closed_loop(execute, state, stats, stream, round_actions, seconds,
                cpu_seconds):
    """Run whole rounds of ``round_actions`` (a tenth of a second or
    two) until ``seconds`` have passed; ``cpu_seconds()`` is read at
    every round boundary."""
    rounds = []
    clock = time.perf_counter
    gc.collect()
    deadline = clock() + seconds
    while clock() < deadline:
        names = stream.take(round_actions)
        reads, writes = array("d"), array("d")
        cpu_start = cpu_seconds()
        round_start = clock()
        for name in names:
            start = clock()
            kind = execute(name, state, stats)
            latency = clock() - start
            if kind == "read":
                reads.append(latency)
            else:
                writes.append(latency)
        elapsed = clock() - round_start
        rounds.append(Slice(
            reads, writes, rate=round_actions / elapsed,
            cpu_s=cpu_seconds() - cpu_start,
        ))
    return rounds


class StepResult:
    """One fixed-rate step of the open loop."""

    def __init__(self, rate, seconds, scheduled):
        self.rate = rate
        self.seconds = seconds
        self.scheduled = scheduled
        self.abandoned = False
        self.elapsed = 0.0
        #: shard-process CPU seconds used over the step
        self.shard_cpu_s = 0.0
        # parallel columns, one entry per completed action
        self.due = array("d")
        self.latency = array("d")   # completion minus due time
        self.late = array("d")      # start minus due time
        self.cpu = array("d")       # worker-thread CPU inside the action
        self.is_write = array("b")

    @property
    def completed(self):
        return len(self.due)

    @property
    def achieved_rate(self):
        """Completions per second of the step's own time, or of the
        longer time a system that fell behind needed to drain it."""
        return self.completed / max(self.elapsed, self.seconds)

    @property
    def saturated(self):
        return self.abandoned or (
            self.achieved_rate < SATURATED_BELOW * self.scheduled / self.seconds
        )

    def latencies(self, write):
        return [
            lat for lat, w in zip(self.latency, self.is_write) if w == write
        ]


def open_step(execute, states, stats, names, due, rate, seconds):
    """Offer ``names[i]`` at ``due[i]`` seconds from now; one worker
    thread per entry of ``states``."""
    step = StepResult(rate, seconds, len(names))
    ticket = itertools.count()
    abandoned = threading.Event()
    clock, sleep, spin = time.perf_counter, time.sleep, os.sched_yield
    thread_cpu = time.thread_time
    columns = [
        (array("d"), array("d"), array("d"), array("d"), array("b"))
        for _ in states
    ]
    failures = []
    gc.collect()
    origin = clock() + 0.01

    def worker(state, own_stats, out):
        out_due, out_latency, out_late, out_cpu, out_write = out
        try:
            while not abandoned.is_set():
                index = next(ticket)
                if index >= len(names):
                    return
                due_at = origin + due[index]
                while True:
                    remaining = due_at - clock()
                    if remaining <= 0:
                        break
                    if remaining > SPIN_S:
                        sleep(remaining - SPIN_S)
                    else:
                        spin()
                start = clock()
                if start - due_at > ABANDON_LATE_S:
                    abandoned.set()
                    return
                cpu_start = thread_cpu()
                kind = execute(names[index], state, own_stats)
                done = clock()
                out_cpu.append(thread_cpu() - cpu_start)
                out_due.append(due[index])
                out_latency.append(done - due_at)
                out_late.append(start - due_at)
                out_write.append(kind == "write")
        except BaseException as exc:  # re-raised by the caller
            failures.append(exc)
            abandoned.set()

    threads = [
        threading.Thread(target=worker, args=(state, own, out))
        for state, own, out in zip(states, stats, columns)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    step.elapsed = clock() - origin
    if failures:
        raise failures[0]
    step.abandoned = abandoned.is_set()
    for out_due, out_latency, out_late, out_cpu, out_write in columns:
        step.due.extend(out_due)
        step.latency.extend(out_latency)
        step.late.extend(out_late)
        step.cpu.extend(out_cpu)
        step.is_write.extend(out_write)
    return step


def windows(step, window_s):
    """The reads and writes of a step (latency from due time) by window
    of ``window_s`` of its schedule; a ragged last window too thin to
    have a tail is dropped."""
    found = {}
    for due, latency, write in zip(step.due, step.latency, step.is_write):
        reads_writes = found.setdefault(int(due / window_s), ([], []))
        reads_writes[write].append(latency)
    return [
        Slice(reads, writes) for reads, writes in found.values()
        if len(reads) > MIN_BEYOND
    ]


def completion_rates(step, window_s):
    """Completions per second in each whole ``window_s`` of a step's
    running time (the first and last window are partial and dropped)."""
    counts = {}
    for due, latency in zip(step.due, step.latency):
        window = int((due + latency) / window_s)
        counts[window] = counts.get(window, 0) + 1
    whole = sorted(counts)[1:-1]
    return [counts[window] / window_s for window in whole]
