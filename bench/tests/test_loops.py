"""Open-loop latency runs from the due time, not the start time."""

import time

from loops import (
    closed_loop,
    completion_rates,
    new_stats,
    open_step,
    quiet_tenth,
    windows,
)
from stream import ActionStream
from repro.bg.workload import HIGH_WRITE_MIX, WRITE_ACTIONS

STALL_S = 0.05


def test_a_stall_is_charged_to_the_requests_behind_it():
    names = ["a{}".format(i) for i in range(12)]
    due = [0.005 * i for i in range(12)]

    def execute(name, state, stats):
        if name == "a2":
            time.sleep(STALL_S)
        return "read"

    step = open_step(execute, [object()], [new_stats()], names, due,
                     rate=200, seconds=0.06)
    by_due = sorted(zip(step.due, step.latency, step.late))
    assert [d for d, _, _ in by_due] == due
    latency = [lat for _, lat, _ in by_due]
    late = [lt for _, _, lt in by_due]
    # before the stall: on time; the stalled request itself: the stall
    assert max(latency[:2]) < 0.01
    assert latency[2] >= STALL_S
    # the request due 5 ms after the stall began waited out the rest of
    # it, and that wait is in its latency and in the generator lateness
    assert latency[3] >= STALL_S - 0.005 - 0.001
    assert late[3] >= STALL_S - 0.005 - 0.001
    assert latency[4] >= STALL_S - 0.010 - 0.001
    # one worker drains the backlog in order and catches up
    assert late[-1] < 0.01
    assert step.completed == 12 and not step.abandoned


def test_open_step_abandons_a_hopeless_backlog():
    names = ["a{}".format(i) for i in range(50)]
    due = [0.001 * i for i in range(50)]

    def execute(name, state, stats):
        time.sleep(0.3)
        return "read"

    step = open_step(execute, [object(), object()],
                     [new_stats(), new_stats()], names, due,
                     rate=1000, seconds=0.05)
    assert step.abandoned and step.saturated
    assert step.completed < 50


def test_windows_split_a_step_by_its_schedule():
    names = ["r", "r", "w"] * 30
    due = [i / 300.0 for i in range(90)]  # 3 windows of 0.1 s, 30 each

    def execute(name, state, stats):
        return "write" if name == "w" else "read"

    step = open_step(execute, [object()], [new_stats()], names, due,
                     rate=300, seconds=0.3)
    found = windows(step, 0.1)
    assert [len(w.reads) for w in found] == [20, 20, 20]
    assert [len(w.writes) for w in found] == [10, 10, 10]
    # latencies are from the due time, so none is negative
    assert min(min(w.reads) for w in found) >= 0.0
    assert len(step.cpu) == step.completed == 90
    rates = completion_rates(step, 0.05)
    assert rates and all(abs(rate - 300) <= 60 for rate in rates)


def test_quiet_tenth_keeps_the_least_disturbed():
    rates = list(range(1, 31))
    assert quiet_tenth(rates, lambda r: -r) == [30, 29, 28]
    assert quiet_tenth([7, 9], lambda r: r) == [7]


def test_closed_loop_runs_whole_rounds_and_splits_kinds():
    seen = []
    cpu = iter(range(1000))

    def execute(name, state, stats):
        seen.append(name)
        return "write" if name in WRITE_ACTIONS else "read"

    def run(seconds):
        return closed_loop(
            execute, None, new_stats(), ActionStream(HIGH_WRITE_MIX, 1),
            round_actions=500, seconds=seconds,
            cpu_seconds=lambda: next(cpu),
        )

    assert run(0.0) == [] and not seen
    rounds = run(0.01)
    assert len(seen) == 500 * len(rounds)
    assert all(len(r.reads) + len(r.writes) == 500 for r in rounds)
    assert all(r.cpu_s == 1 and r.rate > 0 for r in rounds)
    # stratified writes: every round of 500 carries exactly its 10%
    assert all(len(r.writes) == 50 for r in rounds)
    assert seen == ActionStream(HIGH_WRITE_MIX, 1).take(len(seen))
