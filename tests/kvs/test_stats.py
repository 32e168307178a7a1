"""Cache counters: plain ints per lock, exact under concurrency, and the
same numbers in the Prometheus export."""

import re
import sys
import threading

from repro.config import KVSConfig, LeaseConfig
from repro.core.leases import LeaseTable, QMode
from repro.kvs.stats import COUNTERS, CacheStats
from repro.kvs.store import CacheStore
from repro.util.clock import LogicalClock

THREADS = 8


def make_tier():
    """A striped store and lease table sharing one stats domain, as an
    IQ server wires them."""
    clock = LogicalClock()
    stats = CacheStats()
    store = CacheStore(KVSConfig(stripe_count=16), clock=clock, stats=stats)
    leases = LeaseTable(LeaseConfig(stripe_count=16), clock=clock,
                        stats=stats)
    return store, leases, stats


def script(store, leases, stats, worker, rounds=150):
    """Mixed commands on keys only ``worker`` uses, so every outcome --
    hit or miss, grant or reject -- is the same in any interleaving."""
    for n in range(rounds):
        key = "w{}-k{}".format(worker, n % 24)
        step = n % 6
        store.get(key)
        if step == 0:
            store.set(key, b"1")
            store.incr(key, 2)
            store.decr(key, 5)
        elif step == 1:
            store.add(key, b"x")
            found = store.gets(key)
            store.cas(key, b"7", found[2] if found else 1)
            store.append(key, b"8")
        elif step == 2:
            store.delete(key)
            store.incr(key)
        elif step == 3:
            leases.request_i(key)
            leases.request_i(key)
            leases.request_q(key, worker * 1000 + n, QMode.EXCLUSIVE)
            leases.request_q(key, worker * 1000 + n + 1, QMode.EXCLUSIVE)
            leases.release_q(key, worker * 1000 + n)
        elif step == 4:
            leases.request_q(key, n, QMode.SHARED_INVALIDATE)
            leases.void_i(key)
            leases.release_q(key, n)
            stats.incr("lease_aborts")
        else:
            store.replace(key, b"r")
            store.prepend(key, b"p")


def test_concurrent_commands_count_exactly():
    expected = dict.fromkeys(COUNTERS, 0)
    for worker in range(THREADS):
        alone = make_tier()
        script(*alone, worker)
        for name, value in alone[2].snapshot().items():
            expected[name] += value
    assert expected["get_hits"] and expected["q_lease_rejects"]

    store, leases, stats = make_tier()
    workers = [
        threading.Thread(target=script, args=(store, leases, stats, n))
        for n in range(THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert stats.snapshot() == expected
    assert stats.get("cmd_get") == expected["cmd_get"]
    assert stats.hit_rate() == expected["get_hits"] / expected["cmd_get"]


def test_repro_metrics_prints_the_snapshot(monkeypatch, capsys):
    """Every ``cache_*`` line of ``repro metrics`` is the run's counter."""
    import repro.bg.harness
    from repro.cli import main

    built = []
    build = repro.bg.harness.build_bg_system

    def capture(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(repro.bg.harness, "build_bg_system", capture)
    assert main(["metrics", "--threads", "2", "--ops", "20",
                 "--members", "40"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE cache_get_hits counter" in out
    lines = re.findall(r"^cache_(\w+) (\d+)$", out, re.M)
    snapshot = built[0].cache.stats.snapshot()
    assert snapshot["cmd_get"] > 0
    assert {name: int(value) for name, value in lines} == snapshot
