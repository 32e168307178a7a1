"""Hot-path overhaul benchmarks: lock striping and miss coalescing.

Two experiments, one per store/client claim of the hot-path PR:

* ``striping-sweep`` -- mixed read/write throughput (90% ``get`` / 10%
  ``set``, 256 keys) against an in-process :class:`CacheStore`, global
  lock (``stripe_count=1``) vs the default 16 stripes, swept over
  worker thread counts.  The claim: under multi-threaded contention the
  global lock serializes every operation and convoys on lock hand-off,
  while striping lets operations on different keys proceed without
  queueing on one mutex.  The sweep drives the store directly because
  :class:`~repro.core.iq_server.IQServer` serializes commands under its
  own coarse lock -- the stripe win is a *store-level* property.  On a
  single-core host the GIL timeshares the workers and the convoy
  barely manifests (hand-off is cheap when there is nobody to hand off
  *to* in parallel), so -- like ``bench_async``'s deployment gate --
  the full-strength speedup gate applies on multi-core hosts only;
  the recorded ``cpu_count`` says which regime produced the numbers.
* ``miss-herd`` -- N reader threads read-through one flushed key with a
  deliberately slow RDBMS ``compute`` (the thundering herd after a
  ``flush_all``), against one in-process server, with client miss
  coalescing on vs off.  Without coalescing every backed-off reader
  re-polls ``IQget`` at each backoff boundary for the whole fill
  window; with coalescing the herd joins the one in-flight fill and
  parks on its outcome, so the server sees one poll per reader.  The
  measured quantity is the server's own ``cmd_get`` counter -- wire
  commands the cache no longer has to serve.

Results land in ``BENCH_hotpath.json`` at the repository root and
``benchmarks/out/BENCH_hotpath.txt``.  Standalone::

    python benchmarks/bench_hotpath.py [--smoke]

``--smoke`` is the CI entry: shorter sweeps, lenient gates (CI cannot
promise quiet neighbors or multiple cores).
"""

import argparse
import os
import threading
import time

from _common import emit, format_table, write_bench_json

from repro.config import BackoffConfig, KVSConfig
from repro.core.iq_client import IQClient
from repro.core.iq_server import IQServer
from repro.kvs.store import CacheStore
from repro.util.backoff import ExponentialBackoff

STRIPES = 16
KEYS = 256
#: The convoy grows with the number of threads queueing on the one
#: mutex; the low end shows the uncontended baseline staying intact.
THREADS_FULL = (4, 8, 16, 32, 64)
THREADS_SMOKE = (4, 16)


# ---------------------------------------------------------------------------
# Striping: global lock vs striped store under mixed read/write load
# ---------------------------------------------------------------------------

def _store_throughput(stripes, threads, duration):
    """Mixed-workload ops/s against one CacheStore."""
    store = CacheStore(KVSConfig(stripe_count=stripes))
    keys = ["hot-key-%04d" % i for i in range(KEYS)]
    for key in keys:
        store.set(key, b"v" * 32)
    stop = []
    counts = [0] * threads
    barrier = threading.Barrier(threads + 1)

    def worker(n):
        # Per-thread stride walk so threads touch disjoint key orders
        # (striping can only help when operations land on different
        # stripes; same-key traffic shares a lock by design).
        i = n * 7919
        local = 0
        barrier.wait()
        while not stop:
            key = keys[(i * 31) % KEYS]
            if i % 10 == 0:
                store.set(key, b"w" * 32)
            else:
                store.get(key)
            i += 1
            local += 1
        counts[n] = local

    workers = [
        threading.Thread(target=worker, args=(n,)) for n in range(threads)
    ]
    for worker_thread in workers:
        worker_thread.start()
    barrier.wait()
    time.sleep(duration)
    stop.append(1)
    for worker_thread in workers:
        worker_thread.join()
    return sum(counts) / duration


def _striping_experiment(thread_counts, duration):
    sweep = []
    for threads in thread_counts:
        global_ops = _store_throughput(1, threads, duration)
        striped_ops = _store_throughput(STRIPES, threads, duration)
        sweep.append({
            "threads": threads,
            "global_ops_s": global_ops,
            "striped_ops_s": striped_ops,
            "ratio": striped_ops / global_ops if global_ops else 0.0,
        })
    return {
        "stripes": STRIPES,
        "keys": KEYS,
        "cpu_count": os.cpu_count() or 1,
        "sweep": sweep,
        "best_ratio": max(point["ratio"] for point in sweep),
    }


# ---------------------------------------------------------------------------
# Miss coalescing: the post-flush thundering herd, cmd_get on the server
# ---------------------------------------------------------------------------

def _herd_round(coalesce, readers, rounds, fill_ms):
    """Total server ``cmd_get`` over ``rounds`` herds, plus stats."""
    server = IQServer()
    # A tight backoff cap makes the uncoalesced herd poll the server
    # hard during the fill window -- the worst case the paper's backoff
    # tuning section trades against.  The coalesced client parks on the
    # flight instead, so the cap stops mattering.
    backoff = ExponentialBackoff(BackoffConfig(
        initial_delay=0.0005, multiplier=2.0, max_delay=0.002, jitter=0.0,
    ))
    client = IQClient(server, backoff=backoff, coalesce_fills=coalesce)
    fills = []

    def compute():
        fills.append(1)
        time.sleep(fill_ms / 1000.0)
        return b"v" * 32

    total_gets = 0
    values = []
    for _ in range(rounds):
        server.flush_all()
        before = server.stats.snapshot()["cmd_get"]
        barrier = threading.Barrier(readers)

        def reader():
            barrier.wait()
            values.append(client.read_through("herd-key", compute))

        herd = [threading.Thread(target=reader) for _ in range(readers)]
        for thread in herd:
            thread.start()
        for thread in herd:
            thread.join()
        total_gets += server.stats.snapshot()["cmd_get"] - before
    assert all(value == b"v" * 32 for value in values)
    coalesced = client.flights.coalesced if client.flights else 0
    return total_gets, len(fills), coalesced


def _herd_experiment(readers, rounds, fill_ms):
    gets_off, fills_off, _ = _herd_round(False, readers, rounds, fill_ms)
    gets_on, fills_on, coalesced = _herd_round(True, readers, rounds, fill_ms)
    return {
        "readers": readers,
        "rounds": rounds,
        "fill_ms": fill_ms,
        "cmd_get_uncoalesced": gets_off,
        "cmd_get_coalesced": gets_on,
        "reduction": gets_off / gets_on if gets_on else 0.0,
        "db_fills_uncoalesced": fills_off,
        "db_fills_coalesced": fills_on,
        "coalesced_waiters": coalesced,
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def run_experiment(thread_counts=THREADS_FULL, store_duration=0.6,
                   herd_readers=16, herd_rounds=3, herd_fill_ms=30):
    striping = _striping_experiment(thread_counts, store_duration)
    herd = _herd_experiment(herd_readers, herd_rounds, herd_fill_ms)
    return {"striping": striping, "miss_herd": herd}


def render(results):
    striping = results["striping"]
    rows = [
        [
            str(point["threads"]),
            "{:.0f}".format(point["global_ops_s"]),
            "{:.0f}".format(point["striped_ops_s"]),
            "{:.2f}x".format(point["ratio"]),
        ]
        for point in striping["sweep"]
    ]
    table = format_table(
        "Lock striping: mixed 90/10 read/write ops/s, global vs {} stripes"
        .format(striping["stripes"]),
        ["threads", "global", "striped", "ratio"],
        rows,
    )
    herd = results["miss_herd"]
    lines = [
        table,
        "",
        "Post-flush herd ({} readers x {} rounds, {} ms fill): server "
        "cmd_get".format(herd["readers"], herd["rounds"], herd["fill_ms"]),
        "  uncoalesced  {:d} polls ({} db fills)".format(
            herd["cmd_get_uncoalesced"], herd["db_fills_uncoalesced"]),
        "  coalesced    {:d} polls ({} db fills, {} waiters parked)".format(
            herd["cmd_get_coalesced"], herd["db_fills_coalesced"],
            herd["coalesced_waiters"]),
        "  reduction    {:.1f}x".format(herd["reduction"]),
    ]
    if striping["cpu_count"] < 2:
        lines.append("")
        lines.append(
            "  (single-core host: the GIL timeshares the store workers, so "
            "the global lock's hand-off convoy only partially manifests)"
        )
    return "\n".join(lines)


def check(results, smoke=False):
    striping = results["striping"]
    for point in striping["sweep"]:
        assert point["global_ops_s"] > 0, point
        assert point["striped_ops_s"] > 0, point
        # Striping must never *cost* throughput beyond noise.
        assert point["ratio"] > 0.8, point
    best = striping["best_ratio"]
    if not smoke:
        if striping["cpu_count"] >= 2:
            # With real cores the global lock convoys on hand-off and
            # striping must win outright.
            assert best >= 1.5, striping["sweep"]
        else:
            # One CPU: the GIL already serializes the workers, so only
            # the futex-handoff share of the convoy remains measurable.
            assert best >= 1.1, striping["sweep"]
    herd = results["miss_herd"]
    assert herd["coalesced_waiters"] > 0, herd
    assert herd["db_fills_coalesced"] <= herd["db_fills_uncoalesced"], herd
    assert herd["reduction"] >= (2.0 if smoke else 5.0), herd


def test_hotpath(benchmark):
    results = benchmark.pedantic(
        run_experiment,
        kwargs={
            "thread_counts": THREADS_SMOKE,
            "store_duration": 0.25,
            "herd_readers": 8,
            "herd_rounds": 1,
            "herd_fill_ms": 15,
        },
        iterations=1, rounds=1,
    )
    check(results, smoke=True)
    emit("BENCH_hotpath", render(results))


NOTE = (
    "striping: in-process CacheStore, 90/10 get/set over 256 keys, global "
    "lock (stripe_count=1) vs 16 stripes, per-thread-count ops/s; herd: N "
    "reader threads read-through one flushed key with a slow compute "
    "against an in-process IQServer, server cmd_get with client miss "
    "coalescing off vs on"
)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI entry: shorter sweeps, lenient gates",
    )
    args = parser.parse_args()
    if args.smoke:
        results = run_experiment(
            thread_counts=THREADS_SMOKE, store_duration=0.25,
            herd_readers=8, herd_rounds=1, herd_fill_ms=15,
        )
    else:
        results = run_experiment()
    check(results, smoke=args.smoke)
    emit("BENCH_hotpath", render(results))
    print("wrote", write_bench_json("hotpath", results, NOTE))
