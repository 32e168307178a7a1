"""Pipelining, batched lease acquisition, and parallel shard fan-out.

Three experiments, one per layer of the PR 5 batching path:

* ``wire-read`` -- a 10-key read-heavy workload (9 ``get`` + 1 ``set``
  per batch) against a real TCP server running in its own process,
  issued sequentially (one round trip per command) and pipelined (one
  ``sendall``, one reply drain per batch).  The acceptance bar:
  pipelined throughput at least 2x sequential.
* ``wire-qareg`` -- the growing phase of a 10-key write session:
  sequential per-key ``qar`` round trips versus one ``qareg`` batch,
  measured as leases acquired per second over the same wire.
* ``shard-fanout`` -- a composite session writing one key on each of 4
  shards, committed with serial legs (``fanout_workers=0``) and with
  the parallel fan-out pool.  Shards wrap an in-process ``IQServer``
  with a fixed per-command delay that models the cache-server round
  trip, so the latency ratio is deterministic: serial pays the delay
  once per leg, parallel pays it roughly once per commit.

Results land in ``BENCH_pipeline.json`` at the repository root and
``benchmarks/out/BENCH_pipeline.txt``.  Standalone::

    python benchmarks/bench_pipeline.py [--smoke]

``--smoke`` is the CI entry: scaled down, and it fails unless the
pipelined path is strictly faster than the sequential one.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

from _common import emit, format_table, write_bench_json

from repro.core.iq_server import IQServer
from repro.net import RemoteIQServer
from repro.sharding import ShardedIQServer

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BATCH_KEYS = 10
FANOUT_SHARDS = 4
#: Simulated per-command cache-server round trip for the fan-out
#: experiment (seconds).  Large against scheduler jitter, small enough
#: to keep the smoke run fast.
FANOUT_DELAY = 0.002

HEADERS = ["Experiment", "Sequential", "Pipelined", "Speedup", "Unit"]


# ---------------------------------------------------------------------------
# Wire experiments: one real TCP server, loopback round trips
# ---------------------------------------------------------------------------

def _read_heavy_ops(round_index, keys):
    """One 10-key read-heavy batch: 9 gets, 1 rotating set."""
    hot = round_index % len(keys)
    return [
        ("set" if i == hot else "get", key)
        for i, key in enumerate(keys)
    ]


def _run_wire_read(remote, keys, rounds, pipelined):
    """Drive the read-heavy workload; returns (ops/s, observed gets)."""
    for key in keys:  # identical starting state for every run
        remote.set(key, b"seed")
    observed = []
    count = 0
    start = time.perf_counter()
    for round_index in range(rounds):
        ops = _read_heavy_ops(round_index, keys)
        if pipelined:
            pipe = remote.pipeline()
            for op, key in ops:
                if op == "set":
                    pipe.set(key, b"value-%d" % round_index)
                else:
                    pipe.get(key)
            results = pipe.execute()
            observed.extend(
                r for (op, _), r in zip(ops, results) if op == "get"
            )
        else:
            for op, key in ops:
                if op == "set":
                    remote.set(key, b"value-%d" % round_index)
                else:
                    observed.append(remote.get(key))
        count += len(ops)
    elapsed = time.perf_counter() - start
    return count / elapsed, observed


def _run_wire_qareg(remote, keys, rounds, batched):
    """The growing phase over the wire; returns leases acquired per second."""
    count = 0
    start = time.perf_counter()
    for _ in range(rounds):
        tid = remote.gen_id()
        if batched:
            statuses = remote.qar_many(tid, keys)
            assert all(s == "granted" for s in statuses.values()), statuses
        else:
            for key in keys:
                assert remote.qar(tid, key)
        remote.abort(tid)  # release; the next round re-acquires
        count += len(keys)
    elapsed = time.perf_counter() - start
    return count / elapsed


_SERVER_SCRIPT = """\
from repro.net import AsyncIQServer
server = AsyncIQServer(("127.0.0.1", 0))
print(server.port, flush=True)
server.serve_forever()
"""


def _spawn_server():
    """Run the TCP server in its own process.

    The paper's deployment has the CMT and the cache server on separate
    machines; a same-process server would share the client's GIL and
    charge the *pipelined* path for the server's CPU, understating the
    win.  A subprocess gives each side its own interpreter, so the
    sequential path pays real scheduling per round trip.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT_DIR, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", _SERVER_SCRIPT],
        stdout=subprocess.PIPE, env=env,
    )
    port = int(proc.stdout.readline())
    return proc, port


def _wire_experiment(rounds, repeats):
    proc, port = _spawn_server()
    remote = RemoteIQServer(port=port)
    try:
        keys = ["pipe-key-%d" % i for i in range(BATCH_KEYS)]
        for key in keys:
            remote.set(key, b"seed")
        read = {"sequential": 0.0, "pipelined": 0.0}
        matched = True
        for _ in range(repeats):
            # Interleaved: adjacent runs share the host's conditions.
            seq_tp, seq_seen = _run_wire_read(remote, keys, rounds, False)
            pipe_tp, pipe_seen = _run_wire_read(remote, keys, rounds, True)
            read["sequential"] = max(read["sequential"], seq_tp)
            read["pipelined"] = max(read["pipelined"], pipe_tp)
            # Same ops, same replies: pipelining must not change what a
            # reader observes.
            matched = matched and seq_seen == pipe_seen
        qareg = {"sequential": 0.0, "pipelined": 0.0}
        for _ in range(repeats):
            seq_tp = _run_wire_qareg(remote, keys, rounds // 4 or 1, False)
            bat_tp = _run_wire_qareg(remote, keys, rounds // 4 or 1, True)
            qareg["sequential"] = max(qareg["sequential"], seq_tp)
            qareg["pipelined"] = max(qareg["pipelined"], bat_tp)
        pipelined_commands = remote.stats()["pipelined_commands"]
    finally:
        remote.close()
        proc.terminate()
        proc.wait(timeout=5)
    return read, qareg, matched, pipelined_commands


# ---------------------------------------------------------------------------
# Shard fan-out: simulated per-command RTT, serial vs parallel legs
# ---------------------------------------------------------------------------

_DELAYED_COMMANDS = frozenset([
    "gen_id", "iq_get", "iq_set", "release_i", "qaread", "sar",
    "propose_refresh", "qar", "qar_many", "iq_delta", "commit", "abort",
    "dar", "flush_all",
])


class DelayShard:
    """An in-process shard that charges one RTT per command."""

    def __init__(self, server, delay):
        self._server = server
        self._delay = delay

    def __getattr__(self, name):
        attr = getattr(self._server, name)
        if name in _DELAYED_COMMANDS:
            def timed(*args, **kwargs):
                time.sleep(self._delay)
                return attr(*args, **kwargs)
            return timed
        return attr


def _distinct_shard_keys(router, count):
    chosen = {}
    for i in range(100_000):
        key = "fan-key-%d" % i
        name = router.shard_name_for(key)
        if name not in chosen:
            chosen[name] = key
            if len(chosen) == count:
                return [chosen[name] for name in sorted(chosen)]
    raise AssertionError("could not spread keys over the shards")


def _run_fanout(workers, trials, delay):
    router = ShardedIQServer(
        [DelayShard(IQServer(), delay) for _ in range(FANOUT_SHARDS)],
        fanout_workers=workers,
    )
    try:
        keys = _distinct_shard_keys(router, FANOUT_SHARDS)
        latencies = []
        for _ in range(trials):
            tid = router.gen_id()
            statuses = router.qar_many(tid, keys)
            assert all(s == "granted" for s in statuses.values()), statuses
            start = time.perf_counter()
            assert router.commit(tid)
            latencies.append(time.perf_counter() - start)
        parallel_legs = router.parallel_commit_legs
    finally:
        router.close()
    return statistics.median(latencies), parallel_legs


def _fanout_experiment(trials, delay):
    serial_ms, serial_legs = _run_fanout(0, trials, delay)
    parallel_ms, parallel_legs = _run_fanout(FANOUT_SHARDS, trials, delay)
    assert serial_legs == 0
    assert parallel_legs == FANOUT_SHARDS * trials
    return {
        "serial_commit_ms": serial_ms * 1000.0,
        "parallel_commit_ms": parallel_ms * 1000.0,
        "speedup": serial_ms / parallel_ms if parallel_ms else 0.0,
        "shards": FANOUT_SHARDS,
        "delay_ms": delay * 1000.0,
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def run_experiment(rounds=400, repeats=3, fanout_trials=30,
                   fanout_delay=FANOUT_DELAY):
    read, qareg, matched, pipelined_commands = _wire_experiment(
        rounds, repeats
    )
    fanout = _fanout_experiment(fanout_trials, fanout_delay)
    return {
        "wire_read": {
            "sequential_ops_s": read["sequential"],
            "pipelined_ops_s": read["pipelined"],
            "speedup": (read["pipelined"] / read["sequential"]
                        if read["sequential"] else 0.0),
            "batch_keys": BATCH_KEYS,
            "rounds": rounds,
            "repeats": repeats,
            "replies_matched": matched,
        },
        "wire_qareg": {
            "sequential_leases_s": qareg["sequential"],
            "batched_leases_s": qareg["pipelined"],
            "speedup": (qareg["pipelined"] / qareg["sequential"]
                        if qareg["sequential"] else 0.0),
        },
        "shard_fanout": fanout,
        "server_pipelined_commands": pipelined_commands,
    }


def render(results):
    read = results["wire_read"]
    qareg = results["wire_qareg"]
    fanout = results["shard_fanout"]
    rows = [
        [
            "wire-read ({}-key batch)".format(read["batch_keys"]),
            "{:.0f}".format(read["sequential_ops_s"]),
            "{:.0f}".format(read["pipelined_ops_s"]),
            "{:.2f}x".format(read["speedup"]),
            "ops/s",
        ],
        [
            "wire-qareg (growing phase)",
            "{:.0f}".format(qareg["sequential_leases_s"]),
            "{:.0f}".format(qareg["batched_leases_s"]),
            "{:.2f}x".format(qareg["speedup"]),
            "leases/s",
        ],
        [
            "shard-fanout ({} shards)".format(fanout["shards"]),
            "{:.2f}".format(fanout["serial_commit_ms"]),
            "{:.2f}".format(fanout["parallel_commit_ms"]),
            "{:.2f}x".format(fanout["speedup"]),
            "ms/commit",
        ],
    ]
    return format_table(
        "Pipelining and fan-out: sequential vs batched request paths",
        HEADERS, rows,
    )


def emit_json(results):
    return write_bench_json("pipeline", results, (
        "wire experiments run against a real TCP server over loopback; "
        "the fan-out experiment models the per-command cache round trip "
        "with a fixed delay so the serial/parallel latency ratio is "
        "deterministic"
    ))


def check(results, smoke=False):
    read = results["wire_read"]
    assert read["replies_matched"], (
        "pipelined replies diverged from sequential replies"
    )
    assert results["server_pipelined_commands"] > 0, (
        "the server never saw a multi-command batch"
    )
    # The CI gate: pipelining must be strictly better; the full run
    # holds the ISSUE's 2x bar.
    floor = 1.0 if smoke else 2.0
    assert read["speedup"] > floor, (
        "pipelined wire throughput {:.2f}x sequential, need > {:.1f}x"
        .format(read["speedup"], floor)
    )
    assert results["wire_qareg"]["speedup"] > 1.0, results["wire_qareg"]
    fanout = results["shard_fanout"]
    assert fanout["speedup"] > 1.3, (
        "parallel fan-out {:.2f}x serial is not a measurable speedup"
        .format(fanout["speedup"])
    )


def test_pipeline_speedups(benchmark):
    results = benchmark.pedantic(
        run_experiment,
        kwargs={"rounds": 80, "repeats": 2, "fanout_trials": 8},
        iterations=1, rounds=1,
    )
    check(results, smoke=True)
    emit("BENCH_pipeline", render(results))
    emit_json(results)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI entry: scaled down, pipelined must beat sequential",
    )
    args = parser.parse_args()
    if args.smoke:
        results = run_experiment(rounds=120, repeats=2, fanout_trials=10)
    else:
        results = run_experiment()
    check(results, smoke=args.smoke)
    emit("BENCH_pipeline", render(results))
    print("wrote", emit_json(results))
