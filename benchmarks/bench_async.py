"""Process-per-shard deployment benchmark.

``shard-deployment`` -- a 4-shard composite write session
(``qar_many`` + parallel-fanout ``commit``) driven over real sockets
against (a) four shard servers co-located in ONE process and (b) the
process-per-shard cluster (:class:`repro.net.cluster.IQCluster`), each
measured idle and under background read load from a separate loader
process.  Co-located shards share a GIL, so the four commit legs
serialize server-side; separate processes apply them truly in parallel
-- when the host has cores to land them on, so the
cluster-beats-co-located gate applies on multi-core hosts only.  The
cluster's idle commit must beat the simulated-RTT
``parallel_commit_ms`` baseline recorded in ``BENCH_pipeline.json``
everywhere.

Results land in ``BENCH_async.json`` at the repository root and
``benchmarks/out/BENCH_async.txt``.  Standalone::

    python benchmarks/bench_async.py [--smoke]

``--smoke`` is the CI entry: fewer trials, and the loaded comparison is
reported but not gated.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from _common import emit, write_bench_json

from repro.net import ResilientIQServer
from repro.net.cluster import IQCluster
from repro.sharding import ShardedIQServer

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BATCH_KEYS = 10
SHARDS = 4


# ---------------------------------------------------------------------------
# Out-of-process servers
# ---------------------------------------------------------------------------

#: Four shard servers in ONE process: the deployment the cluster must
#: beat.  Each runs its own event loop on its own thread, but one GIL
#: serializes their work.
_COLOCATED_SCRIPT = """\
import threading
from repro.net import AsyncIQServer
servers = [AsyncIQServer(("127.0.0.1", 0)) for _ in range({shards})]
print(" ".join(str(s.port) for s in servers), flush=True)
threads = [
    threading.Thread(target=s.serve_forever, daemon=True) for s in servers
]
for t in threads:
    t.start()
for t in threads:
    t.join()
"""


def _spawn(script):
    env = dict(os.environ)
    src = os.path.join(ROOT_DIR, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env,
    )
    ports = [int(word) for word in proc.stdout.readline().split()]
    return proc, ports


# ---------------------------------------------------------------------------
# Shard deployment: co-located process vs process-per-shard
# ---------------------------------------------------------------------------

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


#: Background read load, one pipelining thread per shard port.  This
#: runs as its OWN process so the load generator's GIL traffic cannot
#: inflate the measuring client's observed commit latency -- the only
#: contention under test is the one *inside the server deployment*.
_LOADER_SCRIPT = """\
import sys
import threading
from repro.net import RemoteIQServer

def load(port):
    try:
        with RemoteIQServer(port=port) as remote:
            for i in range({batch}):
                remote.set("load-%d" % i, b"v" * 64)
            while True:
                pipe = remote.pipeline()
                for i in range({batch}):
                    pipe.get("load-%d" % i)
                pipe.execute()
    except Exception:
        pass  # a dying loader only reduces load, never correctness

threads = [
    threading.Thread(target=load, args=(int(port),), daemon=True)
    for port in sys.argv[1:]
]
for t in threads:
    t.start()
print("LOADING", flush=True)
for t in threads:
    t.join()
"""


def _measure_commit_latency(ports, trials, background_load=False):
    """Median commit latency of a 4-shard composite session.

    With ``background_load`` a loader process keeps a pipelined read
    stream in flight against every shard while the probe commits, so
    the deployment's internal contention (one GIL for the co-located
    shards, none across the cluster's processes) shows up in the
    number.
    """
    clients = [ResilientIQServer(port=port) for port in ports]
    router = ShardedIQServer(clients, fanout_workers=SHARDS)
    loader = None
    if background_load:
        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.join(ROOT_DIR, "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        loader = subprocess.Popen(
            [sys.executable, "-c", _LOADER_SCRIPT.format(batch=BATCH_KEYS)]
            + [str(port) for port in ports],
            stdout=subprocess.PIPE, env=env,
        )
    try:
        if loader is not None:
            assert loader.stdout.readline().strip() == b"LOADING"
            time.sleep(0.2)  # let the load reach steady state
        keys = _distinct_shard_keys(router, SHARDS)
        latencies = []
        for _ in range(trials):
            tid = router.gen_id()
            statuses = router.qar_many(tid, keys)
            assert all(s == "granted" for s in statuses.values()), statuses
            begin = time.perf_counter()
            router.commit(tid)
            latencies.append(time.perf_counter() - begin)
    finally:
        if loader is not None:
            loader.terminate()
            loader.wait(timeout=5)
            loader.stdout.close()
        router.close()
        for client in clients:
            client.close()
    return statistics.median(latencies) * 1000.0


def _deployment_experiment(trials):
    proc, ports = _spawn(_COLOCATED_SCRIPT.format(shards=SHARDS))
    try:
        colocated_ms = _measure_commit_latency(ports, trials)
        colocated_loaded_ms = _measure_commit_latency(
            ports, trials, background_load=True
        )
    finally:
        proc.terminate()
        proc.wait(timeout=5)

    cluster = IQCluster(shards=SHARDS)
    cluster.start()
    try:
        cluster_ms = _measure_commit_latency(cluster.ports, trials)
        cluster_loaded_ms = _measure_commit_latency(
            cluster.ports, trials, background_load=True
        )
    finally:
        cluster.stop()

    baseline_ms = None
    baseline_path = os.path.join(ROOT_DIR, "BENCH_pipeline.json")
    if os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        baseline_ms = baseline.get("shard_fanout", {}).get(
            "parallel_commit_ms"
        )
    return {
        "shards": SHARDS,
        "trials": trials,
        # The loaded comparison measures parallelism the machine must be
        # able to express: on a single core the four shard processes
        # timeshare one CPU exactly like four threads do, so the gate on
        # speedup_vs_colocated only applies on multi-core hosts.
        "cpu_count": os.cpu_count() or 1,
        "colocated_commit_ms": colocated_ms,
        "cluster_commit_ms": cluster_ms,
        "colocated_loaded_commit_ms": colocated_loaded_ms,
        "cluster_loaded_commit_ms": cluster_loaded_ms,
        "speedup_vs_colocated": (colocated_loaded_ms / cluster_loaded_ms
                                 if cluster_loaded_ms else 0.0),
        "bench_pipeline_parallel_commit_ms": baseline_ms,
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def run_experiment(deployment_trials=40):
    return {"shard_deployment": _deployment_experiment(deployment_trials)}


def render(results):
    deployment = results["shard_deployment"]
    lines = [
        "4-shard commit latency (median, idle / under background read "
        "load):",
        "  co-located (one process)   {:.3f} / {:.3f} ms".format(
            deployment["colocated_commit_ms"],
            deployment["colocated_loaded_commit_ms"],
        ),
        "  process-per-shard cluster  {:.3f} / {:.3f} ms "
        "({:.2f}x under load)".format(
            deployment["cluster_commit_ms"],
            deployment["cluster_loaded_commit_ms"],
            deployment["speedup_vs_colocated"],
        ),
    ]
    if deployment["bench_pipeline_parallel_commit_ms"] is not None:
        lines.append(
            "  BENCH_pipeline baseline    {:.3f} ms (simulated RTT)".format(
                deployment["bench_pipeline_parallel_commit_ms"]
            )
        )
    if deployment["cpu_count"] < 2:
        lines.append(
            "  (single-core host: the loaded comparison timeshares one "
            "CPU and cannot express cross-process parallelism)"
        )
    return "\n".join(lines)


def emit_json(results):
    return write_bench_json("async", results, (
        "shard deployment: 4-shard composite commit over real sockets, "
        "co-located shards (one process, one GIL) vs the "
        "process-per-shard cluster"
    ))


def check(results, smoke=False):
    deployment = results["shard_deployment"]
    assert deployment["cluster_commit_ms"] > 0
    assert deployment["cluster_loaded_commit_ms"] > 0
    if not smoke and deployment["cpu_count"] >= 2:
        # Cross-process parallelism needs cores to land on; a 1-CPU
        # host timeshares the shard processes exactly like threads.
        assert deployment["speedup_vs_colocated"] > 1.0, deployment
    baseline = deployment["bench_pipeline_parallel_commit_ms"]
    if baseline is not None:
        assert deployment["cluster_commit_ms"] < baseline, (
            "process-per-shard commit {:.3f} ms did not beat the "
            "BENCH_pipeline parallel baseline {:.3f} ms".format(
                deployment["cluster_commit_ms"], baseline
            )
        )


def test_async_scaling(benchmark):
    results = benchmark.pedantic(
        run_experiment,
        kwargs={"deployment_trials": 10},
        iterations=1, rounds=1,
    )
    check(results, smoke=True)
    emit("BENCH_async", render(results))
    emit_json(results)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI entry: fewer trials, loaded comparison not gated",
    )
    args = parser.parse_args()
    results = run_experiment(deployment_trials=15 if args.smoke else 40)
    check(results, smoke=args.smoke)
    emit("BENCH_async", render(results))
    print("wrote", emit_json(results))
