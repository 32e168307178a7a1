"""Process-per-shard deployment: worker handshake, supervision, drain."""

import signal
import socket

import pytest

from repro.net.cluster import ClusterError, IQCluster, ShardProcess
from repro.net.protocol import CRLF


class TestShardProcess:
    def test_handshake_ping_and_graceful_stop(self):
        proc = ShardProcess("s0")
        proc.start()
        try:
            assert proc.alive
            assert proc.port > 0
            with socket.create_connection(
                ("127.0.0.1", proc.port), timeout=5
            ) as sock:
                sock.sendall(b"version" + CRLF)
                assert sock.recv(4096).startswith(b"VERSION")
        finally:
            proc.stop(graceful=True)
        assert proc.poll() == 0  # SIGTERM is an orderly exit

    def test_sigterm_drain_flushes_pipelined_replies(self):
        proc = ShardProcess("s0")
        proc.start()
        try:
            with socket.create_connection(
                ("127.0.0.1", proc.port), timeout=5
            ) as sock:
                batch = b"".join(
                    b"set k 0 0 1" + CRLF + b"x" + CRLF for _ in range(50)
                )
                sock.sendall(batch)
                proc.proc.send_signal(signal.SIGTERM)
                sock.settimeout(10)
                received = b""
                while received.count(b"STORED") < 50:
                    try:
                        data = sock.recv(65536)
                    except OSError:
                        break
                    if not data:
                        break
                    received += data
                # The drain contract: no reply earned before the TERM is
                # lost.  (Commands the worker never got to execute have
                # no reply to lose -- but a whole batch accepted in one
                # segment is executed as one unit by the event loop.)
                assert received.count(b"STORED") in (0, 50), \
                    received.count(b"STORED")
            # Wait for the TERM-triggered exit before cleanup: a second
            # TERM from stop() could land during interpreter shutdown,
            # after CPython restored the default (abrupt) disposition.
            proc.proc.wait(timeout=10)
        finally:
            proc.stop()
        assert proc.poll() == 0

    def test_double_start_refused(self):
        proc = ShardProcess("s0")
        proc.start()
        try:
            with pytest.raises(ClusterError):
                proc.start()
        finally:
            proc.stop()

    def test_restart_reuses_port(self):
        proc = ShardProcess("s0")
        proc.start()
        first_port = proc.port
        try:
            proc.restart()
            assert proc.port == first_port
            assert proc.restarts == 1
            with socket.create_connection(
                ("127.0.0.1", proc.port), timeout=5
            ) as sock:
                sock.sendall(b"version" + CRLF)
                assert sock.recv(4096).startswith(b"VERSION")
        finally:
            proc.stop()


class TestIQCluster:
    @pytest.fixture
    def cluster(self):
        cluster = IQCluster(shards=2, monitor_interval=0.1)
        cluster.start()
        yield cluster
        cluster.stop()

    def test_routes_keys_across_worker_processes(self, cluster):
        router = cluster.router
        for i in range(16):
            key = "key{}".format(i)
            result = router.iq_get(key)
            assert result.has_lease
            assert router.iq_set(key, str(i).encode(), result.token)
        for i in range(16):
            assert router.iq_get("key{}".format(i)).value == str(i).encode()
        # Both shards really served traffic (merged wire-level stats).
        per_shard = [client.stats()["cmd_get"] for client in cluster.clients]
        assert all(count > 0 for count in per_shard), per_shard

    def test_write_session_spans_shards(self, cluster):
        router = cluster.router
        keys = ["sess{}".format(i) for i in range(8)]
        tid = router.gen_id()
        for key in keys:
            router.qar(tid, key)
        router.commit(tid)

    def test_health_and_crash_restart(self, cluster):
        assert all(cluster.health().values())
        port_before = cluster.ports[1]
        cluster.kill_shard(1)
        assert cluster.wait_healthy(timeout=15), cluster.health()
        assert cluster.ports[1] == port_before
        assert cluster.processes[1].restarts == 1
        assert cluster.total_restarts == 1
        # The restarted worker serves (cold: contract says empty cache).
        result = cluster.router.iq_get("after-restart")
        assert result.has_lease or result.backoff

    def test_graceful_stop_exits_zero(self):
        cluster = IQCluster(shards=2, monitor_interval=0.1)
        cluster.start()
        cluster.stop(graceful=True)
        assert [proc.poll() for proc in cluster.processes] == [0, 0]
