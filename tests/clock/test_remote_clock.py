"""cget/cset over the wire: remote, pipelined, resilient, and sharded."""

import pytest

from repro.config import BackoffConfig, NetConfig
from repro.core.iq_server import IQServer
from repro.net import RemoteIQServer, ResilientIQServer, serve_background
from repro.sharding import ShardedIQServer


@pytest.fixture
def served():
    server, _thread = serve_background()
    yield server
    server.shutdown()


@pytest.fixture
def remote(served):
    client = RemoteIQServer(port=served.port)
    yield client
    client.close()


class TestRemoteClockCommands:
    def test_miss_fill_hit(self, remote):
        assert not remote.cget("k", 0).is_hit
        assert remote.cset("k", b"v", 0, 8)
        result = remote.cget("k", 3)
        assert result.is_hit
        assert result.value == b"v"
        assert (result.valid_from, result.valid_until) == (0, 8)

    def test_expiry_over_the_wire(self, remote):
        remote.cset("k", b"v", 0, 4)
        result = remote.cget("k", 4)
        assert result.expired and not result.is_hit
        assert remote.get("k") is None  # lazily dropped server-side

    def test_extension_over_the_wire(self, remote):
        remote.cset("k", b"v", 0, 4)
        result = remote.cget("k", 2, extend=9)
        # The wire reply does not carry the in-process ``extended`` flag;
        # the grown bound itself is the observable contract.
        assert result.is_hit and result.valid_until == 9
        assert remote.cget("k", 8).is_hit
        assert remote.stats()["interval_extensions"] == 1

    def test_cset_arbitration(self, remote):
        assert remote.cset("k", b"long", 0, 10)
        assert not remote.cset("k", b"short", 0, 5)  # IGNORED
        assert remote.cget("k", 1).value == b"long"

    def test_binary_safe_interval_values(self, remote):
        blob = bytes(range(256)) + b"\r\nEND\r\n"
        remote.cset("bin", blob, 0, 8)
        assert remote.cget("bin", 1).value == blob


class TestPipelinedClockCommands:
    def test_clock_commands_pipeline(self, remote):
        with remote.pipeline() as pipe:
            pipe.cset("k", b"v", 0, 8).cget("k", 3).cget("k", 8).cget("k", 8)
        stored, hit, expired, miss = pipe.results
        assert stored
        assert hit.is_hit and hit.value == b"v"
        assert expired.expired
        assert not miss.is_hit and not miss.expired

    def test_interleaved_with_standard_commands(self, remote):
        with remote.pipeline() as pipe:
            pipe.set("plain", b"p").cset("ck", b"c", 0, 8)
            pipe.get("plain").cget("ck", 1)
        assert pipe.results[2] == (b"p", 0)
        assert pipe.results[3].value == b"c"


class TestResilientClockCommands:
    def _client(self, served):
        return ResilientIQServer(
            port=served.port,
            config=NetConfig(connect_timeout=1.0, operation_timeout=1.0,
                             max_retries=1, breaker_failure_threshold=100),
            backoff_config=BackoffConfig(initial_delay=0.005,
                                         max_delay=0.02, jitter=0.0),
        )

    def test_round_trip(self, served):
        client = self._client(served)
        try:
            assert client.cset("k", b"v", 0, 8)
            assert client.cget("k", 1).value == b"v"
        finally:
            client.close()

    def test_cset_degrades_to_not_cached_on_dead_server(self):
        from repro.faults import RestartableServer

        server = RestartableServer(IQServer)
        server.start()
        client = self._client(server)
        try:
            client.version()  # establish the connection first
            server.kill()
            assert client.cset("k", b"v", 0, 8) is False
        finally:
            client.close()
            server.kill()


class TestShardedClockCommands:
    def test_routes_by_key(self):
        shards = [IQServer() for _ in range(3)]
        router = ShardedIQServer(shards)
        keys = ["alpha", "beta", "gamma", "delta"]
        for i, key in enumerate(keys):
            assert router.cset(key, str(i).encode(), 0, 8)
        for i, key in enumerate(keys):
            result = router.cget(key, 1)
            assert result.is_hit and result.value == str(i).encode()
            owner = router.shard_for(key)
            assert owner.store.interval_of(key) == (0, 8)
            for shard in shards:
                if shard is not owner:
                    assert shard.store.interval_of(key) is None
