"""The resilient call path's shared state under contention: the pool
never hands one connection to two callers and settles every slot once,
and the breaker's lock-free reads never skip a failure-count reset.

And its length: a warm read runs within a budget of Python frames on
each side of the wire (:class:`TestFrameBudget`)."""

import os
import random
import sys
import threading

import pytest

import repro
from repro.core.iq_server import IQServer
from repro.errors import CircuitOpenError
from repro.net import ConnectionPool, client, commands
from repro.net.async_server import AsyncIQServer, _Connection
from repro.net.client import Pipeline, RemoteIQServer
from repro.net.resilient import (
    CircuitBreaker,
    CircuitState,
    ResilientIQServer,
)
from repro.sharding.router import ShardedIQServer
from repro.util.clock import LogicalClock

POOL_SIZE = 2
THREADS = 16
ROUNDS = 300


class _Conn:
    def __init__(self):
        self.broken = False
        self.closed = False

    def close(self):
        self.closed = True


class _HolderTracker:
    """Wraps a pool and records who holds each connection it hands out."""

    def __init__(self, pool):
        self.pool = pool
        self._lock = threading.Lock()
        self._holders = {}
        self.violations = []

    def acquire(self):
        conn = self.pool.acquire()
        with self._lock:
            holders = self._holders.get(conn, 0) + 1
            self._holders[conn] = holders
            if holders > 1:
                self.violations.append("connection held {} times".format(
                    holders))
            if conn.closed:
                self.violations.append("handed out a closed connection")
        live = self.pool.live_connections
        if live > POOL_SIZE:
            self.violations.append("{} live connections".format(live))
        return conn

    def let_go(self, conn):
        """Called just before the holder settles ``conn``."""
        with self._lock:
            self._holders[conn] -= 1


# Settlement sequences a caller may legally run on a connection it holds.
# Each settles the slot exactly once; a second step must be a no-op even
# while every other thread keeps churning the pool.
def _release(pool, conn):
    pool.release(conn)


def _discard(pool, conn):
    pool.discard(conn)


def _discard_twice(pool, conn):
    pool.discard(conn)
    pool.discard(conn)


def _discard_then_release(pool, conn):
    pool.discard(conn)
    pool.release(conn)


def _release_broken_twice(pool, conn):
    conn.broken = True
    pool.release(conn)
    pool.release(conn)


def _release_broken_then_discard(pool, conn):
    conn.broken = True
    pool.release(conn)
    pool.discard(conn)


SETTLEMENTS = (
    _release, _release, _release, _discard, _discard_twice,
    _discard_then_release, _release_broken_twice,
    _release_broken_then_discard,
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sixteen_threads_on_two_connections(seed):
    dialed = []
    dial_lock = threading.Lock()

    def dial():
        conn = _Conn()
        with dial_lock:
            dialed.append(conn)
        return conn

    pool = ConnectionPool(dial, POOL_SIZE)
    tracker = _HolderTracker(pool)
    errors = []
    start = threading.Barrier(THREADS)

    def worker(index):
        rng = random.Random(seed * 1000 + index)
        try:
            start.wait()
            for _ in range(ROUNDS):
                conn = tracker.acquire()
                if rng.random() < 0.1:
                    # Hold it across a switch so waiters really queue.
                    threading.Event().wait(0.0005)
                tracker.let_go(conn)
                rng.choice(SETTLEMENTS)(pool, conn)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the pool's steps
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "deadlock"
    assert not errors
    assert not tracker.violations

    # Every slot settled exactly once: the survivors are idle, healthy
    # and open, and the pool still has its full capacity to hand out.
    assert pool.live_connections <= POOL_SIZE
    idle = list(pool._idle)
    assert len(idle) == pool.live_connections
    assert all(not conn.closed and not conn.broken for conn in idle)
    assert sum(not conn.closed for conn in dialed) == len(idle)
    held = [pool.acquire() for _ in range(POOL_SIZE)]
    assert len(set(map(id, held))) == POOL_SIZE
    assert pool.live_connections == POOL_SIZE
    for conn in held:
        pool.release(conn)
    pool.close()


class TestBreakerCounts:
    def test_success_between_sub_threshold_failures_resets_the_count(self):
        clock = LogicalClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown=1.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.record_success() is False  # was never open
        breaker.record_failure()
        # One failure since the success: still under the threshold.
        assert breaker.state == CircuitState.CLOSED
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitState.OPEN
        with pytest.raises(CircuitOpenError):
            breaker.allow()

    def test_open_half_open_closed_round_trip(self):
        clock = LogicalClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown=1.0,
                                 clock=clock)
        assert breaker.record_success() is False
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock.advance(1.0)
        breaker.allow()  # the probe
        assert breaker.state == CircuitState.HALF_OPEN
        assert breaker.record_success() is True
        assert breaker.state == CircuitState.CLOSED
        assert breaker.times_opened == 1
        assert breaker.times_recovered == 1
        assert breaker.record_success() is False
        assert breaker.times_recovered == 1

    def test_healthy_flag_settles_with_the_state(self):
        """``healthy`` is what the call path reads instead of the lock:
        after any mix of racing calls it says closed-with-no-failures
        exactly when the breaker is."""
        clock = LogicalClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown=0.0,
                                 clock=clock)
        errors = []

        def worker(index):
            rng = random.Random(index)
            try:
                for _ in range(ROUNDS):
                    step = rng.random()
                    if step < 0.4:
                        breaker.record_failure()
                    elif step < 0.8:
                        breaker.record_success()
                    elif not breaker.healthy:
                        try:
                            breaker.allow()
                        except CircuitOpenError:
                            pass
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert breaker.healthy == (
            breaker.state == CircuitState.CLOSED
            and breaker._consecutive_failures == 0)
        breaker.record_success()
        assert breaker.healthy and breaker.state == CircuitState.CLOSED
        breaker.record_failure()
        assert not breaker.healthy


# -- frame budget -----------------------------------------------------------

#: Python frames of ``repro`` code one warm ``iq_get`` hit may enter on
#: the client: router -> resilient -> wire client and its reply parser.
CLIENT_FRAME_BUDGET = 15
#: ... and one warm ``iqget`` hit on the shard: framing, dispatch, the
#: handler, the IQ server and store lookups, formatting and the flush.
SHARD_FRAME_BUDGET = 8

_REPRO_ROOT = os.path.dirname(repro.__file__) + os.sep
#: The generated command methods compile from strings, not files.
_STUB_CODES = frozenset(
    getattr(surface, name).__code__
    for surface in (RemoteIQServer, ResilientIQServer, Pipeline)
    for name in commands.COMMANDS
)


def repro_frames(call):
    """``(result, frames)``: the ``repro`` frames ``call()`` enters, in
    order, generated surface stubs included."""
    entered = []

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if (code.co_filename.startswith(_REPRO_ROOT)
                    or code in _STUB_CODES):
                entered.append("{}:{}".format(
                    os.path.basename(code.co_filename), code.co_name))

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, entered


class _EchoSocket:
    """A connected socket whose peer answers every request with ``reply``."""

    def __init__(self, reply):
        self._reply = reply
        self._pending = b""

    def setsockopt(self, *args):
        pass

    def sendall(self, data):
        self._pending += self._reply

    def recv(self, size):
        chunk, self._pending = self._pending, b""
        return chunk

    def close(self):
        pass


class _SinkSocket:
    """An accepted socket that takes every reply whole."""

    def fileno(self):
        return 1_000_000

    def send(self, data):
        return len(data)


class TestFrameBudget:
    def test_client_iq_get_hit(self, monkeypatch):
        monkeypatch.setattr(
            client.socket, "create_connection",
            lambda *args, **kwargs: _EchoSocket(
                b"VALUE user:1 0 5\r\nhello\r\nEND\r\n"))
        router = ShardedIQServer([ResilientIQServer(port=1),
                                  ResilientIQServer(port=2)])
        assert router.iq_get("user:1").value == b"hello"  # dial, memoize
        result, frames = repro_frames(lambda: router.iq_get("user:1"))
        assert result.value == b"hello"
        assert len(frames) <= CLIENT_FRAME_BUDGET, frames
        router.close()

    def test_shard_iqget_hit(self):
        server = AsyncIQServer(iq_server=IQServer())
        try:
            server.iq_server.store.set("user:1", b"hello")
            conn = _Connection(_SinkSocket())

            def one_iqget():
                conn.inbuf += b"iqget user:1\r\n"
                server._process(conn)

            one_iqget()
            _result, frames = repro_frames(one_iqget)
            assert conn.pos == 0 and not conn.out and not conn.closing
            assert len(frames) <= SHARD_FRAME_BUDGET, frames
        finally:
            server.server_close()
