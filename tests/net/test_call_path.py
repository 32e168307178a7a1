"""The resilient call path's shared state under contention: the pool
never hands one connection to two callers and settles every slot once,
and the breaker's lock-free reads never skip a failure-count reset."""

import random
import sys
import threading

import pytest

from repro.errors import CircuitOpenError
from repro.net import ConnectionPool
from repro.net.resilient import CircuitBreaker, CircuitState
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
