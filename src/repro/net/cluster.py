"""Process-per-shard deployment: supervised worker processes + router.

A single Python process cannot scale the cache tier past one core -- the
GIL serializes every shard hosted in it, so an in-process
:class:`~repro.sharding.router.ShardedIQServer` buys key-space
partitioning but no CPU parallelism.  This module adds the deployment
tier the paper actually measures against (a *fleet* of IQ-Twemcached
processes):

* :class:`ShardProcess` -- one cache shard as a supervised OS process
  (:mod:`repro.net.shard_worker`), with bound-port handshake, graceful
  SIGTERM drain, hard kill, and restart on the same port;
* :class:`IQCluster` -- N shard processes behind one
  :class:`~repro.sharding.router.ShardedIQServer` whose per-shard
  backends are :class:`~repro.net.resilient.ResilientIQServer` clients,
  plus a monitor thread doing liveness polls and wire-level health
  checks, restarting crashed shards automatically.

Failure semantics are inherited, not invented: a dead shard's client
raises the :class:`~repro.errors.CacheUnavailableError` taxonomy, the
router confines the degradation to that shard's key range (journaling
its keys for delete-on-recover), and the restarted worker comes back
*empty*, which Section 4.2's lease-expiry rules already make safe.  The
supervisor restores capacity; correctness never depended on it.
"""

import os
import select
import subprocess
import sys
import threading
import time

from repro.errors import CacheUnavailableError, ReproError


class ClusterError(ReproError):
    """A shard process could not be started or supervised."""


def _worker_pythonpath():
    """PYTHONPATH for a worker: this package's source root first."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__
    )))
    existing = os.environ.get("PYTHONPATH")
    if existing:
        return os.pathsep.join([src_root, existing])
    return src_root


class ShardProcess:
    """One cache shard running as a supervised child process.

    The handshake is one line: the worker prints ``PORT <n>`` once its
    listening socket is bound, so :meth:`start` never returns a shard
    that cannot yet be dialed.  The first bound port is remembered and
    re-used by :meth:`restart`, so clients keep dialing one stable
    address across crashes (the server binds with ``SO_REUSEADDR``).
    """

    def __init__(self, name, host="127.0.0.1", port=0, i_ttl=10.0,
                 q_ttl=10.0, max_pipeline_buffer=None, startup_timeout=10.0):
        self.name = name
        self.host = host
        self.port = port  # 0 until the first start pins it
        self.i_ttl = i_ttl
        self.q_ttl = q_ttl
        self.max_pipeline_buffer = max_pipeline_buffer
        self.startup_timeout = startup_timeout
        self.proc = None
        self.restarts = 0

    def _command(self):
        cmd = [
            sys.executable, "-m", "repro.net.shard_worker",
            "--host", self.host,
            "--port", str(self.port),
            "--i-ttl", str(self.i_ttl),
            "--q-ttl", str(self.q_ttl),
        ]
        if self.max_pipeline_buffer is not None:
            cmd += ["--max-pipeline-buffer", str(self.max_pipeline_buffer)]
        return cmd

    def start(self):
        """Spawn the worker and wait for its bound-port handshake."""
        if self.alive:
            raise ClusterError("shard {!r} is already running".format(
                self.name
            ))
        env = dict(os.environ, PYTHONPATH=_worker_pythonpath())
        self.proc = subprocess.Popen(
            self._command(), stdout=subprocess.PIPE, env=env,
        )
        self.port = self._read_port()
        return self

    def _read_port(self):
        deadline = time.monotonic() + self.startup_timeout
        stdout = self.proc.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise ClusterError(
                    "shard {!r} did not report its port within {}s".format(
                        self.name, self.startup_timeout
                    )
                )
            ready, _, _ = select.select([stdout], [], [], min(remaining, 0.5))
            if not ready:
                if self.proc.poll() is not None:
                    raise ClusterError(
                        "shard {!r} exited with status {} before "
                        "binding".format(self.name, self.proc.returncode)
                    )
                continue
            line = stdout.readline()
            if not line:
                raise ClusterError(
                    "shard {!r} closed stdout before reporting its "
                    "port (exit status {})".format(
                        self.name, self.proc.poll()
                    )
                )
            text = line.decode("ascii", "replace").strip()
            if text.startswith("PORT "):
                return int(text.split(None, 1)[1])

    @property
    def alive(self):
        return self.proc is not None and self.proc.poll() is None

    @property
    def address(self):
        return (self.host, self.port)

    def poll(self):
        """Exit status, or ``None`` while the worker runs (or never ran)."""
        return None if self.proc is None else self.proc.poll()

    def stop(self, graceful=True, timeout=5.0):
        """Stop the worker: SIGTERM drain by default, SIGKILL fallback."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                if graceful:
                    self.proc.terminate()  # SIGTERM -> worker drains
                else:
                    self.proc.kill()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=timeout)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def kill(self):
        """Hard-kill the worker (the chaos path: no drain, no goodbye)."""
        self.stop(graceful=False)

    def restart(self):
        """Start a replacement worker on the same port."""
        self.stop(graceful=False)
        self.restarts += 1
        return self.start()


class IQCluster:
    """N shard processes behind one consistent-hash router.

    ``cluster.router`` is a :class:`~repro.sharding.router.
    ShardedIQServer` whose backends are
    :class:`~repro.net.resilient.ResilientIQServer` clients -- so every
    consistency client, write session, and benchmark built on the
    :class:`~repro.core.backend.LeaseBackend` surface runs unchanged
    against real processes.

    A monitor thread polls each worker.  A worker that exited without
    being asked (crash, OOM-kill, chaos) is restarted on its original
    port when ``restart_on_crash`` is set; its resilient client redials
    and closes its circuit on the next successful probe.  :meth:`health`
    reports, per shard, both liveness (process running) and
    serviceability (a wire-level ``version`` ping answered within the
    probe timeout) -- a hung worker is alive but not serviceable, and
    counts as unhealthy.
    """

    def __init__(self, shards=4, restart_on_crash=True, monitor_interval=0.25,
                 net_config=None, i_ttl=10.0, q_ttl=10.0, fanout_workers=None,
                 probe_timeout=2.0):
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        self.restart_on_crash = restart_on_crash
        self.monitor_interval = monitor_interval
        self.net_config = net_config
        self.probe_timeout = probe_timeout
        self._fanout_workers = fanout_workers
        self.processes = [
            ShardProcess(
                "shard{}".format(i), i_ttl=i_ttl, q_ttl=q_ttl,
                max_pipeline_buffer=(
                    net_config.max_pipeline_buffer
                    if net_config is not None else None
                ),
            )
            for i in range(shards)
        ]
        self.clients = []
        self.router = None
        self._monitor = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Start every worker, build the router, begin supervision."""
        from repro.net.resilient import ResilientIQServer
        from repro.sharding import ShardedIQServer

        started = []
        try:
            for proc in self.processes:
                proc.start()
                started.append(proc)
        except Exception:
            for proc in started:
                proc.kill()
            raise
        self.clients = [
            ResilientIQServer(proc.host, proc.port, config=self.net_config)
            for proc in self.processes
        ]
        self.router = ShardedIQServer(
            self.clients,
            names=[proc.name for proc in self.processes],
            fanout_workers=self._fanout_workers,
        )
        self._stop.clear()
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         daemon=True)
        self._monitor.start()
        return self

    def stop(self, graceful=True):
        """Drain and stop the whole cluster (supervision first)."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5)
            self._monitor = None
        for client in self.clients:
            try:
                client.close()
            except Exception:
                pass
        for proc in self.processes:
            proc.stop(graceful=graceful)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()

    # -- supervision ---------------------------------------------------------

    @property
    def total_restarts(self):
        return sum(proc.restarts for proc in self.processes)

    @property
    def ports(self):
        return [proc.port for proc in self.processes]

    def _monitor_loop(self):
        while not self._stop.wait(self.monitor_interval):
            for proc in self.processes:
                if self._stop.is_set():
                    return
                if proc.poll() is not None and self.restart_on_crash:
                    with self._lock:
                        if proc.poll() is None or self._stop.is_set():
                            continue
                        try:
                            proc.restart()
                        except ClusterError:
                            # Startup failed; retried next tick.
                            continue

    def kill_shard(self, index):
        """Chaos helper: SIGKILL one worker (the monitor restarts it)."""
        self.processes[index].kill()

    def wait_healthy(self, timeout=10.0):
        """Block until every shard answers a wire ping (or time out)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(self.health().values()):
                return True
            time.sleep(0.05)
        return False

    def health(self):
        """Per-shard health: process alive *and* answering on the wire."""
        report = {}
        for proc in self.processes:
            report[proc.name] = proc.alive and self._ping(proc)
        return report

    def _ping(self, proc):
        from repro.net.client import RemoteIQServer

        try:
            client = RemoteIQServer(proc.host, proc.port,
                                    timeout=self.probe_timeout)
        except CacheUnavailableError:
            return False
        try:
            client.version()
            return True
        except (CacheUnavailableError, ReproError):
            return False
        finally:
            client.close()
