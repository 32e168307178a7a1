"""One cache shard as an OS process: ``python -m repro.net.shard_worker``.

A :class:`~repro.sharding.router.ShardedIQServer` ring escapes the GIL
only if each shard's serving loop runs in its own process.  This module
is that process: it hosts one :class:`~repro.core.iq_server.IQServer`
behind an :class:`~repro.net.async_server.AsyncIQServer` and speaks a
tiny supervision contract with its parent
(:class:`repro.net.cluster.ShardProcess`):

* on startup it prints ``PORT <n>`` on stdout (and flushes) once the
  listening socket is bound, so the parent can dial it without racing
  the bind -- passing ``--port 0`` lets the OS pick;
* ``SIGTERM`` / ``SIGINT`` trigger a *graceful drain*: the serving loop
  stops accepting, flushes every connection's buffered replies, closes
  the listening socket, then exits 0.  Replies already earned by
  executed commands are never dropped by an orderly shutdown;
* any other exit (crash, ``SIGKILL``) is the supervisor's cue to
  restart the shard -- clients experience it as
  :class:`~repro.errors.ConnectionLostError` and degrade per the PR 1
  fault taxonomy until the replacement binds.

The worker is deliberately stateless across restarts (the paper's
Section 4.2 failure contract: a restarted cache comes back *empty* and
correctness never depends on cache contents), so the supervisor only
has to re-bind the port, never to recover state.  ``repro serve`` runs
the same server through the same two functions.
"""

import argparse
import signal
import sys
import threading


def build_worker(args):
    """The server for parsed ``args`` (host, port, TTLs, buffer cap)."""
    from repro.config import LeaseConfig, NetConfig
    from repro.core.iq_server import IQServer
    from repro.net.async_server import AsyncIQServer

    iq = IQServer(lease_config=LeaseConfig(
        i_lease_ttl=args.i_ttl, q_lease_ttl=args.q_ttl,
    ))
    net_config = NetConfig()
    if args.max_pipeline_buffer is not None:
        net_config.max_pipeline_buffer = args.max_pipeline_buffer
    return AsyncIQServer((args.host, args.port), iq, net_config=net_config)


def serve_until_drained(server, announce):
    """Serve until SIGTERM/SIGINT, then drain gracefully; returns 0.

    ``announce(server)`` runs once the drain handlers are installed: a
    parent may signal the instant it learns the address, and a drain
    signal must never hit the default (abrupt-kill) disposition.
    """
    draining = threading.Event()

    def _drain(_signum, _frame):
        if draining.is_set():
            return
        draining.set()
        # shutdown() waits for serve_forever to exit, and serve_forever
        # runs on the signal-handling (main) thread.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    announce(server)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-shard-worker",
        description="Serve one IQ cache shard in this process.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = let the OS pick)")
    parser.add_argument("--i-ttl", type=float, default=10.0)
    parser.add_argument("--q-ttl", type=float, default=10.0)
    parser.add_argument("--max-pipeline-buffer", type=int, default=None,
                        help="per-connection buffered-bytes cap")
    return parser


def _announce_port(server):
    # The parent reads this exact line to learn where to dial; anything
    # else the worker prints must go to stderr.
    sys.stdout.write("PORT {}\n".format(server.port))
    sys.stdout.flush()


def main(argv=None):
    args = build_parser().parse_args(argv)
    return serve_until_drained(build_worker(args), _announce_port)


if __name__ == "__main__":
    sys.exit(main())
