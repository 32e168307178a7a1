"""Outside-in tracing: spans recorded by proxies the harness puts
*around* each layer of the program, never inside it.

One BG action is a tree of spans: the root around
``WorkloadRunner.execute_one`` (layer ``bg``), then the consistency
client (``core.policies``), the ``IQClient`` (``core.iq_client``), the
lease backend at the tier root (``core.iq_server`` in process,
``sharding.router`` on the cluster), one span per shard call under the
router (``net``: wire client, transport, server dispatch and the remote
``IQServer`` together) and one per ``Connection`` call (``sql``).  The
callbacks the program calls back into BG with -- a read's ``compute``, a
write's ``sql_body`` -- get a ``bg`` span of their own, so the time
they spend outside SQL counts for BG and not for whoever called them.

Spans live in column arrays (a million of them fit in ~45 MB) and are
written out when the run ends.  A layer's self time is its span minus
the interval its children cover (:func:`self_times`).
"""

import json
import threading
import time
from array import array

from repro.errors import TransactionAbortedError

LAYERS = (
    "bg", "core.policies", "core.iq_client", "core.iq_server",
    "sharding.router", "net", "sql",
)
BG, POLICIES, IQ_CLIENT, IQ_SERVER, ROUTER, NET, SQL = range(len(LAYERS))

#: the command surface of ``repro.core.backend.LeaseBackend`` (plus the
#: two deletes the router calls on its shards)
BACKEND_COMMANDS = (
    "gen_id", "iq_get", "iq_set", "release_i", "qaread", "sar",
    "propose_refresh", "qar", "dar", "qar_many", "iq_mget", "iq_delta",
    "commit", "abort", "delete", "mdelete", "flush_all",
)
#: commands whose shard legs the router may run on its fan-out pool
FANOUT_COMMANDS = frozenset({"commit", "abort", "dar"})
IQ_CLIENT_COMMANDS = (
    "read_through", "iq_get", "get_cached", "gen_id", "qar", "qar_many",
    "iq_mget", "dar", "qaread", "sar", "propose_refresh", "iq_delta",
    "commit", "abort",
)
STATEMENT_COMMANDS = ("execute", "query_one", "query_scalar")


class Tracer:
    """Column store of spans plus the per-thread stack that parents them."""

    def __init__(self):
        self.layer = array("b")
        self.op = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.action = array("l")
        #: spans whose parent runs on another thread (router fan-out legs)
        self.adopted = set()
        self.ops = []
        self._op_ids = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fanouts = []
        self._actions = 0

    def op_id(self, name):
        if name not in self._op_ids:
            self._op_ids[name] = len(self.ops)
            self.ops.append(name)
        return self._op_ids[name]

    def begin(self, layer, op, fanout=False):
        """Open a span under the innermost open span of this thread.

        A thread with no open span is either starting a new action (a
        ``bg`` root) or is a router fan-out worker, whose span is adopted
        by the most recent open fan-out command.
        """
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        now = time.perf_counter()
        with self._lock:
            index = len(self.start)
            if stack:
                parent = stack[-1]
                action = self.action[parent]
            elif layer != BG and self._fanouts:
                parent = self._fanouts[-1]
                action = self.action[parent]
                self.adopted.add(index)
            else:
                parent = -1
                action = self._actions
                self._actions += 1
            self.layer.append(layer)
            self.op.append(op)
            self.start.append(now)
            self.end.append(now)
            self.parent.append(parent)
            self.action.append(action)
            if fanout:
                self._fanouts.append(index)
        stack.append(index)
        return index

    def finish(self, index, fanout=False):
        self.end[index] = time.perf_counter()
        self._local.stack.pop()
        if fanout:
            with self._lock:
                self._fanouts.remove(index)

    def wrap(self, layer, name, fn, fanout=False):
        """``fn`` with a span of ``layer`` around every call."""
        op = self.op_id(name)
        begin, finish = self.begin, self.finish

        def spanned(*args, **kwargs):
            index = begin(layer, op, fanout)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index, fanout)

        return spanned

    def clear(self):
        """Forget every span recorded so far (set-up and warm-up)."""
        with self._lock:
            for column in (self.layer, self.op, self.start, self.end,
                           self.parent, self.action):
                del column[:]
            self.adopted.clear()
            self._actions = 0

    def write_jsonl(self, path, max_actions):
        """Write the spans of the first ``max_actions`` actions."""
        with open(path, "w") as handle:
            for i in range(len(self.start)):
                if self.action[i] >= max_actions:
                    continue
                handle.write(json.dumps({
                    "name": "{}.{}".format(
                        LAYERS[self.layer[i]], self.ops[self.op[i]]
                    ),
                    "start": self.start[i], "end": self.end[i],
                    "span": i, "parent": self.parent[i],
                    "action": self.action[i],
                }) + "\n")


def union_length(intervals):
    """Total length covered by possibly overlapping ``(start, end)``s."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def self_times(start, end, parent, adopted=()):
    """Per-span self time: duration minus the interval children cover.

    Children opened on the parent's own thread never overlap one
    another, so their durations subtract directly; ``adopted`` children
    ran in parallel on other threads and subtract the union of their
    intervals, clipped to the parent.
    """
    own = [e - s for s, e in zip(start, end)]
    parallel = {}
    for i, p in enumerate(parent):
        if p < 0:
            continue
        if i in adopted:
            parallel.setdefault(p, []).append(
                (max(start[i], start[p]), min(end[i], end[p]))
            )
        else:
            own[p] -= end[i] - start[i]
    for p, intervals in parallel.items():
        own[p] -= union_length(iv for iv in intervals if iv[1] > iv[0])
    return own


class Spanned:
    """A proxy that spans the named methods of ``target`` and passes
    every other attribute through."""

    def __init__(self, target, tracer, layer, commands, fanouts=()):
        self._target = target
        for name in commands:
            method = getattr(target, name, None)
            if method is not None:
                setattr(self, name, tracer.wrap(
                    layer, name, method, fanout=name in fanouts
                ))

    def __getattr__(self, name):
        return getattr(self._target, name)


def span_backend(backend, tracer, layer):
    """A ``LeaseBackend`` proxy; the router's gets fan-out adoption."""
    fanouts = FANOUT_COMMANDS if layer == ROUTER else ()
    return Spanned(backend, tracer, layer, BACKEND_COMMANDS, fanouts)


def span_iq_client(client, tracer):
    return Spanned(client, tracer, IQ_CLIENT, IQ_CLIENT_COMMANDS)


class SpannedPolicy:
    """Consistency-client proxy: spans ``read``/``write`` and gives the
    BG callbacks they are handed spans of their own."""

    def __init__(self, target, tracer):
        self._target = target
        self._tracer = tracer
        self._read = tracer.wrap(POLICIES, "read", target.read)
        self._write = tracer.wrap(POLICIES, "write", target.write)

    def read(self, key, compute):
        return self._read(key, self._tracer.wrap(BG, "compute", compute))

    def write(self, sql_body, changes):
        return self._write(
            self._tracer.wrap(BG, "sql_body", sql_body), changes
        )

    def __getattr__(self, name):
        return getattr(self._target, name)


class CountedDatabase:
    """``db.connect()`` seam: counts statements, commits and aborts on
    every connection handed out, and spans them when tracing."""

    def __init__(self, db, tracer=None):
        self._db = db
        self._tracer = tracer
        self._lock = threading.Lock()
        self.statements = 0
        self.commits = 0
        self.aborts = 0

    def connect(self):
        return CountedConnection(self._db.connect(), self, self._tracer)

    def _add(self, statements, commits, aborts):
        with self._lock:
            self.statements += statements
            self.commits += commits
            self.aborts += aborts

    def counts(self):
        with self._lock:
            return self.statements, self.commits, self.aborts


class CountedConnection:
    """One connection: counts locally, reports to its database on close
    (every connection is closed by the session that opened it)."""

    def __init__(self, connection, owner, tracer):
        self._target = connection
        self._owner = owner
        self._tracer = tracer
        self._counts = [0, 0, 0]

    def _call(self, name, *args):
        method = getattr(self._target, name)
        if self._tracer is not None:
            method = self._tracer.wrap(SQL, name, method)
        return method(*args)

    def _statement(self, name, sql, params):
        self._counts[0] += 1
        try:
            return self._call(name, sql, params)
        except TransactionAbortedError:
            # a write-write conflict: the engine already rolled back
            self._counts[2] += 1
            raise

    def execute(self, sql, params=()):
        return self._statement("execute", sql, params)

    def query_one(self, sql, params=()):
        return self._statement("query_one", sql, params)

    def query_scalar(self, sql, params=()):
        return self._statement("query_scalar", sql, params)

    def begin(self, *args):
        return self._call("begin", *args)

    def commit(self, *args):
        self._counts[1] += 1
        return self._call("commit", *args)

    def rollback(self):
        self._counts[2] += 1
        return self._call("rollback")

    def close(self):
        self._owner._add(*self._counts)
        self._counts = [0, 0, 0]
        return self._target.close()

    def __getattr__(self, name):
        return getattr(self._target, name)
