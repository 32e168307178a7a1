"""Deterministic fault injection for the networked cache path.

A :class:`FaultPlan` is an ordered list of :class:`FaultRule` objects.
Each rule names an injection *site* (a string constant below), the
:class:`FaultAction` to take there, and a trigger -- the nth matching
event, every-nth event, or a seeded coin flip.  A :class:`FaultInjector`
evaluates the plan: instrumented code calls :meth:`FaultInjector.decide`
at each site and interprets the returned rule (drop the connection,
truncate the reply, ...).  Generic actions (``DELAY``, ``FREEZE``) can be
executed directly with :meth:`FaultInjector.perform`.

Design constraints, verified by ``tests/faults``:

* **Deterministic** -- the same seed and plan over the same event
  sequence produce the same injected-fault history (the coin flips come
  from one seeded ``random.Random``; nth-triggers are pure counters).
* **Zero overhead when absent** -- every hook site guards with
  ``if injector is not None``; no injector object is ever created on the
  default path.

Sites (the ``site`` argument of :class:`FaultRule`):

======================  ====================================================
site                    where the hook fires
======================  ====================================================
``client.send``         before the request bytes leave ``RemoteIQServer``
``client.after_send``   after the request was sent, before the reply is
                        read (exercises ambiguous outcomes)
``net.recv``            before every server ``recv``, and inside the
                        client's :class:`~repro.net.protocol.LineReader`
                        whenever it refills from the socket
``server.request``      after the server parsed a command line, before
                        dispatch
``server.reply``        before the server writes a reply
``store.get``           :meth:`repro.kvs.store.CacheStore.get`
``store.set``           :meth:`repro.kvs.store.CacheStore.set`
``store.delete``        :meth:`repro.kvs.store.CacheStore.delete`
``server.lease.void``   :meth:`repro.core.leases.LeaseTable.request_q`,
                        at the point where a Q grant voids the key's I
                        lease; a ``SUPPRESS`` rule skips the void,
                        deliberately breaking the lease protocol so the
                        :mod:`repro.obs` auditor can be shown to catch it
======================  ====================================================
"""

import enum
import random
import threading

from repro.util.clock import SystemClock

SITE_CLIENT_SEND = "client.send"
SITE_CLIENT_AFTER_SEND = "client.after_send"
SITE_NET_RECV = "net.recv"
SITE_SERVER_REQUEST = "server.request"
SITE_SERVER_REPLY = "server.reply"
SITE_STORE_GET = "store.get"
SITE_STORE_SET = "store.set"
SITE_STORE_DELETE = "store.delete"
SITE_LEASE_VOID = "server.lease.void"

ALL_SITES = (
    SITE_CLIENT_SEND,
    SITE_CLIENT_AFTER_SEND,
    SITE_NET_RECV,
    SITE_SERVER_REQUEST,
    SITE_SERVER_REPLY,
    SITE_STORE_GET,
    SITE_STORE_SET,
    SITE_STORE_DELETE,
    SITE_LEASE_VOID,
)


class FaultAction(enum.Enum):
    """What an armed rule does at its site."""

    #: Sever the connection (client raises ConnectionLostError; the
    #: server closes the socket; LineReader raises
    #: ConnectionError as if the peer vanished).
    DROP_CONNECTION = "drop_connection"
    #: Sleep for ``rule.delay`` seconds before proceeding.
    DELAY = "delay"
    #: Write only the first half of the reply, then drop the connection
    #: (server.reply site only).
    TRUNCATE = "truncate"
    #: Flip bits in the frame before it is processed/sent.
    CORRUPT = "corrupt"
    #: Shut the TCP server down (server.request site only); the chaos
    #: controller decides when to restart it.
    KILL_SERVER = "kill_server"
    #: Sleep for ``rule.delay`` seconds -- semantically "the lease holder
    #: froze"; pair with a lease TTL shorter than the delay.
    FREEZE = "freeze"
    #: Skip the protected protocol step instead of performing it
    #: (``server.lease.void`` site only): the injected equivalent of a
    #: lease-manager bug, used to demonstrate the online auditor.
    SUPPRESS = "suppress"


class FaultRule:
    """One scheduled fault.

    Triggers (give exactly one; ``nth`` defaults to 1):

    * ``nth`` -- fire on the nth matching event at the site (1-based);
    * ``every`` -- fire on every multiple of ``every``;
    * ``probability`` -- fire on a seeded coin flip per matching event.

    ``count`` caps the number of firings (default 1 for ``nth``,
    unlimited otherwise).  ``match`` is an optional predicate over the
    hook's context dict (e.g. ``lambda ctx: ctx.get("command") == "sar"``)
    evaluated before the trigger counter advances, so a rule's event
    numbering only counts events it could apply to.
    """

    __slots__ = ("site", "action", "nth", "every", "probability", "count",
                 "delay", "match", "label")

    def __init__(self, site, action, nth=None, every=None, probability=None,
                 count=None, delay=0.0, match=None, label=None):
        given = sum(x is not None for x in (nth, every, probability))
        if given > 1:
            raise ValueError("give at most one of nth/every/probability")
        if given == 0:
            nth = 1
        self.site = site
        self.action = action
        self.nth = nth
        self.every = every
        self.probability = probability
        if count is None:
            count = 1 if nth is not None else None
        self.count = count
        self.delay = delay
        self.match = match
        self.label = label or "{}@{}".format(action.value, site)

    def __repr__(self):
        return "FaultRule({})".format(self.label)


class FaultPlan:
    """An ordered collection of rules; first armed rule at a site wins."""

    def __init__(self, rules=()):
        self.rules = list(rules)

    def add(self, rule):
        self.rules.append(rule)
        return self

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    # -- convenience builders ------------------------------------------------

    @classmethod
    def drop_before_send(cls, nth=1, **kw):
        return cls([FaultRule(SITE_CLIENT_SEND, FaultAction.DROP_CONNECTION,
                              nth=nth, **kw)])

    @classmethod
    def drop_after_send(cls, nth=1, **kw):
        return cls([FaultRule(SITE_CLIENT_AFTER_SEND,
                              FaultAction.DROP_CONNECTION, nth=nth, **kw)])

    @classmethod
    def truncate_reply(cls, nth=1, **kw):
        return cls([FaultRule(SITE_SERVER_REPLY, FaultAction.TRUNCATE,
                              nth=nth, **kw)])

    @classmethod
    def corrupt_reply(cls, nth=1, **kw):
        return cls([FaultRule(SITE_SERVER_REPLY, FaultAction.CORRUPT,
                              nth=nth, **kw)])

    @classmethod
    def delay_reply(cls, delay, nth=1, **kw):
        return cls([FaultRule(SITE_SERVER_REPLY, FaultAction.DELAY,
                              nth=nth, delay=delay, **kw)])

    @classmethod
    def kill_server(cls, nth=1, **kw):
        return cls([FaultRule(SITE_SERVER_REQUEST, FaultAction.KILL_SERVER,
                              nth=nth, **kw)])

    @classmethod
    def suppress_i_void(cls, nth=1, **kw):
        """Skip the I-lease void on the nth Q grant (auditor demo)."""
        return cls([FaultRule(SITE_LEASE_VOID, FaultAction.SUPPRESS,
                              nth=nth, **kw)])


class FaultEvent:
    """One injected fault, recorded in :attr:`FaultInjector.history`."""

    __slots__ = ("seq", "site", "action", "rule", "context")

    def __init__(self, seq, site, action, rule, context):
        self.seq = seq
        self.site = site
        self.action = action
        self.rule = rule
        self.context = context

    def signature(self):
        """Hashable summary used by the determinism tests."""
        return (self.seq, self.site, self.action.value, self.rule.label,
                self.context.get("command"))

    def __repr__(self):
        return "FaultEvent(#{} {} {})".format(
            self.seq, self.site, self.action.value
        )


class _RuleState:
    __slots__ = ("events", "fired")

    def __init__(self):
        self.events = 0
        self.fired = 0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` deterministically.

    Thread-safe; determinism holds whenever the sequence of hook events
    is itself deterministic (single-connection tests, or per-site event
    streams that do not interleave).
    """

    def __init__(self, plan, seed=0, clock=None):
        self.plan = plan
        self.clock = clock or SystemClock()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._states = {id(rule): _RuleState() for rule in plan}
        self._site_events = {}
        #: every fired fault, in firing order
        self.history = []

    # -- bookkeeping ---------------------------------------------------------

    def events_at(self, site):
        """How many hook events have been observed at ``site``."""
        with self._lock:
            return self._site_events.get(site, 0)

    def fired(self, site=None):
        """Number of faults fired (optionally restricted to one site)."""
        with self._lock:
            if site is None:
                return len(self.history)
            return sum(1 for event in self.history if event.site == site)

    def signatures(self):
        with self._lock:
            return [event.signature() for event in self.history]

    # -- decision ------------------------------------------------------------

    def decide(self, site, **context):
        """Return the armed :class:`FaultRule` for this event, or ``None``.

        Exactly one rule can fire per event (the first armed one in plan
        order); the site event counter advances regardless.
        """
        with self._lock:
            self._site_events[site] = self._site_events.get(site, 0) + 1
            chosen = None
            for rule in self.plan:
                if rule.site != site:
                    continue
                if rule.match is not None and not rule.match(context):
                    continue
                state = self._states[id(rule)]
                state.events += 1
                if chosen is not None:
                    continue
                if rule.count is not None and state.fired >= rule.count:
                    continue
                if not self._triggered(rule, state):
                    continue
                state.fired += 1
                chosen = rule
                self.history.append(FaultEvent(
                    len(self.history) + 1, site, rule.action, rule, context
                ))
            return chosen

    def _triggered(self, rule, state):
        if rule.nth is not None:
            return state.events == rule.nth
        if rule.every is not None:
            return state.events % rule.every == 0
        return self._rng.random() < rule.probability

    # -- execution helpers ---------------------------------------------------

    def sleep(self, rule):
        """Execute a DELAY/FREEZE rule's sleep on the injector's clock."""
        if rule.delay > 0:
            self.clock.sleep(rule.delay)

    def perform(self, site, **context):
        """Decide and execute purely-temporal actions (DELAY, FREEZE).

        Returns the rule for any non-temporal action so the caller can
        interpret it; used at sites (the KVS store) where only temporal
        faults make sense.
        """
        rule = self.decide(site, **context)
        if rule is not None and rule.action in (FaultAction.DELAY,
                                                FaultAction.FREEZE):
            self.sleep(rule)
            return None
        return rule


def corrupt_bytes(data, rng=None):
    """Flip the low bits of a few bytes of ``data`` (never empty input)."""
    if not data:
        return data
    rng = rng or random.Random(0)
    mutable = bytearray(data)
    for _ in range(min(3, len(mutable))):
        index = rng.randrange(len(mutable))
        mutable[index] ^= 0x01
    return bytes(mutable)
