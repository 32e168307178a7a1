"""IQ-Client: token and backoff management on behalf of the application.

The paper: "We represent a lease as a unique token generated by the
IQ-Server and maintained by the IQ-Client on behalf of a session.  These
tokens are transparent to the application."  Accordingly, application code
calls :meth:`IQClient.read_through` and never sees an I token.  The
client owns the read session only: write sessions go through
:class:`repro.core.session.WriteSession`, which drives the client's
backend (``client.server``) directly and hides the TID plumbing.

The client is transport-agnostic: it drives any
:class:`~repro.core.backend.LeaseBackend` -- the in-process
:class:`~repro.core.iq_server.IQServer`, a
:class:`repro.net.client.RemoteIQServer` over TCP, its fault-tolerant
wrapper :class:`repro.net.resilient.ResilientIQServer`, or a
:class:`repro.sharding.ShardedIQServer` routing across a fleet.
"""

from repro.config import BackoffConfig
from repro.core.singleflight import FillOutcome, SingleFlight
from repro.obs.trace import get_tracer, trace_context
from repro.util.backoff import ExponentialBackoff
from repro.util.clock import SystemClock


class IQClient:
    """Client-side of the IQ framework.

    With ``coalesce_fills`` (the default), concurrent read sessions of
    one key in this process share a single fill: a reader told to back
    off blocks on the in-flight filler's outcome instead of sleeping
    and re-polling the wire.  The coalesced value is consumed only when
    the filler's install was *applied* -- the fencing rule documented in
    :mod:`repro.core.singleflight`.  Write sessions reading their own
    keys never coalesce (their read-your-own view is session-private).
    """

    def __init__(self, server, backoff=None, clock=None,
                 coalesce_fills=True):
        self.server = server
        self.backoff = backoff or ExponentialBackoff(BackoffConfig())
        self.clock = clock or SystemClock()
        self.flights = SingleFlight() if coalesce_fills else None
        self._tracer = get_tracer()

    # -- read sessions -----------------------------------------------------

    def read_through(self, key, compute, session=None):
        """Execute a read session for ``key``.

        On a hit returns the cached value.  On a miss with an I lease
        grant, calls ``compute()`` (the application's RDBMS query) and
        installs the result with ``IQset`` -- which the server ignores if
        the lease was voided by a concurrent Q lease in the meantime, in
        which case the *computed* value is still returned to the caller
        (the read serializes before the writer).  On a miss without a
        lease the client backs off and retries, per Section 3.2.

        ``compute`` may return ``None`` to indicate the object does not
        exist in the RDBMS; nothing is cached and ``None`` is returned.
        """
        tracer = self._tracer
        if not tracer.active:
            return self._read_through(key, compute, session, tracer)
        # Read sessions get their own trace unless one is already in
        # flight (a write session reading its own keys keeps its trace).
        from repro.obs.trace import current_trace_id

        if current_trace_id() is not None:
            return self._read_through(key, compute, session, tracer)
        with trace_context(tracer.new_trace()):
            return self._read_through(key, compute, session, tracer)

    def _read_through(self, key, compute, session, tracer):
        delays = None  # the backoff policy, drawn on the first back-off
        while True:
            result = self.server.iq_get(key, session=session)
            if result.value is not None:
                if tracer.active:
                    tracer.emit("client.read", key=key, outcome="hit")
                return result.value
            coalesce = self.flights is not None and session is None
            if result.has_lease:
                if coalesce:
                    return self._fill(key, compute, result.token, tracer)
                value = compute()
                if value is not None:
                    applied = self.server.iq_set(key, value, result.token)
                    if tracer.active:
                        tracer.emit("client.read", key=key, outcome="fill",
                                    applied=applied)
                else:
                    self.server.release_i(key, result.token)
                    if tracer.active:
                        tracer.emit("client.read", key=key, outcome="empty")
                return value
            if result.backoff:
                if tracer.active:
                    tracer.emit("client.backoff", key=key)
                if delays is None:
                    delays = self.backoff.delays()
                delay = next(delays)
                flight = self.flights.join(key) if coalesce else None
                if flight is not None:
                    # Waiting on the flight *is* the backoff sleep: the
                    # event trips the moment the filler resolves.  While
                    # the flight is live the co-located filler holds the
                    # I lease, so a wire poll can only come back as
                    # another back-off -- park here instead, drawing
                    # each successive delay from the same policy so
                    # StarvationError fires exactly as it would have.
                    outcome = flight.wait(delay)
                    while outcome is None and not flight.resolved:
                        outcome = flight.wait(next(delays))
                    if outcome is not None and outcome.applied:
                        # Fence: the install redeemed a live I lease, so
                        # no invalidation intervened after we joined.
                        self.flights.note(True)
                        if tracer.active:
                            tracer.emit("client.read", key=key,
                                        outcome="coalesced")
                        return outcome.value
                    self.flights.note(False)
                    continue
                self.clock.sleep(delay)
                continue
            # Miss with neither lease nor backoff: the caller is a write
            # session reading its own invalidated key -- compute directly.
            if tracer.active:
                tracer.emit("client.read", key=key, outcome="own-miss")
            return compute()

    def _fill(self, key, compute, token, tracer):
        """Compute and install as the elected filler, publishing the
        outcome to coalesced waiters under the fencing rule."""
        flight = self.flights.begin(key)
        try:
            value = compute()
        except BaseException:
            self.flights.abandon(key, flight)
            raise
        if value is None:
            self.server.release_i(key, token)
            self.flights.abandon(key, flight)
            if tracer.active:
                tracer.emit("client.read", key=key, outcome="empty")
            return None
        # Unregister BEFORE the install: no waiter may join afterwards,
        # so every waiter's read window opened while the fill was still
        # in flight (half of the fencing rule; the other half is the
        # applied check the waiters make).
        self.flights.unregister(key, flight)
        applied = False
        try:
            applied = self.server.iq_set(key, value, token)
        finally:
            flight.resolve(FillOutcome(value, applied=applied))
        if tracer.active:
            tracer.emit("client.read", key=key, outcome="fill",
                        applied=applied)
        return value
