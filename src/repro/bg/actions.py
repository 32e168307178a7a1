"""The nine BG actions implemented as IQ-framework sessions.

Each write action follows the paper's Section 6.1 description exactly:
which rows it touches and which key-value pairs it invalidates/refreshes.
The KVS impact of every action is expressed as
:class:`~repro.core.policies.KeyChange` objects, so the same action code
runs under any consistency client (IQ or unleased baseline) and any
technique (invalidate, refresh, incremental update).

Cached value formats:

* invalidate / refresh -- ``profile`` is the JSON user row (with counters
  embedded); ``friends`` / ``pending`` are sorted JSON id lists;
* incremental update (delta) -- the mutable counters live in standalone
  ASCII-integer keys (``PendingCount``/``FriendCount``) driven by
  ``incr``/``decr`` deltas, and the id lists use a comma-separated byte
  encoding so an invitation extends the list with a pure ``append``.
  Set-element *removals* cannot be expressed incrementally, so those keys
  are invalidated (the paper's simultaneous invalidate+delta usage).

When a :class:`~repro.bg.validation.ValidationLog` is supplied, every
action brackets itself with the read/write validation protocol; the
post-commit ground truth is captured inside the RDBMS transaction and
recorded via the engine's ``on_commit`` hook, so recording order equals
commit order.
"""

import enum
import itertools
import threading

from repro.bg.schema import STATUS_CONFIRMED, STATUS_PENDING
from repro.casql.codec import decode, encode
from repro.casql.keys import KeySpace
from repro.core.policies import KeyChange


class Technique(enum.Enum):
    INVALIDATE = "invalidate"
    REFRESH = "refresh"
    DELTA = "incremental update"
    #: Precise-clock self-invalidation (``ClockClient``): writes only *name*
    #: the impacted keys (the commit jumps the clock past their promised
    #: horizons), so the change lists are the invalidate-shaped plain
    #: key lists and values use the JSON encodings.
    CLOCK = "precise clock"


def encode_id_list(ids):
    """Sorted JSON list encoding (invalidate/refresh techniques)."""
    return encode(sorted(ids))


def encode_id_csv(ids):
    """Comma-separated encoding (delta technique; supports append)."""
    return b"".join("{},".format(i).encode("ascii") for i in sorted(ids))


def decode_id_set(data):
    """Decode either encoding into a frozenset of ids (None -> None)."""
    if data is None:
        return None
    if data.startswith(b"j:"):
        return frozenset(decode(data))
    return frozenset(
        int(part) for part in data.decode("ascii").split(",") if part
    )


class BGActions:
    """The nine actions bound to a database, cache client, and technique."""

    TOP_K = 5

    def __init__(self, db, client, graph, keyspace=None, log=None,
                 technique=Technique.INVALIDATE, compute_delay=0.0,
                 write_delay=0.0, clock=None):
        from repro.util.clock import SystemClock

        self.db = db
        self.client = client
        self.graph = graph
        self.keys = keyspace or KeySpace()
        self.log = log
        self.technique = technique
        #: Artificial service times (seconds).  ``compute_delay`` stretches
        #: the read-session window between the RDBMS query and the KVS set;
        #: ``write_delay`` stretches the RDBMS transaction of write
        #: sessions.  The paper's testbed has real network and disk
        #: latencies inside these windows; an in-process simulator needs
        #: explicit stand-ins for the races to surface at realistic rates.
        #: Both apply identically to IQ and baseline clients.
        self.compute_delay = compute_delay
        self.write_delay = write_delay
        self.clock = clock or SystemClock()
        self._mid_lock = threading.Lock()
        self._mid_counter = None

    def _delay(self, seconds):
        if seconds > 0:
            self.clock.sleep(seconds)

    # -- validation wiring -------------------------------------------------------

    def register_validation(self):
        """Declare every validated item's deterministic initial value."""
        if self.log is None:
            return
        for member in self.graph.member_ids():
            self.log.register(("pendingcount", member), 0)
            self.log.register(
                ("friendcount", member), self.graph.config.friends_per_member
            )
            self.log.register(("pending", member), frozenset())
            self.log.register(
                ("friends", member), self.graph.initial_friends(member)
            )
        connection = self._connection()
        try:
            comment_sets = {}
            for row in connection.execute(
                "SELECT rid, mid FROM manipulations"
            ):
                comment_sets.setdefault(row["rid"], set()).add(row["mid"])
            for rid in range(self.graph.total_resources()):
                self.log.register(
                    ("comments", rid),
                    frozenset(comment_sets.get(rid, ())),
                )
        finally:
            connection.close()

    def _read_begin(self, items):
        if self.log is None:
            return None
        return self.log.read_begin(items)

    def _validate(self, item, observed, floors, kind):
        if self.log is None or floors is None or observed is None:
            return True
        return self.log.validate(item, observed, floors, kind=kind)

    # -- RDBMS compute functions (read-session misses) ------------------------------

    def _connection(self):
        return self.db.connect()

    def _compute_profile(self, member):
        def compute():
            connection = self._connection()
            try:
                row = connection.query_one(
                    "SELECT * FROM users WHERE userid = ?", (member,)
                )
                self._delay(self.compute_delay)
                return None if row is None else encode(row.as_dict())
            finally:
                connection.close()
        return compute

    def _compute_count(self, member, column):
        def compute():
            connection = self._connection()
            try:
                value = connection.query_scalar(
                    "SELECT {} FROM users WHERE userid = ?".format(column),
                    (member,),
                )
                self._delay(self.compute_delay)
                return None if value is None else encode(int(value))
            finally:
                connection.close()
        return compute

    def _compute_friend_ids(self, member):
        def compute():
            connection = self._connection()
            try:
                rows = connection.execute(
                    "SELECT inviteeid FROM friendship"
                    " WHERE inviterid = ? AND status = ?",
                    (member, STATUS_CONFIRMED),
                )
                ids = [row[0] for row in rows]
                self._delay(self.compute_delay)
                if self.technique is Technique.DELTA:
                    return encode_id_csv(ids)
                return encode_id_list(ids)
            finally:
                connection.close()
        return compute

    def _compute_pending_ids(self, member):
        def compute():
            connection = self._connection()
            try:
                rows = connection.execute(
                    "SELECT inviterid FROM friendship"
                    " WHERE inviteeid = ? AND status = ?",
                    (member, STATUS_PENDING),
                )
                ids = [row[0] for row in rows]
                self._delay(self.compute_delay)
                if self.technique is Technique.DELTA:
                    return encode_id_csv(ids)
                return encode_id_list(ids)
            finally:
                connection.close()
        return compute

    # -- read actions -------------------------------------------------------------

    def view_profile(self, member):
        """Read the member's profile; validates both counters."""
        items = [("pendingcount", member), ("friendcount", member)]
        floors = self._read_begin(items)
        if self.technique is Technique.DELTA:
            body = decode(
                self.client.read(
                    self.keys.profile(member), self._compute_profile(member)
                )
            )
            pending = decode(
                self.client.read(
                    self.keys.pending_count(member),
                    self._compute_count(member, "pendingcount"),
                )
            )
            friends = decode(
                self.client.read(
                    self.keys.friend_count(member),
                    self._compute_count(member, "friendcount"),
                )
            )
            profile = dict(body or {})
            profile["pendingcount"] = pending
            profile["friendcount"] = friends
        else:
            profile = decode(
                self.client.read(
                    self.keys.profile(member), self._compute_profile(member)
                )
            )
            pending = profile["pendingcount"] if profile else None
            friends = profile["friendcount"] if profile else None
        self._validate(
            ("pendingcount", member), pending, floors, "pendingcount"
        )
        self._validate(("friendcount", member), friends, floors, "friendcount")
        return profile

    def list_friends(self, member):
        """Read the member's confirmed friends; validates the id set."""
        items = [("friends", member)]
        floors = self._read_begin(items)
        data = self.client.read(
            self.keys.friends(member), self._compute_friend_ids(member)
        )
        observed = decode_id_set(data)
        self._validate(("friends", member), observed, floors, "friends")
        return observed

    def view_friend_requests(self, member):
        """Read pending invitations extended to the member."""
        items = [("pending", member)]
        floors = self._read_begin(items)
        data = self.client.read(
            self.keys.pending_friends(member),
            self._compute_pending_ids(member),
        )
        observed = decode_id_set(data)
        self._validate(("pending", member), observed, floors, "pending")
        return observed

    def view_top_k_resources(self, member):
        """Top-K resources on the member's wall (immutable workload)."""
        def compute():
            connection = self._connection()
            try:
                rows = connection.execute(
                    "SELECT rid, creatorid, walluserid, type, body"
                    " FROM resources WHERE walluserid = ?"
                    " ORDER BY rid DESC LIMIT ?",
                    (member, self.TOP_K),
                )
                return encode([row.as_dict() for row in rows])
            finally:
                connection.close()

        return decode(
            self.client.read(self.keys.top_resources(member), compute)
        )

    def view_comments_on_resource(self, resource_id):
        """Comments posted on one resource; validates the mid set."""
        items = [("comments", resource_id)]
        floors = self._read_begin(items)

        def compute():
            connection = self._connection()
            try:
                rows = connection.execute(
                    "SELECT mid, creatorid, modifierid, timestamp, content"
                    " FROM manipulations WHERE rid = ? ORDER BY mid",
                    (resource_id,),
                )
                return encode([row.as_dict() for row in rows])
            finally:
                connection.close()

        comments = decode(
            self.client.read(
                self.keys.resource_comments(resource_id), compute
            )
        )
        observed = (
            None if comments is None
            else frozenset(comment["mid"] for comment in comments)
        )
        self._validate(("comments", resource_id), observed, floors,
                       "comments")
        return comments

    # -- refresher builders -----------------------------------------------------------

    @staticmethod
    def _adjust_profile(d_pending=0, d_friends=0):
        def refresher(old):
            if old is None:
                return None
            profile = decode(old)
            profile["pendingcount"] += d_pending
            profile["friendcount"] += d_friends
            return encode(profile)
        return refresher

    @staticmethod
    def _set_add(member):
        def refresher(old):
            if old is None:
                return None
            ids = set(decode(old))
            ids.add(member)
            return encode_id_list(ids)
        return refresher

    @staticmethod
    def _set_remove(member):
        def refresher(old):
            if old is None:
                return None
            ids = set(decode(old))
            ids.discard(member)
            return encode_id_list(ids)
        return refresher

    # -- ground-truth recording helpers --------------------------------------------------

    def _record_member_state(self, session, member, count_columns, sets):
        """Capture post-DML values inside the transaction and record them
        at commit.  ``count_columns`` maps item-kind to users column;
        ``sets`` is a list of ("pending"|"friends") kinds to snapshot."""
        if self.log is None:
            return
        recordings = []
        for kind, column in count_columns.items():
            value = session.query_scalar(
                "SELECT {} FROM users WHERE userid = ?".format(column),
                (member,),
            )
            recordings.append(((kind, member), int(value)))
        for kind in sets:
            if kind == "pending":
                rows = session.execute(
                    "SELECT inviterid FROM friendship"
                    " WHERE inviteeid = ? AND status = ?",
                    (member, STATUS_PENDING),
                )
            else:
                rows = session.execute(
                    "SELECT inviteeid FROM friendship"
                    " WHERE inviterid = ? AND status = ?",
                    (member, STATUS_CONFIRMED),
                )
            recordings.append(
                ((kind, member), frozenset(row[0] for row in rows))
            )
        log = self.log
        session.on_commit(
            lambda: [log.record(item, value) for item, value in recordings]
        )

    def _write(self, items, sql_body, changes):
        """Run a write session under the validation write protocol."""
        handle = self.log.write_begin(items) if self.log is not None else None
        try:
            return self.client.write(sql_body, changes)
        finally:
            if handle is not None:
                self.log.write_end(handle)

    # -- write actions -------------------------------------------------------------------

    def invite_friend(self, inviter, invitee):
        """Insert a pending invitation; impacts 2 keys of the invitee."""
        items = [("pendingcount", invitee), ("pending", invitee)]

        def sql_body(session):
            session.execute(
                "INSERT INTO friendship (inviterid, inviteeid, status)"
                " VALUES (?, ?, ?)",
                (inviter, invitee, STATUS_PENDING),
            )
            session.execute(
                "UPDATE users SET pendingcount = pendingcount + 1"
                " WHERE userid = ?",
                (invitee,),
            )
            self._record_member_state(
                session, invitee, {"pendingcount": "pendingcount"}, ["pending"]
            )
            self._delay(self.write_delay)
            return "invite"

        technique = self.technique
        if technique is Technique.INVALIDATE or technique is Technique.CLOCK:
            changes = [
                KeyChange(self.keys.profile(invitee)),
                KeyChange(self.keys.pending_friends(invitee)),
            ]
        elif technique is Technique.REFRESH:
            changes = [
                KeyChange(
                    self.keys.profile(invitee),
                    refresher=self._adjust_profile(d_pending=1),
                ),
                KeyChange(
                    self.keys.pending_friends(invitee),
                    refresher=self._set_add(inviter),
                ),
            ]
        else:
            changes = [
                KeyChange(
                    self.keys.pending_count(invitee), deltas=[("incr", 1)]
                ),
                KeyChange(
                    self.keys.pending_friends(invitee),
                    deltas=[
                        ("append", "{},".format(inviter).encode("ascii"))
                    ],
                ),
            ]
        return self._write(items, sql_body, changes)

    def accept_friend_request(self, inviter, invitee):
        """Confirm a pending invitation; impacts 5 keys (paper Section 6.1)."""
        items = [
            ("pendingcount", invitee),
            ("pending", invitee),
            ("friendcount", inviter),
            ("friendcount", invitee),
            ("friends", inviter),
            ("friends", invitee),
        ]

        def sql_body(session):
            session.execute(
                "UPDATE friendship SET status = ?"
                " WHERE inviterid = ? AND inviteeid = ?",
                (STATUS_CONFIRMED, inviter, invitee),
            )
            session.execute(
                "INSERT INTO friendship (inviterid, inviteeid, status)"
                " VALUES (?, ?, ?)",
                (invitee, inviter, STATUS_CONFIRMED),
            )
            session.execute(
                "UPDATE users SET pendingcount = pendingcount - 1,"
                " friendcount = friendcount + 1 WHERE userid = ?",
                (invitee,),
            )
            session.execute(
                "UPDATE users SET friendcount = friendcount + 1"
                " WHERE userid = ?",
                (inviter,),
            )
            self._record_member_state(
                session, invitee,
                {"pendingcount": "pendingcount", "friendcount": "friendcount"},
                ["pending", "friends"],
            )
            self._record_member_state(
                session, inviter, {"friendcount": "friendcount"}, ["friends"]
            )
            self._delay(self.write_delay)
            return "accept"

        technique = self.technique
        if technique is Technique.INVALIDATE or technique is Technique.CLOCK:
            changes = [
                KeyChange(self.keys.profile(inviter)),
                KeyChange(self.keys.profile(invitee)),
                KeyChange(self.keys.friends(inviter)),
                KeyChange(self.keys.friends(invitee)),
                KeyChange(self.keys.pending_friends(invitee)),
            ]
        elif technique is Technique.REFRESH:
            changes = [
                KeyChange(
                    self.keys.profile(inviter),
                    refresher=self._adjust_profile(d_friends=1),
                ),
                KeyChange(
                    self.keys.profile(invitee),
                    refresher=self._adjust_profile(d_pending=-1, d_friends=1),
                ),
                KeyChange(
                    self.keys.friends(inviter),
                    refresher=self._set_add(invitee),
                ),
                KeyChange(
                    self.keys.friends(invitee),
                    refresher=self._set_add(inviter),
                ),
                KeyChange(
                    self.keys.pending_friends(invitee),
                    refresher=self._set_remove(inviter),
                ),
            ]
        else:
            changes = [
                KeyChange(
                    self.keys.friend_count(inviter), deltas=[("incr", 1)]
                ),
                KeyChange(
                    self.keys.friend_count(invitee), deltas=[("incr", 1)]
                ),
                KeyChange(
                    self.keys.pending_count(invitee), deltas=[("decr", 1)]
                ),
                KeyChange(
                    self.keys.friends(inviter),
                    deltas=[
                        ("append", "{},".format(invitee).encode("ascii"))
                    ],
                ),
                KeyChange(
                    self.keys.friends(invitee),
                    deltas=[
                        ("append", "{},".format(inviter).encode("ascii"))
                    ],
                ),
                KeyChange(
                    self.keys.pending_friends(invitee), invalidate=True
                ),
            ]
        return self._write(items, sql_body, changes)

    def reject_friend_request(self, inviter, invitee):
        """Remove a pending invitation; impacts 2 keys of the invitee."""
        items = [("pendingcount", invitee), ("pending", invitee)]

        def sql_body(session):
            session.execute(
                "DELETE FROM friendship"
                " WHERE inviterid = ? AND inviteeid = ? AND status = ?",
                (inviter, invitee, STATUS_PENDING),
            )
            session.execute(
                "UPDATE users SET pendingcount = pendingcount - 1"
                " WHERE userid = ?",
                (invitee,),
            )
            self._record_member_state(
                session, invitee, {"pendingcount": "pendingcount"}, ["pending"]
            )
            self._delay(self.write_delay)
            return "reject"

        technique = self.technique
        if technique is Technique.INVALIDATE or technique is Technique.CLOCK:
            changes = [
                KeyChange(self.keys.profile(invitee)),
                KeyChange(self.keys.pending_friends(invitee)),
            ]
        elif technique is Technique.REFRESH:
            changes = [
                KeyChange(
                    self.keys.profile(invitee),
                    refresher=self._adjust_profile(d_pending=-1),
                ),
                KeyChange(
                    self.keys.pending_friends(invitee),
                    refresher=self._set_remove(inviter),
                ),
            ]
        else:
            changes = [
                KeyChange(
                    self.keys.pending_count(invitee), deltas=[("decr", 1)]
                ),
                KeyChange(
                    self.keys.pending_friends(invitee), invalidate=True
                ),
            ]
        return self._write(items, sql_body, changes)

    def thaw_friendship(self, member_a, member_b):
        """Dissolve a confirmed friendship; impacts 4 keys (paper 6.1)."""
        items = [
            ("friendcount", member_a),
            ("friendcount", member_b),
            ("friends", member_a),
            ("friends", member_b),
        ]

        def sql_body(session):
            session.execute(
                "DELETE FROM friendship"
                " WHERE inviterid = ? AND inviteeid = ? AND status = ?",
                (member_a, member_b, STATUS_CONFIRMED),
            )
            session.execute(
                "DELETE FROM friendship"
                " WHERE inviterid = ? AND inviteeid = ? AND status = ?",
                (member_b, member_a, STATUS_CONFIRMED),
            )
            session.execute(
                "UPDATE users SET friendcount = friendcount - 1"
                " WHERE userid = ?",
                (member_a,),
            )
            session.execute(
                "UPDATE users SET friendcount = friendcount - 1"
                " WHERE userid = ?",
                (member_b,),
            )
            self._record_member_state(
                session, member_a, {"friendcount": "friendcount"}, ["friends"]
            )
            self._record_member_state(
                session, member_b, {"friendcount": "friendcount"}, ["friends"]
            )
            self._delay(self.write_delay)
            return "thaw"

        technique = self.technique
        if technique is Technique.INVALIDATE or technique is Technique.CLOCK:
            changes = [
                KeyChange(self.keys.profile(member_a)),
                KeyChange(self.keys.profile(member_b)),
                KeyChange(self.keys.friends(member_a)),
                KeyChange(self.keys.friends(member_b)),
            ]
        elif technique is Technique.REFRESH:
            changes = [
                KeyChange(
                    self.keys.profile(member_a),
                    refresher=self._adjust_profile(d_friends=-1),
                ),
                KeyChange(
                    self.keys.profile(member_b),
                    refresher=self._adjust_profile(d_friends=-1),
                ),
                KeyChange(
                    self.keys.friends(member_a),
                    refresher=self._set_remove(member_b),
                ),
                KeyChange(
                    self.keys.friends(member_b),
                    refresher=self._set_remove(member_a),
                ),
            ]
        else:
            changes = [
                KeyChange(
                    self.keys.friend_count(member_a), deltas=[("decr", 1)]
                ),
                KeyChange(
                    self.keys.friend_count(member_b), deltas=[("decr", 1)]
                ),
                KeyChange(self.keys.friends(member_a), invalidate=True),
                KeyChange(self.keys.friends(member_b), invalidate=True),
            ]
        return self._write(items, sql_body, changes)

    # -- comment actions (BG's extended action set, beyond Table 5) -------------------

    def _next_mid(self):
        """Allocate a unique manipulation id (lazy max+1 seed)."""
        with self._mid_lock:
            if self._mid_counter is None:
                connection = self._connection()
                try:
                    top = connection.query_scalar(
                        "SELECT MAX(mid) FROM manipulations"
                    )
                finally:
                    connection.close()
                self._mid_counter = itertools.count(
                    (top if top is not None else -1) + 1
                )
            return next(self._mid_counter)

    def _record_comment_state(self, session, resource_id):
        if self.log is None:
            return
        rows = session.execute(
            "SELECT mid FROM manipulations WHERE rid = ?", (resource_id,)
        )
        members = frozenset(r[0] for r in rows)
        log = self.log
        session.on_commit(
            lambda: log.record(("comments", resource_id), members)
        )

    def _comment_changes(self, resource_id, refresher):
        key = self.keys.resource_comments(resource_id)
        if self.technique in (Technique.INVALIDATE, Technique.CLOCK):
            return [KeyChange(key)]
        if self.technique is Technique.REFRESH:
            return [KeyChange(key, refresher=refresher)]
        # Incremental update: a JSON comment list has no delta operator;
        # invalidate the key (the paper's mixed-technique usage).
        return [KeyChange(key, invalidate=True)]

    def post_comment(self, commenter, resource_id, content="..."):
        """Post a comment on a resource (write action)."""
        mid = self._next_mid()
        items = [("comments", resource_id)]
        comment = {
            "mid": mid,
            "creatorid": commenter,
            "modifierid": commenter,
            "timestamp": "2014-06-15",
            "content": content,
        }

        def sql_body(session):
            session.execute(
                "INSERT INTO manipulations (mid, creatorid, rid,"
                " modifierid, timestamp, type, content)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (mid, commenter, resource_id, commenter,
                 comment["timestamp"], "comment", content),
            )
            # The denormalized count serializes concurrent comment writes
            # on one resource (write-write conflict on the resource row),
            # exactly as pendingcount does for invitations.
            session.execute(
                "UPDATE resources SET commentcount = commentcount + 1"
                " WHERE rid = ?",
                (resource_id,),
            )
            self._record_comment_state(session, resource_id)
            self._delay(self.write_delay)
            return mid

        def refresher(old):
            if old is None:
                return None
            comments = decode(old)
            comments.append(comment)
            return encode(comments)

        return self._write(
            items, sql_body, self._comment_changes(resource_id, refresher)
        )

    def delete_comment(self, resource_id):
        """Delete the newest comment on a resource, if any (write action).

        Returns ``None`` (no session ran) when the resource has no
        comments.
        """
        connection = self._connection()
        try:
            mid = connection.query_scalar(
                "SELECT MAX(mid) FROM manipulations WHERE rid = ?",
                (resource_id,),
            )
        finally:
            connection.close()
        if mid is None:
            return None
        items = [("comments", resource_id)]

        def sql_body(session):
            removed = session.execute(
                "DELETE FROM manipulations WHERE mid = ?", (mid,)
            )
            if removed.rowcount:
                session.execute(
                    "UPDATE resources SET commentcount = commentcount - 1"
                    " WHERE rid = ?",
                    (resource_id,),
                )
                # Recording is only sound when this session serialized
                # against concurrent comment writers (via the count row);
                # a no-op delete changes nothing and must not record its
                # possibly-concurrent snapshot.
                self._record_comment_state(session, resource_id)
            self._delay(self.write_delay)
            return mid

        def refresher(old):
            if old is None:
                return None
            comments = [c for c in decode(old) if c["mid"] != mid]
            return encode(comments)

        return self._write(
            items, sql_body, self._comment_changes(resource_id, refresher)
        )
