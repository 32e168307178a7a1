"""Consistent-hash ring with virtual nodes and topology epochs.

The IQ framework's CMT deployments (and the memcached fleets they model,
Nishtala et al. NSDI'13) partition the key space across cache servers
with consistent hashing: each physical node is hashed onto a ring at
many *virtual* points, and a key is owned by the first node clockwise
from the key's hash.  Virtual nodes smooth the load split (with ``V``
points per node the expected imbalance shrinks as ``1/sqrt(V)``) and
make adding or removing one node remap only ``~1/N`` of the keys.

**Epochs.**  Every mutation (``add_node``/``remove_node``/``bump_epoch``)
advances a monotonically increasing :attr:`epoch`.  :meth:`view` snapshots
the current arrangement as an immutable :class:`RingView`, and a view can
derive the *would-be* next arrangement (:meth:`RingView.with_node` /
:meth:`RingView.without_node`) without touching the live ring -- that is
what lets the router run a dual-epoch window: route by the current view
while a migration prepares the target view, then flip atomically.

**Changed intervals.**  ``add_node``/``remove_node`` return the list of
:class:`OwnershipChange` ring arcs whose owner changed, so callers can
reason about exactly which key ranges moved instead of rehashing every
key.  Each arc is half-open ``(start, end]`` in 64-bit ring position
space (a key at position ``p`` is owned by the first vnode point
clockwise from ``p``, i.e. by the point closing the arc it falls in).

The ring is deliberately independent of what a "node" is -- it maps keys
to opaque node identifiers.  :class:`~repro.sharding.router.
ShardedIQServer` resolves identifiers to :class:`~repro.core.backend.
LeaseBackend` instances.

Mutations are serialized by the ring's own lock; the router additionally
serializes topology changes under its router lock so a flip and a route
can never interleave halfway (the flip is one locked splice).

**Owner memo.**  A lookup hashes the key (MD5) and bisects the points;
the live ring remembers each answer in a dict of at most
:data:`MEMO_CAP` keys, so a key routed before costs one dict probe.  The
memo is filled under the ring's lock and *replaced* under it by every
``add_node``/``remove_node``, so no answer outlives the arrangement it
was computed from; a full memo starts over empty.
"""

import bisect
import hashlib
import threading

__all__ = [
    "ConsistentHashRing",
    "OwnershipChange",
    "RingView",
    "ownership_diff",
]


#: most keys :meth:`ConsistentHashRing.node_for` remembers owners for
MEMO_CAP = 1 << 15


def _hash(data):
    """64-bit ring position for ``data`` (bytes)."""
    return int.from_bytes(hashlib.md5(data).digest()[:8], "big")


def _encode_key(key):
    return key.encode("utf-8") if isinstance(key, str) else key


def _vnode_points(node, vnodes):
    encoded = node.encode("utf-8") if isinstance(node, str) else node
    return [
        _hash(encoded + b"#" + str(i).encode("ascii"))
        for i in range(vnodes)
    ]


class OwnershipChange:
    """One ring arc whose owner changed during a topology mutation.

    Keys whose 64-bit hash falls in the half-open arc ``(start, end]``
    moved from ``old_owner`` to ``new_owner``.  ``start == end`` denotes
    the full circle (first node added / last node removed), in which
    case ``old_owner`` or ``new_owner`` is ``None``.
    """

    __slots__ = ("start", "end", "old_owner", "new_owner")

    def __init__(self, start, end, old_owner, new_owner):
        self.start = start
        self.end = end
        self.old_owner = old_owner
        self.new_owner = new_owner

    def covers_position(self, position):
        if self.start == self.end:
            return True  # full circle
        if self.start < self.end:
            return self.start < position <= self.end
        # the arc wraps past the top of the ring
        return position > self.start or position <= self.end

    def covers(self, key):
        """Whether ``key`` hashes into this arc."""
        return self.covers_position(_hash(_encode_key(key)))

    def _astuple(self):
        return (self.start, self.end, self.old_owner, self.new_owner)

    def __eq__(self, other):
        if not isinstance(other, OwnershipChange):
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return "OwnershipChange(({:#x}, {:#x}]: {!r} -> {!r})".format(
            self.start, self.end, self.old_owner, self.new_owner
        )


class RingView:
    """An immutable ownership snapshot at one topology epoch.

    Routing against a view is lock-free and stable: the live ring may
    mutate underneath, the view never does.  :meth:`with_node` /
    :meth:`without_node` derive the arrangement the next epoch *would*
    have -- the dual-epoch routing window routes against both.
    """

    __slots__ = ("epoch", "vnodes", "_points", "_owners", "_nodes")

    def __init__(self, epoch, vnodes, points, owners, nodes):
        self.epoch = epoch
        self.vnodes = vnodes
        self._points = points
        self._owners = owners
        self._nodes = nodes

    @property
    def nodes(self):
        return sorted(self._nodes)

    def __len__(self):
        return len(self._nodes)

    def __contains__(self, node):
        return node in self._nodes

    def node_for(self, key):
        """The node identifier owning ``key`` in this snapshot."""
        if not self._points:
            raise ValueError("ring view has no nodes")
        index = bisect.bisect(self._points, _hash(_encode_key(key)))
        if index == len(self._points):
            index = 0  # wrap past the highest point
        return self._owners[index]

    def spread(self, keys):
        """Map each node to how many of ``keys`` it owns (load check)."""
        counts = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts

    def with_node(self, node):
        """The arrangement after adding ``node`` (epoch + 1), as a view."""
        if node in self._nodes:
            raise ValueError("node {!r} already on the ring".format(node))
        points = list(self._points)
        owners = list(self._owners)
        for point in _vnode_points(node, self.vnodes):
            index = bisect.bisect(points, point)
            points.insert(index, point)
            owners.insert(index, node)
        return RingView(
            self.epoch + 1, self.vnodes, tuple(points), tuple(owners),
            frozenset(self._nodes | {node}),
        )

    def without_node(self, node):
        """The arrangement after removing ``node`` (epoch + 1), as a view."""
        if node not in self._nodes:
            raise ValueError("node {!r} is not on the ring".format(node))
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        return RingView(
            self.epoch + 1, self.vnodes,
            tuple(point for point, _owner in keep),
            tuple(owner for _point, owner in keep),
            frozenset(self._nodes - {node}),
        )


def ownership_diff(old_view, new_view, keys):
    """``{key: (old_owner, new_owner)}`` for keys whose owner differs.

    The per-key companion to the :class:`OwnershipChange` arcs: given
    two epochs' views and a concrete key population, report exactly
    which keys move where (the ``spread`` diff between epochs).
    """
    moves = {}
    for key in keys:
        old_owner = old_view.node_for(key)
        new_owner = new_view.node_for(key)
        if old_owner != new_owner:
            moves[key] = (old_owner, new_owner)
    return moves


class ConsistentHashRing:
    """Maps keys to node identifiers with virtual-node consistent hashing.

    ``vnodes`` is the number of ring points per node.  Node identifiers
    may be any strings; keys may be ``str`` or ``bytes``.
    """

    def __init__(self, nodes=(), vnodes=64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._lock = threading.Lock()
        #: sorted virtual-point positions and their parallel owner list
        self._points = []
        self._owners = []
        self._nodes = set()
        #: key -> owner under the current arrangement (see module doc)
        self._memo = {}
        #: advances on every topology mutation
        self.epoch = 0
        for node in nodes:
            self.add_node(node)

    def _vnode_points(self, node):
        return _vnode_points(node, self.vnodes)

    def add_node(self, node):
        """Place ``node`` on the ring at ``vnodes`` points.

        Returns the list of :class:`OwnershipChange` arcs that moved to
        ``node`` -- one per inserted vnode point, each covering the keys
        between the point's new ring predecessor and the point itself.
        """
        with self._lock:
            if node in self._nodes:
                raise ValueError("node {!r} already on the ring".format(node))
            old_points = list(self._points)
            old_owners = list(self._owners)
            self._nodes.add(node)
            new_points = sorted(self._vnode_points(node))
            for point in new_points:
                index = bisect.bisect(self._points, point)
                self._points.insert(index, point)
                self._owners.insert(index, node)
            self._memo = {}
            self.epoch += 1
            if not old_points:
                return [OwnershipChange(0, 0, None, node)]
            changes = []
            for point in new_points:
                index = bisect.bisect_left(self._points, point)
                predecessor = self._points[index - 1]  # wraps at index 0
                old_index = bisect.bisect(old_points, point)
                old_owner = old_owners[old_index % len(old_points)]
                changes.append(
                    OwnershipChange(predecessor, point, old_owner, node)
                )
            return changes

    def remove_node(self, node):
        """Take ``node`` off the ring; its key ranges fall to successors.

        Returns the list of :class:`OwnershipChange` arcs that left
        ``node`` -- one per removed vnode point, each covering the keys
        the point owned, now owned by the point's successor in the
        shrunk ring.
        """
        with self._lock:
            if node not in self._nodes:
                raise ValueError("node {!r} is not on the ring".format(node))
            self._nodes.discard(node)
            old_points = list(self._points)
            old_owners = list(self._owners)
            keep = [
                (point, owner)
                for point, owner in zip(old_points, old_owners)
                if owner != node
            ]
            self._points = [point for point, _owner in keep]
            self._owners = [owner for _point, owner in keep]
            self._memo = {}
            self.epoch += 1
            if not self._points:
                return [OwnershipChange(0, 0, node, None)]
            changes = []
            for index, (point, owner) in enumerate(
                zip(old_points, old_owners)
            ):
                if owner != node:
                    continue
                predecessor = old_points[index - 1]  # wraps at index 0
                new_index = bisect.bisect(self._points, point)
                new_owner = self._owners[new_index % len(self._points)]
                changes.append(
                    OwnershipChange(predecessor, point, node, new_owner)
                )
            return changes

    def bump_epoch(self):
        """Advance the epoch without changing ownership.

        Used when a shard's *backend* is swapped in place (warm-replica
        promotion keeps the ring name, so ownership is unchanged but
        observers must see a topology event).  Returns the new epoch.
        """
        with self._lock:
            self.epoch += 1
            return self.epoch

    def view(self):
        """An immutable :class:`RingView` of the current arrangement."""
        with self._lock:
            return RingView(
                self.epoch, self.vnodes, tuple(self._points),
                tuple(self._owners), frozenset(self._nodes),
            )

    @property
    def nodes(self):
        with self._lock:
            return sorted(self._nodes)

    def __len__(self):
        return len(self.nodes)

    def node_for(self, key):
        """The node identifier owning ``key``."""
        owner = self._memo.get(key)
        if owner is not None:
            return owner
        position = _hash(_encode_key(key))
        with self._lock:
            if not self._points:
                raise ValueError("ring has no nodes")
            index = bisect.bisect(self._points, position)
            if index == len(self._points):
                index = 0  # wrap past the highest point
            owner = self._owners[index]
            memo = self._memo
            if len(memo) >= MEMO_CAP:
                memo = self._memo = {}
            memo[key] = owner
            return owner

    def spread(self, keys):
        """Map each node to how many of ``keys`` it owns (load check)."""
        counts = {node: 0 for node in self.nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
