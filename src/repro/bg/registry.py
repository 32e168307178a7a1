"""Operand selection for BG's write actions.

Write actions need *logically valid* operands: Invite Friend requires a
pair that is neither friends nor pending; Accept/Reject require an actual
pending invitation; Thaw requires a confirmed friendship.  BG achieves
this by tracking the social graph's state in the driver.  The registry
mirrors the graph (updated at action completion) and *claims* pairs so two
in-flight write actions never target the same friendship row -- mirroring
real user behaviour, where one member cannot accept the same invitation
twice concurrently.  Different pairs sharing a member still contend on
that member's profile counters, which is exactly the contention the
paper's races live on.
"""

import bisect
import threading


def _canonical(a, b):
    return (a, b) if a <= b else (b, a)


class ClaimedPair:
    """A claimed friendship pair handed to a write action."""

    __slots__ = ("inviter", "invitee", "kind")

    def __init__(self, inviter, invitee, kind):
        self.inviter = inviter
        self.invitee = invitee
        self.kind = kind

    def __repr__(self):
        return "ClaimedPair({} -> {}, {})".format(
            self.inviter, self.invitee, self.kind
        )


class FriendshipRegistry:
    """Thread-safe ground truth of pair states plus in-flight claims."""

    def __init__(self, graph):
        self.graph = graph
        self._lock = threading.Lock()
        #: member -> set of confirmed friends
        self._friends = {
            m: set(graph.initial_friends(m)) for m in graph.member_ids()
        }
        #: invitee -> set of inviters with a pending invitation
        self._pending_in = {m: set() for m in graph.member_ids()}
        #: canonical pairs currently claimed by an in-flight write action
        self._claimed = set()
        #: sorted invitees holding at least one unclaimed invitation: the
        #: sweep in claim_pending looks here instead of probing everyone
        self._open_invitees = []

    # -- selection ---------------------------------------------------------------

    def claim_invite(self, rng, attempts=16, invitee_sampler=None):
        """Claim a pair with no relationship for Invite Friend, or None.

        ``invitee_sampler`` optionally biases invitee selection (e.g. a
        Zipfian sampler, so popular members receive more invitations --
        the regime where concurrent write sessions contend on one
        member's keys).
        """
        members = self.graph.config.members
        with self._lock:
            for _ in range(attempts):
                inviter = rng.randrange(members)
                invitee = (
                    invitee_sampler() if invitee_sampler is not None
                    else rng.randrange(members)
                )
                if inviter == invitee:
                    continue
                pair = _canonical(inviter, invitee)
                if pair in self._claimed:
                    continue
                if invitee in self._friends[inviter]:
                    continue
                if inviter in self._pending_in[invitee]:
                    continue
                if invitee in self._pending_in[inviter]:
                    continue
                self._claimed.add(pair)
                return ClaimedPair(inviter, invitee, "invite")
            return None

    def claim_pending(self, rng, kind, attempts=16):
        """Claim an existing pending invitation (accept/reject), or None.

        Random probing finds hot invitees quickly; when invitations are
        sparse a deterministic sweep guarantees one is found if any
        unclaimed invitation exists.
        """
        members = self.graph.config.members
        with self._lock:
            for _ in range(attempts):
                invitee = rng.randrange(members)
                claim = self._try_claim_pending_of(invitee, kind)
                if claim is not None:
                    return claim
            # The first invitee at or after ``start``, wrapping around,
            # that holds an unclaimed invitation.
            start = rng.randrange(members)
            index = self._open_invitees
            if not index:
                return None
            at = bisect.bisect_left(index, start)
            invitee = index[at] if at < len(index) else index[0]
            return self._try_claim_pending_of(invitee, kind)

    def _try_claim_pending_of(self, invitee, kind):
        """Caller holds the lock: claim one of ``invitee``'s invitations."""
        for inviter in self._pending_in[invitee]:
            pair = _canonical(inviter, invitee)
            if pair not in self._claimed:
                self._claimed.add(pair)
                self._reindex(invitee)
                return ClaimedPair(inviter, invitee, kind)
        return None

    def _reindex(self, invitee):
        """Caller holds the lock: keep ``invitee`` in the sorted index
        exactly while it holds an unclaimed invitation."""
        claimed = self._claimed
        holds = any(
            _canonical(inviter, invitee) not in claimed
            for inviter in self._pending_in[invitee]
        )
        index = self._open_invitees
        at = bisect.bisect_left(index, invitee)
        listed = at < len(index) and index[at] == invitee
        if holds and not listed:
            index.insert(at, invitee)
        elif listed and not holds:
            del index[at]

    def claim_confirmed(self, rng, attempts=16):
        """Claim a confirmed friendship for Thaw Friendship, or None."""
        members = self.graph.config.members
        with self._lock:
            for _ in range(attempts):
                member = rng.randrange(members)
                candidates = self._friends[member]
                if not candidates:
                    continue
                friend = next(iter(candidates))
                pair = _canonical(member, friend)
                if pair in self._claimed:
                    continue
                self._claimed.add(pair)
                return ClaimedPair(member, friend, "thaw")
            return None

    # -- completion --------------------------------------------------------------

    def complete(self, claim, succeeded=True):
        """Apply the state change of a finished action and release the claim."""
        pair = _canonical(claim.inviter, claim.invitee)
        with self._lock:
            self._claimed.discard(pair)
            if succeeded:
                if claim.kind == "invite":
                    self._pending_in[claim.invitee].add(claim.inviter)
                elif claim.kind == "accept":
                    self._pending_in[claim.invitee].discard(claim.inviter)
                    self._friends[claim.inviter].add(claim.invitee)
                    self._friends[claim.invitee].add(claim.inviter)
                elif claim.kind == "reject":
                    self._pending_in[claim.invitee].discard(claim.inviter)
                elif claim.kind == "thaw":
                    self._friends[claim.inviter].discard(claim.invitee)
                    self._friends[claim.invitee].discard(claim.inviter)
            # The pair's invitation (a pair is never pending the other
            # way) may have become claimable again, or gone.
            self._reindex(claim.invitee)

    # -- introspection ------------------------------------------------------------

    def pending_count(self, member):
        with self._lock:
            return len(self._pending_in[member])

    def friend_count(self, member):
        with self._lock:
            return len(self._friends[member])

    def total_pending(self):
        with self._lock:
            return sum(len(s) for s in self._pending_in.values())
