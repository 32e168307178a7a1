import random

import pytest

from repro.bg.graph import SocialGraph
from repro.bg.registry import FriendshipRegistry
from repro.config import BGConfig


@pytest.fixture
def registry():
    graph = SocialGraph(
        BGConfig(members=30, friends_per_member=4, resources_per_member=1)
    )
    return FriendshipRegistry(graph)


def test_claim_invite_avoids_existing_relationships(registry):
    rng = random.Random(1)
    for _ in range(20):
        claim = registry.claim_invite(rng)
        assert claim is not None
        assert claim.invitee not in registry._friends[claim.inviter]
        registry.complete(claim, succeeded=True)


def test_invite_then_accept_updates_counts(registry):
    rng = random.Random(2)
    claim = registry.claim_invite(rng)
    invitee = claim.invitee
    registry.complete(claim, succeeded=True)
    assert registry.pending_count(invitee) == 1

    pending = registry.claim_pending(rng, "accept")
    assert pending is not None
    before = registry.friend_count(pending.invitee)
    registry.complete(pending, succeeded=True)
    assert registry.pending_count(pending.invitee) == 0
    assert registry.friend_count(pending.invitee) == before + 1


def test_reject_removes_pending_without_friendship(registry):
    rng = random.Random(3)
    claim = registry.claim_invite(rng)
    registry.complete(claim, succeeded=True)
    reject = registry.claim_pending(rng, "reject")
    friends_before = registry.friend_count(reject.invitee)
    registry.complete(reject, succeeded=True)
    assert registry.total_pending() == 0
    assert registry.friend_count(reject.invitee) == friends_before


def test_thaw_removes_friendship_both_sides(registry):
    rng = random.Random(4)
    claim = registry.claim_confirmed(rng)
    assert claim is not None
    a, b = claim.inviter, claim.invitee
    registry.complete(claim, succeeded=True)
    assert b not in registry._friends[a]
    assert a not in registry._friends[b]


def test_claims_exclude_pairs_in_flight(registry):
    rng = random.Random(5)
    claim = registry.claim_confirmed(rng)
    # The same canonical pair cannot be claimed again until completion.
    for _ in range(50):
        other = registry.claim_confirmed(rng)
        if other is None:
            continue
        assert {other.inviter, other.invitee} != {claim.inviter, claim.invitee}
        registry.complete(other, succeeded=False)
    registry.complete(claim, succeeded=False)


def test_failed_action_reverts_nothing(registry):
    rng = random.Random(6)
    claim = registry.claim_invite(rng)
    registry.complete(claim, succeeded=False)
    assert registry.total_pending() == 0


def test_claim_pending_empty_returns_none(registry):
    assert registry.claim_pending(random.Random(7), "accept") is None


class SweepRegistry(FriendshipRegistry):
    """claim_pending as it was before the open-invitee index: the sweep
    probes every member from a random start."""

    def claim_pending(self, rng, kind, attempts=16):
        members = self.graph.config.members
        with self._lock:
            for _ in range(attempts):
                claim = self._try_claim_pending_of(
                    rng.randrange(members), kind
                )
                if claim is not None:
                    return claim
            start = rng.randrange(members)
            for offset in range(members):
                claim = self._try_claim_pending_of(
                    (start + offset) % members, kind
                )
                if claim is not None:
                    return claim
            return None


def _as_tuple(claim):
    return None if claim is None else (claim.inviter, claim.invitee,
                                       claim.kind)


@pytest.mark.parametrize("seed", range(12))
def test_indexed_claim_pending_matches_the_sweep(seed):
    """Random interleavings of every claim and completion: the indexed
    registry claims the same pairs and draws the same numbers as the
    sweep, including when invitations are sparse or all claimed."""
    graph = SocialGraph(
        BGConfig(members=40, friends_per_member=4, resources_per_member=1)
    )
    script = random.Random(seed)
    registries = (FriendshipRegistry(graph), SweepRegistry(graph))
    rngs = (random.Random(seed), random.Random(seed))
    held = ([], [])
    for _ in range(600):
        op = script.random()
        if op < 0.35:
            step = lambda reg, rng: reg.claim_invite(rng)
        elif op < 0.6:
            kind = script.choice(("accept", "reject"))
            attempts = script.choice((0, 1, 16))
            step = lambda reg, rng: reg.claim_pending(rng, kind, attempts)
        elif op < 0.7:
            step = lambda reg, rng: reg.claim_confirmed(rng)
        else:
            if not held[0]:
                continue
            at = script.randrange(len(held[0]))
            succeeded = script.random() < 0.8
            for reg, claims in zip(registries, held):
                reg.complete(claims.pop(at), succeeded=succeeded)
            continue
        claims = [step(reg, rng) for reg, rng in zip(registries, rngs)]
        assert _as_tuple(claims[0]) == _as_tuple(claims[1])
        assert rngs[0].getstate() == rngs[1].getstate()
        if claims[0] is not None:
            held[0].append(claims[0])
            held[1].append(claims[1])
    assert registries[0].total_pending() == registries[1].total_pending()
