"""Property-based tests over CacheStore with hypothesis."""

import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.config import KVSConfig
from repro.errors import KeyFormatError
from repro.kvs.store import CacheStore, StoreResult
from repro.util.clock import LogicalClock

keys = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
    min_size=1,
    max_size=32,
)
values = st.binary(max_size=256)


@given(key=keys, value=values)
def test_set_get_round_trip(key, value):
    store = CacheStore(clock=LogicalClock())
    store.set(key, value)
    assert store.get(key) == (value, 0)


@given(key=keys, first=values, second=values)
def test_last_set_wins(key, first, second):
    store = CacheStore(clock=LogicalClock())
    store.set(key, first)
    store.set(key, second)
    assert store.get(key) == (second, 0)


@given(key=keys, start=st.integers(min_value=0, max_value=2 ** 32),
       deltas=st.lists(st.integers(min_value=0, max_value=1000), max_size=20))
def test_incr_matches_integer_arithmetic(key, start, deltas):
    store = CacheStore(clock=LogicalClock())
    store.set(key, str(start).encode())
    expected = start
    for delta in deltas:
        expected = expected + delta
        assert store.incr(key, delta) == expected
    assert store.get(key) == (str(expected).encode(), 0)


@given(key=keys, start=st.integers(min_value=0, max_value=1000),
       delta=st.integers(min_value=0, max_value=2000))
def test_decr_clamps(key, start, delta):
    store = CacheStore(clock=LogicalClock())
    store.set(key, str(start).encode())
    assert store.decr(key, delta) == max(0, start - delta)


@given(key=keys, parts=st.lists(values, min_size=1, max_size=10))
def test_append_concatenates(key, parts):
    store = CacheStore(clock=LogicalClock())
    store.set(key, parts[0])
    for part in parts[1:]:
        store.append(key, part)
    assert store.get(key) == (b"".join(parts), 0)


def per_character_key_ok(key):
    """The key rule as a loop over characters: the reference for the
    store's one-regex check."""
    return not any(ch.isspace() or ord(ch) < 0x21 for ch in key)


@given(key=st.text(min_size=1, max_size=40) | st.text(
    alphabet=st.characters(max_codepoint=0x3000), min_size=1, max_size=8,
))
@settings(max_examples=500)
def test_key_check_matches_per_character_rule(key):
    store = CacheStore(clock=LogicalClock())
    try:
        store.set(key, b"v")
    except KeyFormatError:
        accepted = False
    else:
        accepted = True
    assert accepted == per_character_key_ok(key)


@given(key=keys, value=values, interloper=values)
def test_cas_only_succeeds_unchanged(key, value, interloper):
    store = CacheStore(clock=LogicalClock())
    store.set(key, value)
    _v, _f, cas_id = store.gets(key)
    store.set(key, interloper)
    assert store.cas(key, b"after", cas_id) is StoreResult.EXISTS


class BoundedStoreMachine(RuleBasedStateMachine):
    """Stateful test: the store never exceeds its memory budget and
    always agrees with a model dict on key presence semantics for
    non-evicted keys (presence in the store implies model agreement on
    the value)."""

    LIMIT = 4096

    def __init__(self):
        super().__init__()
        self.store = CacheStore(
            KVSConfig(memory_limit_bytes=self.LIMIT), clock=LogicalClock()
        )
        self.model = {}

    @rule(key=keys, value=st.binary(min_size=1, max_size=200))
    def set_value(self, key, value):
        self.store.set(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete_value(self, key):
        self.store.delete(key)
        self.model.pop(key, None)

    @rule(key=keys)
    def read_value(self, key):
        hit = self.store.get(key)
        if hit is not None:
            # Anything present must match the model exactly (eviction may
            # drop keys, but never corrupt them).
            assert self.model.get(key) == hit[0]

    @invariant()
    def within_budget(self):
        assert self.store.memory_used() <= self.LIMIT

    @invariant()
    def store_is_subset_of_model(self):
        for key in self.store.keys():
            assert key in self.model


BoundedStoreTest = BoundedStoreMachine.TestCase
BoundedStoreTest.settings = settings(max_examples=25, stateful_step_count=30)
