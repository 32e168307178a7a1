"""What a long BG run may cost: point lookups, and state that stops growing.

* every statement the BG actions issue reaches its rows through the
  primary-key map or an index -- a missing access path fails here
  instead of costing a workload most of its time;
* the engine's stored versions, pk map, indexes and transaction records,
  and the validation log's history, level off while sessions keep
  running (each reclaimed by the mechanism that runs by itself);
* the trimmed validation log returns the verdicts and acceptable sets of
  a log that never forgets, for any interleaving of writers and readers.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.bg.actions import Technique
from repro.bg.harness import build_bg_system
from repro.bg.validation import ValidationLog

MEMBERS = 40


def bg_system(technique=Technique.INVALIDATE):
    return build_bg_system(
        members=MEMBERS, friends_per_member=4, resources_per_member=2,
        technique=technique, seed=3,
    )


def run_sessions(system, first, count):
    """Sessions ``first .. first + count - 1`` of a fixed script: every
    write action in turn on a rotating pair of strangers, each followed
    by the reads its keys feed."""
    actions = system.actions
    for number in range(first, first + count):
        inviter = (number // 7) % MEMBERS
        invitee = (inviter + MEMBERS // 2) % MEMBERS
        rid = number % system.graph.total_resources()
        step = number % 7
        if step in (0, 3):
            actions.invite_friend(inviter, invitee)
        elif step == 1:
            actions.accept_friend_request(inviter, invitee)
        elif step == 2:
            actions.thaw_friendship(inviter, invitee)
        elif step == 4:
            actions.reject_friend_request(inviter, invitee)
        elif step == 5:
            actions.post_comment(inviter, rid)
        else:
            actions.delete_comment(rid)
        actions.view_profile(invitee)
        actions.list_friends(invitee)
        actions.view_friend_requests(invitee)
        actions.view_top_k_resources(invitee)
        actions.view_comments_on_resource(rid)


@pytest.mark.parametrize("technique", list(Technique))
def test_bg_actions_never_scan_a_table(technique):
    system = bg_system(technique)
    # Bootstrap reads two whole tables on purpose: the validation items
    # (done by build_bg_system) and the first comment id.
    system.actions.post_comment(0, 0)
    before = system.db.stats()
    run_sessions(system, 0, 70)
    after = system.db.stats()
    assert after["full_scans"] == before["full_scans"]
    assert after["pk_probes"] > before["pk_probes"]
    assert after["index_probes"] > before["index_probes"]
    assert system.log.unpredictable_reads() == 0


def test_friendship_pair_lookup_examines_the_pair():
    system = bg_system()
    connection = system.db.connect()
    before = system.db.stats()
    rows = connection.execute(
        "SELECT status FROM friendship"
        " WHERE inviterid = ? AND inviteeid = ?", (0, 1),
    ).rows
    after = system.db.stats()
    assert len(rows) == 1
    assert after["rows_examined"] - before["rows_examined"] <= 2


def stored_state(system):
    """Every size that must not follow the number of sessions run."""
    sizes = {"log_history": system.log.history_size(),
             "tx_records": system.db.stats()["tx_records"]}
    for name in system.db.table_names():
        storage = system.db.storage(name)
        sizes[name + ".versions"] = storage.version_count()
        sizes[name + ".rows"] = storage.row_count()
        sizes[name + ".pk_entries"] = sum(
            len(rowids) for rowids in storage._pk_rowids.values()
        )
        for index in storage.indexes:
            sizes[index.name] = len(index)
    return sizes


def peak_state(system, first, count, every=25):
    peak = {}
    for start in range(first, first + count, every):
        run_sessions(system, start, every)
        for name, size in stored_state(system).items():
            peak[name] = max(peak.get(name, 0), size)
    return peak


def test_state_levels_off_while_sessions_keep_running():
    sessions = 1500
    system = bg_system()
    early = peak_state(system, 0, sessions)
    late = peak_state(system, sessions, 3 * sessions)
    assert system.db.stats()["vacuum_runs"] >= 4
    assert system.log.unpredictable_reads() == 0
    grown = {
        name: (early[name], size) for name, size in late.items()
        if size > 1.5 * early[name]
    }
    assert not grown


# -- the oracle forgets nothing a window can reach --------------------------------


class ReferenceLog:
    """The validation log as it was before it trimmed: every value ever
    recorded, walked from the start."""

    def __init__(self, items):
        self.seq = 0
        self.history = {item: [(0, 0)] for item in items}
        self.inflight = {item: {} for item in items}

    def write_begin(self, handle, items):
        for item in items:
            self.inflight[item][handle] = self.seq

    def record(self, item, value):
        self.seq += 1
        self.history[item].append((self.seq, value))

    def write_end(self, handle, items):
        for item in items:
            self.inflight[item].pop(handle, None)

    def read_begin(self, items):
        return {
            item: min([self.seq, *self.inflight[item].values()])
            for item in items
        }

    def acceptable_values(self, item, floor, end):
        held = {value for seq, value in self.history[item]
                if floor < seq <= end}
        before = [value for seq, value in self.history[item] if seq <= floor]
        return held | set(before[-1:])


ITEMS = ("a", "b", "c")
ITEM_SETS = st.lists(st.sampled_from(ITEMS), min_size=1, unique=True)


class TrimmedVsReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.log = ValidationLog()
        for item in ITEMS:
            self.log.register(item, 0)
        self.reference = ReferenceLog(ITEMS)
        self.writers = []
        self.readers = []
        self.values = iter(range(1, 10 ** 6))

    @staticmethod
    def _pick(data, held):
        # by position, so hypothesis keeps no reference to a read window
        return held[data.draw(st.integers(0, len(held) - 1))]

    @rule(items=ITEM_SETS)
    def write_begin(self, items):
        handle = self.log.write_begin(items)
        self.reference.write_begin(handle.handle_id, items)
        self.writers.append(handle)

    @precondition(lambda self: self.writers)
    @rule(data=st.data())
    def record(self, data):
        handle = self._pick(data, self.writers)
        item = data.draw(st.sampled_from(handle.items))
        value = next(self.values)
        self.log.record(item, value)
        self.reference.record(item, value)

    @precondition(lambda self: self.writers)
    @rule(data=st.data())
    def write_end(self, data):
        handle = self._pick(data, self.writers)
        self.writers.remove(handle)
        self.log.write_end(handle)
        self.reference.write_end(handle.handle_id, handle.items)

    @rule(items=ITEM_SETS)
    def read_begin(self, items):
        floors = self.log.read_begin(items)
        assert floors == self.reference.read_begin(items)
        self.readers.append(floors)

    @precondition(lambda self: self.readers)
    @rule(data=st.data(), stale=st.booleans(), last=st.booleans())
    def validate(self, data, stale, last):
        floors = self._pick(data, self.readers)
        item = data.draw(st.sampled_from(sorted(floors)))
        end = self.log.read_end()
        assert end == self.reference.seq
        expected = self.reference.acceptable_values(item, floors[item], end)
        assert self.log.acceptable_values(item, floors[item], end) == expected
        observed = -1 if stale else data.draw(
            st.sampled_from(sorted(expected))
        )
        assert self.log.validate(item, observed, floors, end) == (not stale)
        if last:
            self.readers.remove(floors)

    @precondition(lambda self: self.readers)
    @rule(data=st.data())
    def abandon_read(self, data):
        """A read that never validates: it may only delay trimming."""
        self.readers.remove(self._pick(data, self.readers))

    def teardown(self):
        for handle in self.writers:
            self.log.write_end(handle)
        del self.readers[:]
        for item in ITEMS:
            self.log.record(item, next(self.values))
        # Nothing is open any more: one value per item is all that is kept.
        assert self.log.history_size() == len(ITEMS)


TestTrimmedVsReference = TrimmedVsReference.TestCase
TestTrimmedVsReference.settings = settings(
    derandomize=True, database=None, deadline=None,
    max_examples=200, stateful_step_count=50,
)
