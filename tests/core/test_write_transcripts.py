"""Golden command transcripts of every write-session technique.

Each case runs one ``write`` of one consistency client against a
recording proxy of its cache (a ``LeaseBackend`` for the IQ clients, a
``ReadLeaseStore`` for the baselines) and a recording wrapper of each
SQL connection, and compares the ordered log -- backend commands with
their keys (TIDs renamed ``T1``, ``T2``, ... in minting order) and SQL
``begin``/``commit``/``rollback`` -- with a literal in ``GOLDEN``.
Connection open/close is not recorded.

Situations:

* ``clean`` -- a write with nothing in its way;
* ``restart`` -- the first attempt is rejected (a rival Q lease on
  ``b`` for the IQ clients; a competing uncommitted SQL update for the
  others) and the rival clears at the first backoff sleep;
* ``unavailable`` -- only key ``a``'s shard is unreachable;
* ``detach`` -- the cache is lost the moment the SQL commit lands;
* ``dead`` -- the cache is unreachable from the start, so not even a
  TID can be minted.

A change to any of these logs is a change to the session discipline and
must update the literal on purpose.
"""

import pytest

from repro.core.iq_client import IQClient
from repro.core.iq_server import IQServer
from repro.core.policies import (
    BaselineDeltaClient,
    BaselineInvalidateClient,
    BaselineRefreshClient,
    ClockClient,
    DeleteTiming,
    IQDeltaClient,
    IQInvalidateClient,
    IQRefreshClient,
    KeyChange,
)
from repro.core.session import AcquisitionMode
from repro.errors import CacheUnavailableError
from repro.kvs.read_lease import ReadLeaseStore
from repro.util.backoff import NoBackoff

#: argument position of the session TID, per backend command
TID_ARG = {
    "qar": 0, "qar_many": 0, "dar": 0, "commit": 0, "abort": 0,
    "iq_delta": 0, "poison": 0, "qaread": 1, "sar": 2,
    "propose_refresh": 2,
}


class Recorder:
    """The shared log, plus the failures the situation injects."""

    def __init__(self, unavailable=(), down=False, lose_on_commit=False):
        self.log = []
        self.tids = {}
        self.unavailable = set(unavailable)
        self.down = down
        self.lose_on_commit = lose_on_commit

    def tid(self, tid):
        return self.tids.setdefault(tid, "T{}".format(len(self.tids) + 1))


class RecordingCache:
    """Records every command sent to ``target`` and injects failures."""

    def __init__(self, target, recorder):
        self._target = target
        self._recorder = recorder
        self.journal = RecordingJournal(recorder)

    def __getattr__(self, name):
        method = getattr(self._target, name)
        recorder = self._recorder

        def call(*args, **kwargs):
            words = [name]
            tid_at = TID_ARG.get(name)
            for index, arg in enumerate(args):
                if index == tid_at:
                    words.append(recorder.tid(arg))
                elif isinstance(arg, str):
                    words.append(arg)
                elif isinstance(arg, (list, tuple)):
                    words.append(",".join(arg))
            keys = [arg for arg in args if isinstance(arg, str)]
            keys += [key for arg in args if isinstance(arg, (list, tuple))
                     for key in arg]
            if recorder.down or (
                name != "qar_many" and recorder.unavailable & set(keys)
            ):
                recorder.log.append(" ".join(words) + " !unavailable")
                raise CacheUnavailableError(name)
            recorder.log.append(" ".join(words))
            if name == "qar_many":
                # The unreachable shard's keys come back "unavailable";
                # the rest are acquired exactly as the backend would.
                reachable = [k for k in args[1]
                             if k not in recorder.unavailable]
                got = method(args[0], reachable) if reachable else {}
                result = {}
                for key in args[1]:
                    if key in recorder.unavailable:
                        result[key] = "unavailable"
                    elif key in got:
                        result[key] = got[key]
                return result
            result = method(*args, **kwargs)
            if name == "gen_id":
                recorder.log[-1] += " -> " + recorder.tid(result)
            return result

        return call


class RecordingJournal:
    def __init__(self, recorder):
        self._recorder = recorder

    def add(self, keys):
        self._recorder.log.append("journal " + ",".join(keys))


class RecordingConnection:
    """Records ``begin``/``commit``/``rollback`` of one SQL connection."""

    def __init__(self, connection, recorder):
        self._target = connection
        self._recorder = recorder

    def begin(self, *args):
        self._recorder.log.append("begin")
        return self._target.begin(*args)

    def commit(self, clock_keys=None):
        self._recorder.log.append(
            "commit" if clock_keys is None
            else "commit clock_keys=" + ",".join(clock_keys)
        )
        self._target.commit(clock_keys=clock_keys)
        if self._recorder.lose_on_commit:
            self._recorder.down = True

    def rollback(self):
        self._recorder.log.append("rollback")
        return self._target.rollback()

    def __getattr__(self, name):
        return getattr(self._target, name)


class HookClock:
    """A clock whose first backoff sleep clears the situation's rival."""

    def __init__(self):
        self.on_sleep = []

    def sleep(self, _seconds):
        while self.on_sleep:
            self.on_sleep.pop()()

    def now(self):
        return 0.0


def refresher(old):
    return None if old is None else str(int(old) + 1).encode()


def changes():
    return [
        KeyChange("a", refresher=refresher, deltas=[("incr", 1)]),
        KeyChange("b", invalidate=True),
        KeyChange("c", invalidate=True),
    ]


def score_body(session):
    session.execute("UPDATE users SET score = score + 1 WHERE id = 1")
    return "done"


IQ_CLIENTS = {
    "invalidate": IQInvalidateClient,
    "refresh": IQRefreshClient,
    "delta": IQDeltaClient,
}
BASELINES = {
    "baseline-invalidate-during": (
        BaselineInvalidateClient,
        {"timing": DeleteTiming.DURING_TRANSACTION},
    ),
    "baseline-invalidate-after": (
        BaselineInvalidateClient, {"timing": DeleteTiming.AFTER_COMMIT},
    ),
    "baseline-refresh": (BaselineRefreshClient, {}),
    "baseline-delta": (BaselineDeltaClient, {}),
}


def run_case(name, situation, users_db):
    """Run one write; returns its log, ending with the outcome."""
    recorder = Recorder(
        unavailable={"a"} if situation == "unavailable" else (),
        down=situation == "dead",
        lose_on_commit=situation == "detach",
    )
    clock = HookClock()

    def connect():
        return RecordingConnection(users_db.connect(), recorder)

    technique, _, mode = name.partition("/")
    if technique in IQ_CLIENTS:
        server = IQServer()
        server.store.set("a", b"5")
        server.store.set("b", b"x")
        if situation == "restart":
            rival = server.gen_id()
            server.qaread("b", rival)
            clock.on_sleep.append(lambda: server.abort(rival))
        client = IQ_CLIENTS[technique](
            IQClient(RecordingCache(server, recorder)), connect,
            mode=AcquisitionMode[mode], backoff=NoBackoff(max_attempts=5),
            clock=clock,
        )
    else:
        if situation == "restart":
            competitor = users_db.connect()
            competitor.begin()
            competitor.execute("UPDATE users SET score = 0 WHERE id = 1")
            clock.on_sleep.append(competitor.commit)
        if technique == "clock":
            client = ClockClient(
                IQClient(RecordingCache(IQServer(), recorder)), connect,
                backoff=NoBackoff(max_attempts=5), clock=clock,
            )
        else:
            store = ReadLeaseStore()
            store.set("a", b"5")
            store.set("b", b"x")
            cls, kwargs = BASELINES[technique]
            client = cls(RecordingCache(store, recorder), connect,
                         backoff=NoBackoff(max_attempts=5), clock=clock,
                         **kwargs)
    recorder.log.clear()
    try:
        outcome = client.write(score_body, changes())
        recorder.log.append("=> {} restarts={}".format(
            outcome.result, outcome.restarts))
    except Exception as exc:  # the outcome is part of the transcript
        recorder.log.append("=> raised " + type(exc).__name__)
    if situation == "restart" and technique not in IQ_CLIENTS:
        competitor.close()
    return recorder.log


GOLDEN = {
    "invalidate/PRIOR:clean": (
        "gen_id -> T1",
        "qar_many T1 a,b,c",
        "begin",
        "commit",
        "dar T1",
        "=> done restarts=0",
    ),
    "invalidate/PRIOR:restart": (
        "gen_id -> T1",
        "qar_many T1 a,b,c",
        "abort T1",
        "gen_id -> T2",
        "qar_many T2 a,b,c",
        "begin",
        "commit",
        "dar T2",
        "=> done restarts=1",
    ),
    "invalidate/PRIOR:unavailable": (
        "gen_id -> T1",
        "qar_many T1 a,b,c",
        "begin",
        "commit",
        "journal a",
        "dar T1",
        "=> done restarts=0",
    ),
    "invalidate/PRIOR:detach": (
        "gen_id -> T1",
        "qar_many T1 a,b,c",
        "begin",
        "commit",
        "dar T1 !unavailable",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "invalidate/PRIOR:dead": (
        "gen_id !unavailable",
        "begin",
        "commit",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "invalidate/DURING:clean": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 a,b,c",
        "commit",
        "dar T1",
        "=> done restarts=0",
    ),
    "invalidate/DURING:restart": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 a,b,c",
        "abort T1",
        "rollback",
        "gen_id -> T2",
        "begin",
        "qar_many T2 a,b,c",
        "commit",
        "dar T2",
        "=> done restarts=1",
    ),
    "invalidate/DURING:unavailable": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 a,b,c",
        "commit",
        "journal a",
        "dar T1",
        "=> done restarts=0",
    ),
    "invalidate/DURING:detach": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 a,b,c",
        "commit",
        "dar T1 !unavailable",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "invalidate/DURING:dead": (
        "gen_id !unavailable",
        "begin",
        "commit",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "refresh/PRIOR:clean": (
        "gen_id -> T1",
        "qar_many T1 b,c",
        "qaread a T1",
        "begin",
        "commit",
        "sar a T1",
        "commit T1",
        "=> done restarts=0",
    ),
    "refresh/PRIOR:restart": (
        "gen_id -> T1",
        "qar_many T1 b,c",
        "abort T1",
        "gen_id -> T2",
        "qar_many T2 b,c",
        "qaread a T2",
        "begin",
        "commit",
        "sar a T2",
        "commit T2",
        "=> done restarts=1",
    ),
    "refresh/PRIOR:unavailable": (
        "gen_id -> T1",
        "qar_many T1 b,c",
        "qaread a T1 !unavailable",
        "begin",
        "commit",
        "journal a",
        "commit T1",
        "=> done restarts=0",
    ),
    "refresh/PRIOR:detach": (
        "gen_id -> T1",
        "qar_many T1 b,c",
        "qaread a T1",
        "begin",
        "commit",
        "sar a T1 !unavailable",
        "journal a",
        "commit T1 !unavailable",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "refresh/PRIOR:dead": (
        "gen_id !unavailable",
        "begin",
        "commit",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "refresh/DURING:clean": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 b,c",
        "qaread a T1",
        "commit",
        "sar a T1",
        "commit T1",
        "=> done restarts=0",
    ),
    "refresh/DURING:restart": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 b,c",
        "abort T1",
        "rollback",
        "gen_id -> T2",
        "begin",
        "qar_many T2 b,c",
        "qaread a T2",
        "commit",
        "sar a T2",
        "commit T2",
        "=> done restarts=1",
    ),
    "refresh/DURING:unavailable": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 b,c",
        "qaread a T1 !unavailable",
        "commit",
        "journal a",
        "commit T1",
        "=> done restarts=0",
    ),
    "refresh/DURING:detach": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 b,c",
        "qaread a T1",
        "commit",
        "sar a T1 !unavailable",
        "journal a",
        "commit T1 !unavailable",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "refresh/DURING:dead": (
        "gen_id !unavailable",
        "begin",
        "commit",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "delta/PRIOR:clean": (
        "gen_id -> T1",
        "qar_many T1 b,c",
        "iq_delta T1 a incr",
        "begin",
        "commit",
        "commit T1",
        "=> done restarts=0",
    ),
    "delta/PRIOR:restart": (
        "gen_id -> T1",
        "qar_many T1 b,c",
        "abort T1",
        "gen_id -> T2",
        "qar_many T2 b,c",
        "iq_delta T2 a incr",
        "begin",
        "commit",
        "commit T2",
        "=> done restarts=1",
    ),
    "delta/PRIOR:unavailable": (
        "gen_id -> T1",
        "qar_many T1 b,c",
        "iq_delta T1 a incr !unavailable",
        "begin",
        "commit",
        "journal a",
        "commit T1",
        "=> done restarts=0",
    ),
    "delta/PRIOR:detach": (
        "gen_id -> T1",
        "qar_many T1 b,c",
        "iq_delta T1 a incr",
        "begin",
        "commit",
        "commit T1 !unavailable",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "delta/PRIOR:dead": (
        "gen_id !unavailable",
        "begin",
        "commit",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "delta/DURING:clean": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 b,c",
        "iq_delta T1 a incr",
        "commit",
        "commit T1",
        "=> done restarts=0",
    ),
    "delta/DURING:restart": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 b,c",
        "abort T1",
        "rollback",
        "gen_id -> T2",
        "begin",
        "qar_many T2 b,c",
        "iq_delta T2 a incr",
        "commit",
        "commit T2",
        "=> done restarts=1",
    ),
    "delta/DURING:unavailable": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 b,c",
        "iq_delta T1 a incr !unavailable",
        "commit",
        "journal a",
        "commit T1",
        "=> done restarts=0",
    ),
    "delta/DURING:detach": (
        "gen_id -> T1",
        "begin",
        "qar_many T1 b,c",
        "iq_delta T1 a incr",
        "commit",
        "commit T1 !unavailable",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "delta/DURING:dead": (
        "gen_id !unavailable",
        "begin",
        "commit",
        "journal a,b,c",
        "=> done restarts=0",
    ),
    "clock:clean": (
        "begin",
        "commit clock_keys=a,b,c",
        "=> done restarts=0",
    ),
    "clock:restart": (
        "begin",
        "begin",
        "commit clock_keys=a,b,c",
        "=> done restarts=1",
    ),
    "baseline-invalidate-during:clean": (
        "begin",
        "delete a",
        "delete b",
        "delete c",
        "commit",
        "=> done restarts=0",
    ),
    "baseline-invalidate-during:restart": (
        "begin",
        "delete a",
        "delete b",
        "delete c",
        "=> raised TransactionAbortedError",
    ),
    "baseline-invalidate-after:clean": (
        "begin",
        "commit",
        "delete a",
        "delete b",
        "delete c",
        "=> done restarts=0",
    ),
    "baseline-invalidate-after:restart": (
        "begin",
        "=> raised TransactionAbortedError",
    ),
    "baseline-refresh:clean": (
        "begin",
        "commit",
        "gets a",
        "cas a",
        "delete b",
        "delete c",
        "=> done restarts=0",
    ),
    "baseline-refresh:restart": (
        "begin",
        "=> raised TransactionAbortedError",
    ),
    "baseline-delta:clean": (
        "begin",
        "commit",
        "incr a",
        "delete b",
        "delete c",
        "=> done restarts=0",
    ),
    "baseline-delta:restart": (
        "begin",
        "=> raised TransactionAbortedError",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_write_transcript(case, users_db):
    name, situation = case.rsplit(":", 1)
    assert run_case(name, situation, users_db) == list(GOLDEN[case])
