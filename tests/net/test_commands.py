"""The wire-command table: one record per command, everything derived.

Pins what the generated surfaces must keep: today's retry classes, the
``LeaseBackend`` signatures, the derived views, the grammar in
``docs/PROTOCOL.md`` -- and that adding a command really is one record.
"""

import contextlib
import inspect
import pathlib

import pytest

from repro.config import NetConfig
from repro.core.backend import LeaseBackend
from repro.core.iq_server import IQServer
from repro.errors import ConnectionLostError, ProtocolError
from repro.faults import RestartableServer
from repro.net import (
    Pipeline,
    RemoteIQServer,
    ResilientIQServer,
    serve_background,
)
from repro.net import commands, dispatch, protocol
from repro.net.commands import COMMANDS, Command

REPO = pathlib.Path(__file__).resolve().parents[2]
TRANSPORTS = ("threaded", "async")
SURFACES = (RemoteIQServer, Pipeline, ResilientIQServer)


def test_retriable_set_is_todays():
    """The retry classes the hand-written ``_IDEMPOTENT`` set gave."""
    retriable = {c.name for c in COMMANDS.values() if c.idempotent}
    assert retriable == set(
        "gen_id iq_get iq_mget release_i dar commit abort get gets delete "
        "mdelete touch flush_all stats version key_snapshot cget cset".split()
    )
    best_effort = {c.name for c in COMMANDS.values() if c.best_effort}
    assert best_effort == {"iq_set", "release_i", "cset"}


def test_idempotent_has_no_default():
    with pytest.raises(TypeError):
        Command("x", "x", None, None, None, grammar="x -> OK")


def test_views_are_derived_from_the_records():
    assert protocol.DATA_COMMANDS == {
        c.verb: c.size_index for c in COMMANDS.values()
        if c.size_index is not None
    }
    assert commands.HANDLERS == {c.verb: c.handle for c in COMMANDS.values()}


@pytest.mark.parametrize("surface", SURFACES)
def test_surfaces_hand_write_no_command(surface):
    for cls in surface.__mro__:
        if cls.__module__.startswith("repro.net.") and \
                cls.__name__ != "CommandSurface":
            assert not set(vars(cls)) & set(COMMANDS), cls


@pytest.mark.parametrize("cls", (RemoteIQServer, ResilientIQServer))
@pytest.mark.parametrize("name", sorted(LeaseBackend.__abstractmethods__))
def test_signature_matches_the_abstract_method(cls, name):
    assert (inspect.signature(getattr(cls, name))
            == inspect.signature(getattr(LeaseBackend, name)))


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_signature_is_the_encoders(surface, name):
    params = list(inspect.signature(getattr(surface, name)).parameters.values())
    encoder = inspect.signature(COMMANDS[name].encode).parameters.values()
    assert params[0].name == "self"
    assert params[1:] == list(encoder)


def test_every_grammar_is_in_the_protocol_doc():
    doc = (REPO / "docs" / "PROTOCOL.md").read_text()
    for cmd in COMMANDS.values():
        request = cmd.grammar.split(" -> ")[0]
        assert request.split()[0] == cmd.verb
        assert request in doc, request


# -- adding a command is one record ------------------------------------------

def _enc_echo(key, times=1):
    return "echo {} {}".format(key, times), None


def _parse_echo(conn, first, args):
    return first.decode().split()[1:]


def _h_echo(iq, args, data):
    return ("ECHO" + " {}".format(args[0]) * int(args[1])).encode()


ECHO = Command(
    "echo", "echo", _enc_echo, _parse_echo, _h_echo, idempotent=True,
    grammar="echo <key> [<times>] -> ECHO <key>*",
)


@contextlib.contextmanager
def registered(cmd):
    commands.register(cmd)
    try:
        yield cmd
    finally:
        commands.unregister(cmd)


@pytest.fixture
def echo():
    with registered(ECHO) as cmd:
        yield cmd


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_throwaway_command_runs_everywhere(echo, transport):
    server, _thread = serve_background(IQServer(), transport=transport)
    try:
        with RemoteIQServer(port=server.port) as remote:
            assert remote.echo("k") == ["k"]
            assert remote.echo("k", times=2) == ["k", "k"]
            with remote.pipeline() as pipe:
                pipe.echo("a").set("a", b"1").echo("b", 3)
            assert pipe.results[0] == ["a"]
            assert pipe.results[2] == ["b", "b", "b"]
        with ResilientIQServer(port=server.port) as resilient:
            assert resilient.echo("r", 2) == ["r", "r"]
            with resilient.pipeline() as pipe:
                pipe.echo("p")
            assert pipe.results == [["p"]]
    finally:
        server.shutdown()
        server.server_close()


def test_unregister_leaves_no_trace(echo):
    commands.unregister(echo)
    try:
        assert "echo" not in COMMANDS
        assert not hasattr(RemoteIQServer, "echo")
        with pytest.raises(ProtocolError):
            dispatch.dispatch(IQServer(), "echo", ["k", "1"], None)
    finally:
        commands.register(echo)


def test_registering_a_taken_name_or_verb_is_refused(echo):
    with pytest.raises(ValueError):
        commands.register(echo)
    with pytest.raises(ValueError):
        commands.register(echo._replace(name="echo2"))


@pytest.mark.parametrize("idempotent", (True, False))
def test_retry_class_comes_from_the_record(idempotent):
    """A retriable record is replayed after a lost connection; the same
    command registered non-idempotent surfaces the loss instead."""
    server = RestartableServer(IQServer)
    server.start()
    config = NetConfig(max_retries=2, breaker_failure_threshold=10)
    try:
        with registered(ECHO._replace(idempotent=idempotent)), \
                ResilientIQServer(port=server.port, config=config) as client:
            assert client.echo("k") == ["k"]
            server.restart()  # the pooled connection is now dead
            if idempotent:
                assert client.echo("k") == ["k"]
                assert client.retries == 1
            else:
                with pytest.raises(ConnectionLostError):
                    client.echo("k")
                assert client.retries == 0
    finally:
        server.kill()
