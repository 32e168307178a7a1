import pytest

from repro.errors import ProtocolError
from repro.net.protocol import (
    CRLF,
    LineReader,
    data_block_size,
    parse_command_line,
    value_response,
)


class FakeSocket:
    def __init__(self, payload):
        self.payload = payload

    def recv(self, n):
        chunk, self.payload = self.payload[:n], self.payload[n:]
        return chunk


class TestLineReader:
    def test_reads_lines_across_chunks(self):
        reader = LineReader(FakeSocket(b"hello\r\nworld\r\n"), chunk_size=3)
        assert reader.read_line() == b"hello"
        assert reader.read_line() == b"world"

    def test_reads_exact_data_block(self):
        reader = LineReader(FakeSocket(b"abcde\r\nrest\r\n"))
        assert reader.read_bytes(5) == b"abcde"
        assert reader.read_line() == b"rest"

    def test_data_block_must_end_with_crlf(self):
        reader = LineReader(FakeSocket(b"abcdeXXtail\r\n"))
        with pytest.raises(ProtocolError):
            reader.read_bytes(5)

    def test_peer_close_raises(self):
        reader = LineReader(FakeSocket(b""))
        with pytest.raises(ConnectionError):
            reader.read_line()

    def test_many_buffered_frames_read_without_extra_recv(self):
        # The pipelined path: one recv delivers N frames; every one must
        # come back intact, in order, without touching the socket again.
        frames = b"".join(
            b"line%d\r\n" % i for i in range(100)
        )
        sock = FakeSocket(frames + b"")
        reader = LineReader(sock)
        for i in range(100):
            assert reader.read_line() == b"line%d" % i
        assert sock.payload == b""  # single fill consumed everything

    def test_interleaved_lines_and_data_blocks_stay_framed(self):
        # PR 1 framing discipline over the buffered reader: a data block
        # whose payload contains CRLF (even b"END\r\n") must never be
        # parsed as a line, and the frame after it must start clean.
        payload = b"x\r\nEND\r\n"
        stream = (
            b"VALUE k 0 %d\r\n" % len(payload) + payload + b"\r\n"
            + b"END\r\n"
            + b"STORED\r\n"
        )
        reader = LineReader(FakeSocket(stream), chunk_size=5)
        assert reader.read_line() == b"VALUE k 0 %d" % len(payload)
        assert reader.read_bytes(len(payload)) == payload
        assert reader.read_line() == b"END"
        assert reader.read_line() == b"STORED"

    def test_torn_data_block_missing_crlf_still_rejected(self):
        # Regression for the PR 1 desync fix: the buffered path must
        # reject a block whose terminator bytes are data, not CRLF.
        reader = LineReader(FakeSocket(b"head\r\nabcdeXXtail\r\n"))
        assert reader.read_line() == b"head"
        with pytest.raises(ProtocolError):
            reader.read_bytes(5)

    def test_compaction_preserves_stream_position(self):
        # Force many small frames past the compaction threshold and make
        # sure no byte is lost or re-served when the prefix is dropped.
        count = 20000  # ~180KB of frames, well past _COMPACT_THRESHOLD
        frames = b"".join(b"n%d\r\n" % i for i in range(count))
        reader = LineReader(FakeSocket(frames), chunk_size=1 << 20)
        for i in range(count):
            assert reader.read_line() == b"n%d" % i


class TestCommandParsing:
    def test_lowercases_command(self):
        command, args = parse_command_line(b"GET key1")
        assert command == "get"
        assert args == ["key1"]

    def test_empty_line_rejected(self):
        with pytest.raises(ProtocolError):
            parse_command_line(b"")

    def test_bad_utf8_rejected(self):
        with pytest.raises(ProtocolError):
            parse_command_line(b"\xff\xfe")

    def test_data_size_extraction(self):
        assert data_block_size("set", ["k", "0", "0", "5"]) == 5
        assert data_block_size("get", ["k"]) is None
        assert data_block_size("sar", ["k", "3", "-1"]) is None
        assert data_block_size("iqdelta", ["1", "k", "append", "4"]) == 4

    def test_missing_size_field(self):
        with pytest.raises(ProtocolError):
            data_block_size("set", ["k"])

    def test_non_numeric_size(self):
        with pytest.raises(ProtocolError):
            data_block_size("set", ["k", "0", "0", "five"])


def test_value_response_format():
    payload = value_response("k", b"hello", flags=3)
    assert payload == b"VALUE k 3 5" + CRLF + b"hello" + CRLF + b"END" + CRLF
    with_cas = value_response("k", b"v", cas_id=9)
    assert b"VALUE k 0 1 9" in with_cas
