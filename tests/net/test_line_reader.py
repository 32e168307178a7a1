"""LineReader framing edges on the memoryview fast path.

The reader slices frames out of one growing buffer through a
memoryview; these tests pin the boundary cases that path must not
regress -- frames torn at arbitrary byte positions, CRLF split across
``recv`` calls, compaction kicking in mid-stream -- and check
frame-for-frame parity over the wire server's golden-transcript corpus
between whole-stream and byte-at-a-time delivery.
"""

import pytest

from repro.errors import ProtocolError
from repro.net.protocol import DATA_COMMANDS, LineReader

from tests.net.test_transport_parity import CORPUS


class ScriptedSock:
    """recv() returns the scripted chunks in order, then peer-close."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    def recv(self, size):
        if not self._chunks:
            return b""
        chunk = self._chunks[0]
        if len(chunk) <= size:
            return self._chunks.pop(0)
        self._chunks[0] = chunk[size:]
        return chunk[:size]


def reader_for(stream, chunk=None):
    chunks = ([stream] if chunk is None
              else [stream[i:i + chunk] for i in range(0, len(stream), chunk)])
    return LineReader(ScriptedSock(chunks))


def frames(reader):
    """Walk a request stream into (line, data-block-or-None) frames.

    Malformed input (the corpus includes torn terminators and
    unparseable sizes on purpose) ends the walk with an error marker so
    both deliveries must fail at the identical frame.
    """
    out = []
    while True:
        try:
            line = reader.read_line()
        except ConnectionError:
            return out
        parts = line.split()
        data = None
        index = DATA_COMMANDS.get(parts[0].decode("ascii", "replace"))
        if index is not None:
            try:
                nbytes = int(parts[index])
            except (ValueError, IndexError) as exc:
                out.append(("<bad-size>", str(exc)))
                return out
            if nbytes >= 0:
                try:
                    data = reader.read_bytes(nbytes)
                except ProtocolError as exc:
                    out.append(("<protocol-error>", str(exc)))
                    return out
        out.append((line, data))


class TestTornDelivery:
    def test_byte_at_a_time(self):
        stream = b"set k 0 0 5\r\nhello\r\nget k\r\n"
        reader = reader_for(stream, chunk=1)
        assert reader.read_line() == b"set k 0 0 5"
        assert reader.read_bytes(5) == b"hello"
        assert reader.read_line() == b"get k"

    def test_crlf_split_across_recvs(self):
        reader = LineReader(ScriptedSock([b"get k\r", b"\nget j\r\n"]))
        assert reader.read_line() == b"get k"
        assert reader.read_line() == b"get j"

    def test_data_block_terminator_split_across_recvs(self):
        reader = LineReader(ScriptedSock([b"hello\r", b"\n"]))
        assert reader.read_bytes(5) == b"hello"

    def test_empty_line_and_empty_block(self):
        reader = reader_for(b"\r\n\r\n")
        assert reader.read_line() == b""
        assert reader.read_bytes(0) == b""

    def test_peer_close_mid_line_raises(self):
        reader = LineReader(ScriptedSock([b"get k"]))
        with pytest.raises(ConnectionError):
            reader.read_line()

    def test_unterminated_data_block_raises(self):
        reader = reader_for(b"helloXXget k\r\n")
        with pytest.raises(ProtocolError):
            reader.read_bytes(5)

    def test_block_with_cr_but_wrong_lf_raises(self):
        reader = reader_for(b"hello\rXget k\r\n")
        with pytest.raises(ProtocolError):
            reader.read_bytes(5)

    def test_binary_safe_blocks(self):
        payload = bytes(range(256)) * 3
        reader = reader_for(
            b"blob\r\n" + payload + b"\r\n", chunk=7)
        assert reader.read_line() == b"blob"
        assert reader.read_bytes(len(payload)) == payload


class TestPipelinedBursts:
    def test_burst_drains_without_further_recv(self):
        burst = b"".join(b"get k%d\r\n" % i for i in range(50))
        reader = LineReader(ScriptedSock([burst]))
        assert reader.read_line() == b"get k0"   # first call recvs the burst
        for i in range(1, 50):
            # A second recv would see the peer close and raise.
            assert reader.read_line() == b"get k%d" % i

    def test_compaction_mid_stream_keeps_frames_intact(self):
        reader = reader_for(
            b"".join(b"cmd %04d\r\n" % i for i in range(200)), chunk=17)
        reader._COMPACT_THRESHOLD = 64   # force compaction to kick in
        for i in range(200):
            assert reader.read_line() == b"cmd %04d" % i
        assert reader._pos < 64   # the consumed prefix was dropped

    def test_interleaved_lines_and_blocks_across_compaction(self):
        stream = b"".join(
            b"iqset key%d 1 %d\r\n%s\r\n" % (i, 10 + i % 7, b"x" * (10 + i % 7))
            for i in range(100)
        )
        reader = reader_for(stream, chunk=13)
        reader._COMPACT_THRESHOLD = 48
        for i in range(100):
            assert reader.read_line() == b"iqset key%d 1 %d" % (i, 10 + i % 7)
            assert reader.read_bytes(10 + i % 7) == b"x" * (10 + i % 7)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_framing_parity_whole_vs_torn(name):
    """Every golden-transcript request stream parses to the same frame
    sequence whether it arrives in one recv or one byte at a time."""
    stream = CORPUS[name]
    whole = frames(reader_for(stream))
    torn = frames(reader_for(stream, chunk=1))
    assert whole == torn
    assert len(whole) > 0
