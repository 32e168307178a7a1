import pytest

from repro.casql.codec import decode, encode
from repro.errors import BadValueError


class TestEncode:
    def test_int_encodes_as_ascii_decimal(self):
        assert encode(42) == b"42"

    def test_dict_round_trip(self):
        value = {"name": "alice", "count": 3, "tags": ["a", "b"]}
        assert decode(encode(value)) == value

    def test_list_round_trip(self):
        assert decode(encode([1, 2, 3])) == [1, 2, 3]

    def test_string_round_trip(self):
        assert decode(encode("hello")) == "hello"

    def test_bool_survives(self):
        assert decode(encode(True)) is True

    def test_bytes_pass_through(self):
        assert encode(b"raw") == b"raw"

    def test_encoded_int_is_incr_compatible(self, store):
        store.set("k", encode(10))
        assert store.incr("k", 5) == 15
        assert decode(store.get("k")[0]) == 15

    def test_unserializable_raises(self):
        with pytest.raises(BadValueError):
            encode(object())

    def test_deterministic_key_order(self):
        assert encode({"b": 1, "a": 2}) == encode({"a": 2, "b": 1})


class TestDecode:
    def test_none_passes_through(self):
        assert decode(None) is None

    def test_plain_bytes_fall_through(self):
        assert decode(b"not-json-not-int") == b"not-json-not-int"

    def test_int_decodes(self):
        assert decode(b"7") == 7

    def test_type_check(self):
        with pytest.raises(BadValueError):
            decode("a str")


def _outcome(fn, text):
    try:
        return ("value", fn(text))
    except Exception as exc:  # the exception itself is what is compared
        return ("raises", type(exc), str(exc))


@pytest.mark.parametrize("body", [
    b'[1,2,3]', b'{"a":[1,{"b":null}],"c":"d"}', b'"x"', b'0', b'true',
    b' [1]', b'[1] ', b'\t{"a":1}\n', b'  ', b'',
    b'[1]x', b'[1] [2]', b'{"a":1}}', b'[1,', b'nul', b'1 2',
    b'"\xc3\xa9"', b'[1e400]', b'NaN',
])
def test_json_decode_matches_json_loads(body):
    """Whitespace, trailing garbage and parse errors give the value or
    the exception ``json.loads`` gives."""
    import json

    expected = _outcome(json.loads, body.decode("utf-8"))
    assert _outcome(decode, b"j:" + body) == expected


def test_json_decode_keeps_unicode_errors():
    with pytest.raises(UnicodeDecodeError) as caught:
        decode(b"j:\xff[1]")
    assert caught.value.start == 0
