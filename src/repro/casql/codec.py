"""Value serialization for the KVS.

The KVS stores opaque byte strings (as memcached does).  The application
layer serializes structured values -- query results, profile dicts, friend
lists -- with a compact JSON encoding.  Plain unsigned integers are encoded
as bare ASCII decimals so the KVS-native ``incr``/``decr`` and the IQ
framework's ``IQ-delta incr/decr`` operate on them directly.
"""

import json

from repro.errors import BadValueError

#: ``json.loads`` without its whitespace scans: a value ``encode`` wrote
#: has none, so the raw decoder consumes it whole in one call.
_raw_decode = json.JSONDecoder().raw_decode


def encode(value):
    """Serialize an application value to bytes.

    ``int`` values become ASCII decimals (compatible with ``incr``);
    everything JSON-serializable becomes ``b"j:"``-prefixed JSON;
    ``bytes`` pass through untouched.
    """
    if isinstance(value, bytes):
        return value
    if isinstance(value, bool):
        return b"j:" + json.dumps(value).encode("utf-8")
    if isinstance(value, int):
        return str(value).encode("ascii")
    try:
        return b"j:" + json.dumps(value, separators=(",", ":"),
                                  sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise BadValueError("value is not serializable: {}".format(exc))


def decode(data):
    """Inverse of :func:`encode`.  ``None`` passes through (cache miss)."""
    if data is None:
        return None
    if not isinstance(data, bytes):
        raise BadValueError("decode expects bytes, got {}".format(type(data)))
    if data.startswith(b"j:"):
        text = data[2:].decode("utf-8")
        try:
            value, end = _raw_decode(text)
        except Exception:
            end = -1
        if end != len(text):
            # Whitespace, trailing data or a parse error: json.loads
            # gives the value or raises exactly as it always has.
            return json.loads(text)
        return value
    try:
        return int(data.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        return data
