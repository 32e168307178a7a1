"""Cache item representation."""


class CacheEntry:
    """A single key-value pair stored in the cache.

    Attributes mirror a memcached item: an opaque byte-string value, client
    flags, an absolute expiry time (0 = never), and a unique ``cas`` version
    that changes on every mutation of the value.

    Entries double as nodes of the intrusive LRU list (``lru_prev`` /
    ``lru_next``), avoiding a second allocation per item as memcached does
    with its item header.
    """

    __slots__ = (
        "key",
        "value",
        "flags",
        "expires_at",
        "cas_id",
        "lru_prev",
        "lru_next",
        "valid_from",
        "valid_until",
    )

    def __init__(self, key, value, flags=0, expires_at=0.0, cas_id=0):
        self.key = key
        self.value = value
        self.flags = flags
        self.expires_at = expires_at
        self.cas_id = cas_id
        self.lru_prev = None
        self.lru_next = None
        # Validity interval [valid_from, valid_until) in commit-clock
        # ticks (precise-clock self-invalidation, ClockClient); ``None``
        # marks an unstamped entry, which ``cget`` treats as a miss.
        self.valid_from = None
        self.valid_until = None

    def size(self):
        """Approximate memory footprint charged against the budget."""
        return len(self.key) + len(self.value)

    def is_expired(self, now):
        """True when the entry carries a TTL that has elapsed."""
        return self.expires_at != 0.0 and now >= self.expires_at

    def interval_expired(self, clock_now):
        """True when the validity interval has elapsed on the commit clock.

        Unstamped entries (``valid_until is None``) never *expire* on the
        clock -- they are simply unservable via ``cget``.
        """
        return self.valid_until is not None and clock_now >= self.valid_until

    def __repr__(self):
        return "CacheEntry(key={!r}, value={!r}, cas_id={})".format(
            self.key, self.value, self.cas_id
        )
