"""Fault-injection subsystem.

Deterministic, seedable fault injection (:mod:`repro.faults.injector`)
with hooks threaded through the wire path (``net/async_server.py``,
``net/protocol.py``, ``net/client.py``) and the KVS store, plus chaos
orchestration helpers (:mod:`repro.faults.chaos`) for kill-and-restart
servers and frozen lease holders.  See ``docs/FAULTS.md`` for the fault
model and the retry/degraded-mode rules that make the paper's
"fail slow, never stale" contract hold end-to-end over TCP.
"""

from repro.faults.injector import (
    ALL_SITES,
    SITE_CLIENT_AFTER_SEND,
    SITE_CLIENT_SEND,
    SITE_LEASE_VOID,
    SITE_NET_RECV,
    SITE_SERVER_REPLY,
    SITE_SERVER_REQUEST,
    SITE_STORE_DELETE,
    SITE_STORE_GET,
    SITE_STORE_SET,
    FaultAction,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultRule,
    corrupt_bytes,
)
from repro.faults.chaos import FrozenLeaseHolder, RestartableServer

__all__ = [
    "ALL_SITES",
    "SITE_CLIENT_AFTER_SEND",
    "SITE_CLIENT_SEND",
    "SITE_LEASE_VOID",
    "SITE_NET_RECV",
    "SITE_SERVER_REPLY",
    "SITE_SERVER_REQUEST",
    "SITE_STORE_DELETE",
    "SITE_STORE_GET",
    "SITE_STORE_SET",
    "FaultAction",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FrozenLeaseHolder",
    "RestartableServer",
    "corrupt_bytes",
]
