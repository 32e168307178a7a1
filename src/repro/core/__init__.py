"""The IQ framework: Inhibit/Quarantine leases over a Twemcache-style KVS.

This package is the paper's primary contribution:

* :mod:`repro.core.leases` -- the lease table implementing the
  compatibility matrices of Figure 5 (5a for invalidate, 5b for
  refresh/incremental update), with finite lease lifetimes;
* :mod:`repro.core.iq_server` -- IQ-Twemcached: the KVS extended with the
  ten commands of Section 5 (IQget, IQset, QaRead, SaR, GenID, QaR, DaR,
  IQ-delta, Commit, Abort) and the Section 3.3 / 4.2.2 optimizations;
* :mod:`repro.core.iq_client` -- the client that manages I lease tokens
  and backoff transparently on behalf of read sessions;
* :mod:`repro.core.session` -- the session programming model (2PL-like
  lease discipline around an RDBMS transaction) with the two acquisition
  strategies of Section 6.2 (prior to vs during the transaction);
* :mod:`repro.core.policies` -- invalidate / refresh / incremental-update
  write-session strategies, in both IQ-leased and unleased (raceful
  baseline) variants.
"""

from repro.core.backend import LeaseBackend
from repro.core.iq_client import IQClient
from repro.core.iq_server import IQGetResult, IQServer, QaReadResult
from repro.core.leases import LeaseTable, QMode
from repro.core.session import AcquisitionMode, SessionRunner

__all__ = [
    "AcquisitionMode",
    "IQClient",
    "LeaseBackend",
    "IQGetResult",
    "IQServer",
    "LeaseTable",
    "QMode",
    "QaReadResult",
    "SessionRunner",
]
