"""Declarative scenario catalogue and sweep runner.

The verification matrix as data: a :class:`ScenarioSpec` names a
configuration (technique x workload x shards x transport x fault plan
x oracles) and the package executes it through the *live* system
(:mod:`repro.scenarios.runner` -- real threads, real sockets, the BG
validation log, chaos controllers) or compiles it for the *model
checker* (:mod:`repro.scenarios.mc_bridge`), both emitting the same
diffable :class:`ScenarioReport`.  ``repro scenarios`` is the CLI.
"""

from repro.scenarios.catalogue import (
    CATALOGUE,
    by_name,
    catalogue,
    filter_catalogue,
)
from repro.scenarios.mc_bridge import compile_spec, run_mc
from repro.scenarios.report import OracleVerdict, ScenarioReport
from repro.scenarios.runner import SIZINGS, Sizing, run_live
from repro.scenarios.spec import (
    DEFAULT_ORACLES,
    FAULT_PLANS,
    MODES,
    ORACLES,
    TECHNIQUES,
    TIERS,
    TRANSPORTS,
    ScenarioSpec,
    check_bounds,
)
from repro.scenarios.workloads import (
    FAMILY_CLASSES,
    FlashCrowd,
    MultiTenantSkew,
    ThunderingHerd,
    WorkloadFamily,
    ZipfSweep,
    family_by_name,
)

__all__ = [
    "CATALOGUE",
    "DEFAULT_ORACLES",
    "FAMILY_CLASSES",
    "FAULT_PLANS",
    "FlashCrowd",
    "MODES",
    "MultiTenantSkew",
    "ORACLES",
    "OracleVerdict",
    "SIZINGS",
    "ScenarioReport",
    "ScenarioSpec",
    "Sizing",
    "TECHNIQUES",
    "TIERS",
    "TRANSPORTS",
    "ThunderingHerd",
    "WorkloadFamily",
    "ZipfSweep",
    "by_name",
    "catalogue",
    "check_bounds",
    "compile_spec",
    "family_by_name",
    "filter_catalogue",
    "run_live",
    "run_mc",
]
