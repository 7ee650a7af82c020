"""Fault injection and step-level recovery for the simulated cluster.

See :doc:`docs/FAULTS.md` for the fault model.  Quick tour:

>>> from repro.faults import DiskFault, FaultPlan, RetryPolicy
>>> plan = FaultPlan(disk_faults=(DiskFault(node=1, after_ios=100),))
>>> # sort_array(cluster, perf, data, cfg, faults=plan, retry=RetryPolicy())
"""

from repro.faults.injector import FaultInjector, install_disk_faults
from repro.faults.plan import (
    DiskFault,
    DiskFaultError,
    FaultCounters,
    FaultError,
    FaultPlan,
    FaultPlanError,
    MessageFault,
    NetworkFaultError,
    NodeKill,
    NodeKilledError,
    RetryPolicy,
    step_index,
)
from repro.faults.recovery import StepRunner

__all__ = [
    "DiskFault",
    "DiskFaultError",
    "FaultCounters",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "MessageFault",
    "NetworkFaultError",
    "NodeKill",
    "NodeKilledError",
    "RetryPolicy",
    "StepRunner",
    "install_disk_faults",
    "step_index",
]
