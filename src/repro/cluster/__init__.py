"""Heterogeneous cluster simulation substrate.

The paper's testbed is a 4-node Alpha cluster in which two nodes were
artificially loaded to run ~4x slower (Table 1/2), connected by
Fast-Ethernet and Myrinet, programmed in MPI.  This package simulates
that class of machine deterministically:

* each :class:`~repro.cluster.node.SimNode` owns a virtual clock, a CPU
  cost model, a simulated disk and a memory budget; a node's *speed*
  factor scales its CPU and I/O service times (the paper's heterogeneity
  is exactly such a multiplicative factor),
* the :class:`~repro.cluster.network.Network` charges per-message time
  ``n_packets * latency + bytes / bandwidth`` with NIC channel
  serialization (small packets reproduce the paper's 8-int-message
  disaster),
* :class:`~repro.cluster.mpi.SimComm` provides the mpi4py-shaped
  collectives (gather / bcast / alltoall) the algorithm uses,
* BSP-style barriers close every algorithm step: elapsed time is the max
  over node clocks (:mod:`~repro.cluster.simclock`),
* :class:`~repro.cluster.machine.Cluster` wires it all together from a
  :class:`~repro.cluster.machine.ClusterSpec`; ``paper_cluster()``
  recreates Table 1.  Steps, barriers and aggregate readings are stated
  once, on :class:`~repro.cluster.machine.NodeSet`, for the cluster and
  for a :class:`~repro.cluster.machine.ClusterView` of its survivors;
  a step's seconds are read back from the telemetry bus
  (:func:`repro.obs.events.step_seconds`), which is the only record.
"""

from repro.cluster.machine import (
    Cluster,
    ClusterSpec,
    NodeSpec,
    heterogeneous_cluster,
    homogeneous_cluster,
    paper_cluster,
)
from repro.cluster.mpi import SimComm
from repro.cluster.network import FAST_ETHERNET, MYRINET, LinkModel, Network
from repro.cluster.node import CpuParams, SimNode
from repro.cluster.simclock import VirtualClock, barrier

__all__ = [
    "Cluster",
    "ClusterSpec",
    "CpuParams",
    "FAST_ETHERNET",
    "LinkModel",
    "MYRINET",
    "Network",
    "NodeSpec",
    "SimComm",
    "SimNode",
    "VirtualClock",
    "barrier",
    "heterogeneous_cluster",
    "homogeneous_cluster",
    "paper_cluster",
]
