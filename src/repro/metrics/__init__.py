"""Metrics, trial statistics, and paper-style table reporting."""

from repro.metrics.expansion import PartitionStats, partition_stats
from repro.metrics.timing import TrialStats
from repro.metrics.report import Table, fault_table, format_table

__all__ = [
    "PartitionStats",
    "Table",
    "TrialStats",
    "fault_table",
    "format_table",
    "partition_stats",
]
