"""Metrics: fairness, utilization, throughput time series, result records."""

from repro.metrics.fairness import jain_index
from repro.metrics.queue_monitor import QueueMonitor, QueueTrace
from repro.metrics.summary import ExperimentResult, FlowStats, FlowTable, SenderStats
from repro.metrics.timeseries import ThroughputSampler
from repro.metrics.utilization import link_utilization

__all__ = [
    "jain_index",
    "link_utilization",
    "ThroughputSampler",
    "QueueMonitor",
    "QueueTrace",
    "FlowStats",
    "FlowTable",
    "SenderStats",
    "ExperimentResult",
]
