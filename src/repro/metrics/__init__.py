"""Metrics: fairness, utilization, throughput time series, result records.

Import the submodule you need: :mod:`~repro.metrics.summary` and
:mod:`~repro.metrics.fairness` are plain Python, while the samplers
(:mod:`~repro.metrics.timeseries`, :mod:`~repro.metrics.queue_monitor`)
run on the packet engine's clock.
"""
