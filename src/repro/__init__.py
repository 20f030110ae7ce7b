"""repro — reproduction of "Elephants Sharing the Highway" (SC-W 2023).

A from-scratch packet-level network simulator (discrete-event engine,
dumbbell testbed, Linux-style TCP with pluggable congestion control and
AQM disciplines) plus a fast fluid-model engine, an iperf3-style traffic
generator, and the full experiment/analysis pipeline regenerating every
table and figure of the paper.

Quickstart (the stable API — :mod:`repro.api`, docs/SCENARIO.md)::

    from repro import Scenario, run

    result = run(Scenario(), engine="fluid")
    print(result.jain_index, result.link_utilization)

A :class:`Scenario` lowers to the engines' config,
:class:`ExperimentConfig`, which ``run_experiment`` runs directly; both
spellings of one experiment share one cache key.
"""

from repro._version import __version__

#: The quickstart names, each imported from its module on first use, so
#: that importing any ``repro`` module loads only what that module needs.
_QUICKSTART = {
    "Scenario": "repro.api",
    "run": "repro.api",
    "sweep": "repro.api",
    "validate": "repro.api",
    "load_store": "repro.api",
    "ExperimentConfig": "repro.experiments.config",
    "ExperimentResult": "repro.metrics.summary",
    "run_experiment": "repro.experiments.runner",
    "jain_index": "repro.metrics.fairness",
}

__all__ = ["__version__", *_QUICKSTART]


def __getattr__(name: str):
    module = _QUICKSTART.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
