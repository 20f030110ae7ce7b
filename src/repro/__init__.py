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
from repro.api import Scenario, load_store, run, sweep, validate
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.fairness import jain_index
from repro.metrics.summary import ExperimentResult

__all__ = [
    "__version__",
    "Scenario",
    "run",
    "sweep",
    "validate",
    "load_store",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "jain_index",
]
