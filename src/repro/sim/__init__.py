"""Discrete-event simulation core.

The engine keeps time in integer nanoseconds and executes events in
(time, insertion-order) order, which makes every run fully deterministic
for a given seed.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.rng import RngStreams
from repro.sim.trace import NullTracer

__all__ = ["Event", "Simulator", "RngStreams", "NullTracer"]
