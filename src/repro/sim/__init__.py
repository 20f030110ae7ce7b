"""Discrete-event simulation core.

The engine keeps time in integer nanoseconds and executes events in
(time, insertion-order) order, which makes every run fully deterministic
for a given seed.  Import what you use from its module —
``repro.sim.engine`` (the event loop), ``repro.sim.rng`` (the seeded
streams both engine families draw from) and ``repro.sim.trace`` — so a
fluid run, which needs only the streams, loads no event loop.
"""
