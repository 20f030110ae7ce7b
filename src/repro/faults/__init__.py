"""Deterministic, seeded fault injection (see docs/FAULTS.md).

Declarative :class:`FaultSpec` rows compile into a :class:`FaultSchedule`
of timed engine events that drive the run-time mutation hooks on
:class:`~repro.net.link.Link` / :class:`~repro.net.interface.Interface`.
All randomness (onset jitter, burst loss lotteries) comes from named
:class:`~repro.sim.rng.RngStreams`, so identical seeds yield
bit-identical schedules and bit-identical runs.
"""

#: Each exported name, imported from its module on first use: a scenario
#: that only validates its ``faults`` block loads :mod:`repro.faults.spec`
#: alone, not the schedule and the engine it drives.
_EXPORTS = {
    "FAULT_KINDS": "repro.faults.spec",
    "FaultEvent": "repro.faults.schedule",
    "FaultSchedule": "repro.faults.schedule",
    "FaultSpec": "repro.faults.spec",
    "FaultTarget": "repro.faults.schedule",
    "PROFILES": "repro.faults.profiles",
    "get_profile": "repro.faults.profiles",
    "normalize_faults": "repro.faults.spec",
    "resolve_dumbbell_target": "repro.faults.schedule",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
