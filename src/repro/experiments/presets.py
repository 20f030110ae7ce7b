"""Run-scale presets.

The paper's full campaign (810 configs x 5 reps x 200 s at up to 25 Gbps)
is ~100 billion packet events — out of reach for a pure-Python DES.  The
presets trade scope for tractability along the axes DESIGN.md documents:

- ``paper-fluid``  — the full grid on the fluid engine (fast; the default
  source for EXPERIMENTS.md's Table 3 / figure-shape numbers).
- ``paper-fluid-batched`` — the same grid on the vectorized fluid
  backend; bit-identical results, one stacked integration per shard.
- ``scaled-des``   — the packet engine with every link rate divided by
  ``SCALE`` and a shortened duration.  BDP-in-packets stays ordered
  across tiers, so buffer-dependent phenomena keep their shape.
- ``smoke``        — a two-tier, seconds-long packet run for CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.experiments.config import ExperimentConfig
from repro.experiments.matrix import full_matrix
from repro.units import gbps, mbps

#: Rate divisor for the scaled DES preset.
SCALED_DES_SCALE = 250.0
SCALED_DES_DURATION_S = 15.0
SCALED_DES_MSS = 1500


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    build: Callable[[], List[ExperimentConfig]]


def _paper_fluid() -> List[ExperimentConfig]:
    return full_matrix(engine="fluid", repetitions=5)


def _paper_fluid_batched() -> List[ExperimentConfig]:
    """The paper grid on the vectorized fluid backend.

    Bit-identical results to ``paper-fluid`` (the cross-validation suite
    in ``tests/fluid/test_batched_vs_scalar.py`` enforces it); the
    campaign driver advances each lane-budgeted lock-step shard as one
    integration instead of one run per config.
    """
    return full_matrix(engine="fluid_batched", repetitions=5)


def _scaled_des() -> List[ExperimentConfig]:
    return full_matrix(
        engine="packet",
        scale=SCALED_DES_SCALE,
        duration_s=SCALED_DES_DURATION_S,
        mss_bytes=SCALED_DES_MSS,
        repetitions=1,
    )


def _claims() -> List[ExperimentConfig]:
    """The smallest slice that exercises the paper claims in
    :mod:`repro.analysis.validate`: the BBRv1-vs-CUBIC pair plus all intra
    pairs, small/medium/large buffers, bottom/middle/top tiers.  It has no
    Reno-vs-CUBIC pair and no 10 Gbps tier, so the claims about those
    cells skip on it."""
    return full_matrix(
        cca_pairs=(
            ("bbrv1", "cubic"),
            ("bbrv1", "bbrv1"),
            ("bbrv2", "bbrv2"),
            ("cubic", "cubic"),
            ("reno", "reno"),
            ("htcp", "htcp"),
        ),
        buffer_bdps=(0.5, 2.0, 16.0),
        bandwidths_bps=(mbps(100), gbps(1), gbps(25)),
        engine="fluid",
        duration_s=30.0,
        warmup_s=5.0,
    )


def _smoke() -> List[ExperimentConfig]:
    return full_matrix(
        cca_pairs=(("cubic", "cubic"), ("bbrv1", "cubic")),
        aqms=("fifo",),
        buffer_bdps=(2.0,),
        bandwidths_bps=(mbps(100),),
        engine="packet",
        scale=5.0,
        duration_s=5.0,
        mss_bytes=1500,
    )


def _chaos_smoke() -> List[ExperimentConfig]:
    """The smoke grid with the ``chaos`` fault profile layered on every
    cell: a mid-run link flap, a loss burst, and a bandwidth dip.  Used by
    the CI ``smoke`` job to exercise the fault path end to end."""
    import dataclasses

    from repro.faults.profiles import get_profile

    profile = get_profile("chaos-smoke")
    return [dataclasses.replace(cfg, faults=list(profile)) for cfg in _smoke()]


PRESETS: Dict[str, Preset] = {
    "paper-fluid": Preset("paper-fluid", "Full 810-config grid, fluid engine, 5 reps", _paper_fluid),
    "paper-fluid-batched": Preset(
        "paper-fluid-batched",
        "Full 810-config grid, batched fluid engine, 5 reps (bit-identical, faster)",
        _paper_fluid_batched,
    ),
    "scaled-des": Preset(
        "scaled-des",
        f"Full grid, packet engine, rates / {SCALED_DES_SCALE:g}, {SCALED_DES_DURATION_S:g}s",
        _scaled_des,
    ),
    "claims": Preset(
        "claims",
        "Minimal fluid slice for the validate_claims checks",
        _claims,
    ),
    "smoke": Preset("smoke", "Tiny packet-engine grid for CI", _smoke),
    "chaos-smoke": Preset(
        "chaos-smoke",
        "Smoke grid with the chaos-smoke fault profile on every cell",
        _chaos_smoke,
    ),
}


def get_preset(name: str) -> List[ExperimentConfig]:
    """Build the config list for the preset called ``name``."""
    try:
        return PRESETS[name].build()
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
