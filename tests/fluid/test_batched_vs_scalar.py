"""Cross-validation: the vector CCA kernels against the per-flow rules.

Both fluid engines run on one integrator (:mod:`repro.fluid.batched`);
they differ only in the round update.  ``fluid_batched``'s vector
kernels are a performance path, not a second model: they must
reproduce ``fluid``'s per-flow :class:`~repro.fluid.cca_rules.FluidCca`
rules *bit for bit* — every float in the result dict, not
approximately.  These tests sweep every CCA x AQM pair through both
rules and compare the full normalized ``ExperimentResult`` dicts with
``==``; any divergence (a different drop round, one ulp in a
throughput) is a failure.

Normalization removes only fields that legitimately differ between the
two engines: ``wallclock_s`` (host timing) and the ``engine`` tag (the
whole point is running the same config on both engines).
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.fluid.batched import run_fluid_batch, run_fluid_single

CCAS = ("reno", "cubic", "htcp", "bbrv1", "bbrv2")
AQMS = ("fifo", "red", "fq_codel", "pie")


def _config(cca: str, aqm: str, **overrides) -> ExperimentConfig:
    params = dict(
        cca_pair=(cca, "cubic"),
        aqm=aqm,
        buffer_bdp=1.0,
        bottleneck_bw_bps=100e6,
        duration_s=8.0,
        warmup_s=2.0,
        mss_bytes=8900,
        seed=1234,
        flows_per_node=3,
        engine="fluid_batched",
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _per_flow(config: ExperimentConfig):
    """The same config on the per-flow rules (``engine="fluid"``)."""
    return run_fluid_single(dataclasses.replace(config, engine="fluid"))


def _norm(result) -> dict:
    d = result.to_dict()
    d.pop("wallclock_s", None)
    d.pop("engine", None)
    d["config"].pop("engine", None)
    return d


@pytest.mark.parametrize("aqm", AQMS)
def test_batched_matches_scalar_oracle(aqm):
    """One shard of all five CCAs vs the per-flow rules, bitwise, per AQM."""
    configs = [_config(cca, aqm) for cca in CCAS]
    batched = run_fluid_batch(configs)
    assert len(batched) == len(configs)
    for config, batch_result in zip(configs, batched):
        per_flow = _per_flow(config)
        assert batch_result.engine == "fluid_batched"
        assert per_flow.engine == "fluid"
        assert _norm(batch_result) == _norm(per_flow), (
            f"vector kernels != per-flow rules for {config.cca_pair} over {aqm}"
        )


def test_whole_grid_single_batch():
    """All 20 CCA x AQM cells through ONE run_fluid_batch call.

    Exercises the shard planner (four shards, one per AQM family) and the
    result re-ordering: each member must be bit-identical to the same
    config run as a one-config shard.  Together with the per-AQM oracle
    tests above this closes the loop grid -> shard -> single -> per-flow.
    """
    configs = [_config(cca, aqm) for cca in CCAS for aqm in AQMS]
    batched = run_fluid_batch(configs)
    assert len(batched) == len(configs)
    for config, batch_result in zip(configs, batched):
        single = run_fluid_single(config)
        assert _norm(batch_result) == _norm(single), (
            f"grid batch != single shard for {config.cca_pair} over {config.aqm}"
        )


def test_batched_result_is_tagged():
    """The engine tag distinguishes the round rule; everything else matches."""
    config = _config("cubic", "fifo", duration_s=4.0, warmup_s=1.0)
    result = run_fluid_single(config)
    assert result.engine == "fluid_batched"
    assert result.config["engine"] == "fluid_batched"


#: Fairness-series fields that must agree bitwise between the engines
#: (``engine`` differs by construction — it is the config's own tag).
FAIRNESS_SERIES_KEYS = (
    "t_s", "jain", "flow_jain", "phi", "queue_pkts", "sender_bps",
    "samples", "interval_s", "convergence_time_s", "oscillations",
    "sync_loss_t_s",
)


@pytest.mark.parametrize("cca", ("cubic", "bbrv1"))
def test_fairness_series_bitwise_scalar_vs_batched(cca):
    """The fairness probe's series are bit-for-bit equal across the rules.

    One hook samples the lane table under either round rule.
    Bit-identity of the underlying state plus the shared pure-Python
    probe math means every recorded float must match exactly — ``==`` on
    the raw lists, no tolerance.
    """
    batched_cfg = _config(cca, "fifo", fairness_interval_s=1.0)
    per_flow = _per_flow(batched_cfg).extra["fairness"]
    single = run_fluid_single(batched_cfg).extra["fairness"]
    assert per_flow["samples"] > 0
    assert (per_flow["engine"], single["engine"]) == ("fluid", "fluid_batched")
    for key in FAIRNESS_SERIES_KEYS:
        assert per_flow[key] == single[key], f"fairness[{key}] diverges"


def test_fairness_series_survive_shared_shard():
    """Probes attached to a multi-config shard equal their solo runs.

    Batch-composition invariance must extend to the sampling hook: a
    config's fairness series cannot depend on its shard-mates.
    """
    configs = [
        _config(cca, "fifo", fairness_interval_s=1.0)
        for cca in ("reno", "cubic", "htcp")
    ]
    batched = run_fluid_batch(configs)
    for config, shard_result in zip(configs, batched):
        solo = run_fluid_single(config)
        assert (
            shard_result.extra["fairness"] == solo.extra["fairness"]
        ), f"shard fairness != solo for {config.cca_pair}"


def test_unsampled_batched_results_unchanged_by_knob():
    """fairness_interval_s=None is byte-compatible with the pre-knob world."""
    config = _config("cubic", "fifo", duration_s=4.0, warmup_s=1.0)
    result = run_fluid_single(config)
    assert "fairness" not in result.extra
    assert "fairness_interval_s" not in result.config
