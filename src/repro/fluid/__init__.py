"""Fluid-model engine.

A per-RTT difference-equation integrator over flow send rates and the
bottleneck queue.  It applies the same congestion-control decision rules
(slow start, CUBIC curve, HTCP alpha/beta, BBR state machines with the
2xBDP inflight cap and BBRv2's 2 % loss threshold) and the same AQM drop
laws (tail drop, RED's EWMA ramp, FQ_CoDel's per-flow CoDel) as the
packet engine, but at mean-field granularity — which makes the paper's
10/25 Gbps tiers (tens of millions of packets per run) tractable in pure
Python/NumPy.

One integrator (:mod:`repro.fluid.batched`) runs both fluid engines:
``fluid`` updates each flow's round with its own rule object,
``fluid_batched`` with vector kernels over a whole shard of configs.
Both model one base RTT for every flow, a lossless trunk and drop-only
AQMs; :class:`~repro.experiments.config.ExperimentConfig` refuses a fluid
config that asks for more.

Cross-validated against the packet engine on the low-bandwidth tiers in
``tests/integration/test_engine_agreement.py``.

Import the submodule you need: the campaign and the work queue plan
shards with :mod:`repro.fluid.state` without loading numpy or the kernel.
"""
