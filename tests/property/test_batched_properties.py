"""Property-based tests over the batched fluid backend.

Four invariants the batched integrator promises:

- **Batch-composition invariance** — a config's result is a function of
  the config alone, never of its shard-mates or its position in the
  batch (the campaign fast path reorders and regroups freely).
- **Ragged batches are exact** — configs of different flow counts and
  AQM families share one lane table; each block's queue law reduces rows
  of exactly its configs' width, so every member equals its solo run
  bit-for-bit at any width.
- **Conservation** — per integration step and per config, packets in =
  packets out: ``backlog_before + arrivals == served + dropped +
  backlog_after`` for every block of a mixed-AQM batch.
- **Poisson transform equivalence** — the scalar reference loop
  ``_poisson_small`` and the vectorized ``_poisson_vector`` implement
  the same function, elementwise and bit-for-bit, across the
  small/big-lambda switch.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.fluid.batched import BatchedFluidSimulation, run_fluid_batch, run_fluid_single
from repro.fluid.noise import LAM_SWITCH, _poisson_small, _poisson_vector

CCAS = ("reno", "cubic", "htcp", "bbrv1", "bbrv2")
AQMS = ("fifo", "red", "fq_codel", "pie")


def _config(cca: str, aqm: str, seed: int, flows_per_node: int = 2,
            duration_s: float = 1.0) -> ExperimentConfig:
    return ExperimentConfig(
        cca_pair=(cca, "cubic"),
        aqm=aqm,
        buffer_bdp=1.0,
        bottleneck_bw_bps=100e6,
        duration_s=duration_s,
        warmup_s=0.0,
        mss_bytes=8900,
        seed=seed,
        flows_per_node=flows_per_node,
        engine="fluid_batched",
    )


def _norm(result) -> dict:
    d = result.to_dict()
    d.pop("wallclock_s", None)
    return d


@settings(max_examples=5, deadline=None)
@given(
    picks=st.lists(
        st.tuples(st.sampled_from(CCAS), st.integers(min_value=1, max_value=10_000)),
        min_size=2, max_size=6, unique=True,
    ),
    aqm=st.sampled_from(AQMS),
    shuffle=st.randoms(use_true_random=False),
)
def test_batch_composition_invariance(picks, aqm, shuffle):
    """alone == in-batch == in-shuffled-batch, bitwise."""
    configs = [_config(cca, aqm, seed) for cca, seed in picks]
    alone = {id(c): _norm(run_fluid_single(c)) for c in configs}

    batched = run_fluid_batch(configs)
    for c, r in zip(configs, batched):
        assert _norm(r) == alone[id(c)]

    shuffled = list(configs)
    shuffle.shuffle(shuffled)
    for c, r in zip(shuffled, run_fluid_batch(shuffled)):
        assert _norm(r) == alone[id(c)]


@settings(max_examples=5, deadline=None)
@given(
    members=st.lists(
        st.tuples(st.integers(min_value=1, max_value=12), st.sampled_from(AQMS)),
        min_size=2, max_size=6,
    ),
    seed=st.integers(min_value=1, max_value=10_000),
)
def test_ragged_batch_is_exact(members, seed):
    """Mixed flow counts and mixed AQM families in one batch == each run alone."""
    configs = [
        _config(CCAS[i % len(CCAS)], aqm, seed + i, flows_per_node=w)
        for i, (w, aqm) in enumerate(members)
    ]
    blocks = {(c.aqm, c.plan.flows_per_node) for c in configs}
    batched = run_fluid_batch(configs)
    assert len(batched) == len(configs)
    for c, r in zip(configs, batched):
        assert _norm(r) == _norm(run_fluid_single(c)), (
            f"{c.cca_pair} over {c.aqm} at width {c.plan.flows_per_node} "
            f"differs inside a batch of {len(blocks)} blocks"
        )


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_step_conservation(seed):
    """Per step, per block and per config:
    backlog_in + arrivals == served + dropped + backlog_out."""
    configs = [
        _config(cca, aqm, seed + i, flows_per_node=1 + i % 3)
        for i, (aqm, cca) in enumerate(
            (aqm, cca) for aqm in AQMS for cca in ("cubic", "bbrv1", "htcp")
        )
    ]
    sim = BatchedFluidSimulation(configs)
    assert len(sim.blocks) > len(AQMS)
    worst = [0.0]

    def checked(block):
        orig_step = block.step

        def step(arrivals, dt, now_s):
            before = block.backlog.sum(axis=1)
            served, dropped = orig_step(arrivals, dt, now_s)
            after = block.backlog.sum(axis=1)
            residual = (
                before + arrivals.sum(axis=1) - served.sum(axis=1)
                - dropped.sum(axis=1) - after
            )
            worst[0] = max(worst[0], float(np.abs(residual).max()))
            return served, dropped

        return step

    for block in sim.blocks:
        block.step = checked(block)
    sim.run(1.0)
    # Residual is pure float reassociation noise; scale tolerance to the
    # largest per-step packet volume involved.
    scale = max(1.0, float(np.max(sim.capacity)) * sim.dt)
    assert worst[0] <= 1e-9 * scale, f"conservation violated by {worst[0]} pkts"


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2 * LAM_SWITCH, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
        ),
        min_size=1, max_size=64,
    )
)
def test_poisson_small_equals_vector(pairs):
    """The reference loop and the vector path are the same function, bitwise."""
    lam = np.array([p[0] for p in pairs])
    u = np.array([p[1] for p in pairs])
    a = _poisson_small(lam, u)
    b = _poisson_vector(lam, u)
    assert np.array_equal(a, b), (lam, u, a, b)


def test_poisson_switch_boundary():
    """Exactly LAM_SWITCH uses the exact loop; just above uses the approximation
    — and both paths agree on either side of the boundary."""
    lam = np.array([LAM_SWITCH, np.nextafter(LAM_SWITCH, np.inf), 0.0, 1e-12])
    u = np.array([0.5, 0.5, 0.999, 0.999])
    assert np.array_equal(_poisson_small(lam, u), _poisson_vector(lam, u))
