"""Engine micro-benchmarks: event-loop and datapath throughput.

These are the only benches where pytest-benchmark's repeated-rounds
timing is the point: they track the simulator's raw speed, which bounds
how much of the paper's grid the packet engine can cover.

The two bare-engine kernels (event loop, timer churn) have no counterpart
in the perf ledger; the datapath and fluid cases are also reported there
as ``sim.events_per_s.fifo`` and ``fluid.scalar.steps_per_s`` — see
docs/BENCHMARKING.md.
"""

from repro.cca.registry import make_cca
from repro.experiments.config import ExperimentConfig
from repro.fluid.batched import PerFlowFluidSimulation
from repro.sim.engine import Simulator
from repro.tcp.connection import open_connection
from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell
from repro.units import gbps, mbps, seconds


def test_event_loop_throughput(benchmark):
    """Schedule+dispatch cost of the bare event loop (100k events)."""

    def event_loop(count):
        sim = Simulator()

        def noop():
            pass

        for i in range(count):
            sim.schedule(i, noop)
        sim.run()
        return sim.events_processed

    assert benchmark(event_loop, 100_000) == 100_000


def test_timer_churn(benchmark):
    """Cancel/reschedule pattern of TCP retransmission timers."""

    def timer_churn(count):
        sim = Simulator()
        state = {"handle": None, "fired": 0}

        def tick(i):
            state["fired"] += 1
            if state["handle"] is not None:
                state["handle"].cancel()
            if i < count:
                state["handle"] = sim.schedule(1000, tick, i + 1)

        sim.schedule(0, tick, 0)
        sim.run()
        return state["fired"]

    assert benchmark(timer_churn, 20_000) == 20_001


def test_single_flow_datapath(benchmark):
    """Full-stack packets/second: one CUBIC flow over the dumbbell."""

    def single_flow_datapath(duration_s):
        db = build_dumbbell(
            DumbbellConfig(bottleneck_bw_bps=mbps(20.0), buffer_bdp=2.0, mss_bytes=1500, seed=1)
        )
        conn = open_connection(db.clients[0], db.servers[0], make_cca("cubic"), mss=1500, flow_id=1)
        conn.start()
        db.network.run(seconds(duration_s))
        return db.sim.events_processed

    events = benchmark.pedantic(single_flow_datapath, args=(5.0,), rounds=3, iterations=1)
    assert events > 10_000


def test_fluid_step_throughput(benchmark):
    """``engine="fluid"`` steps/second with a 500-flow population (the 25G tier)."""

    def fluid_steps(duration_s):
        config = ExperimentConfig(
            cca_pair=("cubic", "cubic"), aqm="fifo", buffer_bdp=2.0,
            bottleneck_bw_bps=gbps(25), duration_s=duration_s, engine="fluid", seed=1,
        )
        sim = PerFlowFluidSimulation([config])
        assert sim.offsets[-1] == 500
        sim.run(duration_s)
        return int(sim.delivered_total.sum())

    delivered = benchmark.pedantic(fluid_steps, args=(5.0,), rounds=3, iterations=1)
    assert delivered > 0
