"""Reproducibility guarantees: identical seeds, identical results.

The paper's reproducibility contribution hinges on deterministic reruns;
these tests pin that property across both engines and the iperf layer.
"""

import json

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.testbed.dumbbell import DumbbellConfig, build_dumbbell
from repro.traffic.iperf import Iperf3Client, Iperf3Server
from repro.units import mbps, seconds


def _packet_cfg(seed):
    return ExperimentConfig(
        cca_pair=("bbrv1", "cubic"), aqm="red", buffer_bdp=2.0,
        bottleneck_bw_bps=mbps(10), duration_s=6.0, mss_bytes=1500,
        flows_per_node=1, seed=seed,
    )


def _normalize(d):
    """Strip run-local identifiers (wallclock, process-global flow ids)."""
    d.pop("wallclock_s", None)
    flows = d.get("flows")
    if flows:
        flows["flow_id"] = list(range(len(flows["flow_id"])))
    return d


def test_packet_engine_bitwise_deterministic():
    a = _normalize(run_experiment(_packet_cfg(77)).to_dict())
    b = _normalize(run_experiment(_packet_cfg(77)).to_dict())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fluid_engine_bitwise_deterministic():
    cfg = ExperimentConfig(
        cca_pair=("bbrv2", "cubic"), aqm="fq_codel", buffer_bdp=2.0,
        bottleneck_bw_bps=mbps(500), duration_s=10.0, engine="fluid", seed=78,
    )
    a = _normalize(run_experiment(cfg).to_dict())
    b = _normalize(run_experiment(cfg).to_dict())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_iperf_logs_deterministic():
    docs = []
    for _ in range(2):
        Iperf3Server.reset_registry()
        db = build_dumbbell(
            DumbbellConfig(bottleneck_bw_bps=mbps(20), buffer_bdp=2.0,
                           mss_bytes=1500, seed=31)
        )
        Iperf3Server(db.servers[0])
        client = Iperf3Client(db.clients[0], db.servers[0], congestion="cubic",
                              parallel=2, duration_s=4.0, mss=1500)
        client.start()
        db.network.run(seconds(5))
        doc = client.json_result()
        # Flow ids come from a process-global counter: normalize them.
        for iv in doc["intervals"]:
            for s in iv["streams"]:
                s["socket"] = 0
        for s in doc["end"]["streams"]:
            s["sender"]["socket"] = s["receiver"]["socket"] = 0
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]
