"""End-to-end smoke tests for ``repro serve``.

A real asyncio server on a loopback port, talked to over raw HTTP/1.1:
cold query schedules the engine, re-query is a cache hit with zero
recompute, malformed configs come back as clean 400s, and the cache
counters show up in the Prometheus exposition.
"""

import asyncio
import json

import pytest

import repro.service as service_mod
from repro.experiments.cache import ResultCache
from repro.experiments.config import ExperimentConfig
from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.service import SweepService
from repro.units import mbps

CONFIG = {
    "cca_pair": ["cubic", "cubic"],
    "bottleneck_bw_bps": mbps(100),
    "duration_s": 5.0,
    "engine": "fluid",
    "seed": 3,
    "fairness_interval_s": 1.0,
}


def _fake_result(cfg):
    return ExperimentResult(
        config=cfg.to_dict(),
        senders=[SenderStats("client1", "cubic", 50e6, 0, 1)],
        flows=FlowTable(),
        jain_index=0.97,
        link_utilization=1.0,
        total_retransmits=0,
        total_throughput_bps=100e6,
        bottleneck_drops=0,
        duration_s=cfg.duration_s,
        engine=cfg.engine,
        wallclock_s=0.01,
        extra={"fairness": {"samples": [{"t_s": 1.0, "jain": 0.97}],
                            "convergence_time_s": 1.0}},
    )


async def _raw_request(port, request, *, half_close=False):
    """Send ``request`` bytes as is; returns (status, response body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    if half_close:
        writer.write_eof()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), body


async def _post_bytes(port, payload, method="POST", path="/query"):
    """One well-framed exchange carrying ``payload`` bytes as is."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: localhost\r\nContent-Length: {len(payload)}\r\n\r\n"
    )
    return await _raw_request(port, head.encode() + payload)


async def _request(port, method, path, body=None):
    """One raw HTTP/1.1 exchange; returns (status, parsed-or-text body)."""
    payload = b"" if body is None else json.dumps(body).encode()
    status, raw = await _post_bytes(port, payload, method, path)
    text = raw.decode()
    try:
        return status, json.loads(text)
    except json.JSONDecodeError:
        return status, text


def _serve(tmp_path, monkeypatch, coro_fn, *, engine_calls=None, **service_kw):
    """Run ``coro_fn(port, service)`` against a live service instance."""
    if engine_calls is not None:
        def counted_run(cfg):
            engine_calls.append(cfg.label())
            return _fake_result(cfg)
        monkeypatch.setattr(service_mod, "run_experiment", counted_run)

    async def driver():
        cache = ResultCache(tmp_path / "cache", worker="serve-test")
        service = SweepService(cache, **service_kw)
        server = await service.start(port=0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await coro_fn(port, service)
        finally:
            server.close()
            await server.wait_closed()
            service.close()

    return asyncio.run(driver())


def test_cold_then_warm_query(tmp_path, monkeypatch):
    calls = []

    async def scenario(port, service):
        cold_status, cold = await _request(port, "POST", "/query", CONFIG)
        warm_status, warm = await _request(port, "POST", "/query", CONFIG)
        return cold_status, cold, warm_status, warm

    cold_status, cold, warm_status, warm = _serve(
        tmp_path, monkeypatch, scenario, engine_calls=calls
    )
    assert cold_status == 200 and warm_status == 200
    assert cold["cached"] is False and warm["cached"] is True
    assert len(calls) == 1  # the re-query never touched the engine
    assert cold["jain_index"] == warm["jain_index"] == 0.97
    assert warm["convergence_time_s"] == 1.0
    assert warm["fairness"]["samples"]
    assert cold["key"] == warm["key"] and len(cold["key"]) == 64


def test_full_flag_inlines_result(tmp_path, monkeypatch):
    async def scenario(port, service):
        _, brief = await _request(port, "POST", "/query", CONFIG)
        _, full = await _request(port, "POST", "/query", {**CONFIG, "full": True})
        return brief, full

    brief, full = _serve(tmp_path, monkeypatch, scenario, engine_calls=[])
    assert "result" not in brief
    assert full["result"]["config"]["seed"] == 3


@pytest.mark.parametrize("query,inlined", [
    ("nofull=1", False),
    ("full=0", False),
    ("full=true", True),
    ("x=1&full=1", True),
])
def test_full_query_parameter_is_parsed(tmp_path, monkeypatch, query, inlined):
    """Only a ``full`` parameter of ``1`` or ``true`` inlines the row."""
    async def scenario(port, service):
        return await _request(port, "POST", f"/query?{query}", CONFIG)

    status, body = _serve(tmp_path, monkeypatch, scenario, engine_calls=[])
    assert status == 200
    assert ("result" in body) is inlined


def test_malformed_configs_get_clean_400s(tmp_path, monkeypatch):
    calls = []

    async def scenario(port, service):
        responses = {}
        responses["bad_cca"] = await _request(
            port, "POST", "/query", {**CONFIG, "cca_pair": ["cubic", "not-a-cca"]}
        )
        responses["missing"] = await _request(port, "POST", "/query", {"full": True})
        status, body = await _post_bytes(port, b"not json!")
        responses["not_json"] = (status, json.loads(body))
        return responses

    r = _serve(tmp_path, monkeypatch, scenario, engine_calls=calls)
    assert calls == []  # nothing malformed ever reaches the engine
    status, body = r["bad_cca"]
    assert status == 400 and "invalid experiment config" in body["error"]
    status, body = r["missing"]
    assert status == 400 and "cca_pair" in body["error"]
    status, body = r["not_json"]
    assert status == 400 and "not valid JSON" in body["error"]


#: The same experiment as CONFIG, spoken in the scenario IR dialect
#: (docs/SCENARIO.md).  The service must key both onto one cache entry.
SCENARIO_BODY = {
    "scenario": {
        "topology": {"bottleneck_bw_bps": mbps(100)},
        "flows": [
            {"cca": "cubic", "node": 0},
            {"cca": "cubic", "node": 1},
        ],
        "duration_s": 5.0,
        "seed": 3,
        "sampling": {"fairness_interval_s": 1.0},
    },
    "engine": "fluid",
}


def test_legacy_and_ir_queries_share_one_cache_entry(tmp_path, monkeypatch):
    calls = []

    async def scenario(port, service):
        legacy_status, legacy = await _request(port, "POST", "/query", CONFIG)
        ir_status, ir = await _request(port, "POST", "/query", SCENARIO_BODY)
        return legacy_status, legacy, ir_status, ir

    legacy_status, legacy, ir_status, ir = _serve(
        tmp_path, monkeypatch, scenario, engine_calls=calls
    )
    assert legacy_status == 200 and ir_status == 200
    assert legacy["cached"] is False and ir["cached"] is True
    assert len(calls) == 1  # the IR dialect re-used the legacy run
    assert legacy["key"] == ir["key"]


@pytest.mark.parametrize(
    "body",
    [
        {**SCENARIO_BODY["scenario"], "engine": "fluid", "full": True},
        {"config": CONFIG},
        {"config": SCENARIO_BODY["scenario"], "engine": "fluid"},
    ],
    ids=["bare-ir", "config-envelope", "config-envelope-ir"],
)
def test_only_the_two_request_shapes_are_accepted(tmp_path, monkeypatch, body):
    """A bare ExperimentConfig dict or {"scenario": ..., "engine": ...};
    anything else is a 400 naming both, and never runs an engine."""
    calls = []

    async def scenario(port, service):
        status, answer = await _request(port, "POST", "/query", body)
        return status, answer, len(service.cache)

    status, answer, entries = _serve(tmp_path, monkeypatch, scenario, engine_calls=calls)
    assert status == 400
    assert "cca_pair" in answer["error"] and '"scenario"' in answer["error"]
    assert calls == [] and entries == 0


def test_ir_schema_errors_get_clean_400s(tmp_path, monkeypatch):
    calls = []

    async def scenario(port, service):
        responses = {}
        responses["bad_field"] = await _request(
            port, "POST", "/query",
            {"scenario": {**SCENARIO_BODY["scenario"], "nonsense": 1}},
        )
        bad_flow = {
            **SCENARIO_BODY["scenario"],
            "flows": [{"cca": "not-a-cca", "node": 0}, {"cca": "cubic", "node": 1}],
        }
        responses["bad_cca"] = await _request(
            port, "POST", "/query", {"scenario": bad_flow}
        )
        responses["bad_engine"] = await _request(
            port, "POST", "/query", {**SCENARIO_BODY, "engine": "ns3"}
        )
        responses["not_object"] = await _request(
            port, "POST", "/query", {"scenario": "cell.json"}
        )
        return responses

    r = _serve(tmp_path, monkeypatch, scenario, engine_calls=calls)
    assert calls == []  # nothing malformed ever reaches the engine
    status, body = r["bad_field"]
    assert status == 400 and "unknown field" in body["error"]
    status, body = r["bad_cca"]
    assert status == 400 and "flows[0].cca" in body["error"]
    status, body = r["bad_engine"]
    assert status == 400 and "ns3" in body["error"]
    status, body = r["not_object"]
    assert status == 400 and "scenario" in body["error"]


def test_unknown_route_is_404(tmp_path, monkeypatch):
    async def scenario(port, service):
        return await _request(port, "GET", "/nope")

    status, body = _serve(tmp_path, monkeypatch, scenario)
    assert status == 404 and "no route" in body["error"]


def test_healthz_and_stats(tmp_path, monkeypatch):
    async def scenario(port, service):
        _, health0 = await _request(port, "GET", "/healthz")
        await _request(port, "POST", "/query", CONFIG)
        _, health1 = await _request(port, "GET", "/healthz")
        _, stats = await _request(port, "GET", "/stats")
        return health0, health1, stats

    health0, health1, stats = _serve(tmp_path, monkeypatch, scenario, engine_calls=[])
    assert health0 == {"ok": True, "entries": 0, "salt": health0["salt"]}
    assert health1["entries"] == 1
    assert stats["scheduled_runs"] == 1
    assert stats["misses"] == 1 and stats["puts"] == 1
    assert stats["requests"] >= 3


def test_metrics_exposes_cache_counters(tmp_path, monkeypatch):
    async def scenario(port, service):
        await _request(port, "POST", "/query", CONFIG)  # miss + engine run
        await _request(port, "POST", "/query", CONFIG)  # hit
        await _request(port, "POST", "/query", {"full": True})  # 400
        _, text = await _request(port, "GET", "/metrics")
        return text

    text = _serve(tmp_path, monkeypatch, scenario, engine_calls=[])
    assert "repro_service_cache_hits_total 1" in text
    assert "repro_service_cache_misses_total 1" in text
    assert "repro_service_engine_runs_total 1" in text
    assert "repro_service_errors_total 1" in text
    assert "repro_service_cache_entries 1" in text
    assert "repro_service_request_latency_seconds_bucket" in text


def test_single_flight_dedups_concurrent_queries(tmp_path, monkeypatch):
    calls = []

    async def scenario(port, service):
        return await asyncio.gather(
            *[_request(port, "POST", "/query", CONFIG) for _ in range(4)]
        )

    responses = _serve(tmp_path, monkeypatch, scenario, engine_calls=calls, jobs=4)
    assert len(calls) == 1  # four concurrent identical asks, one engine run
    assert all(status == 200 for status, _ in responses)
    assert sum(1 for _, body in responses if body["cached"] is False) >= 1


def test_scheduled_runs_log_campaign_progress(tmp_path, monkeypatch):
    async def scenario(port, service):
        await _request(port, "POST", "/query", CONFIG)
        await _request(port, "POST", "/query", CONFIG)  # hit: no new record
        return None

    _serve(
        tmp_path,
        monkeypatch,
        scenario,
        engine_calls=[],
        telemetry_dir=str(tmp_path / "telemetry"),
    )
    lines = (tmp_path / "telemetry" / "campaign.jsonl").read_text().splitlines()
    records = [json.loads(l) for l in lines]
    progress = [r for r in records if r.get("record") == "campaign_progress"]
    assert len(progress) == 1  # one engine run → one record, the hit adds none


def test_service_persists_into_shared_cache(tmp_path, monkeypatch):
    """A result computed by the service is visible to later sweeps."""
    async def scenario(port, service):
        await _request(port, "POST", "/query", CONFIG)
        return None

    _serve(tmp_path, monkeypatch, scenario, engine_calls=[])
    cfg = ExperimentConfig.from_dict(dict(CONFIG))
    hit = ResultCache(tmp_path / "cache").get(cfg)
    assert hit is not None and hit.jain_index == 0.97


def test_real_engine_end_to_end(tmp_path):
    """No monkeypatching: a genuine fluid run through the full HTTP path."""
    async def scenario(port, service):
        _, cold = await _request(port, "POST", "/query", CONFIG)
        _, warm = await _request(port, "POST", "/query", CONFIG)
        return cold, warm

    cold, warm = _serve(tmp_path, pytest.MonkeyPatch(), scenario)
    assert cold["cached"] is False and warm["cached"] is True
    assert cold["engine"] == "fluid"
    assert warm["fairness"]["samples"], "fairness series served from cache"
    assert cold["jain_index"] == warm["jain_index"]


# -- client-side framing and non-JSON literals: 400, never 500 ------------------------


def test_bad_content_length_and_short_body_are_400s(tmp_path, monkeypatch):
    async def scenario(port, service):
        negative = await _raw_request(
            port, b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}"
        )
        short = await _raw_request(
            port, b'POST /query HTTP/1.1\r\nContent-Length: 64\r\n\r\n{"cca_pair"',
            half_close=True,
        )
        return negative, short, int(service.errors.value)

    (neg_status, neg_body), (short_status, short_body), errors = _serve(
        tmp_path, monkeypatch, scenario, engine_calls=[]
    )
    assert neg_status == 400 and "Content-Length -5" in json.loads(neg_body)["error"]
    assert short_status == 400
    assert "ended after 11 of 64 bytes" in json.loads(short_body)["error"]
    assert errors == 2


@pytest.mark.parametrize(
    "body",
    [
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","duration_s":NaN}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","duration_s":Infinity}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","scale":-Infinity}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","duration_s":1e999}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","bottleneck_bw_bps":0}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","scale":0}',
        b'{"scenario":{"topology":{"bottleneck_bw_bps":1e8},"flows":[{"cca":"cubic","node":0},'
        b'{"cca":"cubic","node":1}],"duration_s":NaN},"engine":"fluid"}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","buffer_bdp":-1}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","mss_bytes":0}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","trunk_loss_rate":2.0}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","delay_multiplier":0}',
        b'{"cca_pair":["cubic","cubic"],"engine":"packet","client_delay_multipliers":[1,-1]}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","duration_s":2,"fairness_interval_s":1e999}',
        b'{"cca_pair":["cubic","cubic"],"engine":"packet","duration_s":2,"sample_interval_s":-1}',
        b'{"cca_pair":["cubic","cubic"],"engine":"packet","queue_monitor_interval_s":0}',
        b'{"scenario":{"topology":{"bottleneck_bw_bps":1e999}},"engine":"fluid"}',
        # Knobs the fluid engines do not model: refused, never answered
        # (and cached) as if they were not there.
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","ecn_mode":true}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid_batched","aqm":"codel"}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","client_delay_multipliers":[1,3]}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","trunk_loss_rate":0.01}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","aqm":"red","aqm_params":{"bogus":1}}',
        b'{"scenario":{"topology":{"bottleneck_bw_bps":1e8},"flows":[{"cca":"cubic","node":0},'
        b'{"cca":"cubic","node":1}],"aqm":{"name":"red","ecn":true}},"engine":"fluid_batched"}',
        # Seeds outside [0, 2**63) and integer knobs from 2**63: refused
        # before the engine, not a 500 from inside it.
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","seed":-1}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","seed":18446744073709551616}',
        b'{"cca_pair":["cubic","cubic"],"engine":"fluid","mss_bytes":9223372036854775808}',
        b'{"scenario":{"seed":-1},"engine":"fluid"}',
        b'{"scenario":{"seed":9223372036854775808},"engine":"fluid"}',
        b'{"scenario":{"flows":[{"cca":"cubic","node":0,"count":9223372036854775808},'
        b'{"cca":"cubic","node":1}]},"engine":"fluid"}',
    ],
    ids=["nan", "inf", "neg-inf", "overflow", "zero-bw", "zero-scale", "ir-nan",
         "neg-buffer", "zero-mss", "loss-2", "zero-delay", "neg-client-delay",
         "fairness-overflow", "neg-sample", "zero-queue-monitor", "ir-overflow-bw",
         "fluid-ecn", "fluid-codel", "fluid-rtt-stretch", "fluid-trunk-loss",
         "fluid-bogus-red-knob", "ir-fluid-ecn", "neg-seed", "seed-2**64",
         "mss-2**63", "ir-neg-seed", "ir-seed-2**63", "ir-count-2**63"],
)
def test_non_finite_and_non_positive_knobs_are_400s(tmp_path, monkeypatch, body):
    """None of them may reach the engine, let alone the cache."""
    calls = []

    async def scenario(port, service):
        status, answer = await _post_bytes(port, body)
        _, metrics = await _request(port, "GET", "/metrics")
        return status, json.loads(answer), len(service.cache), metrics

    status, answer, entries, metrics = _serve(
        tmp_path, monkeypatch, scenario, engine_calls=calls
    )
    assert status == 400 and answer["error"]
    assert calls == [] and entries == 0
    assert "repro_service_engine_runs_total 0" in metrics


# -- the hit path answers from the stored row -----------------------------------------


def _populate(root):
    """Three fluid_batched cells; returns [(legacy body, IR body, config)]."""
    from repro import api

    docs = [
        {
            "topology": {"bottleneck_bw_bps": bw, "buffer_bdp": 2.0},
            "flows": [
                {"cca": a, "node": 0, "count": per_node},
                {"cca": b, "node": 1, "count": per_node},
            ],
            "aqm": {"name": aqm},
            "duration_s": 2.0,
            "seed": 70 + i,
            **({"sampling": {"fairness_interval_s": 0.5}} if i else {}),
        }
        for i, (a, b, aqm, bw, per_node) in enumerate(
            [
                ("cubic", "cubic", "fifo", mbps(100), 1),
                ("bbrv1", "cubic", "red", mbps(500), 5),
                ("reno", "cubic", "fq_codel", mbps(1000), 10),
            ]
        )
    ]
    scenarios = [api.Scenario.from_dict(d) for d in docs]
    with ResultCache(root, worker="populate") as cache:
        api.sweep(scenarios, engine="fluid_batched", cache=cache, jobs=1)
    cells = []
    for doc, scenario in zip(docs, scenarios):
        config = api.compile_scenario(scenario, "fluid_batched")
        cells.append(
            (config.to_dict(), {"scenario": doc, "engine": "fluid_batched"}, config)
        )
    return cells


def _reference_body(key, config, row, full):
    """The answer as rendered before the hit path read the row: decode the
    row, read the fields off the result, re-serialise for ``full``."""
    result = ExperimentResult.from_dict(row)
    fairness = result.extra.get("fairness") if isinstance(result.extra, dict) else None
    payload = {
        "label": config.label(),
        "key": key,
        "cached": True,
        "engine": result.engine,
        "jain_index": result.jain_index,
        "flow_jain_index": (
            result.extra.get("flow_jain_index") if isinstance(result.extra, dict) else None
        ),
        "link_utilization": result.link_utilization,
        "total_retransmits": result.total_retransmits,
        "total_throughput_bps": result.total_throughput_bps,
        "fairness": fairness,
        "convergence_time_s": fairness.get("convergence_time_s") if fairness else None,
    }
    if full:
        payload["result"] = result.to_dict()
    return json.dumps(payload, sort_keys=True).encode()


def test_hit_bodies_equal_the_decoded_reference_byte_for_byte(tmp_path, monkeypatch):
    cells = _populate(tmp_path / "cache")
    calls = []

    async def scenario(port, service):
        bodies = []
        for legacy, ir, config in cells:
            key = service.cache.key_for(config)
            row = service.cache._index[key]
            for full in (False, True):
                want = _reference_body(key, config, row, full)
                for dialect in (legacy, ir):
                    sent = json.dumps({**dialect, "full": full}).encode()
                    bodies.append((want, await _post_bytes(port, sent)))
        return bodies, service.cache.hits, service.cache.misses

    bodies, hits, misses = _serve(tmp_path, monkeypatch, scenario, engine_calls=calls)
    assert len(bodies) == 12 and (hits, misses, calls) == (12, 0, [])
    for want, (status, got) in bodies:
        assert status == 200
        assert got == want
    # The fixture covers what the renderer branches on: a fairness series
    # and a row wide enough that decoding it would show.
    answers = [json.loads(got) for _, (_, got) in bodies]
    assert any(a["fairness"] for a in answers)
    assert max(len(a["result"]["flows"]["flow_id"]) for a in answers if "result" in a) == 20


def test_row_missing_a_headline_field_is_a_500_not_a_partial_answer(tmp_path, monkeypatch):
    ((legacy, _ir, config), *_rest) = _populate(tmp_path / "cache")

    async def scenario(port, service):
        del service.cache._index[service.cache.key_for(config)]["jain_index"]
        return await _request(port, "POST", "/query", legacy)

    status, body = _serve(tmp_path, monkeypatch, scenario, engine_calls=[])
    assert status == 500 and "jain_index" in body["error"]
