"""Single-layer probes, run once in the traced run of the workload that
owns them (``PROBES``); every other workload reports those metrics as 0.

A probe times one layer's public calls directly, outside any workload's
timed region.  Its numbers explain the end-to-end ones; none has a bound.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import shutil
import time
from typing import Any, Callable, Dict, List, Sequence

from repro import analysis, api
from repro.experiments.cache import ResultCache
from repro.experiments.queue import WorkQueue, run_queue_worker

from ledger import inputs
from ledger.workloads import (
    GridCold, GridWarm, PacketAnchor, ServeMixed, _InProcessServer, check,
    http_request, parse, percentile,
)


def per_call_us(fn: Callable[[Any], Any], items: Sequence[Any], min_s: float = 0.05) -> float:
    """Mean microseconds per ``fn(item)``, cycling ``items`` for >= ``min_s``."""
    calls = 0
    t0 = time.perf_counter()
    while True:
        for item in items:
            fn(item)
        calls += len(items)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return elapsed / calls * 1e6


def host_calibration() -> Dict[str, float]:
    """Fixed pure-Python and numpy loops: how fast is the host right now?"""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    t1 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 200_000)
    for _ in range(80):
        x = np.sqrt(x * x + 1e-9) % 1.0
    t2 = time.perf_counter()
    return {"host.calib_py_s": t1 - t0, "host.calib_np_s": t2 - t1}


def scenario_probe(w: GridCold) -> Dict[str, float]:
    scenarios = parse(w.docs)
    return {
        "scenario.from_dict_us": per_call_us(api.Scenario.from_dict, w.docs),
        "scenario.canonical_json_us": per_call_us(lambda s: s.canonical_json(), scenarios),
        "scenario.compile_us": per_call_us(
            lambda s: api.compile_scenario(s, "fluid_batched"), scenarios
        ),
    }


def config_probe(w: GridWarm) -> Dict[str, float]:
    configs = [api.compile_scenario(s, "fluid_batched") for s in parse(w.docs)]
    dicts = [c.to_dict() for c in configs]
    from_dict = type(configs[0]).from_dict
    with ResultCache(w.cache_root, worker="probe") as cache:
        key_us = per_call_us(cache.key_for, configs)
    return {
        "config.from_dict_us": per_call_us(from_dict, dicts),
        "config.label_us": per_call_us(lambda c: c.label(), configs),
        "config.key_us": key_us,
    }


def _narrow_and_wide(w: GridWarm):
    """(config, cached result) of the grid's fewest- and most-flow cells."""
    by_flows = sorted(w.docs, key=inputs.flows_in)
    out = []
    with ResultCache(w.cache_root, worker="probe") as cache:
        for doc in (by_flows[0], by_flows[-1]):
            config = api.compile_scenario(api.Scenario.from_dict(doc), "fluid_batched")
            out.append((config, cache.get(config)))
    return out


def metrics_probe(w: GridWarm) -> Dict[str, float]:
    out = {}
    for width, (_, result) in zip(("narrow", "wide"), _narrow_and_wide(w)):
        as_dict = result.to_dict()
        out[f"metrics.to_dict_us.{width}"] = per_call_us(lambda r: r.to_dict(), [result])
        out[f"metrics.from_dict_us.{width}"] = per_call_us(type(result).from_dict, [as_dict])
    return out


def claims_probe(w: GridCold) -> Dict[str, float]:
    """Fidelity beside the speed: the paper's claims on the whole grid, at a
    sim duration long enough for the flows to converge."""
    docs = inputs.grid_docs(
        inputs.probe_axes(w.size), w.seed, w.size.claims_duration_s
    )
    results = api.sweep(
        parse(docs), engine="fluid_batched", jobs=min(2, os.cpu_count() or 1)
    )
    check(len(results) == len(docs), f"claims probe: {len(results)} of {len(docs)} results")
    claims = analysis.validate_claims(analysis.ResultSet(results))
    return {"analysis.claims_passed": float(sum(1 for c in claims if c.passed))}


def _null_tasks(w: GridWarm) -> list:
    """Packet-DES configs of the probe grid, for executors fed a null engine."""
    docs = inputs.grid_docs(inputs.probe_axes(w.size), w.seed, 0.0, des=True)
    return [api.compile_scenario(s, "packet") for s in parse(docs[: w.size.probe_tasks])]


def queue_scaling_probe(w: GridWarm) -> Dict[str, float]:
    """Queue drain at the paper grid's task count: ``claim`` re-walks the task
    list, so its per-claim cost grows with the list (compare ``queue.claim_us``
    at the workload's own, smaller, task count)."""
    configs = _null_tasks(w)
    queue_dir = w.scratch / "probe-queue"
    try:
        queue = WorkQueue.create(queue_dir, configs)
        t0 = time.perf_counter()
        drained = run_queue_worker(
            queue, run_fn=lambda c: dataclasses.replace(w.canned, config=c.to_dict())
        )
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(queue_dir, ignore_errors=True)
    check(
        len(drained) == len(configs) and not drained.failures,
        f"queue probe: drained {len(drained)} of {len(configs)}",
    )
    return {"queue.drain_per_task_us.paper": wall / len(configs) * 1e6}


def hardened_probe(w: GridWarm) -> Dict[str, float]:
    """The watchdogged one-process-per-config executor with a null worker.

    ``retries=1`` absorbs the executor's ``poll()``/``is_alive()`` race (a
    worker that exits between the two looks like a crash); each absorbed
    retry is counted as a spurious crash instead of failing the run.
    """
    from repro.experiments.campaign import run_campaign

    canned = w.canned.to_dict()

    def null_worker(payload: tuple) -> dict:
        return {"ok": dict(canned, config=payload[0])}

    configs = _null_tasks(w)
    t0 = time.perf_counter()
    outcome = run_campaign(
        configs, jobs=2, retries=1, backoff_s=0.01, worker_fn=null_worker
    )
    wall = time.perf_counter() - t0
    check(
        len(outcome) == len(configs),
        f"hardened probe: {len(outcome)} of {len(configs)} null runs recorded",
    )
    return {
        "campaign.hardened_per_config_ms": wall / len(configs) * 1e3,
        "campaign.hardened_spurious_crashes": float(outcome.retried),
    }


def obs_probe(w: PacketAnchor) -> Dict[str, float]:
    """Enabled cost of telemetry: one bbrv1-vs-cubic RED cell, off vs on."""
    from repro.obs.session import TelemetryOptions

    doc = inputs.scenario_doc(
        ("bbrv1", "cubic"), "red", 2.0, w.size.obs_cell_bw_bps, seed=w.seed,
        duration_s=w.size.packet_duration_s, warmup_s=0.0,
        mss_bytes=inputs.DES_MSS, scale=inputs.DES_SCALE,
    )
    scenario = api.Scenario.from_dict(doc)

    def timed(**telemetry: Any) -> float:
        options = None
        if telemetry:
            options = TelemetryOptions(dir=str(w.scratch / "telemetry"), **telemetry)
        t0 = time.perf_counter()
        api.run(scenario, "packet", telemetry=options)
        return time.perf_counter() - t0

    off = timed()
    return {
        "obs.telemetry_on_ratio": timed(spans=True) / off,
        "obs.profile_on_ratio": timed(profile=True) / off,
    }


def scalar_fluid_probe(w: ServeMixed) -> Dict[str, float]:
    """The cold queries' engine work, outside the server."""
    walls: List[float] = []
    steps = 0.0
    for doc in w.cold_docs:
        scenario = api.Scenario.from_dict(doc)
        t0 = time.perf_counter()
        api.run(scenario, "fluid")
        walls.append(time.perf_counter() - t0)
        steps += doc["duration_s"] * inputs.FLUID_STEPS_PER_SIM_S
    total = sum(walls)
    walls.sort()
    return {
        "fluid.scalar.run_ms": percentile(walls, 0.5) * 1e3,
        "fluid.scalar.steps_per_s": steps / total,
    }


def service_probe(w: ServeMixed) -> Dict[str, float]:
    from repro.service import SweepService

    out = {}
    by_flows = sorted(w.docs, key=inputs.flows_in)
    service = SweepService(ResultCache(w.cache_root, worker="probe"))
    try:
        for width, doc in (("narrow", by_flows[0]), ("wide", by_flows[-1])):
            config = api.compile_scenario(api.Scenario.from_dict(doc), "fluid_batched")

            async def hits(n: int = 200) -> float:
                t0 = time.perf_counter()
                for _ in range(n):
                    answer = await service.answer(config)
                    check(answer["cached"] is True, "service probe: a hit missed")
                return (time.perf_counter() - t0) / n * 1e6

            out[f"service.answer_hit_us.{width}"] = asyncio.run(hits())
    finally:
        service.close()

    server = _InProcessServer(w.cache_root)
    try:
        trips = sorted(http_request(server.port, "GET", "/healthz")[2] for _ in range(300))
        scrapes = [http_request(server.port, "GET", "/metrics")[2] for _ in range(20)]
    finally:
        server.close()
    out["service.http_roundtrip_us"] = percentile(trips, 0.5) * 1e6
    out["service.metrics_scrape_ms"] = sum(scrapes) / len(scrapes) * 1e3
    return out


PROBES: Dict[str, Sequence[Callable[[Any], Dict[str, float]]]] = {
    "grid_cold": (scenario_probe, claims_probe),
    "grid_warm": (config_probe, metrics_probe, queue_scaling_probe, hardened_probe),
    "packet_anchor": (obs_probe,),
    "serve_mixed": (scalar_fluid_probe, service_probe),
}
