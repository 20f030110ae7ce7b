"""``repro serve`` — the async fairness-query front-end of the sweep service.

A small asyncio HTTP server (stdlib only, HTTP/1.1, one request per
connection) that answers what-if fairness questions from the
content-addressed :class:`~repro.experiments.cache.ResultCache`, or
schedules the run when the config has never been computed:

    GET  /healthz   liveness + cache entry count
    GET  /stats     cache + service counters as JSON
    GET  /metrics   Prometheus text exposition (cache hit/miss/engine-run
                    counters, in-flight gauge, latency histogram)
    POST /query     body = an ``ExperimentConfig`` dict, or a scenario IR
                    document (docs/SCENARIO.md) under ``"scenario"`` with
                    an optional sibling ``"engine"``; responds with the
                    fairness headline (Jain / φ / RR, plus convergence and
                    the full dynamics series from ``extra["fairness"]``
                    when the config samples them) and ``"cached"`` telling
                    whether an engine ran.  ``{"full": true}`` inlines the
                    complete result dict.  Both shapes compile to one
                    canonical config, so they share cache entries.

Concurrency: identical in-flight queries are *single-flighted* — the
second asker awaits the first run instead of scheduling a duplicate —
and engine runs execute in a thread pool so the event loop stays
responsive.  Completed runs are put back into the service's cache shard,
so the next ask is a hit.

Observability: the service reuses the existing plumbing — the metrics
page is rendered by :func:`repro.obs.export.to_prometheus`, and with
``telemetry_dir`` set every scheduled run appends a
``campaign_progress`` record to ``campaign.jsonl`` exactly like a sweep,
so ``repro obs tail`` works unchanged.  See docs/SERVICE.md.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.experiments.cache import ResultCache
from repro.experiments.campaign import CampaignProgress
from repro.experiments.config import ExperimentConfig, canonical_engine_name
from repro.experiments.runner import run_experiment
from repro.metrics.summary import ExperimentResult
from repro.obs.export import to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.scenario.compile import compile_scenario
from repro.scenario.ir import Scenario, ScenarioError

#: Request body size cap (a config dict is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20

#: Latency buckets in seconds: service answers span cache-lookup
#: microseconds to multi-second engine runs.
LATENCY_BUCKETS = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0, 600.0)


class BadRequest(ValueError):
    """Client-side error; rendered as a clean HTTP 400 JSON body."""


class SweepService:
    """Cache-first fairness query service over one :class:`ResultCache`."""

    def __init__(
        self,
        cache: ResultCache,
        *,
        jobs: int = 1,
        telemetry_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.cache = cache
        self.registry = registry if registry is not None else MetricsRegistry(True)
        self._inflight: Dict[str, asyncio.Future] = {}
        self._scheduled = 0
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="repro-serve"
        )
        self._progress: Optional[CampaignProgress] = None
        if telemetry_dir is not None:
            self._progress = CampaignProgress(
                Path(telemetry_dir) / "campaign.jsonl", quiet=True
            )
        r = self.registry
        self.requests = r.counter(
            "service_requests_total", "HTTP requests accepted by repro serve"
        )
        self.errors = r.counter(
            "service_errors_total", "Requests that ended in a 4xx/5xx response"
        )
        self.cache_hits = r.counter(
            "service_cache_hits_total",
            "Queries answered from the content-addressed result cache",
            fn=lambda: self.cache.hits,
        )
        self.cache_misses = r.counter(
            "service_cache_misses_total",
            "Queries that found no cached result",
            fn=lambda: self.cache.misses,
        )
        self.engine_runs = r.counter(
            "service_engine_runs_total",
            "Experiment runs scheduled because the cache missed",
            fn=lambda: self._scheduled,
        )
        r.gauge(
            "service_cache_entries",
            "Results currently indexed by the cache",
            fn=lambda: len(self.cache),
        )
        self.inflight = r.gauge(
            "service_inflight_runs", "Engine runs currently executing"
        )
        self.latency = r.histogram(
            "service_request_latency_seconds",
            "Wall-clock time to answer a query",
            buckets=LATENCY_BUCKETS,
        )

    # -- query path ---------------------------------------------------------------

    def _parse_config(self, body: Dict[str, Any]) -> ExperimentConfig:
        """Lower either request shape to one key space.

        A bare ``ExperimentConfig`` dict (recognized by ``cca_pair``), or
        ``{"scenario": <IR document>, "engine": ...}`` (docs/SCENARIO.md;
        ``engine`` defaults to ``packet``).  Both compile to the same
        canonical config, so they hit the same cache entries; schema
        violations surface as HTTP 400s carrying the IR's dotted field path.
        """
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        if "scenario" in body:
            doc, engine = body["scenario"], body.get("engine", "packet")
            if not isinstance(doc, dict):
                raise BadRequest(
                    "'scenario' must be a scenario IR object (docs/SCENARIO.md)"
                )
            if not isinstance(engine, str):
                raise BadRequest(f"'engine' must be a string, got {engine!r}")
            try:
                return compile_scenario(
                    Scenario.from_dict(doc), canonical_engine_name(engine)
                )
            except ScenarioError as exc:
                raise BadRequest(f"invalid scenario: {exc}") from None
        if "cca_pair" not in body:
            raise BadRequest(
                "missing experiment config: send an ExperimentConfig dict "
                "(with at least 'cca_pair'), or a scenario IR document as "
                '{"scenario": {...}, "engine": "..."}'
            )
        config_dict = {k: v for k, v in body.items() if k != "full"}
        try:
            return ExperimentConfig.from_dict(config_dict)
        except (TypeError, ValueError, KeyError, IndexError) as exc:
            raise BadRequest(f"invalid experiment config: {exc}") from None

    async def answer(self, config: ExperimentConfig, *, full: bool = False) -> Dict[str, Any]:
        """Fairness answer for one config: rendered from the cache's stored
        row on a hit, else from the one row the scheduled run is put as."""
        key = self.cache.key_for(config)
        row = self.cache.row(key)
        if row is not None:
            return self._render(config, key, row, cached=True, full=full)
        row = await self._compute(config, key)
        return self._render(config, key, row, cached=False, full=full)

    async def _compute(self, config: ExperimentConfig, key: str) -> Dict[str, Any]:
        """Run the engine once per key, however many askers are waiting:
        all get the one row the engine thread built and the first asker put."""
        future = self._inflight.get(key)
        if future is not None:
            return (await asyncio.shield(future))[1]
        loop = asyncio.get_running_loop()
        self._scheduled += 1
        self.inflight.set(len(self._inflight) + 1)
        future = loop.run_in_executor(self._executor, _run_to_row, config)
        self._inflight[key] = future
        try:
            result, row = await future
        finally:
            self._inflight.pop(key, None)
            self.inflight.set(len(self._inflight))
        self.cache.put(result, row)
        if self._progress is not None:
            n = self._scheduled
            self._progress(n, n, result)
        return row

    def _render(
        self,
        config: ExperimentConfig,
        key: str,
        row: Dict[str, Any],
        *,
        cached: bool,
        full: bool,
    ) -> Dict[str, Any]:
        """The answer, read off a result row (a missing headline field is
        a ``KeyError``, i.e. a 500: never a partial answer)."""
        extra = row.get("extra")
        extra = extra if isinstance(extra, dict) else {}
        fairness = extra.get("fairness")
        payload: Dict[str, Any] = {
            "label": config.label(),
            "key": key,
            "cached": cached,
            "engine": row["engine"],
            "jain_index": row["jain_index"],
            "flow_jain_index": extra.get("flow_jain_index"),
            "link_utilization": row["link_utilization"],
            "total_retransmits": row["total_retransmits"],
            "total_throughput_bps": row["total_throughput_bps"],
            "fairness": fairness,
            "convergence_time_s": fairness.get("convergence_time_s") if fairness else None,
        }
        if full:
            payload["result"] = row
        return payload

    # -- HTTP plumbing ------------------------------------------------------------

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """One HTTP/1.1 request/response exchange, then close."""
        t0 = time.perf_counter()
        self.requests.inc()
        try:
            method, path, body = await _read_request(reader)
            status, ctype, payload = await self._dispatch(method, path, body)
        except BadRequest as exc:
            self.errors.inc()
            status, ctype, payload = 400, "application/json", json.dumps(
                {"error": str(exc)}
            )
        except Exception as exc:  # pragma: no cover - defensive 500 path
            self.errors.inc()
            status, ctype, payload = 500, "application/json", json.dumps(
                {"error": f"internal error: {exc!r}"}
            )
        try:
            _write_response(writer, status, ctype, payload)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
        self.latency.observe(time.perf_counter() - t0)

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, str, str]:
        route, _, query = path.partition("?")
        if method == "GET" and route == "/healthz":
            return 200, "application/json", json.dumps(
                {"ok": True, "entries": len(self.cache), "salt": self.cache.salt}
            )
        if method == "GET" and route == "/stats":
            stats = dict(self.cache.stats())
            stats["scheduled_runs"] = self._scheduled
            stats["requests"] = int(self.requests.value)
            return 200, "application/json", json.dumps(stats, sort_keys=True)
        if method == "GET" and route == "/metrics":
            return 200, "text/plain; version=0.0.4", to_prometheus(self.registry)
        if method == "POST" and route == "/query":
            try:
                parsed = json.loads(
                    body.decode("utf-8") or "null", parse_constant=_refuse_constant
                )
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise BadRequest(f"request body is not valid JSON: {exc}") from None
            config = self._parse_config(parsed)
            full = bool(isinstance(parsed, dict) and parsed.get("full")) or any(
                value in ("1", "true") for value in parse_qs(query).get("full", ())
            )
            payload = await self.answer(config, full=full)
            return 200, "application/json", json.dumps(payload, sort_keys=True)
        self.errors.inc()
        return 404, "application/json", json.dumps(
            {"error": f"no route {method} {route}; see docs/SERVICE.md"}
        )

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.AbstractServer:
        """Bind and return the server (``port=0`` picks a free port)."""
        return await asyncio.start_server(self.handle, host, port)

    def close(self) -> None:
        """Release the executor, cache shard handle, and progress log."""
        self._executor.shutdown(wait=False)
        self.cache.close()
        if self._progress is not None:
            self._progress.close()
            self._progress = None


def _refuse_constant(name: str) -> None:
    """``json.loads`` hook: NaN and ±Infinity are not JSON (and would poison the cache)."""
    raise BadRequest(f"request body is not valid JSON: {name} is not a JSON value")


def _run_to_row(config: ExperimentConfig) -> Tuple[ExperimentResult, Dict[str, Any]]:
    """Engine-thread body of a cold query: the result and its one row."""
    result = run_experiment(config)
    return result, result.to_dict()


async def _read_request(reader: asyncio.StreamReader) -> Tuple[str, str, bytes]:
    """Parse one HTTP/1.1 request: (method, target, body)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        raise BadRequest("truncated or oversized HTTP request head") from None
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise BadRequest(f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                length = int(value.strip())
            except ValueError:
                raise BadRequest(f"bad Content-Length: {value.strip()!r}") from None
    if not 0 <= length <= MAX_BODY_BYTES:
        raise BadRequest(f"Content-Length {length} not in 0..{MAX_BODY_BYTES} bytes")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise BadRequest(f"body ended after {len(exc.partial)} of {length} bytes") from None
    return method, target, body


def _write_response(
    writer: asyncio.StreamWriter, status: int, ctype: str, payload: str
) -> None:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}
    data = payload.encode("utf-8")
    head = (
        f"HTTP/1.1 {status} {reason.get(status, 'Unknown')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(data)}\r\n"
        "Connection: close\r\n\r\n"
    )
    writer.write(head.encode("latin-1") + data)


async def _serve_forever(service: SweepService, host: str, port: int) -> None:
    server = await service.start(host, port)
    addr = server.sockets[0].getsockname()
    print(f"repro serve: listening on http://{addr[0]}:{addr[1]} "
          f"(cache: {service.cache.dir}, {len(service.cache)} entries)", flush=True)
    async with server:
        await server.serve_forever()


def serve(args: Any) -> int:
    """``repro serve``: bind ``args.host:args.port`` and answer queries
    from the cache at ``args.cache`` until interrupted."""
    cache = ResultCache(args.cache, worker=f"serve{os.getpid()}")
    service = SweepService(
        cache, jobs=args.jobs, telemetry_dir=args.telemetry_dir
    )
    try:
        asyncio.run(_serve_forever(service, args.host, args.port))
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
    finally:
        service.close()
    return 0
