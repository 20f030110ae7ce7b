"""The four workloads.  Names are fixed; later issues cite them.

Every workload goes only through surfaces later refactors must keep:
``repro.api``, ``ResultCache``, ``ResultStore``, ``WorkQueue`` /
``run_queue_worker``, ``repro.analysis`` and the ``repro serve`` CLI.  One
*unit* is one repetition of a workload's timed region; ``run.py`` repeats
units, compares their ``facts`` (which must be identical at one seed) and
reports their median.  ``setup`` may be called more than once (``run.py`` times
it several times); each call starts from nothing.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import hashlib
import http.client
import json
import os
import re
import select
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import analysis, api
from repro.analysis import summary_report
from repro.experiments.cache import ResultCache
from repro.experiments.queue import WorkQueue, run_queue_worker
from repro.experiments.storage import ResultStore

from ledger import inputs
from ledger.trace import Tracer

SRC_DIR = Path(api.__file__).resolve().parent.parent


class CheckFailed(AssertionError):
    """A workload's output was wrong; the run reports ``correct: false``."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Unit:
    """One repetition of a workload's timed region."""

    wall_s: float
    attempted: int
    #: The issue's workload-specific end-to-end numbers for this repetition.
    timings: Dict[str, float]
    #: Deterministic outputs; must be equal across repetitions at one seed.
    facts: Dict[str, Any]
    #: Per-layer numbers measured directly (sizes, counts, sub-phase times).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Peak RSS of the program while the unit ran, where that is not this
    #: process (the server); ``run_unit`` fills in this process's otherwise.
    peak_rss_mb: Optional[float] = None


_VM_HWM = re.compile(r"VmHWM:\s+(\d+) kB")


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark at its current RSS."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # not permitted here: the mark keeps covering the whole process


def peak_rss_mb(pid: Any = "self") -> float:
    """Peak RSS of a live process since its mark was last restarted."""
    status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    return int(_VM_HWM.search(status).group(1)) / 1024.0


def run_unit(workload: Any, rep: int, tracer: Optional[Tracer] = None) -> Unit:
    """One repetition, with the program's peak RSS while it ran."""
    reset_peak_rss()
    unit = workload.unit(rep, tracer)
    if unit.peak_rss_mb is None:
        unit.peak_rss_mb = peak_rss_mb()
    return unit


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


_WALLCLOCK_TAIL = re.compile(r', "wallclock_s": [-+0-9.eE]+\}$')


def store_digest(path: Path) -> Tuple[str, int, int]:
    """(sha256 over the sorted canonical result lines, lines, bytes).

    Canonical = the stored result minus ``wallclock_s``, the one field that
    legitimately differs between a cache hit and a recompute.
    """
    rows = []
    size = 0
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            size += len(line)
            line = line.strip()
            if not line:
                continue
            # Stores write sorted keys, which puts wallclock_s last.
            stripped, n = _WALLCLOCK_TAIL.subn("}", line)
            if n != 1:
                d = json.loads(line)
                d.pop("wallclock_s", None)
                stripped = json.dumps(d, sort_keys=True)
            rows.append(stripped)
    rows.sort()
    digest = hashlib.sha256()
    for row in rows:
        digest.update(row.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest(), len(rows), size


def parse(docs: Sequence[Dict[str, Any]]) -> List[api.Scenario]:
    return [api.Scenario.from_dict(doc) for doc in docs]


def populate_cache(root: Path, store: Path, docs: Sequence[Dict[str, Any]]):
    """Set-up for the warm workloads: the grid computed into an empty ``root``.

    In this process (``jobs=1``): with a worker pool, which worker drew the
    wide shards decided how much memory this process kept afterwards, and
    ``peak_rss_mb`` moved by 8 % between runs of one seed.
    """
    shutil.rmtree(root, ignore_errors=True)
    store.unlink(missing_ok=True)
    with ResultCache(root, worker="populate") as cache:
        results = api.sweep(
            parse(docs), engine="fluid_batched", store=store, cache=cache,
            jobs=1,
        )
        cache.merge()
    check(len(results) == len(docs), f"populate: {len(results)} of {len(docs)} results")
    return results


class GridCold:
    """The paper grid into an empty cache and store (kernel-dominated)."""

    name = "grid_cold"

    def __init__(self, size: inputs.Size, seed: int, scratch: Path):
        self.size, self.seed, self.scratch = size, seed, scratch

    def setup(self) -> None:
        duration = self.size.cold_duration_s
        self.docs = inputs.grid_docs(self.size, self.seed, duration)
        inputs.assert_matches_facade(self.size, self.seed, self.docs, duration)

    def unit(self, rep: int, tracer: Optional[Tracer] = None) -> Unit:
        n = len(self.docs)
        work = self.scratch / f"cold{rep}"
        store = work / "store.jsonl"
        t0 = time.perf_counter()
        scenarios = parse(self.docs)
        cache = ResultCache(work / "cache", worker="ledger")
        try:
            t_sweep = time.perf_counter()
            results = api.sweep(
                scenarios, engine="fluid_batched", store=store, cache=cache, jobs=1
            )
            sweep_s = time.perf_counter() - t_sweep
            merged = cache.merge()
        finally:
            cache.close()
        wall = time.perf_counter() - t0

        check(len(results) == n, f"grid_cold: {len(results)} of {n} results")
        check(
            (cache.misses, cache.puts, merged["entries"]) == (n, n, n),
            f"grid_cold: cache saw misses={cache.misses} puts={cache.puts} "
            f"entries={merged['entries']}, want {n} each",
        )
        digest, lines, store_bytes = store_digest(store)
        check(lines == n, f"grid_cold: store holds {lines} lines, want {n}")
        claims = analysis.validate_claims(analysis.ResultSet(results))
        canonical = cache.canonical.path.stat().st_size
        engine_s = sum(r.wallclock_s for r in results)
        shutil.rmtree(work)
        return Unit(
            wall_s=wall,
            attempted=n,
            timings={"grid_cold_wall_s": wall},
            facts={
                "digest": digest,
                "claims_passed": sum(1 for c in claims if c.passed),
            },
            layer={
                "campaign.overhead_share": 1.0 - engine_s / sweep_s,
                "cache.bytes_per_entry": canonical / n,
                "storage.bytes_per_result": store_bytes / n,
            },
        )


class GridWarm:
    """Everything around the engine: the grid answered from a full cache,
    resumed from a full store, reported on, and drained through the queue
    with a null engine."""

    name = "grid_warm"

    def __init__(self, size: inputs.Size, seed: int, scratch: Path):
        self.size, self.seed, self.scratch = size, seed, scratch

    def setup(self) -> None:
        duration = self.size.populate_duration_s
        self.docs = inputs.grid_docs(self.size, self.seed, duration)
        inputs.assert_matches_facade(self.size, self.seed, self.docs, duration)
        self.cache_root = self.scratch / "warm-cache"
        setup_store = self.scratch / "setup.jsonl"
        results = populate_cache(self.cache_root, setup_store, self.docs)
        self.setup_digest = store_digest(setup_store)[0]
        self.canned = min(results, key=lambda r: len(r.flows))
        self.des_configs = [
            api.compile_scenario(s, "packet")
            for s in parse(inputs.grid_docs(self.size, self.seed, 0.0, des=True))
        ]

    def _null_engine(self, config):
        return dataclasses.replace(self.canned, config=config.to_dict())

    def unit(self, rep: int, tracer: Optional[Tracer] = None) -> Unit:
        n, n_des = len(self.docs), len(self.des_configs)
        store = self.scratch / f"warm{rep}.jsonl"
        queue_dir = self.scratch / f"queue{rep}"
        queue_store = self.scratch / f"queue{rep}.jsonl"

        # (a) open the cache and sweep: all hits, nothing computed.
        t0 = time.perf_counter()
        scenarios = parse(self.docs)
        with ResultCache(self.cache_root, worker=f"warm{rep}") as cache:
            results = api.sweep(
                scenarios, engine="fluid_batched", store=store, cache=cache, jobs=1
            )
        t1 = time.perf_counter()
        check(
            (len(results), cache.hits, cache.misses, cache.puts) == (n, n, 0, 0),
            f"grid_warm: results={len(results)} hits={cache.hits} "
            f"misses={cache.misses} puts={cache.puts}, want {n}/{n}/0/0",
        )

        # (b) the same sweep on the now-complete store, no cache: all resumed.
        resumed = api.sweep(scenarios, engine="fluid_batched", store=store, jobs=1)
        t2 = time.perf_counter()
        digest, lines, store_bytes = store_digest(store)
        check(
            len(resumed) == n and lines == n,
            f"grid_warm: resume returned {len(resumed)} results and left "
            f"{lines} stored lines, want {n}/{n}",
        )
        check(digest == self.setup_digest, "grid_warm: cache hits differ from the set-up results")

        # (c) read the store back and report on it.
        t3 = time.perf_counter()
        result_set = analysis.ResultSet(api.load_store(store))
        t_load = time.perf_counter()
        table = analysis.build_table3(result_set)
        t_table = time.perf_counter()
        claims = analysis.validate_claims(result_set)
        t_claims = time.perf_counter()
        report = summary_report.full_report(result_set)
        t4 = time.perf_counter()
        check(len(result_set) == n and bool(report), "grid_warm: empty report")

        # (d) the queue protocol and the worker's record path, null engine.
        queue = WorkQueue.create(queue_dir, self.des_configs)
        with ResultStore(queue_store) as qstore:
            drained = run_queue_worker(queue, store=qstore, run_fn=self._null_engine)
        t5 = time.perf_counter()
        check(
            len(drained) == n_des and not drained.failures and queue.drained,
            f"grid_warm: queue drained {len(drained)} of {n_des} "
            f"with {len(drained.failures)} failures",
        )

        for path in (store, queue_store):
            path.unlink()
        shutil.rmtree(queue_dir)
        return Unit(
            wall_s=(t2 - t0) + (t5 - t3),
            attempted=n + n + 1 + n_des,
            timings={
                "warm_sweep_s": t1 - t0,
                "resume_s": t2 - t1,
                "report_s": t4 - t3,
                "queue_drain_s": t5 - t4,
            },
            facts={
                "digest": digest,
                "claims_passed": sum(1 for c in claims if c.passed),
                "table3_rows": len(table),
            },
            layer={
                "analysis.table3_ms": (t_table - t_load) * 1e3,
                "analysis.claims_ms": (t_claims - t_table) * 1e3,
                "analysis.full_report_ms": (t4 - t_claims) * 1e3,
                "storage.bytes_per_result": store_bytes / n,
                "cache.bytes_per_entry": cache.canonical.path.stat().st_size / n,
                "queue.tasks": float(len(queue.tasks)),
            },
        )


class PacketAnchor:
    """Packet-DES cells: the fidelity anchor, all engine and no cache."""

    name = "packet_anchor"

    def __init__(self, size: inputs.Size, seed: int, scratch: Path):
        self.size, self.seed, self.scratch = size, seed, scratch

    def setup(self) -> None:
        self.docs = inputs.packet_docs(self.size, self.seed)
        self.aqm_of_seed = {d["seed"]: d["aqm"]["name"] for d in self.docs}

    def unit(self, rep: int, tracer: Optional[Tracer] = None) -> Unit:
        n = len(self.docs)
        store = self.scratch / f"packet{rep}.jsonl"
        t0 = time.perf_counter()
        results = api.sweep(parse(self.docs), engine="packet", store=store, jobs=1)
        wall = time.perf_counter() - t0

        check(len(results) == n, f"packet_anchor: {len(results)} of {n} results")
        for r in results:
            check(
                r.events_processed > 0 and 0.0 < r.jain_index <= 1.0 + 1e-9,
                f"packet_anchor: implausible result for seed {r.config['seed']}",
            )
        digest, lines, _ = store_digest(store)
        check(lines == n, f"packet_anchor: store holds {lines} lines, want {n}")
        store.unlink()
        layer = {
            "sim.events": float(sum(r.events_processed for r in results)),
            "campaign.overhead_share": 1.0 - sum(r.wallclock_s for r in results) / wall,
        }
        for r in results:
            aqm = self.aqm_of_seed[r.config["seed"]]
            layer[f"sim.events_per_s.{aqm}"] = r.events_processed / r.wallclock_s
        return Unit(
            wall_s=wall,
            attempted=n,
            timings={"packet_wall_s": wall},
            facts={"digest": digest, "events": int(layer["sim.events"])},
            layer=layer,
        )


class _SubprocessServer:
    """``python -m repro.cli serve`` on a private cache; always reaped."""

    def __init__(self, cache_root: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--cache", str(cache_root), "--port", "0"],
            stdout=subprocess.PIPE, env=env,
        )
        try:
            self.port = self._read_port(timeout_s=60.0)
        except BaseException:
            self.close()
            raise

    def _read_port(self, timeout_s: float) -> int:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout_s
        banner = b""
        while b"\n" not in banner:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            chunk = os.read(fd, 4096) if ready else b""
            if not chunk:
                raise CheckFailed(f"repro serve did not announce a port: {banner!r}")
            banner += chunk
        match = re.search(rb"listening on http://[^:]+:(\d+)", banner)
        if match is None:
            raise CheckFailed(f"unrecognised repro serve banner: {banner!r}")
        return int(match.group(1))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class _InProcessServer:
    """``SweepService`` on a loopback socket in this process, so the traced
    run sees the handler's spans under the client's."""

    def __init__(self, cache_root: Path):
        from repro.service import SweepService

        self.service = SweepService(ResultCache(cache_root, worker="serve-traced"))
        self.loop = asyncio.new_event_loop()
        self.port = 0
        started = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            server = self.loop.run_until_complete(self.service.start("127.0.0.1", 0))
            self.port = server.sockets[0].getsockname()[1]
            started.set()
            try:
                self.loop.run_forever()
            finally:
                server.close()
                self.loop.run_until_complete(server.wait_closed())
                self.loop.close()

        self.thread = threading.Thread(target=serve, name="ledger-serve", daemon=True)
        self.thread.start()
        if not started.wait(60.0):
            raise CheckFailed("in-process SweepService did not start")

    def peak_rss_mb(self) -> None:
        return None  # this process's, which run_unit reads

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30.0)
        self.service.close()
        check(not self.thread.is_alive(), "in-process SweepService did not stop")


@contextlib.contextmanager
def one_cpu():
    """Confine this thread, and whatever it starts, to one CPU.

    One closed-loop client is never busy while its server is, so a second
    CPU adds no capacity, only a wake-up of an idle virtual CPU per message,
    and what that costs is the hypervisor's doing: spread over two CPUs the
    warm phase read 700-1 090 queries/s from one quarter of an hour to the
    next, on one CPU 890-1 010 over the same spell.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def http_request(port: int, method: str, path: str, body: Optional[bytes] = None):
    """One request on its own connection: (status, body, seconds from
    connect to body read).  The server closes after every response."""
    t0 = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    return response.status, data, time.perf_counter() - t0


class ServeMixed:
    """``repro serve`` under one closed-loop client: never-seen scalar-fluid
    cells (cold), then seeded random reads of the cached grid in both request
    dialects (warm).  Loopback only."""

    name = "serve_mixed"

    def __init__(self, size: inputs.Size, seed: int, scratch: Path):
        self.size, self.seed, self.scratch = size, seed, scratch

    def setup(self) -> None:
        duration = self.size.populate_duration_s
        docs = self.docs = inputs.grid_docs(self.size, self.seed, duration)
        self.cache_root = self.scratch / "serve-cache"
        results = populate_cache(self.cache_root, self.scratch / "setup.jsonl", docs)
        jain_of_seed = {r.config["seed"]: r.jain_index for r in results}
        self.n_cells = len(docs)
        self.warm_jain = [jain_of_seed[d["seed"]] for d in docs]
        # Both dialects of every cell, encoded once: the client sends bytes.
        self.warm_bodies = [
            (
                json.dumps(api.compile_scenario(s, "fluid_batched").to_dict()).encode(),
                json.dumps({"scenario": d, "engine": "fluid_batched"}).encode(),
            )
            for d, s in zip(docs, parse(docs))
        ]
        self.cold_docs = inputs.cold_docs(self.size, self.seed)
        self.cold_bodies = [
            json.dumps({"scenario": d, "engine": "fluid"}).encode() for d in self.cold_docs
        ]
        self.plan = inputs.warm_query_plan(self.n_cells, self.size.warm_queries, self.seed)

    def _query(self, port: int, body: bytes, tracer: Optional[Tracer]):
        if tracer is None:
            status, data, dt = http_request(port, "POST", "/query", body)
        else:
            with tracer.span("client.request") as span:
                tracer.remote_parent = span.id
                try:
                    status, data, dt = http_request(port, "POST", "/query", body)
                finally:
                    tracer.remote_parent = 0
        check(status == 200, f"serve_mixed: HTTP {status}: {data[:200]!r}")
        return json.loads(data), dt

    def unit(self, rep: int, tracer: Optional[Tracer] = None) -> Unit:
        with one_cpu():
            return self._unit(rep, tracer)

    def _unit(self, rep: int, tracer: Optional[Tracer]) -> Unit:
        private = self.scratch / f"serve{rep}"
        shutil.copytree(self.cache_root, private)
        server_type = _SubprocessServer if tracer is None else _InProcessServer
        t0 = time.perf_counter()
        server = server_type(private)
        try:
            status, data, _ = http_request(server.port, "GET", "/healthz")
            startup_s = time.perf_counter() - t0
            check(
                status == 200 and json.loads(data).get("entries") == self.n_cells,
                f"serve_mixed: /healthz said {status} {data[:200]!r}",
            )

            cold: List[float] = []
            for body in self.cold_bodies:
                answer, dt = self._query(server.port, body, tracer)
                check(answer["cached"] is False, "serve_mixed: a cold query was served from cache")
                cold.append(dt)

            warm: List[float] = []
            t_warm = time.perf_counter()
            for cell, ir_dialect in self.plan:
                answer, dt = self._query(
                    server.port, self.warm_bodies[cell][ir_dialect], tracer
                )
                check(
                    answer["cached"] is True
                    and answer["jain_index"] == self.warm_jain[cell],
                    f"serve_mixed: warm answer for cell {cell} is not the cached row",
                )
                warm.append(dt)
            warm_s = time.perf_counter() - t_warm
            wall = time.perf_counter() - t0
            server_rss = server.peak_rss_mb()
        finally:
            server.close()
        shutil.rmtree(private)
        cold.sort()
        warm.sort()
        return Unit(
            wall_s=wall,
            attempted=1 + len(cold) + len(warm),
            timings={
                "serve_startup_s": startup_s,
                "serve_cold_p50_ms": percentile(cold, 0.5) * 1e3,
                "serve_warm_qps": len(warm) / warm_s,
                "serve_warm_p50_ms": percentile(warm, 0.5) * 1e3,
                "serve_warm_p99_ms": percentile(warm, 0.99) * 1e3,
            },
            facts={"cold": len(cold), "warm": len(warm)},
            peak_rss_mb=server_rss,
        )


WORKLOADS = {w.name: w for w in (GridCold, GridWarm, PacketAnchor, ServeMixed)}
