"""The record path serialises each result once and reads the store once.

Every transport — inline (single configs and batched shards), worker
processes (plain "pool" and "hardened"), queue worker — hands the rows
``campaign.run_task`` built to one record function (``campaign._recorder``).  Spies count, in the recording process, the rows
built (``ExperimentResult.to_dict``), the lines encoded (``ResultStore.encode``)
and decoded (``orjson.loads``; ``json.loads`` for what orjson refuses), the
``ResultCache.put`` calls, the reads of the store (``ResultStore.iter_dicts``)
and the ``FlowStats`` built: reading a row keeps its flow columns, so a warm
sweep, a resume and ``load()`` build none.

``repro serve`` is held to the same budget per query: a hit costs one cache
key and decodes nothing (``ExperimentResult.from_dict``, no ``FlowStats``),
a miss builds one row and puts it once.
"""

import asyncio
import collections
import json
import time

import orjson
import pytest

import repro.experiments.cache as cache_mod
import repro.service as service_mod
from repro.experiments.cache import CacheConflictError, ResultCache
from repro.experiments.campaign import load_failures, run_campaign, run_task
from repro.experiments.config import ExperimentConfig
from repro.experiments.queue import WorkQueue, run_queue_worker
from repro.experiments.storage import ResultStore, TornWriteWarning
from repro.metrics.summary import ExperimentResult, FlowStats
from repro.service import SweepService
from repro.units import mbps

N = 3


def _configs(engine="fluid", n=N, **kw):
    return [
        ExperimentConfig(
            cca_pair=("cubic", "cubic"),
            bottleneck_bw_bps=mbps(100),
            duration_s=5.0,
            engine=engine,
            seed=300 + i,
            **kw,
        )
        for i in range(n)
    ]


@pytest.fixture
def spy(monkeypatch):
    """Call counts of the record path's costs, in this process."""
    counts = collections.Counter()

    def counting(owner, name, count_as=None):
        raw = vars(owner)[name]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        real = raw.__func__ if kind else raw

        def wrapper(*args, **kwargs):
            counts[count_as or name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, kind(wrapper) if kind else wrapper)

    counting(ExperimentResult, "to_dict")
    counting(ExperimentResult, "from_dict")
    counting(FlowStats, "__init__", "flow_stats")
    counting(ResultCache, "put")
    counting(ResultStore, "iter_dicts")
    counting(ResultStore, "encode")
    counting(orjson, "loads", "decode")
    counting(json, "loads", "json_decode")
    counting(cache_mod, "config_key")
    return counts


def _campaign(engine, **kwargs):
    def sweep(tmp_path, name, cache):
        store = ResultStore(tmp_path / f"{name}.jsonl")
        return store, run_campaign(_configs(engine), store=store, cache=cache, **kwargs)

    return sweep


def _queue_worker(tmp_path, name, cache):
    store = ResultStore(tmp_path / f"{name}.jsonl")
    queue = WorkQueue.create(tmp_path / f"{name}-queue", _configs())
    return store, run_queue_worker(queue, store=store, cache=cache)


# (sweep function, rows the recording process may build for N fresh results)
# — worker processes build their rows in their own processes.
PATHS = {
    "serial": (_campaign("fluid", jobs=1), N),
    "serial-shard": (_campaign("fluid_batched", jobs=1), N),
    "pool": (_campaign("fluid", jobs=2), 0),
    "hardened": (_campaign("fluid", jobs=2, retries=1), 0),
    "queue-worker": (_queue_worker, N),
}


@pytest.mark.parametrize("path", sorted(PATHS))
def test_one_row_per_fresh_result_and_none_for_a_replayed_hit(tmp_path, spy, path):
    sweep, rows_built_here = PATHS[path]
    with ResultCache(tmp_path / "cache", worker="cold") as cache:
        store, cold = sweep(tmp_path, "cold", cache)
    assert (len(cold), cold.engine_runs, cache.puts) == (N, N, N)
    assert spy["to_dict"] == rows_built_here
    assert spy["put"] == N
    assert spy["encode"] == N  # one line per result, for store and shard alike
    cold_lines = sorted(store.path.read_text().splitlines())
    assert len(cold_lines) == N
    assert sorted(cache.shard_path.read_text().splitlines()) == cold_lines

    # The same sweep from the now-full cache: every result is a replayed
    # hit — stored again as the line the cache read, neither re-serialised
    # nor re-put.
    spy.clear()
    with ResultCache(tmp_path / "cache", worker="warm") as cache:
        store, warm = sweep(tmp_path, "warm", cache)
    assert (len(warm), warm.cache_hits, warm.engine_runs) == (N, N, 0)
    assert (cache.hits, cache.misses, cache.puts) == (N, 0, 0)
    assert spy["to_dict"] == 0
    assert spy["put"] == 0
    assert spy["encode"] == 0
    assert spy["decode"] == N  # the cache's index: one per line read
    assert spy["flow_stats"] == 0
    assert not cache.shard_path.exists()
    assert sorted(store.path.read_text().splitlines()) == cold_lines


@pytest.mark.parametrize("path", sorted(set(PATHS) - {"queue-worker"}))
def test_resumed_sweep_reads_the_store_once(tmp_path, spy, path):
    sweep, _ = PATHS[path]
    store, _ = sweep(tmp_path, "r", None)
    before = store.path.read_bytes()
    spy.clear()
    _, resumed = sweep(tmp_path, "r", None)
    assert (len(resumed), resumed.resumed, resumed.engine_runs) == (N, N, 0)
    assert spy["iter_dicts"] == 1
    assert spy["to_dict"] == spy["flow_stats"] == 0
    assert store.path.read_bytes() == before
    assert [r.to_dict() for r in resumed] == [
        r.to_dict() for r in ResultStore(store.path).load()
    ]


def test_load_reads_the_store_once(tmp_path, spy):
    store, _ = PATHS["serial"][0](tmp_path, "r", None)
    spy.clear()
    results = store.load()
    assert len(results) == N
    assert spy["iter_dicts"] == 1
    assert (spy["decode"], spy["json_decode"], spy["from_dict"]) == (N, 0, N)
    assert spy["flow_stats"] == 0 and all(len(r.flows) == 2 for r in results)


def test_merge_copies_lines_and_decodes_each_once(tmp_path, spy):
    """merge() encodes nothing: every surviving line is written as read."""
    results = list(run_campaign(_configs("fluid_batched", 2 * N)))
    with ResultCache(tmp_path / "cache", worker="a") as cache:
        for result in results[:N]:
            cache.put(result)
        cache.merge()
    # Two workers that do not see each other's shard: c's rows duplicate b's.
    b = ResultCache(tmp_path / "cache", worker="b")
    c = ResultCache(tmp_path / "cache", worker="c")
    for cache, part in ((b, results[N:]), (c, results[N:N + 2])):
        with cache:
            for result in part:
                cache.put(result)
    merger = ResultCache(tmp_path / "cache", worker="m")
    on_disk = [merger.canonical.path, *merger.shard_paths()]
    read = sum(len(p.read_text().splitlines()) for p in on_disk)
    lines = set().union(*(p.read_text().splitlines() for p in on_disk))
    spy.clear()
    summary = merger.merge()
    assert summary == {"entries": 2 * N, "shards_folded": 2, "duplicates": 2, "stale": 0}
    assert (spy["encode"], spy["to_dict"]) == (0, 0)
    assert (spy["decode"], spy["json_decode"]) == (read, 0)
    merged = merger.canonical.path.read_text().splitlines()
    assert len(merged) == 2 * N and set(merged) <= lines


def test_split_computes_one_key_per_config(tmp_path, spy):
    configs = _configs("fluid_batched")
    with ResultCache(tmp_path / "cache", worker="w") as cache:
        run_campaign(configs[:2], cache=cache)
    with ResultCache(tmp_path / "cache", worker="w") as cache:
        rows = [cache._index.get(cache.key_for(c)) for c in configs]
        spy.clear()
        hits, misses = cache.split(configs)
    assert spy["config_key"] == N
    assert spy["from_dict"] == 2  # only hits are decoded
    assert (cache.hits, cache.misses) == (2, 1)
    assert misses == configs[2:] and len(hits) == 2
    assert all(row is stored for (_, row, _line), stored in zip(hits, rows))


# -- repro serve: one key per query, no decode on a hit, one row per miss ------------


def _answers(cache, *asks):
    """``asks`` are lists of (config, full) answered concurrently, list after list."""
    async def run():
        service = SweepService(cache)
        try:
            return [
                await asyncio.gather(*(service.answer(c, full=full) for c, full in ask))
                for ask in asks
            ]
        finally:
            service.close()

    return asyncio.run(run())


def test_serve_hit_costs_one_key_and_decodes_nothing(tmp_path, spy):
    (config,) = _configs("fluid_batched", 1)
    with ResultCache(tmp_path / "cache", worker="w") as cache:
        run_campaign([config], cache=cache)
        key = cache.key_for(config)
        for full in (False, True):
            spy.clear()
            ((answer,),) = _answers(cache, [(config, full)])
            assert spy["config_key"] == 1
            assert spy["from_dict"] == spy["flow_stats"] == 0
            assert spy["to_dict"] == spy["put"] == 0
            assert answer["cached"] is True and answer["key"] == key
            if full:
                assert answer["result"] is cache._index[key]


def test_serve_miss_builds_one_row_however_many_askers_wait(tmp_path, spy, monkeypatch):
    (config,) = _configs("fluid", 1)
    real, runs = service_mod.run_experiment, []

    def engine(cfg):
        runs.append(cfg.label())
        return real(cfg)

    monkeypatch.setattr(service_mod, "run_experiment", engine)
    with ResultCache(tmp_path / "cache", worker="w") as cache:
        (first, second), (again,) = _answers(
            cache, [(config, True), (config, True)], [(config, True)]
        )
        assert len(runs) == 1 and (cache.misses, cache.hits, cache.puts) == (2, 1, 1)
        assert (spy["to_dict"], spy["put"]) == (1, 1)
        assert spy["from_dict"] == spy["flow_stats"] == 0
        assert spy["config_key"] == 3 + 1  # one per query, one by put
        assert first["cached"] is second["cached"] is False and again["cached"] is True
        assert first["result"] is second["result"] is again["result"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert cache.shard_path.read_text() == json.dumps(first["result"], sort_keys=True) + "\n"


def _drifting_worker(payload):
    """A nondeterministic engine: the Jain index moves from run to run."""
    config_dict, _ = payload
    row = run_task("one", [config_dict])[0]["ok"]
    return {"ok": dict(row, jain_index=time.time())}


def test_recomputed_result_still_meets_the_conflict_check(tmp_path, spy):
    """Only a *replayed hit* skips put.  A result computed again for a key
    the cache already holds is put: deduplicated if equivalent, refused
    with CacheConflictError if not."""
    twice = _configs() + _configs()
    with ResultCache(tmp_path / "cache", worker="a") as cache:
        outcome = run_campaign(twice, cache=cache)
        assert (outcome.engine_runs, spy["put"], cache.puts) == (2 * N, 2 * N, N)
    with ResultCache(tmp_path / "drift", worker="a") as cache:
        with pytest.raises(CacheConflictError, match="jain_index"):
            run_campaign(twice, cache=cache, worker_fn=_drifting_worker)


@pytest.mark.parametrize(
    "config",
    [
        ExperimentConfig(
            cca_pair=("cubic", "cubic"), bottleneck_bw_bps=mbps(10),
            duration_s=3.0, mss_bytes=1500, flows_per_node=1, engine="packet",
        ),
        _configs("fluid", 1)[0],
        _configs("fluid_batched", 1)[0],
    ],
    ids=lambda c: c.engine,
)
def test_stored_line_is_the_sorted_dump_of_to_dict(tmp_path, config):
    store = ResultStore(tmp_path / "r.jsonl")
    with ResultCache(tmp_path / "cache", worker="w") as cache:
        (result,) = run_campaign([config], store=store, cache=cache)
        line = json.dumps(result.to_dict(), sort_keys=True) + "\n"
        assert store.path.read_text() == line
        assert cache.shard_path.read_text() == line


# -- resume corruption, through run_campaign ----------------------------------------


def _full_store(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    run_campaign(_configs(), store=store)
    store.close()
    return store.path


def test_resume_raises_on_garbage_mid_file(tmp_path):
    path = _full_store(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[0] = lines[0][:40] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match="not a torn trailing write"):
        run_campaign(_configs(), store=ResultStore(path), resume=True)


def test_resume_raises_on_a_well_formed_line_that_is_not_a_result(tmp_path):
    path = _full_store(tmp_path)
    with path.open("a") as fh:
        fh.write('{"not": "a result"}\n')
    with pytest.raises(ValueError, match="corrupt result line"):
        run_campaign(_configs(), store=ResultStore(path), resume=True)


def test_resume_recomputes_a_row_in_the_old_per_flow_record_layout(tmp_path):
    """A row an older release stored with one record per flow is stale:
    resume reads past it and runs its config again."""
    path = _full_store(tmp_path)
    lines = path.read_bytes().splitlines(keepends=True)
    old = json.loads(lines[1])
    old["flows"] = ExperimentResult.from_dict(old).flows.records()
    lines[1] = (json.dumps(old, sort_keys=True) + "\n").encode()
    path.write_bytes(b"".join(lines))
    store = ResultStore(path)
    outcome = run_campaign(_configs(), store=store, resume=True)
    store.close()
    assert (len(outcome), outcome.resumed, outcome.engine_runs) == (N, N - 1, 1)
    assert outcome[-1].config["seed"] == old["config"]["seed"]
    assert outcome[-1].flows.records() == old["flows"]


def test_resume_pardons_a_torn_tail_and_reruns_only_that_config(tmp_path):
    path = _full_store(tmp_path)
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    path.write_bytes(data[: last + 37])  # SIGKILL mid-append
    store = ResultStore(path)
    with pytest.warns(TornWriteWarning):
        outcome = run_campaign(_configs(), store=store, resume=True)
    store.close()
    assert (len(outcome), outcome.resumed, outcome.engine_runs) == (N, N - 1, 1)
    assert not load_failures(store)
    assert sorted(r.config["seed"] for r in ResultStore(path).load()) == [300, 301, 302]
