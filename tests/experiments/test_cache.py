"""Unit + property tests for the content-addressed result cache."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.cache as cache_mod
from repro.experiments.cache import (
    CacheConflictError,
    ResultCache,
    canonical_result_dict,
    config_key,
    default_salt,
    results_equivalent,
    salt_slug,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.storage import ResultStore, TornWriteWarning
from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.units import mbps


def _config(seed=1, engine="fluid", **kw):
    return ExperimentConfig(
        cca_pair=("cubic", "cubic"),
        bottleneck_bw_bps=mbps(100),
        duration_s=5.0,
        engine=engine,
        seed=seed,
        **kw,
    )


def _result(seed=1, *, jain=1.0, wallclock=0.5, engine="fluid"):
    cfg = _config(seed, engine=engine)
    return ExperimentResult(
        config=cfg.to_dict(),
        senders=[
            SenderStats("client1", "cubic", 50e6, 5, 1),
            SenderStats("client2", "cubic", 50e6, 3, 1),
        ],
        flows=FlowTable(),
        jain_index=jain,
        link_utilization=1.0,
        total_retransmits=8,
        total_throughput_bps=100e6,
        bottleneck_drops=8,
        duration_s=5.0,
        engine=engine,
        wallclock_s=wallclock,
    )


# -- keys and identity --------------------------------------------------------------


def test_config_key_is_stable_and_engine_sensitive():
    k1 = config_key(_config(1), "salt")
    assert k1 == config_key(_config(1), "salt")
    assert k1 != config_key(_config(2), "salt")
    assert k1 != config_key(_config(1, engine="packet"), "salt")
    assert k1 != config_key(_config(1), "other-salt")
    assert len(k1) == 64 and int(k1, 16) >= 0


def test_default_salt_carries_version():
    from repro._version import __version__

    assert __version__ in default_salt()


def test_salt_slug_is_filesystem_safe():
    assert "/" not in salt_slug("a/b c:d")
    assert salt_slug("repro-1.0.0") == "repro-1.0.0"
    assert salt_slug("") == "default"


def test_canonical_form_strips_only_wallclock():
    d = _result(wallclock=1.23).to_dict()
    canon = canonical_result_dict(d)
    assert "wallclock_s" not in canon
    assert d["wallclock_s"] == 1.23  # input untouched
    assert canon["jain_index"] == d["jain_index"]
    assert results_equivalent(_result(wallclock=0.1).to_dict(), _result(wallclock=9.9).to_dict())
    assert not results_equivalent(_result(jain=1.0).to_dict(), _result(jain=0.5).to_dict())


# -- get / put / stats --------------------------------------------------------------


def test_put_then_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path, worker="w1")
    assert cache.get(_config(1)) is None  # miss
    assert cache.put(_result(1)) is True
    hit = cache.get(_config(1))
    assert hit is not None
    assert hit.to_dict() == _result(1).to_dict()
    assert cache.stats()["hits"] == 1
    assert cache.stats()["misses"] == 1
    assert cache.stats()["puts"] == 1
    assert cache.stats()["entries"] == 1


def test_put_takes_the_callers_row_and_split_hands_it_back(tmp_path):
    """The record path builds one row per result and shares it: put
    indexes and appends that very dict, and split returns it with the hit."""
    cache = ResultCache(tmp_path, worker="w1")
    result = _result(1)
    row = result.to_dict()
    assert cache.put(result, row) is True
    hits, misses = cache.split([_config(2), _config(1)])
    assert misses == [_config(2)]
    ((hit, hit_row, line),) = hits
    assert hit_row is row and hit.to_dict() == row
    assert line is None  # put here, not read from disk: the store encodes it
    assert (cache.hits, cache.misses, cache.puts) == (1, 1, 1)
    cache.close()
    assert cache.shard_path.read_text() == json.dumps(row, sort_keys=True) + "\n"
    # A recomputed result offered with its row still meets the conflict check.
    drifted = _result(1, jain=0.5)
    with pytest.raises(CacheConflictError):
        cache.put(drifted, drifted.to_dict())


def test_shard_layout_is_salt_namespaced(tmp_path):
    cache = ResultCache(tmp_path, salt="s1", worker="w1")
    cache.put(_result(1))
    assert (tmp_path / salt_slug("s1") / "shards" / "w1.jsonl").exists()
    # A different salt sees a cold cache over the same root.
    other = ResultCache(tmp_path, salt="s2", worker="w1")
    assert other.get(_config(1)) is None


def test_shard_files_are_plain_result_stores(tmp_path):
    cache = ResultCache(tmp_path, worker="w1")
    cache.put(_result(1))
    cache.close()
    rows = ResultStore(cache.shard_path).load()
    assert len(rows) == 1 and rows[0].config["seed"] == 1


def test_duplicate_put_dedups(tmp_path):
    cache = ResultCache(tmp_path, worker="w1")
    assert cache.put(_result(1)) is True
    assert cache.put(_result(1, wallclock=9.0)) is False  # equivalent: skipped
    cache.close()
    assert len(ResultStore(cache.shard_path).load()) == 1


def test_conflicting_put_raises(tmp_path):
    cache = ResultCache(tmp_path, worker="w1")
    cache.put(_result(1, jain=1.0))
    with pytest.raises(CacheConflictError, match="jain_index"):
        cache.put(_result(1, jain=0.5))


def test_telemetry_results_are_not_cacheable(tmp_path):
    cache = ResultCache(tmp_path, worker="w1")
    r = _result(1)
    r.extra = {"obs": {"run_log": "/tmp/x.jsonl"}}
    assert cache.put(r) is False
    assert cache.get(_config(1)) is None


def test_cross_instance_visibility_via_refresh(tmp_path):
    w1 = ResultCache(tmp_path, worker="w1")
    w2 = ResultCache(tmp_path, worker="w2")
    w1.put(_result(1))
    assert w2.get(_config(1)) is None  # index built before the put
    w2.refresh()
    assert w2.get(_config(1)) is not None


# -- merge / compact ----------------------------------------------------------------


def test_merge_folds_shards_into_canonical(tmp_path):
    for w, seeds in (("w1", [1, 2]), ("w2", [3])):
        cache = ResultCache(tmp_path, worker=w)
        for s in seeds:
            cache.put(_result(s))
        cache.close()
    # A racing worker that never refreshed writes seed 2 again, raw.
    w3 = ResultCache(tmp_path, worker="w3")
    ResultStore(w3.shard_path).append(_result(2))
    merger = ResultCache(tmp_path, worker="merger")
    summary = merger.merge()
    assert summary == {"entries": 3, "shards_folded": 3, "duplicates": 1, "stale": 0}
    assert merger.shard_paths() == []  # shards deleted
    rows = ResultStore(merger.canonical.path).load()
    assert sorted(r.config["seed"] for r in rows) == [1, 2, 3]
    # Canonical is sorted by key → deterministic bytes.
    lines = merger.canonical.path.read_text().splitlines()
    keys = [config_key(ExperimentConfig.from_dict(json.loads(l)["config"]), merger.salt)
            for l in lines]
    assert keys == sorted(keys)


def test_merge_is_idempotent_and_last_write_wins(tmp_path):
    cache = ResultCache(tmp_path, worker="w1")
    cache.put(_result(1, wallclock=0.1))
    cache.close()
    merger = ResultCache(tmp_path)
    merger.merge()
    first = merger.canonical.path.read_bytes()
    # Re-merging with no shards is a no-op byte-wise.
    merger.merge()
    assert merger.canonical.path.read_bytes() == first
    # An equivalent later write (different wallclock) replaces the entry.
    late = ResultCache(tmp_path, worker="w9")
    late.refresh()
    assert late.put(_result(1, wallclock=7.0)) is False  # deduped against index
    # Force a raw duplicate row as a crashed worker would leave it:
    ResultStore(late.shard_path).append(_result(1, wallclock=7.0))
    merged = ResultCache(tmp_path).merge()
    assert merged["duplicates"] == 1
    rows = ResultStore(merger.canonical.path).load()
    assert rows[0].wallclock_s == 7.0  # last write won


def test_merge_detects_conflicts(tmp_path):
    a = ResultCache(tmp_path, worker="w1")
    a.put(_result(1, jain=1.0))
    a.close()
    # A second worker that never saw w1's shard computes a different result.
    b = ResultCache(tmp_path, worker="w2")
    ResultStore(b.shard_path).append(_result(1, jain=0.25))
    with pytest.raises(CacheConflictError, match="bit-identical"):
        ResultCache(tmp_path).merge()


def test_merge_keeps_the_rows_a_live_writer_appends_after_it(tmp_path):
    """A writer whose open shard a merge folded and deleted (a concurrent
    sweep, ``repro serve``) puts its later rows in a new shard."""
    a = ResultCache(tmp_path, worker="a")
    b = ResultCache(tmp_path, worker="b")
    assert b.put(_result(1))
    a.merge()
    assert b.put(_result(2))
    fresh = ResultCache(tmp_path, worker="reader")
    assert _config(1) in fresh and _config(2) in fresh
    assert fresh.merge()["entries"] == 2


def test_merge_preserves_canonical_entries(tmp_path):
    cache = ResultCache(tmp_path, worker="w1")
    cache.put(_result(1))
    cache.close()
    ResultCache(tmp_path).merge()
    cache2 = ResultCache(tmp_path, worker="w2")
    cache2.put(_result(2))
    cache2.close()
    summary = ResultCache(tmp_path).merge()
    assert summary["entries"] == 2


def test_merge_keeps_the_row_in_memory_where_the_reread_one_equals_it(tmp_path):
    """merge() re-reads every row from disk.  Where the re-read row equals
    the one the index holds, the index keeps that object, so a merge never
    holds every row twice (``grid_cold``'s peak RSS, docs/BENCHMARKING.md
    "PR 18"); where a later write wins, it is the re-read row as before."""
    cache = ResultCache(tmp_path, worker="w1")
    rows = {seed: _result(seed).to_dict() for seed in (1, 2)}
    for seed, row in rows.items():
        cache.put(_result(seed), row)
    # A worker that sorts after w1 left an equivalent seed-2 row: it wins.
    ResultStore(ResultCache(tmp_path, worker="w2").shard_path).append(_result(2, wallclock=7.0))
    assert cache.merge() == {"entries": 2, "shards_folded": 2, "duplicates": 1, "stale": 0}
    assert cache.row(cache.key_for(_config(1))) is rows[1]
    late = cache.row(cache.key_for(_config(2)))
    assert late is not rows[2] and late["wallclock_s"] == 7.0
    assert [r.wallclock_s for r in ResultStore(cache.canonical.path).load()] in ([0.5, 7.0], [7.0, 0.5])
    # Rows re-read from the canonical file are treated alike.
    first = cache.canonical.path.read_bytes()
    cache.merge()
    assert cache.row(cache.key_for(_config(1))) is rows[1]
    assert cache.row(cache.key_for(_config(2))) is late
    assert cache.canonical.path.read_bytes() == first


def test_merge_writes_each_line_as_it_was_read(tmp_path):
    """merge() re-encodes nothing: a hand-edited line (its own key order and
    separators) keeps its formatting; lines are only reordered by key."""
    row = _result(1).to_dict()
    edited = json.dumps(row, indent=None, separators=(", ", ":"))
    assert edited != ResultStore.encode(row).rstrip("\n")
    with ResultStore(ResultCache(tmp_path, worker="hand").shard_path) as shard:
        shard.append_dict(row, edited + "\n")
    cache = ResultCache(tmp_path, worker="w1")
    cache.put(_result(2))
    cache.merge()
    lines = cache.canonical.path.read_text().splitlines()
    assert edited in lines and ResultStore.encode(_result(2).to_dict()).rstrip("\n") in lines
    assert ResultCache(tmp_path).row(cache.key_for(_config(1))) == row


def test_a_hit_replays_the_line_the_cache_read_even_after_another_merge(tmp_path):
    """split() hands over each hit's stored line as it was read, through the
    handle the index was built from.  A second cache's merge() meanwhile
    rewrites canonical.jsonl (new offsets, a later write winning) and
    deletes the shards; the replayed bytes do not move."""
    hand = json.dumps(_result(1).to_dict(), separators=(", ", ":"))  # not encode()'s form
    with ResultStore(ResultCache(tmp_path, worker="a").shard_path) as shard:
        shard.append_dict({}, hand + "\n")
    ResultCache(tmp_path, worker="a").merge()
    with ResultCache(tmp_path, worker="b") as b:
        b.put(_result(2, wallclock=0.25))
    reader = ResultCache(tmp_path, worker="r")  # canonical: seed 1; shard b: seed 2
    cached = {1: hand + "\n", 2: ResultStore.encode(_result(2, wallclock=0.25).to_dict())}

    other = ResultCache(tmp_path, worker="m")
    for seed in (0, 3):
        other.put(_result(seed))
    ResultStore(ResultCache(tmp_path, worker="z").shard_path).append(_result(2, wallclock=9.0))
    assert other.merge()["entries"] == 4
    assert cached[2] not in other.canonical.path.read_text()  # the later write won

    hits, misses = reader.split([_config(1), _config(2), _config(3)])
    assert misses == [_config(3)]
    assert [line for _, _, line in hits] == [cached[1], cached[2]]
    assert [row for _, row, _ in hits] == [json.loads(cached[1]), json.loads(cached[2])]
    reader.close()
    hits, _ = reader.split([_config(1)])
    assert hits[0][2] is None  # closed: no handle left, the store re-encodes


def test_read_handles_are_capped_and_past_the_cap_hits_are_re_encoded(tmp_path, monkeypatch):
    monkeypatch.setattr(cache_mod, "MAX_HELD_READERS", 2)
    for seed in (1, 2, 3):
        with ResultCache(tmp_path, worker=f"w{seed}") as cache:
            cache.put(_result(seed))
    with ResultCache(tmp_path, worker="r") as reader:  # no canonical: shards w1, w2 held
        assert len(reader._readers) == 2
        hits, _ = reader.split([_config(1), _config(2), _config(3)])
    assert [line for _, _, line in hits] == [
        ResultStore.encode(_result(1).to_dict()), ResultStore.encode(_result(2).to_dict()), None,
    ]
    assert hits[2][1] == _result(3).to_dict()


def test_a_hit_whose_line_was_truncated_away_is_re_encoded(tmp_path):
    """A complete row without its newline (a crash mid-append) is indexed,
    then cut by the shard's torn-tail repair and its bytes overwritten by
    the next append: the hit is handed over without a line, never with
    the bytes that now sit where the row was."""
    shard = ResultStore(ResultCache(tmp_path, worker="a").shard_path)
    shard.path.parent.mkdir(parents=True, exist_ok=True)
    shard.path.write_text(json.dumps(_result(1).to_dict(), sort_keys=True))
    reader = ResultCache(tmp_path, worker="r")
    with pytest.warns(TornWriteWarning):
        shard.append(_result(2))
    shard.close()
    hits, misses = reader.split([_config(1)])
    assert misses == [] and hits[0][2] is None
    assert hits[0][1] == _result(1).to_dict()
    reader.close()


def _stale_row(seed=1):
    """A ``fluid_batched`` row for a RED knob the fluid engines do not read,
    as a release that answered such configs knob-less stored it."""
    row = _result(seed, engine="fluid_batched").to_dict()
    row["config"]["aqm_params"] = {"bogus": 1}
    with pytest.raises(ValueError, match="does not model"):
        ExperimentConfig.from_dict(row["config"])
    return row


def _key_of_row(row, salt):
    """The key such a release filed the row under (``config_key`` by hand)."""
    blob = json.dumps(row["config"], sort_keys=True)
    return hashlib.sha256(f"{salt}\n{blob}".encode("utf-8")).hexdigest()


def test_a_cache_holding_a_stale_row_opens_and_misses_it(tmp_path):
    with ResultStore(ResultCache(tmp_path, worker="old").shard_path) as shard:
        shard.append_dict(_stale_row())
        shard.append(_result(2))
    cache = ResultCache(tmp_path, worker="w1")
    assert (len(cache), cache.stale, cache.stats()["stale"]) == (1, 1, 1)
    assert _key_of_row(_result(2).to_dict(), cache.salt) == cache.key_for(_config(2))
    assert cache.row(_key_of_row(_stale_row(), cache.salt)) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert cache.get(_config(2)) is not None
    # merge drops it for good: counted, not written back.
    assert cache.merge() == {"entries": 1, "shards_folded": 1, "duplicates": 0, "stale": 1}
    assert [r.config["seed"] for r in ResultStore(cache.canonical.path).load()] == [2]
    assert ResultCache(tmp_path).stale == 0


def test_a_stale_row_in_the_canonical_store_is_dropped_by_merge(tmp_path):
    cache = ResultCache(tmp_path, worker="w1")
    with ResultStore(cache.canonical.path) as canonical:
        canonical.append_dict(_stale_row())
    cache.refresh()
    assert (len(cache), cache.stale) == (0, 1)
    assert cache.merge()["stale"] == 1
    assert ResultStore(cache.canonical.path).load() == []


def _old_layout_row(seed=1):
    """A row as a release before flow columns stored it: one record per flow."""
    result = _result(seed)
    result.flows = FlowTable.from_rows([
        (1, "client1", "cubic", 50e6, 10**8, 9000, 5, 0, 1),
        (2, "client2", "cubic", 50e6, 10**8, 9000, 3, 0, 1),
    ])
    row = result.to_dict()
    row["flows"] = result.flows.records()
    return row


def test_an_old_layout_row_in_the_canonical_store_is_a_stale_miss(tmp_path):
    cache = ResultCache(tmp_path, worker="w1")
    with ResultStore(cache.canonical.path) as canonical:
        canonical.append_dict(_old_layout_row(1))
        canonical.append(_result(2))
    cache.refresh()
    assert (len(cache), cache.stale, cache.stats()["stale"]) == (1, 1, 1)
    assert cache.get(_config(1)) is None and cache.get(_config(2)) is not None
    assert (cache.hits, cache.misses) == (1, 1)


def test_an_old_layout_row_in_a_shard_is_dropped_by_merge(tmp_path):
    with ResultStore(ResultCache(tmp_path, worker="old").shard_path) as shard:
        shard.append_dict(_old_layout_row(1))
    cache = ResultCache(tmp_path, worker="w1")
    cache.put(_result(2))
    assert cache.merge() == {"entries": 1, "shards_folded": 2, "duplicates": 0, "stale": 1}
    assert [r.config["seed"] for r in ResultStore(cache.canonical.path).load()] == [2]
    assert ResultCache(tmp_path).stale == 0


# -- the sharding property ----------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12),
    assignment=st.lists(st.integers(min_value=0, max_value=3), min_size=12, max_size=12),
)
def test_merge_of_random_sharding_equals_unsharded_store(tmp_path_factory, seeds, assignment):
    """However results are scattered over worker shards — duplicates
    included — merge/compact produces exactly the store a single
    unsharded worker would have written."""
    tmp = tmp_path_factory.mktemp("cache")
    unique = sorted(set(seeds))

    # Reference: one worker, no sharding, one put per distinct config.
    ref = ResultCache(tmp / "ref", worker="solo")
    for s in unique:
        ref.put(_result(s))
    ref.close()
    ResultCache(tmp / "ref").merge()
    reference = (tmp / "ref" / salt_slug(default_salt()) / "canonical.jsonl").read_bytes()

    # Candidate: scatter the same results (with repeats) over 4 shards.
    shards = {}
    for s, w in zip(seeds, assignment):
        shards.setdefault(f"w{w}", []).append(s)
    root = tmp / "sharded"
    for worker, worker_seeds in shards.items():
        cache = ResultCache(root, worker=worker)
        for s in worker_seeds:
            ResultStore(cache.shard_path).append(_result(s))
        cache.close()
    ResultCache(root).merge()
    candidate = (root / salt_slug(default_salt()) / "canonical.jsonl").read_bytes()
    assert candidate == reference
