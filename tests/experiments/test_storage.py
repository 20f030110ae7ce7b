"""Unit tests for the JSONL result store."""

import json
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExperimentConfig
from repro.experiments.storage import ResultStore, TornWriteWarning
from repro.metrics.summary import ExperimentResult, FlowTable, SenderStats
from repro.units import mbps


def _result(seed=1):
    cfg = ExperimentConfig(cca_pair=("cubic", "cubic"), bottleneck_bw_bps=mbps(100), seed=seed)
    return ExperimentResult(
        config=cfg.to_dict(),
        senders=[SenderStats("client1", "cubic", 50e6, 5, 1),
                 SenderStats("client2", "cubic", 50e6, 3, 1)],
        flows=FlowTable(),
        jain_index=1.0,
        link_utilization=1.0,
        total_retransmits=8,
        total_throughput_bps=100e6,
        bottleneck_drops=8,
        duration_s=10.0,
        engine="packet",
    )


def test_append_and_load_roundtrip(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_result(1))
    store.append(_result(2))
    loaded = store.load()
    assert len(loaded) == 2
    assert loaded[0].config["seed"] == 1
    assert loaded[1].config["seed"] == 2
    assert len(store) == 2


def test_empty_store(tmp_path):
    store = ResultStore(tmp_path / "missing.jsonl")
    assert store.load() == []
    assert store.completed_labels() == set()


def test_completed_labels(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_result(7))
    labels = store.completed_labels()
    cfg = ExperimentConfig(cca_pair=("cubic", "cubic"), bottleneck_bw_bps=mbps(100), seed=7)
    assert cfg.label() in labels


def test_completed_labels_hands_back_wanted_rows_from_the_same_pass(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    for seed in (7, 8, 9):
        store.append(_result(seed))
    label = {
        seed: ExperimentConfig(
            cca_pair=("cubic", "cubic"), bottleneck_bw_bps=mbps(100), seed=seed
        ).label()
        for seed in (7, 8, 9, 10)
    }
    found = []
    labels = store.completed_labels({label[9], label[7], label[10]}, found)
    assert labels == {label[7], label[8], label[9]}
    assert [name for name, _, _, _ in found] == [label[7], label[9]]  # store order
    for _, config, result, row in found:
        assert result.to_dict() == row
        assert config == ExperimentConfig.from_dict(row["config"])


def test_completed_labels_skips_a_row_whose_config_is_refused(tmp_path):
    """An older release stored fluid answers for knobs the fluid engines do
    not model; resume must neither abort on such a row nor count it done."""
    store = ResultStore(tmp_path / "r.jsonl")
    stale = _result(7).to_dict()
    stale["config"].update(engine="fluid_batched", ecn_mode=True)
    store.append_dict(stale)
    store.append(_result(8))
    label = {seed: ExperimentConfig.from_dict(_result(seed).config).label() for seed in (7, 8)}
    found = []
    assert store.completed_labels({label[7]}, found) == {label[8]}
    assert found == []


def test_corrupt_line_raises(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"not": "a result"}\n')
    store = ResultStore(path)
    with pytest.raises(ValueError):
        store.load()


def test_blank_lines_skipped(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_result())
    with store.path.open("a") as fh:
        fh.write("\n\n")
    assert len(store.load()) == 1


def test_creates_parent_dir(tmp_path):
    store = ResultStore(tmp_path / "deep" / "dir" / "r.jsonl")
    store.append(_result())
    assert store.path.exists()


def test_append_reuses_one_handle(tmp_path):
    """The write handle is opened once and reused across appends."""
    store = ResultStore(tmp_path / "r.jsonl")
    assert store._fh is None
    store.append(_result(1))
    fh = store._fh
    assert fh is not None
    store.append(_result(2))
    assert store._fh is fh
    store.close()
    assert store._fh is None
    # Reopens transparently after close.
    store.append(_result(3))
    assert len(store.load()) == 3


def test_store_context_manager_closes(tmp_path):
    with ResultStore(tmp_path / "r.jsonl") as store:
        store.append(_result(1))
        assert store._fh is not None
    assert store._fh is None
    assert len(store.load()) == 1


def _tear_last_line(path, keep_bytes=37):
    """Simulate a crash mid-append: truncate the final line partway."""
    data = path.read_bytes()
    assert data.endswith(b"\n")
    cut = data.rstrip(b"\n").rfind(b"\n") + 1  # start of the last line
    assert len(data) - cut > keep_bytes, "line too short to tear"
    path.write_bytes(data[: cut + keep_bytes])


def test_torn_trailing_line_skipped_with_warning(tmp_path):
    """A partial final line (SIGKILL mid-append) must not brick resume."""
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_result(1))
    store.append(_result(2))
    store.close()
    _tear_last_line(store.path)
    with pytest.warns(TornWriteWarning, match="torn write"):
        loaded = ResultStore(store.path).load()
    assert [r.config["seed"] for r in loaded] == [1]
    with pytest.warns(TornWriteWarning):
        labels = ResultStore(store.path).completed_labels()
    survivor = ExperimentConfig(
        cca_pair=("cubic", "cubic"), bottleneck_bw_bps=mbps(100), seed=1
    )
    assert labels == {survivor.label()}


def test_torn_line_followed_by_blanks_still_skipped(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_result(1))
    store.append(_result(2))
    store.close()
    _tear_last_line(store.path)
    with store.path.open("a") as fh:
        fh.write("\n\n")
    with pytest.warns(TornWriteWarning):
        assert len(ResultStore(store.path).load()) == 1


def test_corruption_mid_file_still_raises(tmp_path):
    """Only the *trailing* line gets the torn-write pardon."""
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_result(1))
    store.append(_result(2))
    store.close()
    data = store.path.read_bytes().splitlines(keepends=True)
    data[0] = data[0][:40] + b"\n"  # truncate the FIRST line instead
    store.path.write_bytes(b"".join(data))
    with pytest.raises(ValueError, match="not a torn trailing write"):
        ResultStore(store.path).load()


def test_append_after_torn_tail_repairs_file(tmp_path):
    """Appending to a torn store must not glue a new record onto the
    fragment (which would turn a recoverable tail into mid-file
    corruption): the fragment is truncated into a .torn.jsonl sidecar."""
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_result(1))
    store.append(_result(2))
    store.close()
    _tear_last_line(store.path)
    fresh = ResultStore(store.path)
    with pytest.warns(TornWriteWarning, match="repaired"):
        fresh.append(_result(3))
    fresh.close()
    # No warning on read now: the file is whole again.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = ResultStore(store.path).load()
    assert [r.config["seed"] for r in loaded] == [1, 3]
    sidecar = store.path.with_suffix(".torn.jsonl")
    assert sidecar.exists() and sidecar.read_bytes().strip()


def test_whole_file_is_one_fragment(tmp_path):
    """A store torn inside its very first line repairs to empty."""
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_result(1))
    store.close()
    data = store.path.read_bytes()
    store.path.write_bytes(data[:25])  # no newline anywhere
    fresh = ResultStore(store.path)
    with pytest.warns(TornWriteWarning):
        fresh.append(_result(2))
    fresh.close()
    assert [r.config["seed"] for r in ResultStore(store.path).load()] == [2]


def test_schema_violation_raises_even_as_final_line(tmp_path):
    """Valid JSON that is not a result record is corruption, not a torn
    write — it must raise wherever it sits."""
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_result(1))
    store.close()
    with store.path.open("a") as fh:
        fh.write('{"not": "a result"}\n')
    with pytest.raises(ValueError, match="corrupt result line"):
        ResultStore(store.path).load()


def _with_flows(seed):
    result = _result(seed)
    result.flows = FlowTable.from_rows([
        (1, "client1", "cubic", 50e6, 10**8, 9000, 5, 0, 1),
        (2, "client2", "cubic", 50e6, 10**8, 9000, 3, 0, 1),
    ])
    return result


def _store_with_second_row(tmp_path, edit):
    """A two-line store whose second row ``edit`` changed after to_dict()."""
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(_with_flows(1))
    row = _with_flows(2).to_dict()
    edit(row)
    store.append_dict(row)
    store.close()
    return store


@pytest.mark.parametrize(
    "edit",
    [
        lambda row: row["flows"].pop("cca"),
        lambda row: row["flows"].update(rtt_s=[0.1, 0.1]),
        lambda row: row["flows"].update(cca="cubic"),
        lambda row: row["flows"].update(rto_count=[0]),
    ],
    ids=["missing-column", "extra-column", "column-not-a-list", "ragged-columns"],
)
def test_malformed_flow_columns_are_a_corrupt_line(tmp_path, edit):
    store = _store_with_second_row(tmp_path, edit)
    for read in (store.load, store.completed_labels):
        with pytest.raises(ValueError, match=r"r\.jsonl:2: corrupt result line \(.*flows"):
            read()


def test_load_names_the_line_and_the_layout_of_an_old_layout_row(tmp_path):
    """Before flow columns a row stored one record per flow: this release
    cannot read it, and says which line and why."""
    store = _store_with_second_row(
        tmp_path, lambda row: row.update(flows=_with_flows(2).flows.records())
    )
    with pytest.raises(ValueError, match=r"r\.jsonl:2: stale result line: its flows are per-flow records"):
        store.load()
    # Resume reads past it, and the config is recomputed.
    label = {seed: ExperimentConfig.from_dict(_result(seed).config).label() for seed in (1, 2)}
    assert store.completed_labels() == {label[1]}


def _stalled_append(path, half_written):
    """A sibling's append caught mid-line: the first half is on disk, the
    store's lock is held, the rest and the newline follow 0.5 s later."""
    import fcntl
    import json
    import time

    line = json.dumps(_result(1).to_dict(), sort_keys=True) + "\n"
    with open(path, "a", encoding="utf-8") as fh:
        fcntl.flock(fh, fcntl.LOCK_SH)
        fh.write(line[:60])
        fh.flush()
        half_written.set()
        time.sleep(0.5)
        fh.write(line[60:])
        fh.flush()
        fcntl.flock(fh, fcntl.LOCK_UN)


def test_opening_the_store_does_not_truncate_a_live_siblings_append(tmp_path):
    """A newline-less tail is torn only if its writer is gone: the repair
    waits for the store's lock, so an append in flight is left to finish."""
    pytest.importorskip("fcntl")
    import multiprocessing

    path = tmp_path / "shared.jsonl"
    ctx = multiprocessing.get_context("fork")
    half_written = ctx.Event()
    sibling = ctx.Process(target=_stalled_append, args=(path, half_written))
    sibling.start()
    assert half_written.wait(30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with ResultStore(path) as store:
            store.append(_result(2))  # opens, so checks the tail, mid-append
        sibling.join(30)
        assert sibling.exitcode == 0
        loaded = ResultStore(path).load()
    assert [r.config["seed"] for r in loaded] == [1, 2]
    assert not path.with_suffix(".torn.jsonl").exists()


def _append_worker(path, seed_base, count):
    store = ResultStore(path)
    for i in range(count):
        store.append(_result(seed_base + i))
    store.close()


def test_concurrent_appends_from_processes(tmp_path):
    """Several processes appending to one file never corrupt a line.

    Each store holds its own O_APPEND handle and writes whole flushed
    lines, so interleaved appends from concurrent campaign shards must
    all survive and parse.
    """
    import multiprocessing

    path = tmp_path / "shared.jsonl"
    workers, per_worker = 4, 25
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_append_worker, args=(path, w * 1000, per_worker))
        for w in range(workers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
        assert p.exitcode == 0

    loaded = ResultStore(path).load()  # raises on any corrupt line
    assert len(loaded) == workers * per_worker
    seeds = sorted(r.config["seed"] for r in loaded)
    assert seeds == sorted(w * 1000 + i for w in range(workers) for i in range(per_worker))


# -- decoding: orjson where it can, json.loads for what orjson refuses -------------

#: Every string, lone surrogates included (``json.dumps`` escapes them).
_text = st.text(st.characters(exclude_categories=()), max_size=8)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63 - 1), max_value=2**63 - 1)
    | st.sampled_from([2**63 - 1, -(2**63 - 1), -0.0, 5e-324, 2.2e-308])
    | st.floats()  # NaN, +-inf, -0.0 and subnormals included
    | _text
    | st.sampled_from(["\ud800", "a\udfffb", '\x00\n"\\', "é", "\U0001d11e"])
)
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(
    st.fixed_dictionaries({"jain_index": st.floats(), "extra": st.dictionaries(_text, _values)}),
    min_size=1, max_size=4,
))
def test_iter_lines_decodes_every_storable_row_as_json_loads_does(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("store") / "r.jsonl"
    path.write_text("".join(ResultStore.encode(row) for row in rows), encoding="utf-8")
    data = path.read_bytes()
    read = list(ResultStore(path).iter_lines())
    assert len(read) == len(rows)
    for lineno, offset, line, d in read:
        assert data[offset:offset + len(line)] == line == data.splitlines()[lineno - 1]
        assert json.dumps(d, sort_keys=True) == json.dumps(json.loads(line), sort_keys=True)


def test_orjson_widens_integers_from_2_64_which_is_why_configs_stop_at_2_63():
    """The one value orjson reads back differently instead of refusing."""
    import orjson

    assert type(orjson.loads(b"18446744073709551615")) is int
    widened = orjson.loads(b"18446744073709551616")
    assert type(widened) is float and widened == 2.0**64
    for seed in (2**63, 2**64):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(cca_pair=("cubic", "cubic"), seed=seed)


def test_non_finite_floats_round_trip_through_the_fallback(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    row = _result().to_dict()
    row["extra"] = {"red_avg_bytes": [float("nan"), float("inf"), -float("inf"), 1.5]}
    store.append_dict(row)
    store.append(_result(2))
    (_, first), (_, second) = store.iter_dicts()
    assert json.dumps(first, sort_keys=True) == json.dumps(row, sort_keys=True)
    assert second == _result(2).to_dict()


def test_a_process_that_reads_no_row_never_imports_orjson(tmp_path):
    """Resuming into an empty store and appending to it decode nothing."""
    script = f"""
import sys
from repro.experiments.storage import ResultStore
store = ResultStore({str(tmp_path / "r.jsonl")!r})
assert store.completed_labels() == set()
store.append_dict({{"jain_index": 1.0}})
assert "orjson" not in sys.modules
assert [d for _, d in store.iter_dicts()] == [{{"jain_index": 1.0}}]
assert "orjson" in sys.modules
"""
    subprocess.run([sys.executable, "-c", script], check=True)
