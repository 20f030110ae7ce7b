"""Unit tests for the campaign driver (serial + parallel + resume)."""

import dataclasses

import pytest

from repro.experiments.campaign import (
    CampaignProgress,
    FailedRun,
    failures_path,
    load_failures,
    run_campaign,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.storage import ResultStore
from repro.units import mbps


def _configs(n=3, engine="fluid"):
    return [
        ExperimentConfig(
            cca_pair=("cubic", "cubic"),
            bottleneck_bw_bps=mbps(100),
            duration_s=5.0,
            engine=engine,
            seed=100 + i,
        )
        for i in range(n)
    ]


def test_serial_campaign_runs_all(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    results = run_campaign(_configs(3), store=store, jobs=1)
    assert len(results) == 3
    assert len(store) == 3


def test_resume_skips_completed(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    configs = _configs(3)
    run_campaign(configs[:2], store=store, jobs=1)
    progress_calls = []
    results = run_campaign(
        configs, store=store, jobs=1,
        progress=lambda done, total, r: progress_calls.append((done, total)),
    )
    # All three results returned, but only one actually ran.
    assert len(results) == 3
    assert progress_calls == [(1, 1)]
    assert len(store) == 3


def test_resume_recomputes_what_a_stale_row_answered(tmp_path):
    """A stored row whose config this release refuses (a fluid run filed
    under a RED knob it never read) is skipped by resume, not fatal: its
    label is recomputed from the config actually asked for."""
    store = ResultStore(tmp_path / "r.jsonl")
    configs = _configs(2)
    run_campaign(configs[:1], store=store, jobs=1)
    (row,) = store.load()
    stale = row.to_dict()
    stale["config"].update(seed=configs[1].seed, aqm_params={"bogus": 1})
    store.append_dict(stale)
    progress_calls = []
    results = run_campaign(
        configs, store=store, jobs=1,
        progress=lambda done, total, r: progress_calls.append((done, total)),
    )
    assert progress_calls == [(1, 1)]
    assert sorted((r.config["seed"], r.config["aqm_params"]) for r in results) == [
        (100, {}), (101, {}),
    ]


@pytest.mark.parametrize("change", [{"duration_s": 6.0}, {"engine": "fluid_batched"}])
def test_resume_answers_a_config_only_from_a_row_of_an_equal_config(tmp_path, change):
    """A label omits the duration and the engine: a row of the same cell
    under another of either is no answer, so the asked-for config runs."""
    store = ResultStore(tmp_path / "r.jsonl")
    first = ExperimentConfig(cca_pair=("cubic", "cubic"), duration_s=3.0, engine="fluid", seed=5)
    run_campaign([first], store=store, jobs=1)
    asked = dataclasses.replace(first, **change)
    assert asked.label() == first.label()
    results = run_campaign([asked], store=store, jobs=1)
    assert (results.resumed, results.engine_runs) == (0, 1)
    (result,) = results
    assert result.config == asked.to_dict()
    assert len(store) == 2


def test_resume_returns_a_config_stored_twice_once(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    config = _configs(1)[0]
    run_campaign([config], store=store, jobs=1)
    run_campaign([config], store=store, jobs=1, resume=False)
    assert len(store) == 2
    results = run_campaign([config], store=store, jobs=1)
    assert (len(results), results.resumed, results.engine_runs) == (1, 1, 0)


def test_no_resume_reruns(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    configs = _configs(2)
    run_campaign(configs, store=store, jobs=1)
    run_campaign(configs, store=store, jobs=1, resume=False)
    assert len(store) == 4


def test_parallel_campaign(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    results = run_campaign(_configs(4), store=store, jobs=2)
    assert len(results) == 4
    seeds = sorted(r.config["seed"] for r in results)
    assert seeds == [100, 101, 102, 103]


#: Runs two configs through ``run_campaign`` in a fresh interpreter and
#: records, at every fork, whether the engine module is loaded yet.
_FORK_PROBE = """
import json, sys
import multiprocessing.context
from repro.experiments.campaign import run_campaign
from repro.experiments.config import ExperimentConfig

engine, module, kwargs = {args!r}
configs = [ExperimentConfig(("cubic", "reno"), engine=engine, duration_s=0.5,
                            flows_per_node=1, seed=seed) for seed in (1, 2)]
loaded_at_fork = []
fork_start = multiprocessing.context.ForkProcess.start

def start(self):
    loaded_at_fork.append(module in sys.modules)
    return fork_start(self)

multiprocessing.context.ForkProcess.start = start
loaded_before = module in sys.modules
result = run_campaign(configs, **kwargs)
print(json.dumps([loaded_before, loaded_at_fork, result.summary()["ok"]]))
"""


@pytest.mark.parametrize("engine,module", [
    ("fluid_batched", "repro.fluid.batched"),
    ("fluid", "repro.fluid.batched"),
    ("packet", "repro.tcp.connection"),
])
@pytest.mark.parametrize("kwargs", [{"jobs": 2}, {"jobs": 1, "timeout_s": 120.0}],
                         ids=["workers", "watchdog"])
def test_engine_is_loaded_before_workers_fork(engine, module, kwargs):
    """A worker inherits the engine from its parent instead of compiling
    numpy, the kernel or the DES for itself."""
    from helpers import run_fresh

    loaded_before, loaded_at_fork, ok = run_fresh(
        _FORK_PROBE.format(args=(engine, module, kwargs))
    )
    assert not loaded_before  # the campaign module itself does not load it
    assert loaded_at_fork and all(loaded_at_fork)
    assert ok == 2


def test_invalid_jobs():
    with pytest.raises(ValueError):
        run_campaign(_configs(1), jobs=0)


def test_campaign_without_store():
    results = run_campaign(_configs(2), jobs=1)
    assert len(results) == 2


def _poisoned_config(seed=999):
    # The packet engine forwards aqm_params to the AQM constructor inside
    # the worker, not validated at config construction — a bogus knob
    # makes the run itself raise (TypeError) without failing up front.
    return ExperimentConfig(
        cca_pair=("cubic", "cubic"),
        aqm="red",
        bottleneck_bw_bps=mbps(100),
        duration_s=5.0,
        engine="packet",
        seed=seed,
        aqm_params={"bogus_knob": 1},
    )


def test_serial_failure_becomes_row_not_abort(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    configs = _configs(2) + [_poisoned_config()]
    failures = []
    results = run_campaign(
        configs, store=store, jobs=1,
        on_failure=lambda done, total, f: failures.append((done, total, f)),
    )
    assert len(results) == 2  # good configs still completed
    assert results.summary() == {"ok": 2, "failed": 1, "retried": 0, "total": 3}
    (row,) = results.failures
    assert row.label == _poisoned_config().label()
    assert "bogus_knob" in row.error
    assert "Traceback" in row.traceback
    # The shared finished counter covers both outcomes.
    assert failures[0][0] == 3 and failures[0][1] == 3
    # Failure row went to the sibling file, not the result store.
    assert len(store) == 2
    assert [f.label for f in load_failures(store)] == [row.label]
    assert failures_path(store).name == "r.failures.jsonl"


def test_failures_file_pardons_a_torn_tail(tmp_path):
    """A failure append SIGKILLed mid-line leaves a torn tail: the complete
    rows still load, with a warning, and the next append repairs the tail
    instead of writing after the fragment."""
    import json

    from repro.experiments.storage import TornWriteWarning

    store = ResultStore(tmp_path / "r.jsonl")
    configs = [_poisoned_config(seed) for seed in (997, 998, 999)]
    run_campaign(configs[:2], store=store, jobs=1)
    lines = failures_path(store).read_text().splitlines(keepends=True)
    assert [json.loads(line)["label"] for line in lines] == [c.label() for c in configs[:2]]
    with failures_path(store).open("a") as fh:
        fh.write(lines[1][: len(lines[1]) // 2])  # the torn write
    with pytest.warns(TornWriteWarning):
        assert [f.label for f in load_failures(store)] == [c.label() for c in configs[:2]]

    with pytest.warns(TornWriteWarning):  # repaired before the next row lands
        run_campaign(configs[2:], store=store, jobs=1)
    assert [f.label for f in load_failures(store)] == [c.label() for c in configs]


def test_parallel_failure_does_not_abort_pool(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    configs = [_poisoned_config()] + _configs(3)
    results = run_campaign(configs, store=store, jobs=2)
    assert len(results) == 3
    assert len(results.failures) == 1
    assert results.failures[0].config["aqm_params"] == {"bogus_knob": 1}
    assert len(store) == 3


def test_failed_configs_retried_on_resume(tmp_path):
    store = ResultStore(tmp_path / "r.jsonl")
    configs = _configs(1) + [_poisoned_config()]
    run_campaign(configs, store=store, jobs=1)
    # Resume skips the stored success but re-attempts the failure.
    results = run_campaign(configs, store=store, jobs=1)
    assert len(results) == 1
    assert len(results.failures) == 1


def test_failed_run_roundtrip():
    row = FailedRun(config={"seed": 1}, label="x", error="E", traceback="tb")
    assert FailedRun.from_dict(row.to_dict()) == row


def test_campaign_with_cache_skips_warm_configs(tmp_path, monkeypatch):
    from repro.experiments.cache import ResultCache
    import repro.experiments.campaign as campaign_mod

    store1 = ResultStore(tmp_path / "a.jsonl")
    cache = ResultCache(tmp_path / "cache", worker="w1")
    configs = _configs(3)
    first = run_campaign(configs, store=store1, jobs=1, cache=cache)
    assert first.cache_hits == 0 and first.engine_runs == 3

    calls = []
    real_run = campaign_mod.run_experiment

    def counting_run(cfg, telemetry=None):
        calls.append(cfg.label())
        return real_run(cfg, telemetry)

    monkeypatch.setattr(campaign_mod, "run_experiment", counting_run)
    # Fresh store: resume can't mask the cache; every answer must come
    # from the cache with zero engine invocations.
    store2 = ResultStore(tmp_path / "b.jsonl")
    second = run_campaign(configs, store=store2, jobs=1, cache=cache)
    assert calls == []
    assert second.cache_hits == 3 and second.engine_runs == 0
    assert len(second) == 3
    # Cache hits still flow into the store, like real runs.
    assert len(store2.load()) == 3
    # summary() stays exactly as the pre-cache world knew it.
    assert second.summary() == {"ok": 3, "failed": 0, "retried": 0, "total": 3}


def test_campaign_partial_cache(tmp_path, monkeypatch):
    from repro.experiments.cache import ResultCache
    import repro.experiments.campaign as campaign_mod

    cache = ResultCache(tmp_path / "cache", worker="w1")
    configs = _configs(3)
    run_campaign(configs[:2], jobs=1, cache=cache)  # warm 2 of 3

    calls = []
    real_run = campaign_mod.run_experiment
    monkeypatch.setattr(
        campaign_mod,
        "run_experiment",
        lambda cfg, telemetry=None: (calls.append(cfg.seed), real_run(cfg, telemetry))[1],
    )
    progress = []
    results = run_campaign(
        configs, jobs=1, cache=cache,
        progress=lambda done, total, r: progress.append((done, total)),
    )
    assert calls == [102]  # only the cold config ran
    assert results.cache_hits == 2 and results.engine_runs == 1
    # Progress counts hits and runs against the same total.
    assert progress == [(1, 3), (2, 3), (3, 3)]


def test_campaign_cache_disabled_under_telemetry(tmp_path):
    from repro.experiments.cache import ResultCache
    from repro.obs.session import TelemetryOptions

    cache = ResultCache(tmp_path / "cache", worker="w1")
    configs = _configs(1)
    run_campaign(configs, jobs=1, cache=cache)
    # Telemetry runs bypass the cache wholesale: results carry run-log
    # pointers that are not content-addressed.
    telemetry = TelemetryOptions(dir=str(tmp_path / "obs"))
    results = run_campaign(configs, jobs=1, cache=cache, telemetry=telemetry)
    assert results.cache_hits == 0 and results.engine_runs == 1


def test_campaign_progress_tracker(tmp_path, capsys):
    from repro.obs.runlog import read_run_log

    log = tmp_path / "campaign.jsonl"
    tracker = CampaignProgress(log)
    results = run_campaign(
        _configs(2) + [_poisoned_config()],
        jobs=1, progress=tracker, on_failure=tracker.failure,
    )
    tracker.close()
    out = capsys.readouterr()
    assert "FAILED" in out.err
    records = read_run_log(log)
    assert [r["record"] for r in records] == ["campaign_progress"] * 3
    assert records[-1]["finished"] == 3
    assert records[-1]["failed"] == 1
    assert records[-1]["eta_s"] == 0.0
    assert results.summary()["failed"] == 1
