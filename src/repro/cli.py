"""Command-line interface.

    repro run      --cca1 bbrv1 --cca2 cubic --aqm fifo --buffer 2 --bw 100M
    repro run      --scenario cell.json --engine fluid
    repro sweep    --preset scaled-des --out results.jsonl --jobs 4
    repro validate --scenario cell.json --engines packet,fluid
    repro scenario show cell.json
    repro report   --results results.jsonl --what table3
    repro matrix

Every experiment-shaped command parses its flags *into* a scenario IR
instance (repro.scenario; docs/SCENARIO.md) and compiles that for the
chosen engine — flags and ``--scenario`` documents share one code path.
Each command imports the engine, telemetry and analysis code it runs, so
``repro serve`` starts on the cache and service modules alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro._version import __version__
from repro.experiments.config import (
    AQM_NAMES,
    ENGINES,
    ExperimentConfig,
    canonical_engine_name,
)
from repro.experiments.matrix import full_matrix
from repro.experiments.presets import PRESETS, get_preset
from repro.experiments.storage import ResultStore
from repro.obs import DEFAULT_TELEMETRY_DIR
from repro.obs.cli import add_obs_parser
from repro.scenario import (
    AqmSpec,
    FlowSpec,
    SamplingSpec,
    Scenario,
    ScenarioError,
    TopologySpec,
    compile_scenario,
    render_validation_report,
    validate_scenario,
)
from repro.units import format_rate

if TYPE_CHECKING:
    from repro.obs.session import TelemetryOptions


def _telemetry_options(args: argparse.Namespace) -> Optional[TelemetryOptions]:
    """Build TelemetryOptions from run/sweep flags; None when telemetry is off.

    ``--trace`` / ``--profile`` imply ``--telemetry`` (spans and profiles
    stream into the same run log).
    """
    trace_dump = bool(getattr(args, "trace_dump", False))
    spans = bool(getattr(args, "trace", False))
    profile = bool(getattr(args, "profile", False))
    stride = int(getattr(args, "profile_stride", 1) or 1)
    if stride > 1:
        profile = True
    if not args.telemetry and not trace_dump and not spans and not profile:
        return None
    from repro.obs.session import TelemetryOptions

    return TelemetryOptions(
        dir=args.telemetry_dir,
        trace_dump=trace_dump,
        spans=spans,
        profile=profile,
        profile_stride=stride,
    )


def _at_least(minimum: int):
    """``type=`` for an integer flag no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's name for a text int() refused
    return parse


def _seconds(text: str) -> float:
    """``type=`` for a positive, finite number of seconds."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def parse_rate(text: str) -> float:
    """Parse '100M', '25G', '500000000' into bits/second."""
    text = text.strip()
    multiplier = 1.0
    if text and text[-1].upper() in "KMG":
        multiplier = {"K": 1e3, "M": 1e6, "G": 1e9}[text[-1].upper()]
        text = text[:-1]
    try:
        return float(text) * multiplier
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse rate {text!r}") from None


def _parse_faults(args: argparse.Namespace) -> list:
    """Compile ``--fault`` strings into validated FaultSpec dicts."""
    from repro.faults.spec import FaultSpec

    specs = []
    for text in getattr(args, "fault", None) or ():
        try:
            specs.append(FaultSpec.parse(text).to_dict())
        except ValueError as exc:
            raise SystemExit(f"repro: bad --fault {text!r}: {exc}")
    return specs


def _load_scenario_file(path: str) -> Scenario:
    """Read and validate a scenario IR document (JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"repro: cannot read scenario {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"repro: {path}: not valid JSON ({exc})")
    try:
        return Scenario.from_dict(doc)
    except ScenarioError as exc:
        raise SystemExit(f"repro: {path}: invalid scenario: {exc}")


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The one flags-to-IR path (run / validate / scenario show).

    With ``--scenario`` the document is authoritative and only the
    overlay flags (``--fairness``, ``--fault``) modify it; otherwise the
    cell flags assemble a scenario from scratch.
    """
    import dataclasses

    faults = _parse_faults(args)
    if getattr(args, "scenario", None):
        scenario = _load_scenario_file(args.scenario)
        if getattr(args, "fairness", None) is not None:
            scenario = dataclasses.replace(
                scenario,
                sampling=dataclasses.replace(
                    scenario.sampling, fairness_interval_s=args.fairness
                ),
            )
        if faults:
            scenario = dataclasses.replace(
                scenario, faults=tuple(scenario.faults) + tuple(faults)
            )
        return scenario
    try:
        return Scenario(
            topology=TopologySpec(
                bottleneck_bw_bps=args.bw,
                buffer_bdp=args.buffer,
                mss_bytes=args.mss,
                scale=args.scale,
            ),
            flows=(
                FlowSpec(cca=args.cca1, node=0, count=args.flows),
                FlowSpec(cca=args.cca2, node=1, count=args.flows),
            ),
            aqm=AqmSpec(name=args.aqm),
            faults=tuple(faults),
            duration_s=args.duration,
            seed=args.seed,
            sampling=SamplingSpec(fairness_interval_s=getattr(args, "fairness", None)),
        )
    except ScenarioError as exc:
        raise SystemExit(f"repro: invalid scenario flags: {exc}")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_experiment

    scenario = _scenario_from_args(args)
    try:
        cfg = compile_scenario(scenario, args.engine)
    except ScenarioError as exc:
        raise SystemExit(f"repro: {exc}")
    telemetry = _telemetry_options(args)
    result = run_experiment(cfg, telemetry)
    print(f"config      : {cfg.label()}")
    print(f"engine      : {result.engine}")
    for s in result.senders:
        print(f"  {s.node} ({s.cca}): {format_rate(s.throughput_bps)}  retx={s.retransmits}")
    print(f"jain index  : {result.jain_index:.4f}")
    print(f"utilization : {result.link_utilization:.4f}")
    print(f"retransmits : {result.total_retransmits}")
    print(f"drops       : {result.bottleneck_drops}")
    print(f"wallclock   : {result.wallclock_s:.2f}s")
    faults = result.extra.get("faults") if isinstance(result.extra, dict) else None
    if faults:
        print(f"faults      : {faults['injected']} mutations injected")
    fairness = result.extra.get("fairness") if isinstance(result.extra, dict) else None
    if fairness:
        conv = fairness.get("convergence_time_s")
        conv_text = f"{conv:.2f}s" if conv is not None else "never"
        print(
            f"fairness    : {fairness.get('samples', 0)} samples "
            f"@ {fairness.get('interval_s')}s, converged {conv_text}, "
            f"{fairness.get('oscillations', 0)} oscillations, "
            f"{len(fairness.get('sync_loss_t_s') or [])} sync losses"
        )
    obs = result.extra.get("obs") if isinstance(result.extra, dict) else None
    if obs:
        print(f"run log     : {obs['run_log']} ({obs['events_per_sec']:.0f} ev/s)")
        if "spans" in obs:
            print(f"spans       : {obs['spans']} recorded "
                  f"(export: repro obs trace {obs['run_log']})")
        if "profile_coverage" in obs:
            print(f"profile     : {100.0 * obs['profile_coverage']:.1f}% coverage, "
                  f"skew {obs['sim_wall_skew']:.2f}x "
                  f"(table: repro obs profile {obs['run_log']})")
    return 0


def _parse_seeds(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"repro: bad --seeds {text!r}: expected a comma list of integers")


def _sweep_scenario_configs(args: argparse.Namespace) -> List[ExperimentConfig]:
    """Compile a ``--scenario`` document (x ``--seeds``) for the sweep."""
    import dataclasses

    scenario = _load_scenario_file(args.scenario)
    engine = args.engine or "packet"
    seeds = _parse_seeds(args.seeds) if args.seeds else [scenario.seed]
    try:
        return [
            compile_scenario(dataclasses.replace(scenario, seed=seed), engine)
            for seed in seeds
        ]
    except ScenarioError as exc:
        raise SystemExit(f"repro: {exc}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.experiments.campaign import CampaignProgress, run_campaign

    telemetry = _telemetry_options(args)
    if args.queue and telemetry is not None:
        print("repro: sweep --queue refuses --telemetry (and --trace/--profile, which imply "
              "it): the queue's tasks are frozen shards, telemetry needs one run per config",
              file=sys.stderr)
        return 2
    if args.queue and args.no_resume:
        print("repro: sweep --queue refuses --no-resume: a queue resumes from its journal",
              file=sys.stderr)
        return 2
    overrides = {}
    if args.scenario:
        configs = _sweep_scenario_configs(args)
    else:
        configs = get_preset(args.preset)
        if args.engine:
            overrides["engine"] = args.engine
    if args.limit:
        configs = configs[: args.limit]
    if args.fault_profile:
        from repro.faults.profiles import get_profile

        overrides["faults"] = list(get_profile(args.fault_profile))
    if args.fairness is not None:
        overrides["fairness_interval_s"] = args.fairness
    if overrides:
        configs = [dataclasses.replace(cfg, **overrides) for cfg in configs]
    store = ResultStore(args.out) if args.out else None
    cache = None
    if args.cache:
        from repro.experiments.cache import ResultCache

        cache = ResultCache(args.cache)
    campaign_log = (
        Path(telemetry.dir) / "campaign.jsonl" if telemetry is not None else None
    )
    tracker = CampaignProgress(
        campaign_log,
        quiet=args.quiet,
        spans=telemetry is not None and telemetry.spans,
    )
    options = dict(jobs=args.jobs, progress=tracker, on_failure=tracker.failure,
                   timeout_s=args.timeout, retries=args.retries, on_retry=tracker.retry,
                   span_tracer=tracker.spans, store=store, cache=cache)
    try:
        if args.queue:
            from repro.experiments.queue import WorkQueue, run_queue_worker

            queue = WorkQueue.create(args.queue, configs)
            results = run_queue_worker(queue, **options)
        else:
            results = run_campaign(configs, resume=not args.no_resume, telemetry=telemetry,
                                   **options)
    finally:
        tracker.close()
    counts = results.summary()
    tail = ""
    if counts["failed"]:
        tail += f", {counts['failed']} FAILED"
    if counts.get("retried"):
        tail += f", {counts['retried']} retried"
    if args.queue:
        remaining = queue.counts()
        tail += (f" (queue: {remaining['done']}/{remaining['tasks']} tasks done, "
                 f"{remaining['claimed']} claimed elsewhere)")
    print(f"completed {counts['ok']} runs{tail}")
    if cache is not None:
        _finish_cache(cache, results)
    return 2 if counts["failed"] else 0


def _finish_cache(cache, results) -> None:
    """Compact the cache and report the sweep's cache interaction.

    The ``cache: ... engine runs`` line is machine-checked by the CI
    smoke job: a warm-cache sweep must print ``0 engine runs``.
    """
    cache.merge()
    stats = cache.stats()
    print(
        f"cache: {results.cache_hits} hits, {results.engine_runs} engine runs, "
        f"{stats['entries']} entries ({stats['dir']})"
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.aggregate import ResultSet
    from repro.analysis.figures import FIGURES
    from repro.analysis.table3 import build_table3, render_table3
    from repro.analysis.validate import render_claims, validate_claims

    results = ResultSet(ResultStore(args.results).load())
    if len(results) == 0:
        print(f"no results in {args.results}", file=sys.stderr)
        return 1
    what = args.what
    if what == "table3":
        print(render_table3(build_table3(results)))
    elif what == "claims":
        claims = validate_claims(results)
        print(render_claims(claims))
        if any(c.passed is False for c in claims):
            return 2
    elif what == "all":
        from repro.analysis.summary_report import full_report

        print(full_report(results))
    else:
        figure = FIGURES[what]
        if not figure.available(results.aqms()):
            print(f"no {figure.aqm} results in {args.results}: {what} plots that AQM",
                  file=sys.stderr)
            return 1
        print(figure.render(figure.series(results)))
    return 0


class _ReportChoices:
    """``report --what`` choices: Table 3, the figure table's names, the
    claims and the full report.  Read when argparse checks a value or
    prints the help, so building the parser loads no analysis code."""

    def __iter__(self):
        from repro.analysis.figures import FIGURES

        return iter(("table3", *FIGURES, "claims", "all"))

    def __contains__(self, what: object) -> bool:
        return what in iter(self)


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis.aggregate import ResultSet
    from repro.analysis.dataset import flows_table, intervals_table, runs_table, write_csv

    results = ResultSet(ResultStore(args.results).load())
    if len(results) == 0:
        print(f"no results in {args.results}", file=sys.stderr)
        return 1
    builder = {"runs": runs_table, "flows": flows_table, "intervals": intervals_table}[args.table]
    rows = builder(results)
    if not rows:
        print(f"no {args.table} rows available in {args.results}", file=sys.stderr)
        return 1
    path = write_csv(rows, args.out)
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _cmd_export_figures(args: argparse.Namespace) -> int:
    from repro.analysis.aggregate import ResultSet
    from repro.analysis.export_figures import export_all_figures

    results = ResultSet(ResultStore(args.results).load())
    if len(results) == 0:
        print(f"no results in {args.results}", file=sys.stderr)
        return 1
    written = export_all_figures(results, args.out_dir)
    for fig, path in sorted(written.items()):
        print(f"{fig}: {path}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    configs = full_matrix()
    print(f"full grid: {len(configs)} configurations (paper: 810)")
    print("presets:")
    for name, preset in PRESETS.items():
        print(f"  {name:<12s} {preset.description}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _scenario_from_args(args)
    engines = tuple(
        canonical_engine_name(part.strip())
        for part in args.engines.split(",")
        if part.strip()
    )
    try:
        report = validate_scenario(scenario, engines)
    except ScenarioError as exc:
        raise SystemExit(f"repro: {exc}")
    print(render_validation_report(report, verbose=args.verbose))
    return 0 if report.clean else 2


def _cmd_scenario_show(args: argparse.Namespace) -> int:
    scenario = _load_scenario_file(args.scenario_file)
    print(scenario.canonical_json(indent=2))
    try:
        print(f"label     : {scenario.label(engine=args.engine)}")
        print(f"cache key : {scenario.cache_key(engine=args.engine, salt=args.salt)} "
              f"(engine={args.engine})")
    except ScenarioError as exc:
        print(f"cache key : n/a ({exc})")
    return 0


def _add_tracing_flags(parser: argparse.ArgumentParser) -> None:
    """Span/profiler/fairness flags shared by ``run`` and ``sweep``
    (docs/TRACING.md, docs/OBSERVABILITY.md)."""
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record hierarchical span records (Perfetto timeline via "
        "'repro obs trace'; implies --telemetry)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attach the event-loop self-profiler (table via "
        "'repro obs profile'; implies --telemetry)",
    )
    parser.add_argument(
        "--profile-stride",
        type=int,
        default=1,
        metavar="N",
        help="profile every N-th event instead of all (implies --profile)",
    )
    parser.add_argument(
        "--fairness",
        type=float,
        nargs="?",
        const=1.0,
        default=None,
        metavar="SEC",
        help="record fairness dynamics (Jain/phi/queue series, convergence, "
        "sync losses) every SEC simulated seconds (default 1.0; works on "
        "all engines, never perturbs outcomes — see docs/OBSERVABILITY.md)",
    )


def _add_cell_flags(parser: argparse.ArgumentParser) -> None:
    """One experiment cell, as flags or an IR document (run / validate)."""
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="scenario IR document (JSON; see docs/SCENARIO.md) — "
        "supersedes the cell flags below",
    )
    parser.add_argument("--cca1", default="bbrv1")
    parser.add_argument("--cca2", default="cubic")
    parser.add_argument("--aqm", default="fifo", choices=AQM_NAMES)
    parser.add_argument("--buffer", type=float, default=2.0, help="queue length in BDP multiples")
    parser.add_argument("--bw", type=parse_rate, default=100e6, help="bottleneck rate, e.g. 100M, 25G")
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--mss", type=int, default=8900)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0, help="divide all link rates by this")
    parser.add_argument("--flows", type=int, default=None, help="flows per sender node (default: Table 2)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Elephants Sharing the Highway' (SC-W 2023)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single experiment cell")
    _add_cell_flags(p_run)
    p_run.add_argument(
        "--engine", default="packet", type=canonical_engine_name, choices=ENGINES
    )
    p_run.add_argument("--telemetry", action="store_true", help="write a JSONL run log + manifest")
    p_run.add_argument("--telemetry-dir", default=DEFAULT_TELEMETRY_DIR, help="run log directory")
    p_run.add_argument(
        "--trace-dump",
        action="store_true",
        help="dump the flight-recorder window after the run (implies --telemetry)",
    )
    _add_tracing_flags(p_run)
    p_run.add_argument(
        "--fault",
        action="append",
        metavar="SPEC",
        help=(
            "inject a deterministic fault, e.g. 'link_flap,at=10,dur=1' or "
            "'loss_burst,at=5,dur=5,loss=0.01' (repeatable; see docs/FAULTS.md)"
        ),
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a preset campaign")
    p_sweep.add_argument("--preset", default="paper-fluid", choices=sorted(PRESETS))
    p_sweep.add_argument(
        "--scenario",
        default=None,
        metavar="FILE",
        help="sweep one scenario IR document instead of a preset "
        "(replicate with --seeds; engine from --engine)",
    )
    p_sweep.add_argument(
        "--seeds",
        default=None,
        metavar="LIST",
        help="comma list of seeds replicating the --scenario (e.g. 1,2,3)",
    )
    p_sweep.add_argument(
        "--engine",
        default=None,
        type=canonical_engine_name,
        choices=ENGINES,
        help="override the preset's engine on every config "
        "(fluid-batched runs whole shards as one stacked integration)",
    )
    p_sweep.add_argument("--out", default="results.jsonl")
    p_sweep.add_argument("--jobs", type=_at_least(1), default=1)
    p_sweep.add_argument("--limit", type=int, default=0, help="run only the first N configs")
    p_sweep.add_argument("--no-resume", action="store_true")
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.add_argument(
        "--telemetry",
        action="store_true",
        help="per-run JSONL logs + live campaign.jsonl in --telemetry-dir",
    )
    p_sweep.add_argument("--telemetry-dir", default=DEFAULT_TELEMETRY_DIR, help="run log directory")
    _add_tracing_flags(p_sweep)
    p_sweep.add_argument(
        "--fault-profile",
        default=None,
        help="apply a named fault profile to every config (see repro.faults.profiles)",
    )
    p_sweep.add_argument(
        "--timeout",
        type=_seconds,
        default=None,
        metavar="S",
        help="per-run wall-clock deadline; hung workers are killed and recorded as failures",
    )
    p_sweep.add_argument(
        "--retries",
        type=_at_least(0),
        default=0,
        metavar="N",
        help="re-run failed configs up to N times with exponential backoff",
    )
    p_sweep.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="content-addressed result cache root: configs any store has "
        "computed skip the engine, fresh results are recorded "
        "(see docs/SERVICE.md)",
    )
    p_sweep.add_argument(
        "--queue",
        default=None,
        metavar="DIR",
        help="drain the sweep through a durable work queue: N processes "
        "pointing at one queue dir pull disjoint tasks and share the "
        "store safely (see docs/SERVICE.md)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser("report", help="render tables/figures from stored results")
    p_report.add_argument("--results", default="results.jsonl")
    p_report.add_argument(
        "--what",
        default="table3",
        choices=_ReportChoices(),
        metavar="WHAT",  # argparse would list the choices when adding the flag
        help="one of %(choices)s (default: %(default)s)",
    )
    p_report.set_defaults(func=_cmd_report)

    p_export = sub.add_parser("export", help="export results as ML-ready CSV tables")
    p_export.add_argument("--results", default="results.jsonl")
    p_export.add_argument("--table", default="runs", choices=["runs", "flows", "intervals"])
    p_export.add_argument("--out", default="dataset.csv")
    p_export.set_defaults(func=_cmd_export)

    p_figs = sub.add_parser("export-figures", help="write each paper figure's series as a CSV file")
    p_figs.add_argument("--results", default="results.jsonl")
    p_figs.add_argument("--out-dir", default="figures")
    p_figs.set_defaults(func=_cmd_export_figures)

    p_matrix = sub.add_parser("matrix", help="describe the experiment grid and presets")
    p_matrix.set_defaults(func=_cmd_matrix)

    p_validate = sub.add_parser(
        "validate",
        help="run one scenario on several engines and diff them under the "
        "declared tolerance policy (docs/SCENARIO.md)",
    )
    _add_cell_flags(p_validate)
    p_validate.add_argument(
        "--engines",
        default="packet,fluid",
        metavar="LIST",
        help="comma list of engines to cross-validate "
        "(packet, fluid, fluid-batched; default: packet,fluid)",
    )
    p_validate.add_argument(
        "--verbose", action="store_true", help="also print the tolerance bands"
    )
    p_validate.set_defaults(func=_cmd_validate)

    p_scenario = sub.add_parser("scenario", help="inspect scenario IR documents")
    scenario_sub = p_scenario.add_subparsers(dest="scenario_command", required=True)
    p_show = scenario_sub.add_parser(
        "show", help="pretty-print a scenario's canonical form and cache key"
    )
    p_show.add_argument("scenario_file", help="scenario IR document (JSON)")
    p_show.add_argument(
        "--engine",
        default="packet",
        type=canonical_engine_name,
        choices=ENGINES,
        help="engine the cache key is computed for (keys are per-engine)",
    )
    p_show.add_argument(
        "--salt", default=None, help="cache salt (default: repro-<version>)"
    )
    p_show.set_defaults(func=_cmd_scenario_show)

    p_cache = sub.add_parser(
        "cache", help="inspect or compact a content-addressed result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_cstats = cache_sub.add_parser("stats", help="print cache layout stats as JSON")
    p_cstats.add_argument("cache_dir", help="cache root directory")
    p_cstats.set_defaults(func=_cmd_cache_stats)
    p_cmerge = cache_sub.add_parser(
        "merge", help="fold worker shards into the canonical store (dedup + verify)"
    )
    p_cmerge.add_argument("cache_dir", help="cache root directory")
    p_cmerge.set_defaults(func=_cmd_cache_merge)

    p_serve = sub.add_parser(
        "serve",
        help="serve fairness queries from the result cache over HTTP",
        description="Serve fairness queries from the content-addressed result cache",
    )
    p_serve.add_argument("--cache", required=True, help="result cache root directory")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8351)
    p_serve.add_argument(
        "--jobs", type=_at_least(1), default=1, help="concurrent engine runs for cold queries"
    )
    p_serve.add_argument(
        "--telemetry-dir",
        default=None,
        help="append campaign_progress records for scheduled runs to "
        "DIR/campaign.jsonl (repro obs tail compatible)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    add_obs_parser(sub)
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    return serve(args)


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.cache import ResultCache

    # Inspecting a cache must not create one (ResultCache() would).
    if not Path(args.cache_dir).is_dir():
        print(f"error: no cache directory at {args.cache_dir}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    print(json.dumps(cache.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_cache_merge(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.cache import ResultCache

    if not Path(args.cache_dir).is_dir():
        print(f"error: no cache directory at {args.cache_dir}", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)
    summary = cache.merge()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seeds", None) and not args.scenario:
        parser.error("sweep --seeds replicates a --scenario document; pass --scenario FILE")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
