"""`repro obs` — inspect run logs, campaigns, and export metrics.

    repro obs summary  telemetry/<label>.jsonl     # human-readable run digest
    repro obs validate telemetry/<label>.jsonl     # schema gate (CI smoke)
    repro obs prom     telemetry/<label>.jsonl     # Prometheus text format
    repro obs tail     telemetry/ [--follow]       # latest campaign status
    repro obs trace    telemetry/ --out trace.json # Chrome/Perfetto timeline
    repro obs profile  telemetry/<label>.jsonl     # event-loop self-time table
    repro obs diff     a.jsonl b.jsonl             # phase/kind comparison
    repro obs fairness summary results.jsonl       # per-cell fairness digest
    repro obs fairness drift a.jsonl b.jsonl       # fairness regression gate
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.export import snapshot_to_prometheus
from repro.obs.profile import diff_profiles, render_profile
from repro.obs.runlog import read_run_log, validate_campaign_log, validate_run_log


def _records_by_type(records: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for r in records:
        grouped.setdefault(r.get("record", "?"), []).append(r)
    return grouped


def _fmt_count(value: float) -> str:
    value = float(value)
    if value >= 1e9:
        return f"{value / 1e9:.2f}G"
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:g}"


#: Counter keys surfaced in the summary headline (rendered key -> title).
_HEADLINE_COUNTERS = (
    ("sim_events_processed_total", "events"),
    ('queue_dropped_enqueue_total{queue="bottleneck"}', "drops (enqueue)"),
    ('queue_dropped_dequeue_total{queue="bottleneck"}', "drops (dequeue)"),
    ('queue_ecn_marked_total{queue="bottleneck"}', "ecn marks"),
    ("tcp_segments_sent_total", "segments sent"),
    ("tcp_retransmits_total", "retransmits"),
    ("tcp_rto_total", "RTOs"),
    ("tcp_fast_recoveries_total", "fast recoveries"),
)


def render_summary(records: List[Dict[str, Any]], *, source: str = "") -> str:
    """Human-readable digest of one run log."""
    grouped = _records_by_type(records)
    lines: List[str] = []
    manifest = (grouped.get("manifest") or [{}])[0]
    if manifest:
        lines.append(f"run         : {manifest.get('label', '?')}")
        lines.append(
            f"manifest    : engine={manifest.get('engine', '?')} "
            f"seed={manifest.get('seed', '?')} "
            f"config_hash={manifest.get('config_hash', '?')} "
            f"repro={manifest.get('repro_version', '?')}"
        )
    summary = (grouped.get("summary") or [{}])[-1]
    if summary:
        status = summary.get("status", "?")
        lines.append(
            f"status      : {status}  wall={summary.get('wall_s', 0.0):.2f}s  "
            f"events={_fmt_count(summary.get('events', 0))}  "
            f"rate={_fmt_count(summary.get('events_per_sec', 0.0))} ev/s  "
            f"rss={summary.get('peak_rss_kb', 0)}KiB"
        )
        if status == "error":
            lines.append(f"error       : {summary.get('error', '?')}")
            if summary.get("trace_dump"):
                lines.append(f"trace dump  : {summary['trace_dump']} "
                             f"({summary.get('trace_events_dumped', '?')} events)")
        elif "jain_index" in summary:
            lines.append(
                f"outcome     : J={summary.get('jain_index', float('nan')):.4f}  "
                f"phi={summary.get('link_utilization', float('nan')):.4f}  "
                f"retx={summary.get('total_retransmits', '?')}  "
                f"drops={summary.get('bottleneck_drops', '?')}"
            )
    metrics = (grouped.get("metrics") or [{}])[-1]
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters    :")
        shown = set()
        for key, title in _HEADLINE_COUNTERS:
            if key in counters:
                shown.add(key)
                lines.append(f"  {title:<22s} {_fmt_count(counters[key]):>10s}")
        for key in sorted(counters):
            if key not in shown:
                lines.append(f"  {key:<40s} {_fmt_count(counters[key]):>10s}")
    for key, hist in sorted(metrics.get("histograms", {}).items()):
        count = hist.get("count", 0)
        if count:
            mean = hist.get("sum", 0.0) / count
            lines.append(f"  {key:<22s} n={count} mean={mean:.1f}")
    spans = grouped.get("span") or []
    if spans:
        phases = _phase_durations(spans)
        top = sorted(phases.items(), key=lambda kv: kv[1], reverse=True)[:6]
        lines.append(
            "spans       : "
            + f"{len(spans)} recorded; "
            + "  ".join(f"{name}={dur:.2f}s" for name, dur in top)
        )
    if source:
        lines.append(f"source      : {source}")
    return "\n".join(lines)


def _phase_durations(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Total duration per span name (phases aggregate across repeats)."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.get("name", "?")] = out.get(s.get("name", "?"), 0.0) + float(
            s.get("dur_s") or 0.0
        )
    return out


def render_campaign_tail(records: List[Dict[str, Any]]) -> str:
    """Latest state of a campaign from its ``campaign_progress`` records."""
    progress = [r for r in records if r.get("record") == "campaign_progress"]
    if not progress:
        return "no campaign progress records"
    last = progress[-1]
    failed = last.get("failed", 0)
    lines = [
        f"campaign    : {last.get('finished', '?')}/{last.get('total', '?')} done"
        + (f", {failed} FAILED" if failed else "")
        + f", ETA {last.get('eta_s', 0.0):.0f}s",
        f"last run    : {last.get('label', '?')} "
        f"({_fmt_count(last.get('events_per_sec', 0.0))} ev/s)",
    ]
    recent = progress[-5:]
    if len(recent) > 1:
        lines.append("recent      :")
        for r in recent[:-1]:
            lines.append(
                f"  [{r.get('finished', '?')}/{r.get('total', '?')}] {r.get('label', '?')}"
            )
    return "\n".join(lines)


def _resolve_logs(path: Path) -> List[Path]:
    if path.is_dir():
        return sorted(
            p for p in path.glob("*.jsonl") if not p.name.endswith(".trace.jsonl")
        )
    return [path]


def cmd_summary(args: argparse.Namespace) -> int:
    """``repro obs summary``: digest of one or every run log in a directory."""
    paths = _resolve_logs(Path(args.log))
    if not paths:
        print(f"no run logs under {args.log}", file=sys.stderr)
        return 1
    blocks = []
    try:
        for p in paths:
            if p.name == "campaign.jsonl":
                continue
            blocks.append(render_summary(read_run_log(p), source=str(p)))
    except (OSError, ValueError) as exc:
        print(f"{args.log}: {exc}", file=sys.stderr)
        return 1
    print("\n\n".join(blocks))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """``repro obs validate``: schema-check run logs; exit 1 on problems."""
    paths = _resolve_logs(Path(args.log))
    if not paths:
        print(f"no run logs under {args.log}", file=sys.stderr)
        return 1
    bad = 0
    for p in paths:
        check = validate_campaign_log if p.name == "campaign.jsonl" else validate_run_log
        try:
            errors = check(read_run_log(p))
        except (OSError, ValueError) as exc:
            errors = [str(exc)]
        if errors:
            bad += 1
            for e in errors:
                print(f"{p}: {e}", file=sys.stderr)
        else:
            print(f"{p}: valid ({sum(1 for _ in open(p, encoding='utf-8'))} records)")
    return 1 if bad else 0


def cmd_prom(args: argparse.Namespace) -> int:
    """``repro obs prom``: export a run log's metrics as Prometheus text.

    Given a directory, exports the most recently modified run log in it.
    """
    path = Path(args.log)
    if path.is_dir():
        logs = [p for p in _resolve_logs(path) if p.name != "campaign.jsonl"]
        if not logs:
            print(f"no run logs under {args.log}", file=sys.stderr)
            return 1
        path = max(logs, key=lambda p: p.stat().st_mtime)
    try:
        records = read_run_log(path)
    except (OSError, ValueError) as exc:
        print(f"{args.log}: {exc}", file=sys.stderr)
        return 1
    metrics = [r for r in records if r.get("record") == "metrics"]
    if not metrics:
        print(f"no metrics record in {args.log}", file=sys.stderr)
        return 1
    text = snapshot_to_prometheus(metrics[-1])
    if args.out and args.out != "-":
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {len(text.splitlines())} lines to {args.out}")
    else:
        print(text, end="")
    return 0


def _tail_render(path: Path) -> Tuple[int, str]:
    """One tail snapshot: (exit code, rendered text)."""
    campaign = path / "campaign.jsonl" if path.is_dir() else path
    try:
        if campaign.exists():
            return 0, render_campaign_tail(read_run_log(campaign))
        # No campaign log: fall back to one-line-per-run-log status.
        paths = _resolve_logs(path)
        if not paths:
            return 1, f"nothing to tail under {path}"
        lines = []
        for p in paths:
            try:
                records = read_run_log(p)
            except ValueError as exc:
                lines.append(f"{p.name}: unreadable ({exc})")
                continue
            summaries = [r for r in records if r.get("record") == "summary"]
            if summaries:
                s = summaries[-1]
                lines.append(f"{p.name}: {s.get('status')} "
                             f"({_fmt_count(s.get('events_per_sec', 0.0))} ev/s)")
            else:
                lines.append(f"{p.name}: running ({len(records)} records)")
        return 0, "\n".join(lines)
    except (OSError, ValueError) as exc:
        return 1, f"{path}: {exc}"


def _tail_fingerprint(path: Path) -> Tuple:
    """Cheap change detector for ``--follow`` (sizes, not contents)."""
    campaign = path / "campaign.jsonl" if path.is_dir() else path
    if campaign.exists():
        st = campaign.stat()
        return (st.st_size,)
    if path.is_dir():
        return tuple(
            (p.name, p.stat().st_size) for p in _resolve_logs(path)
        )
    return ()


def cmd_tail(args: argparse.Namespace) -> int:
    """``repro obs tail``: latest status of a campaign (or run-log dir).

    ``--follow`` polls the log and re-renders on change (bounded by the
    poll interval, so a hot campaign does not melt the terminal); Ctrl-C
    exits cleanly.
    """
    path = Path(args.log)
    if not getattr(args, "follow", False):
        code, text = _tail_render(path)
        print(text, file=sys.stderr if code else sys.stdout)
        return code
    interval = max(0.1, float(getattr(args, "interval", 2.0)))
    max_updates = getattr(args, "max_updates", None)  # test seam
    last_fp: Optional[Tuple] = None
    updates = 0
    try:
        while True:
            fp = _tail_fingerprint(path)
            if fp != last_fp:
                last_fp = fp
                code, text = _tail_render(path)
                if sys.stdout.isatty():
                    sys.stdout.write("\x1b[2J\x1b[H")  # clear + home
                stamp = time.strftime("%H:%M:%S")
                print(f"-- repro obs tail {path} @ {stamp} --")
                print(text, flush=True)
                updates += 1
                if max_updates is not None and updates >= max_updates:
                    return code
            time.sleep(interval)
    except KeyboardInterrupt:
        print("", flush=True)  # leave the shell prompt on its own line
        return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro obs trace``: export run logs as a Chrome/Perfetto trace."""
    from repro.obs.chrome_trace import validate_chrome_trace, write_chrome_trace

    path = Path(args.log)
    paths = _resolve_logs(path)
    if not paths:
        print(f"no run logs under {args.log}", file=sys.stderr)
        return 1
    out = args.out
    if not out:
        out = str(path / "trace.json" if path.is_dir()
                  else path.with_suffix(".trace.json"))
    try:
        doc = write_chrome_trace(paths, out)
    except (OSError, ValueError) as exc:
        print(f"{args.log}: {exc}", file=sys.stderr)
        return 1
    problems = validate_chrome_trace(doc)
    for p in problems:
        print(f"{out}: {p}", file=sys.stderr)
    meta = doc.get("otherData", {})
    print(
        f"wrote {out}: {len(doc['traceEvents'])} events from "
        f"{meta.get('spans', 0)} spans + {meta.get('profiles', 0)} profiles "
        f"across {len(paths)} log(s) — load it at https://ui.perfetto.dev"
    )
    if meta.get("spans", 0) == 0:
        print("note: no span records found — run with --trace to record them",
              file=sys.stderr)
    return 1 if problems else 0


def _profile_records(paths: List[Path]) -> List[Tuple[Path, Dict[str, Any]]]:
    found = []
    for p in paths:
        if p.name == "campaign.jsonl":
            continue
        for r in read_run_log(p):
            if r.get("record") == "profile":
                found.append((p, r))
    return found


def cmd_profile(args: argparse.Namespace) -> int:
    """``repro obs profile``: per-event-kind self-time table(s)."""
    paths = _resolve_logs(Path(args.log))
    try:
        profiles = _profile_records(paths)
    except (OSError, ValueError) as exc:
        print(f"{args.log}: {exc}", file=sys.stderr)
        return 1
    if not profiles:
        print(f"no profile records under {args.log} "
              "(run with --profile to record them)", file=sys.stderr)
        return 1
    blocks = [
        render_profile(prof, top=args.top, source=str(p))
        for p, prof in profiles
    ]
    print("\n\n".join(blocks))
    return 0


def _diff_side(arg: str) -> Tuple[str, Dict[str, float], Optional[Dict[str, Any]]]:
    """Load one ``repro obs diff`` side: (name, phase durations, profile)."""
    path = Path(arg)
    paths = _resolve_logs(path)
    spans: List[Dict[str, Any]] = []
    profile: Optional[Dict[str, Any]] = None
    for p in paths:
        for r in read_run_log(p):
            if r.get("record") == "span":
                spans.append(r)
            elif r.get("record") == "profile":
                # Aggregate profiles across a campaign's run logs.
                if profile is None:
                    profile = {"kinds": {}, "loop_wall_s": 0.0, "events": 0}
                profile["loop_wall_s"] += float(r.get("loop_wall_s", 0.0))
                profile["events"] += int(r.get("events", 0))
                for kind, row in (r.get("kinds") or {}).items():
                    agg = profile["kinds"].setdefault(
                        kind, {"self_s": 0.0, "events": 0}
                    )
                    agg["self_s"] += float(row.get("self_s", 0.0))
                    agg["events"] += int(row.get("events", 0))
    return path.name or str(path), _phase_durations(spans), profile


def _fmt_delta(a: float, b: float) -> str:
    delta = b - a
    pct = f" ({delta / a * 100.0:+.1f}%)" if a > 0 else ""
    return f"{delta:+.3f}s{pct}"


def cmd_diff(args: argparse.Namespace) -> int:
    """``repro obs diff``: phase-by-phase comparison of two runs/campaigns."""
    try:
        name_a, phases_a, prof_a = _diff_side(args.a)
        name_b, phases_b, prof_b = _diff_side(args.b)
    except (OSError, ValueError) as exc:
        print(f"obs diff: {exc}", file=sys.stderr)
        return 1
    if not phases_a and not phases_b and prof_a is None and prof_b is None:
        print("no span or profile records on either side", file=sys.stderr)
        return 1
    lines = [f"A = {args.a}", f"B = {args.b}", ""]
    names = sorted(set(phases_a) | set(phases_b),
                   key=lambda n: -max(phases_a.get(n, 0.0), phases_b.get(n, 0.0)))
    if names:
        lines.append(f"{'phase':<20s} {'A':>10s} {'B':>10s}  delta")
        for n in names:
            a, b = phases_a.get(n, 0.0), phases_b.get(n, 0.0)
            lines.append(f"{n:<20s} {a:>9.3f}s {b:>9.3f}s  {_fmt_delta(a, b)}")
    if prof_a is not None and prof_b is not None:
        lines.append("")
        lines.append(f"{'event kind':<20s} {'A':>10s} {'B':>10s}  delta")
        for kind, a, b in diff_profiles(prof_a, prof_b):
            lines.append(f"{kind:<20s} {a:>9.3f}s {b:>9.3f}s  {_fmt_delta(a, b)}")
    elif prof_a is not None or prof_b is not None:
        lines.append("")
        lines.append("profile records on one side only — kind diff skipped")
    print("\n".join(lines))
    return 0


def cmd_fairness_summary(args: argparse.Namespace) -> int:
    """``repro obs fairness summary``: per-cell fairness digest of a store."""
    from repro.obs.drift import render_fairness_summary, summarize_fairness

    try:
        rows = summarize_fairness(args.results)
    except (OSError, ValueError) as exc:
        print(f"fairness summary: {exc}", file=sys.stderr)
        return 1
    print(render_fairness_summary(rows))
    return 0


def cmd_fairness_drift(args: argparse.Namespace) -> int:
    """``repro obs fairness drift``: diff two result sets cell-by-cell.

    Exit codes: 0 clean, 1 unreadable input, 2 drift detected — so CI can
    gate on drift without conflating it with tooling failures.
    """
    from repro.obs.drift import DriftTolerance, detect_drift, render_drift_report

    tolerance = DriftTolerance(
        jain=args.jain_tol, phi=args.phi_tol,
        rr_rel=args.rr_tol, rr_abs=args.rr_abs,
    )
    try:
        report = detect_drift(args.a, args.b, tolerance=tolerance)
    except (OSError, ValueError) as exc:
        print(f"fairness drift: {exc}", file=sys.stderr)
        return 1
    print(render_drift_report(report, verbose=args.verbose))
    return 0 if report.clean else 2


def add_obs_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``obs`` subcommand tree on the top-level CLI parser."""
    p_obs = sub.add_parser("obs", help="inspect telemetry run logs and export metrics")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_sum = obs_sub.add_parser("summary", help="render a run log (or telemetry dir) digest")
    p_sum.add_argument("log", help="run-log .jsonl file or telemetry directory")
    p_sum.set_defaults(func=cmd_summary)

    p_val = obs_sub.add_parser("validate", help="schema-check run logs; exit 1 on problems")
    p_val.add_argument("log", help="run-log .jsonl file or telemetry directory")
    p_val.set_defaults(func=cmd_validate)

    p_prom = obs_sub.add_parser("prom", help="export a run log's metrics as Prometheus text")
    p_prom.add_argument("log", help="run-log .jsonl file (or telemetry dir: newest log)")
    p_prom.add_argument("--out", default="-", help="output file ('-' = stdout)")
    p_prom.set_defaults(func=cmd_prom)

    p_tail = obs_sub.add_parser("tail", help="latest status of a (live) campaign directory")
    p_tail.add_argument("log", help="telemetry directory or campaign.jsonl")
    p_tail.add_argument("-f", "--follow", action="store_true",
                        help="poll the log and re-render on change (Ctrl-C exits)")
    p_tail.add_argument("--interval", type=float, default=2.0,
                        help="poll cadence in seconds with --follow (default 2)")
    p_tail.add_argument("--max-updates", type=int, default=None,
                        help=argparse.SUPPRESS)  # test seam: stop after N renders
    p_tail.set_defaults(func=cmd_tail)

    p_trace = obs_sub.add_parser(
        "trace", help="export span/profile records as a Chrome/Perfetto trace"
    )
    p_trace.add_argument("log", help="run-log .jsonl file or telemetry directory")
    p_trace.add_argument("--out", default=None,
                         help="output .json (default: <dir>/trace.json)")
    p_trace.set_defaults(func=cmd_trace)

    p_prof = obs_sub.add_parser(
        "profile", help="render event-loop self-time tables from profile records"
    )
    p_prof.add_argument("log", help="run-log .jsonl file or telemetry directory")
    p_prof.add_argument("--top", type=int, default=0,
                        help="only the N largest kinds (default: all)")
    p_prof.set_defaults(func=cmd_profile)

    p_diff = obs_sub.add_parser(
        "diff", help="compare two runs/campaigns phase-by-phase and kind-by-kind"
    )
    p_diff.add_argument("a", help="baseline run log or telemetry directory")
    p_diff.add_argument("b", help="candidate run log or telemetry directory")
    p_diff.set_defaults(func=cmd_diff)

    p_fair = obs_sub.add_parser(
        "fairness", help="campaign-level fairness aggregation and drift gate"
    )
    fair_sub = p_fair.add_subparsers(dest="fairness_command", required=True)

    p_fsum = fair_sub.add_parser(
        "summary", help="per-cell Jain/phi/RR + dynamics digest of a result store"
    )
    p_fsum.add_argument(
        "results", help="results .jsonl store, .json fixture, or directory of either"
    )
    p_fsum.set_defaults(func=cmd_fairness_summary)

    p_fdrift = fair_sub.add_parser(
        "drift",
        help="diff per-cell fairness between two result sets (exit 2 on drift)",
    )
    p_fdrift.add_argument("a", help="baseline results store/fixture/directory")
    p_fdrift.add_argument("b", help="candidate results store/fixture/directory")
    p_fdrift.add_argument("--jain-tol", type=float, default=0.05,
                          help="max |mean Jain| shift per cell (default 0.05)")
    p_fdrift.add_argument("--phi-tol", type=float, default=0.05,
                          help="max |mean phi| shift per cell (default 0.05)")
    p_fdrift.add_argument("--rr-tol", type=float, default=0.25,
                          help="max relative retransmit shift (default 0.25)")
    p_fdrift.add_argument("--rr-abs", type=float, default=10.0,
                          help="absolute retransmit shift floor (default 10)")
    p_fdrift.add_argument("-v", "--verbose", action="store_true",
                          help="also list cells present on only one side")
    p_fdrift.set_defaults(func=cmd_fairness_drift)
