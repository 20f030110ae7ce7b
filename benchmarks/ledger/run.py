#!/usr/bin/env python3
"""Perf ledger: the one command that measures this repo end to end.

    python3 benchmarks/ledger/run.py                     # every workload once
    python3 benchmarks/ledger/run.py --traced            # ... plus per-layer runs
    python3 benchmarks/ledger/run.py --workload grid_warm --seed 3 \\
        --seconds 20 --trace 0          # one run; last stdout line is JSON
    python3 benchmarks/ledger/run.py --sets 2 --runs 10 --traced \\
        --out results/LEDGER.json       # interleaved report sets (A/A)
    python3 benchmarks/ledger/run.py --selftest

``BENCHMARK.json`` at the repo root names every metric, its unit and its
bound; this program fills in the values.  See README.md beside this file.
"""

import time

_PROCESS_START = time.perf_counter()  # set-up time counts from here

import argparse
import datetime
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SCRATCH_PARENT = ROOT / ".ledger_scratch"

#: How often a run repeats its set-up; ``setup_s`` is imports + the median.
SETUP_REPEATS = 3

#: Untraced repetitions a ``--trace 1`` run makes before the traced one: the
#: base of ``trace.overhead_share`` and of the workload's own timings.
TRACED_RUN_BASE_REPS = 3

#: Advisory bounds of the workload-specific timings (``Unit.timings``), used
#: by compare.py like the contract's bounds.  One value: it is what the host
#: this was written on supports (README.md, "Steadiness").
DETAIL_BOUND = 0.25

#: Line prefix of the untraced run's workload-specific numbers and facts.
DETAIL_PREFIX = "ledger-detail: "

#: Per-layer metrics the selftest lets be 0 on every workload: a count of
#: rare events, and what the toy size leaves out (wide shards, an fq_codel
#: packet cell, a grid large enough for any paper claim to apply).
MAY_BE_ZERO = frozenset({
    "campaign.hardened_spurious_crashes",
    "fluid.batched.lane_steps_per_s.wide",
    "sim.events_per_s.fq_codel",
    "analysis.claims_passed",
})


def bootstrap() -> Dict[str, Any]:
    """Put ``src/`` and the ``ledger`` package on the path; load the spec."""
    src = ROOT / "src"
    if not (src / "repro" / "api.py").is_file() or not SPEC_PATH.is_file():
        sys.stderr.write(
            f"ledger: need {SPEC_PATH} and the program under {src}; "
            "run from a checkout of the repo\n"
        )
        raise SystemExit(2)
    # This directory holds trace.py; importing it as ``ledger.trace`` (and
    # dropping the script directory from the path) keeps it from shadowing
    # the standard library's ``trace``.
    sys.path[0] = str(HERE.parent)
    sys.path.insert(1, str(src))
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def best_timings(spec: Dict[str, Any], units: List[Any]) -> Dict[str, float]:
    """Each workload-specific timing at its best repetition.

    Interference from the host only ever adds time, so the best of several
    repetitions is the estimate least moved by it; the committed report shows
    it beside the median of the repetitions (README.md, "Steadiness").
    """
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    return {
        name: (max if better[name] == "higher" else min)(u.timings[name] for u in units)
        for name in units[0].timings
    }


def run_once(
    spec: Dict[str, Any],
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    size: Any,
    scratch: Path,
    imports_s: float,
    spans_out: Optional[str] = None,
) -> Dict[str, Any]:
    """One run of one workload; returns the contract's result object plus
    ``_detail`` (workload-specific timings and facts of an untraced run) and
    ``_undeclared`` (metric names BENCHMARK.json does not list)."""
    from ledger import layers, probes, workloads
    from ledger.trace import Tracer

    values: Dict[str, float] = {}
    detail: Dict[str, Any] = {}
    units: List[Any] = []
    error = None
    calibration = probes.host_calibration() if traced else {}
    workload = workloads.WORKLOADS[name](size, seed, scratch)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        if traced:
            units = [workloads.run_unit(workload, rep) for rep in range(TRACED_RUN_BASE_REPS)]
            untraced_s = min(u.wall_s for u in units)
            tracer = Tracer(f"{name}-seed{seed}")
            tracer.install()
            try:
                with tracer.span("unit"):
                    units.append(workloads.run_unit(workload, len(units), tracer))
            finally:
                tracer.uninstall()
            for where, reason in tracer.missing.items():
                print(f"trace: {where} not traced: {reason}", file=sys.stderr)
            if spans_out:
                tracer.dump(spans_out)
            values.update(best_timings(spec, units[:-1]))
            values.update(layers.span_metrics(tracer, units[-1].wall_s))
            values.update(units[0].layer)
            values["trace.overhead_share"] = units[-1].wall_s / untraced_s - 1.0
            for probe in probes.PROBES[name]:
                values.update(probe(workload))
            after = probes.host_calibration()
            values.update(calibration)
            values["host.drift"] = after["host.calib_py_s"] / calibration["host.calib_py_s"] - 1.0
        else:
            t0 = time.perf_counter()
            # At least two repetitions (their outputs must agree), then as
            # many more as fit in --seconds.
            while len(units) < 2 or (
                (time.perf_counter() - t0) * (1 + 1 / len(units)) <= seconds
            ):
                units.append(workloads.run_unit(workload, len(units)))
            values["setup_s"] = imports_s + statistics.median(setups)
            values["wall_s"] = min(u.wall_s for u in units)
            # The fluid kernel's peak is bistable (README.md, finding 4): once
            # a process has tipped, every later repetition reads high.
            values["peak_rss_mb"] = min(u.peak_rss_mb for u in units)
            detail = {
                "reps": len(units),
                "rep_wall_s": [u.wall_s for u in units],
                "rep_peak_rss_mb": [u.peak_rss_mb for u in units],
                "timings": best_timings(spec, units),
                "facts": units[0].facts,
            }
        for unit in units[1:]:
            workloads.check(
                unit.facts == units[0].facts,
                f"{name}: repetitions disagree at one seed: "
                f"{units[0].facts} vs {unit.facts}",
            )
    except workloads.CheckFailed as exc:
        error = str(exc)
        print(f"ledger: CHECK FAILED: {error}", file=sys.stderr)

    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    return {
        "correct": error is None,
        "attempted": max(1, sum(u.attempted for u in units)),
        "failed": 0 if error is None else 1,
        "metrics": metrics,
        "_detail": detail,
        "_undeclared": sorted(set(values) - {m["name"] for m in declared}),
    }


def print_metrics(spec: Dict[str, Any], name: str, result: Dict[str, Any],
                  detail: Dict[str, Any]) -> None:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reps = f" repetitions={detail['reps']}" if detail else ""
    print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}{reps}")
    for metric, entry in result["metrics"].items():
        bound = f"  (bound {bounds[metric]:.0%})" if metric in bounds else ""
        print(f"{metric:<40s} {entry['value']:>16.6g} {entry['unit']}{bound}")
    for metric, value in detail.get("timings", {}).items():
        print(f"{metric:<40s} {value:>16.6g} {units[metric]}  (bound {DETAIL_BOUND:.0%})")


def with_scratch(fn):
    """Run ``fn(scratch_dir)`` with a private directory inside the checkout,
    removed afterwards whatever happens."""
    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))
    try:
        return fn(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass  # another run's scratch is still in there


def single_run(spec: Dict[str, Any], args: argparse.Namespace) -> int:
    from ledger import inputs, workloads  # noqa: F401  (the program's imports)

    imports_s = time.perf_counter() - _PROCESS_START
    result = with_scratch(
        lambda scratch: run_once(
            spec, args.workload[0], args.seed, args.seconds, bool(args.trace),
            inputs.FULL, scratch, imports_s, args.spans,
        )
    )
    result.pop("_undeclared")
    detail = result.pop("_detail")
    print_metrics(spec, args.workload[0], result, detail)
    if detail:
        print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def selftest(spec: Dict[str, Any]) -> int:
    """Every workload, both modes, at toy size; asserts the metric contract."""
    from ledger import compare, inputs

    t0 = time.perf_counter()
    problems: List[str] = []
    runs = []

    def both_modes(scratch: Path) -> None:
        for name in (w["name"] for w in spec["workloads"]):
            for traced in (False, True):
                sub = scratch / f"{name}-{int(traced)}"
                sub.mkdir()
                result = run_once(spec, name, 1, 0.0, traced, inputs.TOY, sub, 0.0)
                kind = "per_layer" if traced else "end_to_end"
                if not result["correct"]:
                    problems.append(f"{name}/{kind}: incorrect")
                for extra in result.pop("_undeclared"):
                    problems.append(f"{name}/{kind}: {extra} is not in BENCHMARK.json")
                for m in spec[kind]:
                    entry = result["metrics"].get(m["name"])
                    if entry is None or entry["unit"] != m["unit"]:
                        problems.append(f"{name}/{kind}: {m['name']} missing or wrong unit")
                    elif not math.isfinite(entry["value"]):
                        problems.append(f"{name}/{kind}: {m['name']} is not finite")
                    elif kind == "end_to_end" and entry["value"] <= 0:
                        problems.append(f"{name}/{kind}: {m['name']} is not positive")
                detail = result.pop("_detail")
                runs.append({"workload": name, "seed": 1, "trace": int(traced),
                             "detail": detail.get("timings", {}), **result})
                print(f"selftest: {name} trace={int(traced)} ok "
                      f"({time.perf_counter() - t0:.1f}s)")

    with_scratch(both_modes)
    report = {"benchmark": spec, "detail_bound": DETAIL_BOUND,
              "sets": [{"runs": runs}, {"runs": runs}]}
    verdicts = compare.compare(report["sets"][0], report["sets"][1], report)
    judged = {v["metric"] for v in verdicts}
    for missing in {name for r in runs for name in r["detail"]} - judged:
        problems.append(f"compare: no verdict on {missing}")
    if any(v["verdict"] != "unchanged" for v in verdicts):
        problems.append("compare: a report set differs from itself")
    # A layer no workload entered would show up as a metric that is 0 on all.
    for m in spec["per_layer"]:
        if m["name"] not in MAY_BE_ZERO and not any(
            r["trace"] and r["metrics"][m["name"]]["value"] for r in runs
        ):
            problems.append(f"per_layer: {m['name']} is 0 on every workload")
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print(f"selftest: {'FAILED' if problems else 'passed'} in "
          f"{time.perf_counter() - t0:.1f}s")
    return 1 if problems else 0


def collect_sets(spec: Dict[str, Any], args: argparse.Namespace) -> int:
    """Interleaved report sets: every run is a fresh process of this file."""
    names = args.workload or [w["name"] for w in spec["workloads"]]
    sets: List[Dict[str, Any]] = [{"runs": []} for _ in range(args.sets)]
    # Untraced runs first, one traced run per workload and set at the end.
    plan = [(i, 0) for i in range(args.runs)] + ([(args.runs, 1)] if args.trace else [])
    for index, trace in plan:
        for name in names:
            for set_index in range(args.sets):
                # Alternate which set goes first, as an A/B comparison would.
                which = set_index if index % 2 == 0 else args.sets - 1 - set_index
                seed = args.seed + index
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()),
                     "--workload", name, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", str(trace)],
                    stdout=subprocess.PIPE, text=True, cwd=ROOT,
                )
                wall = time.perf_counter() - t0
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0:
                    sys.stderr.write(proc.stdout)
                    print(f"ledger: {name} seed {seed} exited {proc.returncode}",
                          file=sys.stderr)
                    return 1
                result = json.loads(lines.pop())
                detail: Dict[str, Any] = {}
                if lines[-1].startswith(DETAIL_PREFIX):
                    detail = json.loads(lines.pop()[len(DETAIL_PREFIX):])
                sets[which]["runs"].append({
                    "workload": name, "seed": seed, "trace": trace,
                    "process_wall_s": wall, "detail": detail.get("timings", {}),
                    "facts": detail.get("facts"), "reps": detail.get("reps"),
                    "rep_wall_s": detail.get("rep_wall_s"), **result,
                })
                print(f"## set {which}, seed {seed}, trace {trace}: "
                      f"process took {wall:.1f}s")
                print("\n".join(lines), flush=True)

    # Simulated outputs depend on the seed alone: every set must agree.
    status = 0
    for other in sets[1:]:
        for a, b in zip(sets[0]["runs"], other["runs"]):
            if a["facts"] != b["facts"]:
                print(f"ledger: {a['workload']} seed {a['seed']}: outputs differ "
                      f"between sets: {a['facts']} vs {b['facts']}", file=sys.stderr)
                status = 1
    if args.out:
        report = {
            "schema": "ledger-report/2",
            "date": datetime.date.today().isoformat(),
            "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                     "python": platform.python_version()},
            "seconds": args.seconds,
            "benchmark": spec,
            "detail_bound": DETAIL_BOUND,
            "sets": sets,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    spec = bootstrap()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (several runs: the first run's seed)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="time box for repetitions of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--spans", metavar="FILE",
                        help="one traced run: also write the raw spans as JSON lines")
    parser.add_argument("--out", metavar="FILE",
                        help="write the runs made as one report file")
    parser.add_argument("--sets", type=int, default=1,
                        help="report sets to collect, interleaved")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload and set, seeds SEED, SEED+1, ... "
                             "(with --traced, one traced run is added)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(spec)
    one_run = (args.workload is not None and len(args.workload) == 1
               and not args.out and args.sets == 1 and args.runs == 1)
    if one_run:
        return single_run(spec, args)
    return collect_sets(spec, args)


if __name__ == "__main__":
    sys.exit(main())
