"""Structured JSONL run logs and manifests.

A *run log* is one JSONL file per experiment run.  Every line is a record
object with a ``record`` type tag and a ``t_wall`` POSIX timestamp; the
first line is always the ``manifest``.  Record types (schema
``repro-runlog/1``):

- ``manifest`` — identity of the run: label, full config dict, config
  hash, repro version, seed, engine, schema version.
- ``progress`` — periodic liveness: simulated seconds, events processed,
  events/sec so far (optional; campaigns also write these into their own
  ``campaign.jsonl``).
- ``metrics`` — a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`.
- ``summary`` — terminal record: status (``ok``/``error``), wall seconds,
  events, events/sec, peak RSS, headline outcome metrics, and the
  traceback string on failure.
- ``fault_manifest`` — the compiled fault-injection timeline of the run
  (specs + absolute-time events; see docs/FAULTS.md).
- ``span`` — one closed wall-clock span of the campaign/run/phase
  timeline (id, optional parent id, category, epoch start, duration,
  labels; see docs/TRACING.md).  Emitted at span *close*, so children
  precede their parents in the file.
- ``profile`` — the event-loop self-profiler's per-kind wall-time
  attribution for the run (kinds, loop wall seconds, coverage, sim/wall
  skew; see docs/TRACING.md).
- ``fairness`` — one fairness-dynamics sample (simulated-time stamp,
  per-sender Jain index, per-flow Jain index, link utilization φ,
  bottleneck queue, per-sender rates; see docs/OBSERVABILITY.md).
  Emitted only for runs recorded with ``fairness_interval_s`` set.
- ``campaign_progress`` / ``campaign_retry`` — campaign-level liveness
  and retry accounting (written to ``campaign.jsonl``, not per-run logs).

:func:`validate_run_log` is the hand-rolled schema check used by tests
and the CI telemetry smoke job (no external jsonschema dependency).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Union

PathLike = Union[str, Path]

#: Version tag every manifest carries; bump on breaking record changes.
RUN_LOG_SCHEMA = "repro-runlog/1"

#: Required keys per record type (beyond the envelope ``record``/``t_wall``).
REQUIRED_FIELDS: Dict[str, tuple] = {
    "manifest": ("schema", "label", "config", "config_hash", "repro_version", "seed", "engine"),
    "progress": ("sim_time_s", "events", "events_per_sec"),
    "metrics": ("counters", "gauges", "histograms"),
    "summary": ("status", "wall_s", "events", "events_per_sec", "peak_rss_kb"),
    "campaign_progress": ("finished", "total", "failed", "label", "eta_s"),
    "campaign_retry": ("label", "attempt", "delay_s", "error"),
    "fault_manifest": ("specs", "events"),
    "span": ("span_id", "name", "cat", "t_start", "dur_s"),
    "profile": ("kinds", "loop_wall_s", "events"),
    "fairness": ("t_sim_s", "jain", "phi"),
}

#: Record types allowed in logs that carry no manifest/summary envelope
#: (``campaign.jsonl``); everything else lives in per-run logs.
CAMPAIGN_RECORDS = ("campaign_progress", "campaign_retry", "span")


class RunLogWriter:
    """Append-only JSONL writer with typed-record helpers."""

    def __init__(self, path: PathLike, *, clock=time.time):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._fh: Optional[IO[str]] = self.path.open("w", encoding="utf-8")

    def write(self, record_type: str, **fields: Any) -> Dict[str, Any]:
        """Append one record; returns the dict that was written."""
        if self._fh is None:
            raise RuntimeError(f"run log {self.path} is closed")
        record = {"record": record_type, "t_wall": self._clock(), **fields}
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        return record

    # -- typed helpers -----------------------------------------------------------

    def manifest(
        self,
        *,
        label: str,
        config: Dict[str, Any],
        config_hash: str,
        repro_version: str,
        seed: int,
        engine: str,
        **extra: Any,
    ) -> Dict[str, Any]:
        """Write the identity record (always the run log's first line)."""
        return self.write(
            "manifest",
            schema=RUN_LOG_SCHEMA,
            label=label,
            config=config,
            config_hash=config_hash,
            repro_version=repro_version,
            seed=seed,
            engine=engine,
            **extra,
        )

    def progress(self, *, sim_time_s: float, events: int, events_per_sec: float, **extra: Any) -> Dict[str, Any]:
        """Write one periodic liveness record."""
        return self.write(
            "progress",
            sim_time_s=sim_time_s,
            events=events,
            events_per_sec=events_per_sec,
            **extra,
        )

    def fault_manifest(self, manifest: Dict[str, Any]) -> Dict[str, Any]:
        """Write the compiled fault timeline (specs + absolute-time events)."""
        return self.write(
            "fault_manifest",
            specs=manifest.get("specs", []),
            events=manifest.get("events", []),
        )

    def metrics(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """Write a registry snapshot as one metrics record."""
        return self.write(
            "metrics",
            counters=snapshot.get("counters", {}),
            gauges=snapshot.get("gauges", {}),
            histograms=snapshot.get("histograms", {}),
        )

    def summary(
        self,
        *,
        status: str,
        wall_s: float,
        events: int,
        events_per_sec: float,
        peak_rss_kb: int,
        **extra: Any,
    ) -> Dict[str, Any]:
        """Write the terminal record (``status`` is ``ok`` or ``error``)."""
        return self.write(
            "summary",
            status=status,
            wall_s=wall_s,
            events=events,
            events_per_sec=events_per_sec,
            peak_rss_kb=peak_rss_kb,
            **extra,
        )

    def close(self) -> None:
        """Release the file handle (idempotent)."""
        fh = self._fh
        if fh is not None:
            self._fh = None
            fh.close()

    def __enter__(self) -> "RunLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_run_log(path: PathLike) -> List[Dict[str, Any]]:
    """Parse a run log into its record dicts.

    Lines are read by the result store's rule
    (:meth:`~repro.experiments.storage.ResultStore.iter_lines`): a torn
    last line — a writer killed mid-append, or one still appending — is
    skipped with a ``TornWriteWarning``; a corrupt line with content after
    it, or a record that is not an object, raises ``ValueError``.
    """
    from repro.experiments.storage import ResultStore

    records: List[Dict[str, Any]] = []
    with Path(path).open("rb") as fh:
        for lineno, _offset, _line, record in ResultStore(path).iter_lines(fh):
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: record is not an object")
            records.append(record)
    return records


def validate_run_log(records: List[Dict[str, Any]]) -> List[str]:
    """Schema-check parsed records; returns a list of problems (empty = valid)."""
    errors: List[str] = []
    if not records:
        return ["run log is empty"]
    for i, record in enumerate(records, 1):
        kind = record.get("record")
        if kind is None:
            errors.append(f"record {i}: missing 'record' type tag")
            continue
        if kind not in REQUIRED_FIELDS:
            errors.append(f"record {i}: unknown record type {kind!r}")
            continue
        if not isinstance(record.get("t_wall"), (int, float)):
            errors.append(f"record {i} ({kind}): missing/non-numeric 't_wall'")
        missing = [f for f in REQUIRED_FIELDS[kind] if f not in record]
        if missing:
            errors.append(f"record {i} ({kind}): missing fields {missing}")
    first = records[0]
    if first.get("record") != "manifest":
        errors.append("first record must be the manifest")
    elif first.get("schema") != RUN_LOG_SCHEMA:
        errors.append(
            f"manifest schema {first.get('schema')!r} != expected {RUN_LOG_SCHEMA!r}"
        )
    else:
        if not isinstance(first.get("config"), dict):
            errors.append("manifest 'config' must be an object")
    summaries = [r for r in records if r.get("record") == "summary"]
    if not summaries:
        errors.append("no summary record (run did not finish writing)")
    else:
        for s in summaries:
            if s.get("status") not in ("ok", "error"):
                errors.append(f"summary status {s.get('status')!r} not in ok/error")
            if s.get("status") == "error" and "traceback" not in s:
                errors.append("error summary missing 'traceback'")
    errors.extend(validate_spans(records))
    for r in records:
        if r.get("record") == "profile":
            kinds = r.get("kinds")
            if not isinstance(kinds, dict):
                errors.append("profile record: 'kinds' must be an object")
            else:
                for name, row in kinds.items():
                    if not isinstance(row, dict) or not {"self_s", "events"} <= set(row):
                        errors.append(f"profile record: kind {name!r} malformed")
        if r.get("record") == "metrics":
            for section in ("counters", "gauges"):
                sec = r.get(section)
                if not isinstance(sec, dict) or not all(
                    isinstance(v, (int, float)) for v in sec.values()
                ):
                    errors.append(f"metrics record: {section} must map names to numbers")
            hists = r.get("histograms")
            if not isinstance(hists, dict):
                errors.append("metrics record: histograms must be an object")
            else:
                for name, h in hists.items():
                    if not isinstance(h, dict) or not {"buckets", "counts", "sum", "count"} <= set(h):
                        errors.append(f"metrics record: histogram {name!r} malformed")
        if r.get("record") == "fairness":
            for key in ("t_sim_s", "jain", "phi"):
                if not isinstance(r.get(key), (int, float)):
                    errors.append(f"fairness record: {key!r} must be numeric")
            jain = r.get("jain")
            if isinstance(jain, (int, float)) and not 0.0 <= jain <= 1.0 + 1e-9:
                errors.append(f"fairness record: jain {jain!r} outside [0, 1]")
            phi = r.get("phi")
            if isinstance(phi, (int, float)) and phi < 0:
                errors.append(f"fairness record: phi {phi!r} is negative")
            if "sender_bps" in r and not isinstance(r["sender_bps"], list):
                errors.append("fairness record: sender_bps must be a list")
    return errors


def validate_campaign_log(records: List[Dict[str, Any]]) -> List[str]:
    """Schema-check a ``campaign.jsonl`` (no manifest/summary envelope).

    Campaign logs carry only the record types in :data:`CAMPAIGN_RECORDS`
    — progress/retry accounting plus the campaign-side span timeline —
    so the per-run envelope rules don't apply, but field presence and
    span-tree integrity still do.
    """
    errors: List[str] = []
    if not records:
        return ["campaign log is empty"]
    for i, record in enumerate(records, 1):
        kind = record.get("record")
        if kind not in CAMPAIGN_RECORDS:
            errors.append(
                f"record {i}: type {kind!r} does not belong in a campaign log"
            )
            continue
        if not isinstance(record.get("t_wall"), (int, float)):
            errors.append(f"record {i} ({kind}): missing/non-numeric 't_wall'")
        missing = [f for f in REQUIRED_FIELDS[kind] if f not in record]
        if missing:
            errors.append(f"record {i} ({kind}): missing fields {missing}")
    errors.extend(validate_spans(records))
    return errors


def validate_spans(records: List[Dict[str, Any]]) -> List[str]:
    """Span-tree integrity over one file's ``span`` records.

    Checks per-span field sanity (numeric non-negative duration, object
    labels, unique ids) and that every ``parent_id`` resolves to another
    span in the same file — per-run logs and ``campaign.jsonl`` are each
    self-contained span trees (the Chrome-trace exporter stitches them by
    process, not by id).
    """
    errors: List[str] = []
    spans = [r for r in records if r.get("record") == "span"]
    ids = set()
    for s in spans:
        sid = s.get("span_id")
        if not isinstance(sid, str) or not sid:
            errors.append(f"span record: bad span_id {sid!r}")
            continue
        if sid in ids:
            errors.append(f"span record: duplicate span_id {sid!r}")
        ids.add(sid)
        dur = s.get("dur_s")
        if not isinstance(dur, (int, float)) or dur < 0:
            errors.append(f"span {sid}: dur_s must be a non-negative number, got {dur!r}")
        if not isinstance(s.get("t_start"), (int, float)):
            errors.append(f"span {sid}: t_start must be numeric")
        if "labels" in s and not isinstance(s["labels"], dict):
            errors.append(f"span {sid}: labels must be an object")
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent not in ids:
            errors.append(
                f"span {s.get('span_id')}: parent_id {parent!r} does not resolve"
            )
    return errors
