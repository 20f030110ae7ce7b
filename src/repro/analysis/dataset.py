"""ML dataset export.

The paper's fourth contribution is a shared dataset of experiment logs
"for developing, training, and testing TCP ML models".  This module turns
a :class:`~repro.analysis.aggregate.ResultSet` into flat, model-ready
tables:

- :func:`runs_table` — one row per run: the configuration features plus
  the outcome metrics (throughputs, Jain, utilization, retransmissions);
- :func:`flows_table` — one row per flow;
- :func:`intervals_table` — one row per (run, flow, interval) when runs
  were sampled with ``sample_interval_s`` (time-series training data);
- :func:`write_csv` — dump any of these to CSV with a stable header.

All tables are lists of dicts with scalar values only, so they load
directly into numpy/pandas/csv without adapters.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.analysis.aggregate import ResultSet

PathLike = Union[str, Path]

_CONFIG_FEATURES = (
    "aqm",
    "buffer_bdp",
    "bottleneck_bw_bps",
    "duration_s",
    "mss_bytes",
    "seed",
    "engine",
    "scale",
)


def _config_features(config: Dict[str, Any]) -> Dict[str, Any]:
    row = {key: config.get(key) for key in _CONFIG_FEATURES}
    pair = config.get("cca_pair", ("?", "?"))
    row["cca1"] = pair[0]
    row["cca2"] = pair[1]
    return row


def runs_table(results: ResultSet) -> List[Dict[str, Any]]:
    """One row per run."""
    rows = []
    for r in results.results:
        row = _config_features(r.config)
        row.update(
            sender1_bps=r.senders[0].throughput_bps,
            sender2_bps=r.senders[1].throughput_bps,
            sender1_retransmits=r.senders[0].retransmits,
            sender2_retransmits=r.senders[1].retransmits,
            jain_index=r.jain_index,
            link_utilization=r.link_utilization,
            total_retransmits=r.total_retransmits,
            bottleneck_drops=r.bottleneck_drops,
        )
        # Telemetry annotations (present when the run had --telemetry on);
        # scalar-only, so the CSV stays pandas-loadable either way.
        obs = r.extra.get("obs") if isinstance(r.extra, dict) else None
        if obs:
            row.update(
                obs_events_per_sec=obs.get("events_per_sec"),
                obs_peak_rss_kb=obs.get("peak_rss_kb"),
                obs_trace_events=obs.get("trace_events"),
            )
        rows.append(row)
    return rows


def flows_table(results: ResultSet) -> List[Dict[str, Any]]:
    """One row per flow per run."""
    rows = []
    for r in results.results:
        base = _config_features(r.config)
        for flow in r.flows.records():
            row = dict(base)
            row.update(flow)
            rows.append(row)
    return rows


def intervals_table(results: ResultSet) -> List[Dict[str, Any]]:
    """One row per (run, flow, interval); needs sampled runs."""
    rows = []
    for r in results.results:
        series = r.extra.get("series_bps")
        if not series:
            continue
        base = _config_features(r.config)
        interval_s = r.extra.get("interval_s", 1.0)
        for flow_name, values in series.items():
            for index, bps in enumerate(values):
                row = dict(base)
                row.update(
                    flow=flow_name,
                    interval=index,
                    t_start_s=index * interval_s,
                    throughput_bps=bps,
                )
                rows.append(row)
    return rows


def write_csv(rows: List[Dict[str, Any]], path: PathLike) -> Path:
    """Write a table to CSV.  Header = union of keys, insertion-ordered."""
    if not rows:
        raise ValueError("nothing to write: the table is empty")
    header: List[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    return p
