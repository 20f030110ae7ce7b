"""Analysis: aggregation, figure series, Table 3, report rendering."""

from repro.analysis.aggregate import ResultSet
from repro.analysis.convergence import convergence_time_s, jain_series
from repro.analysis.dataset import flows_table, intervals_table, runs_table, write_csv
from repro.analysis.export_figures import export_all_figures
from repro.analysis.figures import FIGURES
from repro.analysis.parse_iperf import parse_iperf_doc, summarize_docs
from repro.analysis.sparkline import sparkline
from repro.analysis.table3 import PAPER_TABLE3, build_table3
from repro.analysis.validate import render_claims, validate_claims

__all__ = [
    "ResultSet",
    "parse_iperf_doc",
    "summarize_docs",
    "build_table3",
    "PAPER_TABLE3",
    "FIGURES",
    "validate_claims",
    "render_claims",
    "runs_table",
    "flows_table",
    "intervals_table",
    "write_csv",
    "sparkline",
    "export_all_figures",
    "convergence_time_s",
    "jain_series",
]
