"""Export every figure's data series to CSV files.

The text reports are for reading; these flat files are for plotting
(matplotlib/gnuplot/a spreadsheet) or archiving beside the paper's
published dataset.  One file per figure of
:data:`~repro.analysis.figures.FIGURES`, in its long-format layout.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.analysis.aggregate import ResultSet
from repro.analysis.figures import FIGURES

PathLike = Union[str, Path]


def _write(path: Path, header: Sequence[str], rows: List[List]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_all_figures(results: ResultSet, out_dir: PathLike) -> Dict[str, Path]:
    """Write ``<name>.csv`` per figure under ``out_dir``; returns the paths
    by figure name.  Figures whose AQM slice is absent from ``results``
    are skipped."""
    out = Path(out_dir)
    aqms = set(results.aqms())
    return {
        name: _write(out / f"{name}.csv", figure.csv_header,
                     figure.csv_rows(figure.series(results)))
        for name, figure in FIGURES.items()
        if figure.available(aqms)
    }
