#!/usr/bin/env python
"""Run a paper-scale campaign and render every table and figure.

This is the top of the reproduction pipeline: sweep a slice of the
810-configuration grid (fluid engine; pass ``--full`` for the complete
grid with 5 repetitions, ~hours), persist results to JSONL, then print
Table 3 (measured vs paper) and the Figure 2-8 series.

Run:  python examples/full_campaign.py [--full] [--jobs N] [--out results.jsonl]
"""

import argparse

from repro.analysis.aggregate import ResultSet
from repro.analysis.summary_report import full_report
from repro.experiments.campaign import CampaignProgress, run_campaign
from repro.experiments.matrix import full_matrix
from repro.experiments.storage import ResultStore


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="all 810 cells x 5 reps at 200 s (hours!)")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", default="campaign_results.jsonl")
    args = parser.parse_args()

    if args.full:
        configs = full_matrix(engine="fluid", repetitions=5)
    else:
        # The spotlight slice: every pair and AQM, the two figure buffers,
        # all five tiers, shortened runs. ~300 runs, minutes.
        configs = full_matrix(
            engine="fluid",
            buffer_bdps=(0.5, 2.0, 16.0),
            duration_s=30.0,
            warmup_s=5.0,
        )
    print(f"campaign: {len(configs)} runs -> {args.out}")

    store = ResultStore(args.out)
    results = ResultSet(
        run_campaign(configs, store=store, jobs=args.jobs, progress=CampaignProgress())
    )

    # Everything at once: Table 3 vs paper, claim validation verdicts,
    # equilibrium points, and every figure panel the slice covers.
    print("\n" + full_report(results))


if __name__ == "__main__":
    main()
