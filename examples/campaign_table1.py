#!/usr/bin/env python3
"""Regenerate the paper's Table I with a full differential campaign.

Runs the Section V-A grid — by default a scaled 60-program version; pass
``--full`` for the paper's 200 programs x 3 inputs x 3 implementations =
1,800 runs (a few minutes of CPU) — then prints the outlier table, the
campaign rates, and every correctness outlier with its detail.

Run:  python examples/campaign_table1.py [--full] [--seed N]
"""

import argparse
import sys

from repro.analysis.outliers import OutlierKind
from repro.config import CampaignConfig
from repro.harness import (
    CampaignSession,
    render_campaign_summary,
    render_table1,
    render_versions_table,
)
from repro.vendors import CLANG, GCC, INTEL


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--full", action="store_true",
                    help="the paper's full 200-program grid")
    ap.add_argument("--seed", type=int, default=20240915)
    args = ap.parse_args()

    cfg = CampaignConfig(n_programs=200 if args.full else 60,
                         inputs_per_program=3, seed=args.seed)

    print("Simulated OpenMP implementations (paper Section V-A):")
    print(render_versions_table([INTEL, CLANG, GCC]))
    print()
    print(f"running {cfg.n_programs} programs x {cfg.inputs_per_program} "
          f"inputs x {len(cfg.compilers)} implementations "
          f"= {cfg.total_runs} runs ...")

    def progress(done: int, total: int) -> None:
        print(f"\r  {done}/{total} tests", end="", flush=True)

    result = CampaignSession(cfg).run(progress=progress)
    print(f"\n  done in {result.elapsed_seconds:.1f}s\n")

    table = result.table
    print(render_table1(table, cfg.compilers))
    print()
    print(render_campaign_summary(table))
    print()

    correctness = [o for v in result.verdicts for o in v.outliers
                   if o.kind in (OutlierKind.CRASH, OutlierKind.HANG)]
    if correctness:
        print("correctness outliers found:")
        for o in correctness:
            print(f"  {o}")
    else:
        print("no correctness outliers in this window "
              "(expected at the full 200-program scale)")

    divergent = sum(v.output_divergent for v in result.verdicts)
    print(f"\ntests where implementations printed different values: "
          f"{divergent}/{len(result.verdicts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
