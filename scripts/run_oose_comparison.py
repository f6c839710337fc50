#!/usr/bin/env python3
"""Leave-one-out out-of-sample comparison across selectors.

For each selector and mask size, every point is held out in turn, the mask
is applied, the remaining points are embedded, and the held-out point is
extended back in. The isomap and isomap_exact methods report alignment
error against the full-data embedding (isomap slices each fold's geodesics
from the mask's, isomap_exact builds each fold's own graph); lle reports
reconstruction error under the full-data weights; gaze reports mean
parameter-estimation error.

Usage:
    python3 scripts/run_oose_comparison.py --out-dir results/oose [--n 120]
"""

import argparse
import sys

from manifold_masks.cli import main as cli_main


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results/oose")
    ap.add_argument("--n", type=int, default=120)
    ap.add_argument("--g", type=int, default=16)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sizes", default="16,32")
    ap.add_argument("--methods", default="isomap,gaze")
    ap.add_argument("--trials", type=int, default=5, help="random-mask repetitions")
    return ap.parse_args()


def main():
    args = parse_args()
    return cli_main(
        [
            "oose",
            "--synth", f"translating_blob:n={args.n},g={args.g},seed={args.seed}",
            "--algorithms", "maps_global,pcoa,random",
            "--sizes", args.sizes,
            "--methods", args.methods,
            "--k", "8", "--l", "2", "--reg", "1e-2",
            "--trials", str(args.trials),
            "--seed", str(args.seed),
            "--out-dir", args.out_dir,
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
