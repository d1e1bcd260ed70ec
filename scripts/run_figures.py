#!/usr/bin/env python3
"""Run the four reference scenarios and export plot-ready CSV data.

fig2: smooth channel; fig3/fig4: right/left half rough at intensity 2;
fig5: narrow rough strip around the channel throat.  The rough scenarios
also get a smooth-vs-rough comparison so the upstream perturbation can be
plotted directly.
"""

import argparse
import sys

from roughlub import cli


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="figures_out", help="output root directory")
    parser.add_argument("--nx", type=int, default=64)
    parser.add_argument("--ny", type=int, default=64)
    args = parser.parse_args()

    grid = ["--nx", str(args.nx), "--ny", str(args.ny)]
    for scenario in ("fig2", "fig3", "fig4", "fig5"):
        code = cli.main(["solve", "--scenario", scenario, *grid,
                         "--out", f"{args.out}/{scenario}"])
        if code != 0:
            return code
        if scenario != "fig2":
            code = cli.main(["compare", "--scenario", scenario, *grid,
                             "--out", f"{args.out}/{scenario}_compare"])
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
