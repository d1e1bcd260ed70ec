#!/usr/bin/env python3
"""Grid-refinement study against the 1d first-integral oracle.

Runs the y-independent smooth channel in the natural-y-sides validation mode
and prints the max-norm error and observed order at each refinement level.
"""

import argparse

import numpy as np

from roughlub.geometry import Grid, ScenarioConfig
from roughlub.solver import oracle_1d, solve_reynolds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, default=4,
                        help="number of grid doublings starting at nx=16")
    args = parser.parse_args()

    errors = []
    sizes = [16 * 2**k for k in range(args.levels)]
    for nx in sizes:
        # the solver's default tol 1e-10: with natural y sides the system's own
        # precision floor rises with nx (a relative residual of 1.6e-12 at 256x4)
        config = ScenarioConfig(nx=nx, ny=4, y_sides_natural=True)
        _, ys = Grid(config.nx, config.ny).node_coords()
        row = solve_reynolds(config).p[ys == 0.0]
        _, p_ref = oracle_1d(config.gap, config.roughness, u_bx=1.0,
                             q_e=0.5, samples=nx + 1)
        errors.append(np.abs(row - p_ref).max())

    print(f"{'nx':>6} {'Linf error':>14} {'order':>8}")
    for i, (nx, err) in enumerate(zip(sizes, errors)):
        order = "" if i == 0 else f"{np.log2(errors[i - 1] / err):8.3f}"
        print(f"{nx:>6} {err:14.6e} {order:>8}")


if __name__ == "__main__":
    main()
