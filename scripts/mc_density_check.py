#!/usr/bin/env python3
"""Histogram of simulated hitting times against the evaluated density.

Draws H(t) rounded up to the step dt with `sample_hitting_times` (the exact
running-maximum construction), bins the draws, and writes a CSV comparing bin
heights with the density table plus the Kolmogorov-Smirnov distance of the
sample against the duality CDF.
"""

import argparse

import numpy as np

from ighit.hitting import hit_cdf, hit_pdf_table, sample_hitting_times
from ighit.montecarlo import ecdf_ks, ks_critical_1pct
from ighit.subordinators import IGParams
from ighit.tables import write_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=float, default=1.0)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--t", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--dt", type=float, default=1 / 1024)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--bins", type=int, default=50)
    ap.add_argument("--out", default="mc_density_check.csv")
    args = ap.parse_args()

    params = IGParams(args.delta, args.gamma)
    draws = sample_hitting_times(args.t, args.n, params, args.dt, args.seed)
    heights, edges = np.histogram(draws, bins=args.bins, density=True)
    centers = 0.5 * (edges[1:] + edges[:-1])
    dens = hit_pdf_table(centers, args.t, params)
    write_csv(args.out, ["bin_center", "empirical_density", "density"],
              zip(centers, heights, dens))

    d = ecdf_ks(draws, lambda x: hit_cdf(x, args.t, params))
    crit = ks_critical_1pct(args.n)
    verdict = "PASS" if d < crit else "FAIL"
    print(f"{args.out}  KS={d:.5f} critical(1%)={crit:.5f} {verdict}")


if __name__ == "__main__":
    main()
