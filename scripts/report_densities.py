#!/usr/bin/env python3
"""Measure packing densities of every construction against the exact bounds.

Prints, for a range of interval sizes x >= 2, the greedy regular packing,
both variants of the size-3 construction, the exact optimum where
affordable (x <= EXACT_MAX_X, else "-"), the finite upper bound and the
sharp size-3 optimum, all as exact rationals with decimal renderings.
"""

import argparse
from fractions import Fraction

from polignac.oracle import EXACT_MAX_X, max_disjoint_packing
from polignac.packing import (
    EXTENDED,
    PAPER_LITERAL,
    geh_family,
    greedy_regular_packing,
    k3_finite_upper_bound,
    k3_sharp_upper_bound,
    k3_upper_bound_density,
    lower_bound_density,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--x", type=int, nargs="+", default=[60, 100, 500, 1000, 5000, 10000]
    )
    parser.add_argument(
        "--exact-limit",
        type=int,
        default=100,
        help="run the exhaustive optimum only for x up to this value (and EXACT_MAX_X)",
    )
    args = parser.parse_args()
    if min(args.x) < 2:
        parser.error(f"every --x must be >= 2, got {min(args.x)}")

    floor_k3 = lower_bound_density(3)
    k3_cap = k3_upper_bound_density()
    print(f"guaranteed lower bound (k=3): {floor_k3} = {float(floor_k3):.6f}")
    print(f"claimed size-3 rate: 1/6 ~ {1 / 6:.6f}; asymptotic cap: {k3_cap} ~ {float(k3_cap):.6f}")
    print("sharp size-3 cap (k3_sharp_upper_bound, x//6 less a parity defect): tends to 1/6")
    print()
    header = f"{'x':>6} {'greedy':>12} {'literal':>12} {'extended':>12} {'exact':>12} {'cap':>12} {'sharp':>12}"
    print(header)
    for x in args.x:
        greedy = greedy_regular_packing(3, x).density
        literal = geh_family(x, PAPER_LITERAL).density
        extended = geh_family(x, EXTENDED).density
        if x <= min(args.exact_limit, EXACT_MAX_X):
            exact = max_disjoint_packing(x).density
            exact_s = f"{float(exact):.4f}"
        else:
            exact_s = "-"
        cap = Fraction(k3_finite_upper_bound(x), x)
        sharp = Fraction(k3_sharp_upper_bound(x), x)
        print(
            f"{x:>6} {float(greedy):>12.4f} {float(literal):>12.4f} "
            f"{float(extended):>12.4f} {exact_s:>12} {float(cap):>12.4f} {float(sharp):>12.4f}"
        )


if __name__ == "__main__":
    main()
