#!/usr/bin/env python3
"""Measure packing densities of every construction against the exact bounds.

Prints, for a range of interval sizes x >= 2, the greedy regular packing,
both variants of the size-3 construction, the exact optimum where
affordable (x <= EXACT_MAX_X, else "-"), the finite upper bound and the
sharp size-3 optimum, all as exact rationals with decimal renderings.
Every row is built before anything prints, and the construction columns
of every x before any exact solve, so an x the library refuses exits 2
with the library's message and no partial table, without waiting on the
exact optimum of the x before it.
"""

import argparse

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


def constructions(x: int) -> tuple[float, ...]:
    """The greedy, literal, extended, cap and sharp columns of one row."""
    return (
        float(greedy_regular_packing(3, x).density),
        float(geh_family(x, PAPER_LITERAL).density),
        float(geh_family(x, EXTENDED).density),
        k3_finite_upper_bound(x) / x,
        k3_sharp_upper_bound(x) / x,
    )


def row(x: int, columns: tuple[float, ...]) -> str:
    greedy, literal, extended, cap, sharp = columns
    exact = f"{float(max_disjoint_packing(x).density):.4f}" if x <= EXACT_MAX_X else "-"
    return (
        f"{x:>6} {greedy:>12.4f} {literal:>12.4f} "
        f"{extended:>12.4f} {exact:>12} {cap:>12.4f} {sharp:>12.4f}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--x", type=int, nargs="+", default=[60, 100, 500, 1000, 5000, 10000]
    )
    args = parser.parse_args()
    try:
        built = [constructions(x) for x in args.x]
        rows = [row(x, columns) for x, columns in zip(args.x, built)]
    except ValueError as exc:
        parser.error(str(exc))

    floor_k3 = lower_bound_density(3)
    k3_cap = k3_upper_bound_density()
    print(f"guaranteed lower bound (k=3): {floor_k3} = {float(floor_k3):.6f}")
    print(f"claimed size-3 rate: 1/6 ~ {1 / 6:.6f}; asymptotic cap: {k3_cap} ~ {float(k3_cap):.6f}")
    print("sharp size-3 cap (k3_sharp_upper_bound, x//6 less a parity defect): tends to 1/6")
    print()
    print(f"{'x':>6} {'greedy':>12} {'literal':>12} {'extended':>12} {'exact':>12} {'cap':>12} {'sharp':>12}")
    print("\n".join(rows))


if __name__ == "__main__":
    main()
