"""Seeded operation generators for the benchmark workloads.

An operation is the argv of one ``polignac`` CLI call. A workload is a list
of kinds; one cycle runs every kind twice (a kind of fixed size once), in a
seed-shuffled order. The sizes a kind draws come from an additive recurrence
(the R2 Kronecker sequence) started at a seeded offset, and the second draw
of a cycle mirrors the first (quantile 1 - u for u). Any whole number of
cycles therefore covers each size range evenly with its mean at the middle,
so a run's figures depend on how fast the program is, not on which sizes a
seed drew.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator

# R2 sequence steps: 1/g and 1/g^2, g the plastic number.
_G = 1.324717957244746
_STEP = (1 / _G, 1 / _G**2)

Kind = Callable[[float, float], list[str]]


def _uniform(lo: int, hi: int, u: float) -> int:
    """Integer in [lo, hi] at quantile u in [0, 1]."""
    return min(lo + int(u * (hi - lo + 1)), hi)


def _even(lo: int, hi: int, u: float) -> int:
    """Even integer in [lo, hi] (lo even) at quantile u in [0, 1]."""
    return min(lo + 2 * int(u * ((hi - lo) // 2 + 1)), hi)


def _regular(k: int, lo: int, hi: int) -> Kind:
    return lambda u, v: ["pack", "regular", "--k", str(k), "--x", str(_uniform(lo, hi, u))]


def _geh(strategy: str) -> Kind:
    return lambda u, v: ["pack", "geh", "--x", str(_uniform(20_000, 100_000, u)), "--strategy", strategy]


def _exact(x: int) -> Kind:
    return lambda u, v: ["pack", "exact", "--x", str(x)]


def _census(u: float, v: float) -> list[str]:
    return ["census", "--x", str(_uniform(500_000, 3_000_000, u)), "--dmax", str(_even(20, 100, v))]


WORKLOADS: dict[str, list[Kind]] = {
    # Construction and rendering: first-fit, is_admissible per geh candidate,
    # validate and multi-megabyte JSON. The oracle never runs.
    "construct": [
        _regular(3, 200_000, 1_000_000),
        _regular(5, 2_000_000, 10_000_000),
        _geh("extended"),
        _geh("paper-literal"),
    ],
    # MILP solves dominate and their time is not monotone in x, so every
    # cycle solves each even x in [48, 72] once.
    "exact": [_exact(x) for x in range(48, 73, 2)],
    # One large sieve and a set-membership scan per operation.
    "census": [_census],
}

# Calls run once before timing, so lazy imports and first-call set-up inside
# numpy/scipy are not charged to the first measured operation. Construct's
# run at the top of each range, so its peak RSS is that of the largest input
# whatever sizes the seed draws.
WARMUP: dict[str, list[list[str]]] = {
    "construct": [kind(1.0, 1.0) for kind in WORKLOADS["construct"]],
    "exact": [["pack", "exact", "--x", "24"]],
    "census": [["census", "--x", "1000", "--dmax", "10"]],
}


def cycles(workload: str, seed: int) -> Iterator[list[list[str]]]:
    """Endless cycles of argv lists; the same (workload, seed) gives the same cycles."""
    kinds = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    offsets = [(rng.random(), rng.random()) for _ in kinds]
    c = 0
    while True:
        c += 1
        ops = []
        for kind, (a, b) in zip(kinds, offsets):
            u, v = (a + c * _STEP[0]) % 1.0, (b + c * _STEP[1]) % 1.0
            first, mirror = kind(u, v), kind(1.0 - u, 1.0 - v)
            # A kind of fixed size (an exact x) runs once per cycle.
            ops += [first] if mirror == first else [first, mirror]
        rng.shuffle(ops)
        yield ops


def interval(argv: list[str]) -> int:
    """The ``--x`` of an operation: the size of the interval [1, x] it covers."""
    return int(argv[argv.index("--x") + 1])
