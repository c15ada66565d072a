"""Offset patterns, admissibility, difference sets, and regular admissible sets.

An offset pattern is a plain ``tuple[int, ...]``. A pattern of offsets is
admissible when, for every prime p, its residues mod p leave at least one
class uncovered; translates of such a pattern can then be simultaneously
coprime to any fixed modulus.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

from .sieve import PRIMORIAL_MAX_K, primes_up_to, primorial


def normalize(raw: Iterable[int]) -> tuple[int, ...]:
    """Sort, deduplicate, and translate so the minimum offset is 0.

    The result is strictly increasing and starts at 0. Empty input, and input
    of more than PRIMORIAL_MAX_K distinct offsets, is refused before any
    admissibility or difference work, which grows quadratically in the count.
    """
    values = sorted(set(raw))
    if not values:
        raise ValueError("cannot normalize an empty sequence")
    if len(values) > PRIMORIAL_MAX_K:
        raise ValueError(f"a pattern has at most {PRIMORIAL_MAX_K} offsets, got {len(values)}")
    base = values[0]
    return tuple(v - base for v in values)


def is_admissible(offsets: tuple[int, ...]) -> bool:
    """True iff the residues mod p never cover all classes, for every prime p.

    Only primes p <= k = len(offsets) need checking: k residues cannot cover
    p > k classes. The answer depends on neither the order of the offsets nor
    a common translation, so the pattern need not be normalized.
    """
    for p in primes_up_to(len(offsets)):
        if len({h % p for h in offsets}) == p:
            return False
    return True


def difference_set(offsets: tuple[int, ...]) -> frozenset[int]:
    """All positive pairwise differences; empty for a singleton. Like
    admissibility, the set depends on neither order nor repeated offsets."""
    return frozenset(b - a for a, b in combinations(sorted(set(offsets)), 2))


def regular_admissible(k: int, n: int) -> tuple[int, ...]:
    """The arithmetic progression (0, nP(k), ..., (k-1)nP(k)), P(k) the primorial.

    Every element is 0 mod each prime p <= k, so the pattern is always
    admissible; its difference set is {nP(k), ..., (k-1)nP(k)}, of size k-1.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    step = n * primorial(k)
    return tuple(i * step for i in range(k))
