"""Offset patterns, admissibility and difference sets.

An offset pattern is a plain ``tuple[int, ...]``. A pattern of offsets is
admissible when, for every prime p, its residues mod p leave at least one
class uncovered; translates of such a pattern can then be simultaneously
coprime to any fixed modulus.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from functools import lru_cache
from itertools import combinations

from .sieve import PRIMORIAL_MAX_K, primes_up_to


def normalize(raw: Iterable[int]) -> tuple[int, ...]:
    """Sort, deduplicate, and translate so the minimum offset is 0.

    The result is strictly increasing and starts at 0. Empty input, more than
    PRIMORIAL_MAX_K distinct offsets (difference work grows quadratically in
    the count) and a span with more digits than int-to-str's limit, which
    could not render, are refused before any admissibility or difference work.
    """
    values = sorted(set(raw))
    if not values:
        raise ValueError("cannot normalize an empty sequence")
    if len(values) > PRIMORIAL_MAX_K:
        raise ValueError(f"a pattern has at most {PRIMORIAL_MAX_K} offsets, got {len(values)}")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0, or no limit function: no limit
    if digits and values[-1] - values[0] >= 10**digits:
        raise ValueError(f"a pattern's span has at most {digits} digits, int-to-str's limit")
    base = values[0]
    return tuple(v - base for v in values)


_small_primes = lru_cache(primes_up_to)


def is_admissible(offsets: tuple[int, ...]) -> bool:
    """True iff the residues mod p never cover all classes, for every prime p.

    Only primes p <= k = len(offsets) need checking: k residues cannot cover
    p > k classes, and they are sieved once per k. The answer depends on
    neither the order of the offsets nor a common translation, so the pattern
    need not be normalized.
    """
    for p in _small_primes(len(offsets)):
        if len({h % p for h in offsets}) == p:
            return False
    return True


def difference_set(offsets: tuple[int, ...]) -> frozenset[int]:
    """All positive pairwise differences; empty for a singleton. Like
    admissibility, the set depends on neither order nor repeated offsets."""
    return frozenset(b - a for a, b in combinations(sorted(set(offsets)), 2))
