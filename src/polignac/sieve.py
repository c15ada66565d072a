"""Prime generation, primorials, and a prime-pair difference census."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

CENSUS_MAX_X = 10**8
CENSUS_MAX_DMAX = 1000
PRIMORIAL_MAX_K = 1000  # P(1000) has 416 digits, far inside int-to-str's 4300-digit limit
# Sieve flags 0/1 as the ASCII digits "0"/"1", so int(..., 2) packs them into bits.
_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


@dataclass(frozen=True)
class CensusReport:
    """Counts of prime pairs (p, q), p < q <= x, at each even gap d <= dmax."""

    x: int
    dmax: int
    counts: dict[int, int]


def _prime_flags(limit: int) -> bytearray:
    """Sieve of Eratosthenes for ``limit >= 1``: byte n is 1 iff n is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def primes_up_to(limit: int) -> tuple[int, ...]:
    """Primes up to ``limit`` in increasing order (sieve of Eratosthenes)."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    if limit < 2:
        return ()
    return tuple(itertools.compress(range(limit + 1), _prime_flags(limit)))


def primorial(k: int) -> int:
    """Product of all primes <= k, for 1 <= k <= PRIMORIAL_MAX_K; 1 when k = 1."""
    if not 1 <= k <= PRIMORIAL_MAX_K:
        raise ValueError(f"k must be in [1, {PRIMORIAL_MAX_K}], got {k}")
    return math.prod(primes_up_to(k))


def prime_pair_census(x: int, dmax: int) -> CensusReport:
    """Count prime pairs at each even difference d in [2, dmax].

    Diagnostic only: counts pairs p < q <= x with q - p = d. The odd n <= x
    become one integer ``mask`` whose bit j is set iff 2j + 1 is prime, so
    ``mask & (mask >> d // 2)`` has bit j set iff both 2j + 1 and 2j + 1 + d
    are primes <= x, and one popcount gives each gap's count. Leaving 2 out
    is exact: for even d >= 2, 2 + d is even and > 2, so 2 is in no pair.
    CENSUS_MAX_X caps x and CENSUS_MAX_DMAX caps dmax (one shift, AND and
    popcount of an x/2-bit integer per gap), both checked before sieving.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if dmax < 2 or dmax % 2 != 0:
        raise ValueError(f"dmax must be a positive even integer, got {dmax}")
    if dmax > CENSUS_MAX_DMAX:
        raise ValueError(f"dmax = {dmax} exceeds the census gap limit {CENSUS_MAX_DMAX}")
    if x > CENSUS_MAX_X:
        raise ValueError(f"x = {x} exceeds the census limit {CENSUS_MAX_X}")
    # Flags of the odd n from (x - 1) | 1, the largest odd n <= x, down to 1:
    # the last binary digit, bit 0, is n = 1.
    mask = int(_prime_flags(x)[(x - 1) | 1 :: -2].translate(_FLAG_DIGITS), 2)
    counts = {d: (mask & (mask >> d // 2)).bit_count() for d in range(2, dmax + 1, 2)}
    return CensusReport(x, dmax, counts)
