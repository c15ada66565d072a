"""Prime generation, primorials, and a prime-pair difference census."""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_CENSUS_LIMIT = 10**8
CENSUS_MAX_DMAX = 1000
PRIMORIAL_MAX_K = 1000  # P(1000) has 416 digits, far inside int-to-str's 4300-digit limit


@dataclass(frozen=True)
class CensusReport:
    """Counts of prime pairs (p, q), p < q <= x, at each even gap d <= dmax."""

    x: int
    dmax: int
    counts: dict[int, int]


def primes_up_to(limit: int) -> tuple[int, ...]:
    """Primes up to ``limit`` in increasing order (sieve of Eratosthenes)."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    if limit < 2:
        return ()
    is_prime = bytearray([1]) * (limit + 1)
    is_prime[0] = is_prime[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytearray(len(is_prime[p * p :: p]))
    return tuple(i for i in range(limit + 1) if is_prime[i])


def primorial(k: int) -> int:
    """Product of all primes <= k, for 1 <= k <= PRIMORIAL_MAX_K; 1 when k = 1."""
    if not 1 <= k <= PRIMORIAL_MAX_K:
        raise ValueError(f"k must be in [1, {PRIMORIAL_MAX_K}], got {k}")
    return math.prod(primes_up_to(k))


def prime_pair_census(x: int, dmax: int) -> CensusReport:
    """Count prime pairs at each even difference d in [2, dmax].

    Diagnostic only: counts pairs p < q <= x with q - p = d via sieve
    membership. DEFAULT_CENSUS_LIMIT caps x and CENSUS_MAX_DMAX caps dmax
    (one scan of the primes per gap), both checked before sieving.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if dmax < 2 or dmax % 2 != 0:
        raise ValueError(f"dmax must be a positive even integer, got {dmax}")
    if dmax > CENSUS_MAX_DMAX:
        raise ValueError(f"dmax = {dmax} exceeds the census gap limit {CENSUS_MAX_DMAX}")
    if x > DEFAULT_CENSUS_LIMIT:
        raise ValueError(f"x = {x} exceeds the census limit {DEFAULT_CENSUS_LIMIT}")
    primes = primes_up_to(x)
    prime_set = set(primes)
    counts = {}
    for d in range(2, dmax + 1, 2):
        counts[d] = sum(1 for p in primes if p + d in prime_set)
    return CensusReport(x, dmax, counts)
