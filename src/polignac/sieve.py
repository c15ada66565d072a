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


def _prime_flags(limit: int) -> tuple[bytearray, bytearray]:
    """Sieve of Eratosthenes on the mod-6 wheel, for ``limit >= 0``.

    Returns ``(a, b)``, each ``limit // 6 + 1`` bytes long: byte i of ``a``
    is 1 iff 6i + 1 <= limit is prime, byte i of ``b`` is 1 iff 6i + 5 <=
    limit is prime (n = 1 and every entry past ``limit`` stay 0). Each
    composite here is p * q with p its least prime factor and p <= q, both
    ±1 mod 6. Stepping q by 6 steps p * q by 6p, an index step of p, and
    p * q = 1 mod 6 iff q = p mod 6: so p's run in ``a`` starts at p * p,
    and in ``b`` at p * (p + 4) for p = 1 mod 6, p * (p + 2) for p = 5.
    """
    n = limit // 6 + 1
    a = bytearray([1]) * n
    b = bytearray([1]) * n
    a[0] = 0
    if limit % 6 == 0:
        a[-1] = 0
    if limit % 6 < 5:
        b[-1] = 0
    for p in range(5, math.isqrt(limit) + 1, 2):
        if p % 3 and (a if p % 6 == 1 else b)[p // 6]:
            for flags, q in ((a, p), (b, p + 4 if p % 6 == 1 else p + 2)):
                start = p * q // 6
                flags[start::p] = bytes(len(range(start, n, p)))
    return a, b


def primes_up_to(limit: int) -> tuple[int, ...]:
    """Primes up to ``limit`` in increasing order (sieve of Eratosthenes)."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    a, b = _prime_flags(limit)
    return tuple(sorted([
        *(p for p in (2, 3) if p <= limit),
        *itertools.compress(range(1, limit + 1, 6), a),
        *itertools.compress(range(5, limit + 1, 6), b),
    ]))


def primorial(k: int) -> int:
    """Product of all primes <= k, for 1 <= k <= PRIMORIAL_MAX_K; 1 when k = 1."""
    if not 1 <= k <= PRIMORIAL_MAX_K:
        raise ValueError(f"k must be in [1, {PRIMORIAL_MAX_K}], got {k}")
    return math.prod(primes_up_to(k))


def prime_pair_census(x: int, dmax: int) -> CensusReport:
    """Count prime pairs at each even difference d in [2, dmax].

    Diagnostic only: counts pairs p < q <= x with q - p = d. The count is
    exact on the mod-6 wheel of ``_prime_flags(x)``:
    - 2 is in no pair at an even gap, since 2 + d is even and > 2;
    - a pair of primes above 3 keeps their classes mod 6: at d = 0 mod 6
      both are 6i + 1 or both 6i + 5, at d = 2 they are 6j + 5 and 6i + 1
      with i = j + (d + 4)/6, at d = 4 they are 6j + 1 and 6i + 5 with
      i = j + (d - 4)/6;
    - 3 pairs only with 3 + d, which at d = 0 mod 6 is a multiple of 3.
    Each class becomes one integer read most-significant first (``ones``
    for 6i + 1, ``fives`` for 6i + 5), so ``mask >> s`` moves index i - s
    onto index i, and each gap costs one or two shifts, ANDs and popcounts
    of x/6-bit integers. CENSUS_MAX_X caps x and CENSUS_MAX_DMAX caps dmax,
    both checked before sieving.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if dmax < 2 or dmax % 2 != 0:
        raise ValueError(f"dmax must be a positive even integer, got {dmax}")
    if dmax > CENSUS_MAX_DMAX:
        raise ValueError(f"dmax = {dmax} exceeds the census gap limit {CENSUS_MAX_DMAX}")
    if x > CENSUS_MAX_X:
        raise ValueError(f"x = {x} exceeds the census limit {CENSUS_MAX_X}")
    a, b = _prime_flags(x)
    # The pair (3, 3 + d): 3 + d is 6i + 5 (d = 2 mod 6) or 6i + 1 (d = 4 mod 6), i = (3 + d) // 6.
    with_three = {
        d: (b if d % 6 == 2 else a)[(3 + d) // 6] for d in range(2, min(dmax, x - 3) + 1, 2) if d % 6
    }
    ones = int(a.translate(_FLAG_DIGITS), 2)
    fives = int(b.translate(_FLAG_DIGITS), 2)
    counts = {}
    for d in range(2, dmax + 1, 2):
        if d % 6 == 0:
            counts[d] = (ones & (ones >> d // 6)).bit_count() + (fives & (fives >> d // 6)).bit_count()
        elif d % 6 == 2:
            counts[d] = ((fives >> (d + 4) // 6) & ones).bit_count() + with_three.get(d, 0)
        else:
            counts[d] = ((ones >> (d - 4) // 6) & fives).bit_count() + with_three.get(d, 0)
    return CensusReport(x, dmax, counts)
