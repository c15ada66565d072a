"""Offset patterns, admissibility, difference sets, and regular admissible sets.

A pattern of offsets is admissible when, for every prime p, its residues
mod p leave at least one class uncovered; translates of such a pattern can
then be simultaneously coprime to any fixed modulus.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import combinations

from .sieve import PRIMORIAL_MAX_K, primes_up_to, primorial


@dataclass(frozen=True)
class AdmissibleTuple:
    """Normalized offset pattern: strictly increasing, starting at 0.

    The name records intent; admissibility itself is decided by
    :func:`is_admissible`, not enforced at construction.
    """

    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.offsets:
            raise ValueError("offset pattern must be non-empty")
        if self.offsets[0] != 0:
            raise ValueError("normalized pattern must start at 0")
        if any(a >= b for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.offsets)

    @property
    def diameter(self) -> int:
        return self.offsets[-1]


def normalize(raw: Iterable[int]) -> AdmissibleTuple:
    """Sort, deduplicate, and translate so the minimum offset is 0."""
    values = sorted(set(raw))
    if not values:
        raise ValueError("cannot normalize an empty sequence")
    base = values[0]
    return AdmissibleTuple(tuple(v - base for v in values))


def is_admissible(pattern: AdmissibleTuple) -> bool:
    """True iff the residues mod p never cover all classes, for every prime p.

    Only primes p <= k need checking: k residues cannot cover p > k classes.
    """
    for p in primes_up_to(pattern.k):
        if len({h % p for h in pattern.offsets}) == p:
            return False
    return True


def difference_set(pattern: AdmissibleTuple) -> frozenset[int]:
    """All positive pairwise differences; empty for a singleton. Patterns of
    more than PRIMORIAL_MAX_K offsets are refused before any pair is formed."""
    if pattern.k > PRIMORIAL_MAX_K:
        raise ValueError(f"a pattern has at most {PRIMORIAL_MAX_K} offsets, got {pattern.k}")
    return frozenset(b - a for a, b in combinations(pattern.offsets, 2))


def regular_admissible(k: int, n: int) -> AdmissibleTuple:
    """The arithmetic progression {0, nP(k), ..., (k-1)nP(k)}, P(k) the primorial.

    Every element is 0 mod each prime p <= k, so the pattern is always
    admissible; its difference set is {nP(k), ..., (k-1)nP(k)}, of size k-1.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    step = n * primorial(k)
    return AdmissibleTuple(tuple(i * step for i in range(k)))
