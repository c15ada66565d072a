"""Density bound formulas and constructive packings of difference sets.

The greedy over regular admissible sets of size k keeps, in increasing n,
each candidate disjoint from everything kept before it. The size-3 family
{0, 2n, 2n + a_n}, over the pairs (n, a_n) that assign the multiples of 6
to the n not divisible by 3, is disjoint and inside [1, x] by construction,
so it keeps every pair. A finite-interval cap bounds what any disjoint
family of admissible size-3 difference sets can achieve.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .admissible import is_admissible
from .sieve import PRIMORIAL_MAX_K, primorial

PAPER_LITERAL = "paper-literal"
EXTENDED = "extended"
GEH_STRATEGIES = (PAPER_LITERAL, EXTENDED)
# Most candidates a construction builds; more are refused before any is built.
# At the limit, `pack geh` (x = 1200007) takes 1.2-1.4 s and 190 MB peak RSS
# in a fresh process on a 2-vCPU VM, JSON rendering (0.5 s of it) included;
# `pack regular --k 3 --x 2400011` takes 0.8-0.9 s and 137 MB.
CONSTRUCTION_MAX_CANDIDATES = 200_000


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


def _check_regular_k(k: int) -> None:
    if not 3 <= k <= PRIMORIAL_MAX_K:
        raise ValueError(f"k must be in [3, {PRIMORIAL_MAX_K}], got {k}")


def _check_candidate_count(x: int, count: int) -> None:
    if count > CONSTRUCTION_MAX_CANDIDATES:
        raise ValueError(
            f"x = {x} gives {count} candidates, over the construction limit {CONSTRUCTION_MAX_CANDIDATES}"
        )


@dataclass(frozen=True)
class PackingCertificate:
    """A pairwise-disjoint family of difference sets inside [1, x].

    ``raw_count`` is the number of candidates before any filter, so it is
    at least ``count``. Per construction it counts: the greedy, the indices
    n <= n_max; geh, the assignment pairs in range, every one of which is
    kept; the exact oracle, the enumerated candidates.
    """

    k: int
    x: int
    members: tuple[tuple[str, frozenset[int]], ...]
    raw_count: int

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def density(self) -> Fraction:
        return Fraction(self.count, self.x)

    def validate(self) -> None:
        """Re-check every certificate invariant; raise on any violation."""
        if self.x < 1:
            raise InvariantViolation(f"x = {self.x} is not positive")
        if self.count > self.raw_count:
            raise InvariantViolation("count exceeds raw_count")
        covered: set[int] = set()
        total = 0
        for label, values in self.members:
            if not values:
                raise InvariantViolation(f"member {label} is empty")
            if min(values) < 1 or max(values) > self.x:
                raise InvariantViolation(f"member {label} not contained in [1, {self.x}]")
            covered |= values
            total += len(values)
        if total != len(covered):
            raise InvariantViolation("members are not pairwise disjoint")


def lower_bound_density(k: int) -> Fraction:
    """Guaranteed packing density 2 / ((k-1)((k-1)(k-2)+2) P(k))."""
    _check_regular_k(k)
    return Fraction(2, (k - 1) * ((k - 1) * (k - 2) + 2) * primorial(k))


def trivial_upper_bound_density(k: int) -> Fraction:
    """Cap 1 / (2(k-1)) on disjoint admissible difference sets, each needing
    k-1 distinct even values; k is refused outside [2, PRIMORIAL_MAX_K], the
    regular family's top k. Admissibility is needed: (0, 1) gives {1}, and the
    sets {d}, d <= x, are disjoint with density 1 against the cap 1/2 at k = 2."""
    if not 2 <= k <= PRIMORIAL_MAX_K:
        raise ValueError(f"k must be in [2, {PRIMORIAL_MAX_K}], got {k}")
    return Fraction(1, 2 * (k - 1))


def k3_upper_bound_density() -> Fraction:
    """Asymptotic cap 7/36 for disjoint families of admissible size-3 difference
    sets, the limit of ``k3_finite_upper_bound(x) / x``."""
    return Fraction(7, 36)


def greedy_regular_packing(k: int, x: int) -> PackingCertificate:
    """First-fit over n = 1, 2, ...: keep each regular difference set
    {nP(k), ..., (k-1)nP(k)} disjoint from everything kept so far. The sets at
    n < m meet iff i*m = j*n for some 1 <= i < j <= k-1; greedy_counting_floor
    rests on this. Candidates are exactly the n with (k-1) n P(k) <= x, so
    every kept set lies in [1, x] by construction; more than
    CONSTRUCTION_MAX_CANDIDATES of them are refused before any is built.
    """
    _check_regular_k(k)
    if x < 1:
        raise ValueError(f"x must be positive, got {x}")
    step = primorial(k)
    n_max = x // ((k - 1) * step)
    _check_candidate_count(x, n_max)
    members = []
    used: set[int] = set()
    for n in range(1, n_max + 1):
        values = frozenset(i * n * step for i in range(1, k))
        if used.isdisjoint(values):
            used |= values
            members.append((f"n={n}", values))
    return PackingCertificate(k, x, tuple(members), raw_count=n_max)


def greedy_counting_floor(k: int, x: int) -> int:
    """Guaranteed minimum size of the greedy packing, with unit slack for
    the bounded correction term: floor(2 floor(x/((k-1)P(k))) / ((k-1)(k-2)+2)) - 1."""
    _check_regular_k(k)
    n_max = x // ((k - 1) * primorial(k))
    return 2 * n_max // ((k - 1) * (k - 2) + 2) - 1


def geh_assignment(x: int) -> Iterator[tuple[int, int]]:
    """An iterator over the pairs (n, a_n): n runs over 1, 2, 4, 5, 7, ...
    (3 does not divide n) and a_n over the multiples of 6 in [6, x-2],
    largest first. Each pair is built only when drawn.

    An x with more than CONSTRUCTION_MAX_CANDIDATES multiples of 6 in
    [6, x-2] is refused when called, before any pair is built.
    """
    count = (x - 2) // 6
    _check_candidate_count(x, count)
    return zip((n for n in itertools.count(1) if n % 3), range(6 * count, 0, -6))


def geh_family(x: int, strategy: str = EXTENDED) -> PackingCertificate:
    """Size-3 packing from patterns {0, 2n, 2n + a_n} over the assignment pairs.

    The literal range stops at n <= floor(x/6); the extended range uses every
    pair. Admissibility of each pattern is verified. Every pair is kept,
    because the family is inside [1, x] and disjoint by construction (3 does
    not divide n, and a_n falls by 6 per pair while 2n rises by 2 or 4, so
    the tops 2n + a_n strictly decrease in n):

    - span: the largest top is 2 + a_1 = 2 + 6 floor((x-2)/6) <= x;
    - multiples of 6: the a_n are distinct multiples of 6, while neither 2n
      nor 2n + a_n is one;
    - other values: the 2n are distinct, the tops are distinct, and the
      smallest top 2 n_last + a_{n_last} exceeds every 2n.

    An x over the construction limit is refused by geh_assignment before
    any pair is built.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if strategy not in GEH_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    literal = strategy == PAPER_LITERAL

    members = []
    for n, a in geh_assignment(x):
        if literal and n > x // 6:
            break
        pattern = (0, 2 * n, 2 * n + a)
        if not is_admissible(pattern):
            raise InvariantViolation(f"generated pattern {pattern} is not admissible")
        members.append((f"n={n}", frozenset({2 * n, a, 2 * n + a})))
    return PackingCertificate(3, x, tuple(members), raw_count=len(members))


def k3_finite_upper_bound(x: int) -> int:
    """Exact cap on any disjoint family of admissible size-3 difference sets in [1, x].

    Admissibility is needed: all such difference sets are even, and a
    two-element set {a, 2a} is admissible only when 6 | a, so there are at
    most floor(x/12) of them; the rest use three even values each. Without
    it the cap fails: (0, 2, 4) gives {2, 4} in [1, 4], yet the cap at 4 is 0.
    """
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    regular = x // 12
    return regular + (x // 2 - 2 * regular) // 3


def k3_sharp_upper_bound(x: int) -> int:
    """Cap on any disjoint family of admissible size-3 difference sets in [1, x]:
    m - [x mod 6 in {0, 1} and m mod 4 in {2, 3}], where m = floor(x/6).

    A pattern {0, a, c} is admissible iff a, c are even and 3 divides a, c-a
    or c: three offsets miss a class mod p > 3 always, mod 2 iff none is odd,
    and mod 3 iff two agree. So every such difference set is even and holds
    a multiple of 6, and a disjoint family has at most m members.

    Parity: let x mod 6 be 0 or 1 and a family have m members. Each member
    holds exactly one of the m multiples of 6 in [1, x]. So no member is a
    two-element set, because {a, 2a} admissible forces 6 | a. The m triples
    therefore use 3m distinct even values <= x, which are all the even values
    <= 6m. Halved, they partition {1..3m} into triples a + b = c, so
    3m(3m+1)/2 = 2 sum(c) is even, which forces m = 0 or 1 (mod 4).

    geh's (x-2)//6 members attain the bound for every x >= 2 except the
    "perfect" case, x mod 6 in {0, 1} and m mod 4 in {0, 1}, where it has
    m - 1. There ``oracle.max_disjoint_packing`` finds a checked m-member
    family for every x <= 323, so the cap is the optimum for every such x;
    beyond 323 equality in the perfect case is unproven.
    """
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    m = x // 6
    return m - (x % 6 in (0, 1) and m % 4 in (2, 3))
