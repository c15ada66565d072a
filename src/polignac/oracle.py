"""Exact ground truth at desk scale: enumerate all size-3 admissible
difference sets in [1, x] and find a maximum disjoint subfamily.

The optimum count comes from an exact integer program (HiGHS via scipy);
the returned certificate is the lexicographically first optimal family in
canonical candidate order, extracted by committing each candidate whose
inclusion provably still completes to an optimal packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .admissible import AdmissibleTuple, DiffSet, is_admissible
from .packing import InvariantViolation, PackingCertificate, first_fit

DEFAULT_SEARCH_CAP = 5000


class InstanceTooLarge(ValueError):
    """Candidate list exceeds the exhaustive-search cap."""


@dataclass(frozen=True)
class PackingInstance:
    """Deduplicated candidate difference sets, canonically ordered
    (by span, then by sorted values)."""

    x: int
    candidates: tuple[DiffSet, ...]


def enumerate_admissible_diffsets(k: int, x: int) -> PackingInstance:
    """All distinct difference sets of admissible size-3 patterns with span <= x.

    A pattern {0, a, a+b} yields the set {a, b, a+b}, which collapses to two
    elements when a = b. Only k = 3 is supported; larger sizes blow up.
    """
    if k != 3:
        raise ValueError(f"only k = 3 enumeration is supported, got k={k}")
    if x < 1:
        raise ValueError(f"x must be positive, got {x}")
    seen: set[frozenset[int]] = set()
    for a in range(2, x - 1, 2):
        for b in range(2, x - a + 1, 2):
            if is_admissible(AdmissibleTuple((0, a, a + b))):
                seen.add(frozenset({a, b, a + b}))
    ordered = sorted(seen, key=lambda s: (max(s), sorted(s)))
    return PackingInstance(x, tuple(DiffSet(s) for s in ordered))


def _optimal_count(candidates: Sequence[DiffSet]) -> int:
    """Size of a maximum disjoint subfamily, by exact 0/1 integer programming."""
    n = len(candidates)
    if n == 0:
        return 0
    values = sorted({v for ds in candidates for v in ds.values})
    row = {v: i for i, v in enumerate(values)}
    incidence = np.zeros((len(values), n))
    for j, ds in enumerate(candidates):
        for v in ds.values:
            incidence[row[v], j] = 1.0
    result = milp(
        c=-np.ones(n),
        constraints=LinearConstraint(incidence, 0, 1),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not result.success:
        raise InvariantViolation(f"integer program failed: {result.message}")
    return round(-result.fun)


def max_disjoint_packing(
    instance: PackingInstance, *, search_cap: int = DEFAULT_SEARCH_CAP
) -> PackingCertificate:
    """Maximum-cardinality disjoint subfamily of the instance's candidates.

    Among all optima, returns the lexicographically first in canonical
    order: candidates are scanned in order and committed whenever a
    feasibility check proves the optimum is still reachable with them in.
    """
    cands = instance.candidates
    n = len(cands)
    if n > search_cap:
        raise InstanceTooLarge(f"{n} candidates exceed the cap {search_cap}")
    target = _optimal_count(cands)
    chosen: list[int] = []
    used: set[int] = set()
    for i in range(n):
        if len(chosen) == target:
            break
        values = cands[i].values
        if not used.isdisjoint(values):
            continue
        taken = used | values
        rest = [cands[j] for j in range(i + 1, n) if cands[j].values.isdisjoint(taken)]
        needed = target - len(chosen) - 1
        # A first-fit subfamily of the needed size is a cheap sufficient proof.
        fits = islice(first_fit((ds, ds.values) for ds in rest), needed)
        if len(rest) >= needed and (
            len(list(fits)) == needed or _optimal_count(rest) >= needed
        ):
            chosen.append(i)
            used = taken
    if len(chosen) != target:
        raise InvariantViolation("lexicographic extraction missed the optimum")
    members = tuple((f"#{i}", cands[i]) for i in chosen)
    return PackingCertificate(3, instance.x, members, raw_count=n)
