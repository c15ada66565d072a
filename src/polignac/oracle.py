"""Exact ground truth at desk scale: enumerate all size-3 admissible
difference sets in [1, x] and find a maximum disjoint subfamily.

Counts come from checked 0/1 integer programs (HiGHS via scipy) over one
incidence matrix. The certificate is the lexicographically first optimum in
canonical order: a candidate is committed iff some optimum agreeing with
every earlier decision contains it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .admissible import is_admissible
from .packing import InvariantViolation, PackingCertificate

DEFAULT_SEARCH_CAP = 5000


class InstanceTooLarge(ValueError):
    """Candidate list exceeds the exhaustive-search cap."""


@dataclass(frozen=True)
class PackingInstance:
    """Distinct candidate difference sets, canonically ordered
    (by span, then by sorted values)."""

    x: int
    candidates: tuple[frozenset[int], ...]


def enumerate_admissible_diffsets(x: int) -> PackingInstance:
    """All distinct difference sets of admissible size-3 patterns with span <= x.

    A pattern {0, a, c} (even offsets: an odd one covers both classes mod 2)
    yields {a, c-a, c}, two elements when a = c/2. Its mirror image
    {0, c-a, c} has the same set and the same admissibility (residues
    negated, then shifted by c), so looping over c ascending, then even
    a <= c/2 ascending, yields each set once, already in canonical order.
    InstanceTooLarge is raised as soon as DEFAULT_SEARCH_CAP sets are exceeded.
    """
    if x < 1:
        raise ValueError(f"x must be positive, got {x}")
    candidates: list[frozenset[int]] = []
    for c in range(4, x + 1, 2):
        for a in range(2, c // 2 + 1, 2):
            if is_admissible((0, a, c)):
                candidates.append(frozenset({a, c - a, c}))
                if len(candidates) > DEFAULT_SEARCH_CAP:
                    raise InstanceTooLarge(f"x={x} has over {DEFAULT_SEARCH_CAP} candidates")
    return PackingInstance(x, tuple(candidates))


def _solve(incidence: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> set[int]:
    """Columns of a maximum disjoint family within the bounds; the solver vector is checked."""
    result = milp(
        c=-np.ones(incidence.shape[1]),
        constraints=LinearConstraint(incidence, 0, 1),
        integrality=1,
        bounds=Bounds(lower, upper),
        options={"mip_rel_gap": 0},  # prove optimality exactly, not to HiGHS's default gap
    )
    if not result.success:
        raise InvariantViolation(f"integer program failed: {result.message}")
    chosen = np.round(result.x)
    # 1e-6 is HiGHS's default integrality (MIP feasibility) tolerance.
    in_bounds = np.all((lower <= chosen) & (chosen <= upper))
    if np.abs(result.x - chosen).max() > 1e-6 or not in_bounds or (incidence @ chosen).max() > 1:
        raise InvariantViolation("solver vector is not a disjoint 0/1 family in bounds")
    return set(np.flatnonzero(chosen).tolist())


def max_disjoint_packing(instance: PackingInstance) -> PackingCertificate:
    """Maximum-cardinality disjoint subfamily of the instance's candidates.

    Among all optima, returns the lexicographically first in canonical order.
    A fitting candidate in the witness (an optimum agreeing with every decision
    so far) is committed with no solve; any other is forced in for one solve
    and committed iff the optimum holds, that solution becoming the witness.
    """
    cands = instance.candidates
    n = len(cands)
    values = sorted({v for ds in cands for v in ds})
    incidence = np.array([[v in ds for ds in cands] for v in values], dtype=float)
    lower, upper = np.zeros(n), np.ones(n)  # lower 1: committed; upper 0: rejected
    witness = _solve(incidence, lower, upper) if n else set()
    target = len(witness)
    used: set[int] = set()
    for i in range(n):
        if lower.sum() == target:
            break
        if not used.isdisjoint(cands[i]):
            upper[i] = 0
            continue
        lower[i] = 1
        if i not in witness:
            found = _solve(incidence, lower, upper)
            if len(found) > target:
                raise InvariantViolation("a restricted solve beat the optimum")
            if len(found) < target:
                lower[i] = upper[i] = 0
                continue
            witness = found
        used |= cands[i]
    chosen = np.flatnonzero(lower).tolist()
    if len(chosen) != target:
        raise InvariantViolation("lexicographic extraction missed the optimum")
    members = tuple((f"#{i}", cands[i]) for i in chosen)
    return PackingCertificate(3, instance.x, members, raw_count=n)
