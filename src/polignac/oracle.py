"""Exact ground truth at desk scale: enumerate all size-3 admissible
difference sets in [1, x] and find a maximum disjoint subfamily.

The optimum is the proven cap ``k3_sharp_upper_bound(x)``, attained by a
checked family: geh's members, or in the perfect case, where geh is one
short, a family found at the cap by ``_integer_program`` alone. Every
extraction decision is one question to ``_ask``: is there a disjoint family
of at least ``target`` members within the bounds? The LP relaxation's duals
give an exact integer bound that can say "no". Wherever the cap's proof
gives value rows, a depth-first search for a disjoint family holding every
row value (``_cover``) comes next: a checked cover says "yes", an exhausted
search says "no", and past ``COVER_NODES`` nodes it passes the question on.
Then a checked LP or integer-program vector says "yes"; only an integer
program's "infeasible" is taken from HiGHS on trust, and it can only reject
a candidate during extraction, never lower the optimum.
``_cap_bounds`` reads the cap's proof once, before any question: it gives
the cap, the integer program's rows (what a family at the cap uses) and the
column bounds (when the cap is x // 6, every candidate holding two or more
multiples of 6, which no such family holds, is bounded out). Every checked
family is refused above the cap in one place, ``_family``.
The certificate is the lexicographically first optimum in canonical order:
a candidate is committed iff some optimum agreeing with every earlier
decision contains it.
The CLI imports this module, and with it numpy, on every command;
``scipy.optimize`` loads only when ``linprog`` or ``milp`` first runs, so
of all commands only ``pack exact`` pays for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .admissible import is_admissible
from .packing import InvariantViolation, PackingCertificate, geh_family, k3_sharp_upper_bound

# The largest x with at most 5000 candidates; 324 has more.
EXACT_MAX_X = 323
# Scale at which LP duals are rounded to integers for the exact bound.
DUAL_SCALE = 2**20
# Nodes after which ``_cover`` passes a question on to the LP and the integer
# program. One pass over even x in 48..72 took 0.48 s with no search, 0.19 s
# at 200 nodes, 0.17-0.20 s at 400-800 and 0.24 s at 1600 (in-process
# medians of 7, 2-vCPU VM); x = 216 and 264 read 14-16 s and 21-24 s at 200,
# 400 and 1000 nodes.
COVER_NODES = 200


def linprog(**kwargs):
    """scipy.optimize.linprog, imported on the first call so that no other command loads scipy."""
    from scipy.optimize import linprog

    return linprog(**kwargs)


def milp(**kwargs):
    """scipy.optimize.milp, imported on the first call like ``linprog``."""
    from scipy.optimize import milp

    return milp(**kwargs)


@dataclass(frozen=True)
class PackingInstance:
    """Distinct candidate difference sets in canonical order: by span, then sorted values."""

    candidates: tuple[frozenset[int], ...]


def enumerate_admissible_diffsets(x: int) -> PackingInstance:
    """All distinct difference sets of admissible size-3 patterns with span <= x.

    A pattern {0, a, c} (even offsets: an odd one covers both classes mod 2)
    yields {a, c-a, c}, two elements when a = c/2, and is kept iff
    ``is_admissible`` accepts it. Its mirror image {0, c-a, c} has the same
    set and the same admissibility, so looping over c ascending, then even
    a <= c/2 ascending, yields each set once, already in canonical order.
    An x outside [1, EXACT_MAX_X] is refused before any set is built.
    """
    if not 1 <= x <= EXACT_MAX_X:
        raise ValueError(f"x must be in [1, {EXACT_MAX_X}], got {x}")
    candidates: list[frozenset[int]] = []
    for c in range(4, x + 1, 2):
        for a in range(2, c // 2 + 1, 2):
            if is_admissible((0, a, c)):
                candidates.append(frozenset({a, c - a, c}))
    return PackingInstance(tuple(candidates))


def _family(incidence: np.ndarray, lower: np.ndarray, upper: np.ndarray, cap: int, vector) -> set[int] | None:
    """Columns of a solver vector, or None unless it is a disjoint 0/1 family within the bounds.

    A family of more than cap members refutes the cap's proof and raises InvariantViolation.
    """
    chosen = np.round(vector)
    # 1e-6 is HiGHS's default integrality (MIP feasibility) tolerance.
    integral = np.all(np.abs(vector - chosen) <= 1e-6)
    in_bounds = np.all((lower <= chosen) & (chosen <= upper))
    if not integral or not in_bounds or (incidence @ chosen).max() > 1:
        return None
    found = set(np.flatnonzero(chosen).tolist())
    if len(found) > cap:
        raise InvariantViolation(f"a family of {len(found)} members beats the proven cap {cap}")
    return found


def _cap_bounds(x: int, values: list[int], candidates: tuple[frozenset[int], ...]) -> tuple[int, np.ndarray, np.ndarray]:
    """The proven cap t = ``k3_sharp_upper_bound(x)``, and row and column bounds every t-family meets.

    Let m = x // 6. By the cap's proof every candidate holds at least one of
    the m multiples of 6, and disjoint members hold distinct ones. So each
    member of a family of t members holds at most m - t + 1 of them.
    When t = m that is exactly one: every multiple-of-6 row is 1, and the
    pairs {6s, 12s} and the triples of multiples of 6 (a triple a + b = c
    holding two holds three) are bounded to 0. If also x mod 6 is 0 or 1, the
    3m values are all the x // 2 even values <= x, so every row is 1.
    In the defect case, t = m - 1, the rows stay 0 and every column bound
    stays 1: the rule would exclude only the triples, which the dual bound
    already rejects almost without a solve, and bounding them only moves
    HiGHS onto slower paths.
    """
    target = k3_sharp_upper_bound(x)
    if target != x // 6:
        return target, np.zeros(len(values)), np.ones(len(candidates))
    rows = np.array([x % 6 in (0, 1) or v % 6 == 0 for v in values], dtype=float)
    upper = np.array([sum(v % 6 == 0 for v in ds) <= 1 for ds in candidates], dtype=float)
    return target, rows, upper


def _dual_bound(incidence: np.ndarray, lower: np.ndarray, upper: np.ndarray, marginals) -> int:
    """DUAL_SCALE times an upper bound on the restricted optimum, in exact integers.

    For any y >= 0 over values and any family z in the bounds with
    incidence @ z <= 1, sum(z) = sum_v y_v (incidence @ z)_v + sum_j r_j z_j
    <= sum(y) + sum_j max(r_j l_j, r_j u_j), where r_j = 1 - sum_{v in S_j} y_v.
    So any y gives a valid bound, and the LP duals only make it tight. Here
    y = -marginals, clipped to [0, 1] and rounded to multiples of
    1/DUAL_SCALE. Clipping at 1 never loosens the bound, because the columns
    with lower bound 1 are disjoint; it also keeps every integer below within
    (rows + 3 * columns) * DUAL_SCALE in size, far inside int64.
    """
    y = np.clip(np.nan_to_num(-np.asarray(marginals, dtype=float)), 0, 1)
    scaled = np.rint(y * DUAL_SCALE).astype(np.int64)
    reduced = DUAL_SCALE - incidence.T @ scaled
    lo, hi = lower.astype(np.int64), upper.astype(np.int64)
    return int(scaled.sum() + np.maximum(reduced * lo, reduced * hi).sum())


class _GaveUp(Exception):
    """The search passed ``COVER_NODES`` nodes without an answer."""


def _bits(columns: np.ndarray) -> int:
    """The nonzero entries of a column vector as an integer bitmask: bit j is column j."""
    return int.from_bytes(np.packbits(columns != 0, bitorder="little").tobytes(), "little")


def _cover_index(incidence: np.ndarray, rows: np.ndarray) -> tuple[list[int], list[int]]:
    """Column bitmasks for ``_cover``, built once per x.

    The first list has, per row value, the columns holding it; the second,
    per column, the columns sharing a value with it, itself included.
    """
    masks = [_bits(row) for row in incidence]
    clashes = [0] * incidence.shape[1]
    for mask, row in zip(masks, incidence):
        for j in np.flatnonzero(row).tolist():
            clashes[j] |= mask
    return [mask for mask, row in zip(masks, rows) if row], clashes


def _cover(index: tuple[list[int], list[int]], lower: np.ndarray, upper: np.ndarray) -> list[int] | None:
    """Free columns that, with the committed ones, hold every row value once, or None if none do.

    index is ``_cover_index``'s. A free column has upper bound 1 and lower
    bound 0 and shares no value with a column taken so far. Depth first,
    each node branches on the uncovered row value with the fewest free
    columns holding it, lowest column first (Knuth's Algorithm X, arXiv
    cs/0011047). Every family at the cap holds every row value, so an
    exhausted search is an exact "no". Past ``COVER_NODES`` nodes the search
    raises _GaveUp.
    """
    holders, clashes = index
    nodes = 0

    def search(uncovered: list[int], free: int) -> list[int] | None:
        nonlocal nodes
        nodes += 1
        if nodes > COVER_NODES:
            raise _GaveUp
        if not uncovered:
            return []
        branch = min((mask & free for mask in uncovered), key=int.bit_count)
        while branch:
            j = (branch & -branch).bit_length() - 1
            branch ^= 1 << j
            rest = search([mask for mask in uncovered if not mask >> j & 1], free & ~clashes[j])
            if rest is not None:
                return [j, *rest]
        return None

    committed, free = _bits(lower), _bits(upper > lower)
    for j in np.flatnonzero(lower).tolist():
        free &= ~clashes[j]
    return search([mask for mask in holders if not mask & committed], free)


def _checked(incidence: np.ndarray, lower: np.ndarray, upper: np.ndarray, target: int, vector) -> set[int]:
    """Columns of a "yes" vector, which must be a disjoint 0/1 family of >= target members in bounds."""
    found = _family(incidence, lower, upper, target, vector)
    if found is None or len(found) < target:
        raise InvariantViolation(f"the family found is not a disjoint 0/1 family of at least {target} members in bounds")
    return found


def _integer_program(incidence: np.ndarray, lower: np.ndarray, upper: np.ndarray, target: int, row_lower: np.ndarray) -> set[int] | None:
    """Columns of a checked disjoint family of >= target members in bounds, or None if HiGHS finds none.

    The oracle's one ``milp`` call: an integer program with a zero objective,
    value rows in [row_lower, 1] and a count row sum(z) >= target. Its vector
    must pass ``_checked`` or raise InvariantViolation. Its "infeasible"
    (HiGHS status 2) is the one answer the oracle takes on trust.
    """
    from scipy.optimize import Bounds, LinearConstraint

    count = LinearConstraint(np.ones((1, incidence.shape[1])), target, np.inf)
    result = milp(
        c=np.zeros(incidence.shape[1]),
        constraints=[LinearConstraint(incidence, row_lower, 1), count],
        integrality=1,
        bounds=Bounds(lower, upper),
    )
    if result.status == 2:  # infeasible: no such family
        return None
    if not result.success:
        raise InvariantViolation(f"integer program failed: {result.message}")
    return _checked(incidence, lower, upper, target, result.x)


def _ask(
    incidence: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    target: int,
    row_lower: np.ndarray,
    duals,
    index: tuple[list[int], list[int]] | None,
) -> tuple[set[int] | None, np.ndarray | None]:
    """Columns of a checked disjoint family of >= target members in bounds, or None if there is none.

    The extraction asks every question here. target is the proven cap, so
    ``_family`` raises on a checked family of more. duals are the marginals
    of an earlier LP over the same incidence, or None; the duals to try next
    are returned with the answer. The question goes, in order, to (1) those
    duals, since ``_dual_bound`` holds for any y; (2) if index is not None,
    ``_cover``'s search over the row values, whose cover says "yes", whose
    exhausted search says "no" and which passes the question on when it
    gives up; (3) a fresh LP relaxation, whose dual bound can say "no" and
    whose vector, if ``_family`` accepts it with >= target members, says
    "yes"; the LP omits the value rows, so its bound is the plain
    relaxation's; (4) ``_integer_program``. A "yes" vector from the search
    must pass ``_checked`` or raise InvariantViolation; a bad dual can only
    fail to reject.
    """
    if duals is not None and _dual_bound(incidence, lower, upper, duals) < target * DUAL_SCALE:
        return None, duals
    if index is not None:
        try:
            picked = _cover(index, lower, upper)
        except _GaveUp:
            pass
        else:
            if picked is None:
                return None, duals
            vector = lower.copy()
            vector[picked] = 1
            return _checked(incidence, lower, upper, target, vector), duals
    lp = linprog(
        c=-np.ones(incidence.shape[1]),
        A_ub=incidence,
        b_ub=np.ones(incidence.shape[0]),
        bounds=np.column_stack((lower, upper)),
        method="highs",
    )
    if lp.status == 0:
        duals = lp.ineqlin.marginals
        if _dual_bound(incidence, lower, upper, duals) < target * DUAL_SCALE:
            return None, duals
        found = _family(incidence, lower, upper, target, lp.x)
        if found is not None and len(found) >= target:
            return found, duals
    return _integer_program(incidence, lower, upper, target, row_lower), duals


def max_disjoint_packing(x: int) -> PackingCertificate:
    """Maximum-cardinality disjoint family of size-3 admissible difference sets in [1, x].

    The candidates are ``enumerate_admissible_diffsets(x)``, so x outside [1,
    EXACT_MAX_X] is refused with ValueError before any solve. The optimum is
    the proven cap ``k3_sharp_upper_bound(x)``: the first witness is the geh
    members among the candidates, checked like any solver vector; it meets
    the cap except in the perfect case, where it is one short and
    ``_integer_program`` alone is asked for a family at the cap: one exists,
    so an LP there could not say "no". A checked family above the cap, or a
    "no" at it, refutes the proof and raises InvariantViolation. Before any
    question, ``_cap_bounds`` gives the cap and bounds to 0 the candidates
    that the proof keeps out of every optimum, so no question forces them.

    Among all optima, returns the lexicographically first in canonical order.
    A fitting candidate in the witness (an optimum agreeing with every decision
    so far) is committed with no solve; any other is forced in and committed
    iff ``_ask`` finds a family of the optimum's size, which becomes the
    witness. The LP duals carry over from each question to the next. Where
    ``_cap_bounds`` gives rows, these questions try ``_cover``'s search, on
    column bitmasks built once per x. The perfect case's question before
    extraction asks neither the search nor an LP (the layered benchmark's
    self-test counts its ``milp`` call).
    """
    cands = enumerate_admissible_diffsets(x).candidates
    n = len(cands)
    if not n:
        return PackingCertificate(3, x, (), raw_count=0)
    values = sorted({v for ds in cands for v in ds})
    incidence = np.array([[v in ds for ds in cands] for v in values], dtype=np.int64)
    target, rows, upper = _cap_bounds(x, values, cands)
    lower = np.zeros(n)  # lower 1: committed; upper 0: rejected
    index = _cover_index(incidence, rows) if rows.any() else None
    geh = {ds for _, ds in geh_family(x).members}
    witness = _family(incidence, lower, upper, target, np.array([ds in geh for ds in cands], dtype=float))
    if witness is None:
        raise InvariantViolation("the geh family is not a disjoint 0/1 family in bounds")
    if len(witness) < target:
        witness = _integer_program(incidence, lower, upper, target, rows)
        if witness is None:
            raise InvariantViolation(f"no disjoint family meets the proven cap {target}")
    duals = None
    used: set[int] = set()
    for i in range(n):
        if lower.sum() == target:
            break
        if not upper[i] or not used.isdisjoint(cands[i]):
            upper[i] = 0
            continue
        lower[i] = 1
        if i not in witness:
            found, duals = _ask(incidence, lower, upper, target, rows, duals, index)
            if found is None:
                lower[i] = upper[i] = 0
                continue
            witness = found
        used |= cands[i]
    chosen = np.flatnonzero(lower).tolist()
    if len(chosen) != target:
        raise InvariantViolation("lexicographic extraction missed the optimum")
    members = tuple((f"#{i}", cands[i]) for i in chosen)
    return PackingCertificate(3, x, members, raw_count=n)
