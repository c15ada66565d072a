from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polignac import packing
from polignac.admissible import difference_set, is_admissible, normalize
from polignac.packing import (
    EXTENDED,
    PAPER_LITERAL,
    InvariantViolation,
    PackingCertificate,
    geh_assignment,
    geh_family,
    greedy_counting_floor,
    greedy_regular_packing,
    k3_finite_upper_bound,
    k3_upper_bound_density,
    lower_bound_density,
    trivial_upper_bound_density,
)
from polignac.sieve import primorial


class TestBoundFormulas:
    def test_lower_bound_values(self):
        assert lower_bound_density(3) == Fraction(1, 24)
        assert lower_bound_density(5) == Fraction(1, 840)
        assert lower_bound_density(50) == Fraction(1, 35462538431226065088930)

    def test_lower_bound_k50_structure(self):
        value = lower_bound_density(50)
        assert value.denominator == 57673 * primorial(50)
        assert value > Fraction(2819, 10**26)

    def test_trivial_upper_values(self):
        assert trivial_upper_bound_density(3) == Fraction(1, 4)
        assert trivial_upper_bound_density(2) == Fraction(1, 2)
        assert trivial_upper_bound_density(50) == Fraction(1, 98)

    def test_k3_asymptotic_upper(self):
        assert k3_upper_bound_density() == Fraction(7, 36)

    def test_lower_below_upper(self):
        for k in range(3, 61):
            assert lower_bound_density(k) < trivial_upper_bound_density(k)

    def test_input_errors(self):
        # The regular family's k range, refused before the primorial's own [1, 1000] check.
        for k in (2, 1001):
            message = rf"k must be in \[3, 1000\], got {k}"
            with pytest.raises(ValueError, match=message):
                lower_bound_density(k)
            with pytest.raises(ValueError, match=message):
                greedy_regular_packing(k, 100)
            with pytest.raises(ValueError, match=message):
                greedy_counting_floor(k, 100)
        for k in (1, 1001):
            with pytest.raises(ValueError, match=rf"k must be in \[2, 1000\], got {k}"):
                trivial_upper_bound_density(k)


def regular_set(k, n):
    """The regular difference set {nP(k), ..., (k-1)nP(k)}."""
    return frozenset(i * n * primorial(k) for i in range(1, k))


def lemma_overlap(k, n, m):
    """The overlap lemma's condition: i*m = j*n for some 1 <= i < j <= k-1."""
    return any(i * m == j * n for j in range(2, k) for i in range(1, j))


def kept_by_index(k, n_max):
    cert = greedy_regular_packing(k, n_max * (k - 1) * primorial(k))
    return {int(label.removeprefix("n=")): values for label, values in cert.members}


class TestRegularOverlap:
    def test_matches_direct_intersection(self):
        for k in range(3, 7):
            for n in range(1, 41):
                for m in range(n + 1, 41):
                    assert lemma_overlap(k, n, m) == bool(regular_set(k, n) & regular_set(k, m))

    def test_greedy_keeps_exactly_the_indices_the_lemma_allows(self):
        for k in range(3, 7):
            kept = kept_by_index(k, 60)
            for n in range(1, 61):
                assert (n in kept) == (not any(lemma_overlap(k, m, n) for m in kept if m < n))


class TestGreedyRegularPacking:
    def test_k3_x100(self):
        cert = greedy_regular_packing(3, 100)
        assert cert.count == 5
        assert [label for label, _ in cert.members] == ["n=1", "n=3", "n=4", "n=5", "n=7"]

    def test_single_candidate(self):
        cert = greedy_regular_packing(3, 12)
        assert cert.count == 1
        assert cert.members[0][1] == {6, 12}

    def test_empty(self):
        assert greedy_regular_packing(3, 11).count == 0

    def test_members_pairwise_disjoint(self):
        cert = greedy_regular_packing(3, 10**4)
        cert.validate()
        member_sets = [ds for _, ds in cert.members]
        for i, a in enumerate(member_sets):
            for b in member_sets[i + 1 :]:
                assert a.isdisjoint(b)

    def test_counting_floor(self):
        for k in (3, 5):
            for x in (10**3, 10**4):
                cert = greedy_regular_packing(k, x)
                cert.validate()
                assert cert.count >= greedy_counting_floor(k, x)

    def test_counting_floor_rejects_k_below_3(self):
        for k in (0, 1, 2):
            with pytest.raises(ValueError):
                greedy_counting_floor(k, 10**3)

    def test_matches_naive_reference(self):
        # Reference: scan the regular difference sets in increasing n and keep
        # each one disjoint from every set kept before it.
        for k in range(3, 7):
            kept = []
            for n in range(1, 61):
                ds = difference_set(tuple(i * n * primorial(k) for i in range(k)))
                if all(ds.isdisjoint(other) for _, other in kept):
                    kept.append((f"n={n}", ds))
                cert = greedy_regular_packing(k, n * (k - 1) * primorial(k))
                assert (cert.members, cert.raw_count) == (tuple(kept), n)

    def test_every_dropped_index_overlaps_an_earlier_kept_one(self):
        for k in range(3, 7):
            kept = kept_by_index(k, 60)
            for n in set(range(1, 61)) - kept.keys():
                assert any(regular_set(k, n) & values for m, values in kept.items() if m < n)

    def test_scaling_invariance(self):
        # Selection depends only on floor(x / ((k-1) P(k))).
        base = [label for label, _ in greedy_regular_packing(3, 100).members]
        for x in (96, 99, 103, 107):
            assert [label for label, _ in greedy_regular_packing(3, x).members] == base

    def test_density_is_exact_rational(self):
        cert = greedy_regular_packing(3, 100)
        assert cert.density == Fraction(5, 100)


class TestValidate:
    @pytest.mark.parametrize(
        "members, raw_count",
        [
            ([("a", {2, 4}), ("b", {4, 6})], 2),
            ([("a", {2, 22})], 1),
            ([("a", {0, 2})], 1),
            ([("a", set())], 1),
            ([("a", {2, 4}), ("b", {6, 8})], 1),
        ],
        ids=["overlap", "above-x", "below-1", "empty", "count-above-raw"],
    )
    def test_rejects(self, members, raw_count):
        family = tuple((label, frozenset(v)) for label, v in members)
        with pytest.raises(InvariantViolation):
            PackingCertificate(3, 20, family, raw_count).validate()

    def test_accepts_disjoint(self):
        family = (("a", frozenset({2, 4})), ("b", frozenset({6, 20})))
        PackingCertificate(3, 20, family, 2).validate()

    @pytest.mark.parametrize("x", [0, -5])
    def test_rejects_non_positive_x(self, x):
        # An empty family is otherwise valid, but its density count / x is undefined or negative.
        with pytest.raises(InvariantViolation, match=f"x = {x} is not positive"):
            PackingCertificate(3, x, (), 0).validate()


class TestGehAssignment:
    def test_x20(self):
        assert tuple(geh_assignment(20)) == ((1, 18), (2, 12), (4, 6))

    def test_pairs_are_built_as_drawn(self):
        pairs = geh_assignment(1200007)
        assert iter(pairs) is pairs
        assert next(pairs) == (1, 1200000)

    def test_empty_below_8(self):
        for x in range(8):
            assert tuple(geh_assignment(x)) == ()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=2000))
    def test_invariants(self, x):
        pairs = tuple(geh_assignment(x))
        ns = [n for n, _ in pairs]
        values = [a for _, a in pairs]
        assert ns == [n for n in range(1, 2 * len(ns) + 1) if n % 3][: len(ns)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert set(values) == set(range(6, x - 1, 6))


def padded_geh_reference(x, strategy):
    """(members, raw_count) of geh read off a zero-padded assignment: slot i
    holds 0 when 3 | i, else the next largest multiple of 6 in [6, x-2]."""
    count = (x - 2) // 6 if x >= 8 else 0
    slots = 3 * ((count - 1) // 2) + 1 + (count - 1) % 2 if count else 0
    padded = [0 if i % 3 == 0 else 6 * (count - i + i // 3 + 1) for i in range(1, slots + 1)]
    n_max = x // 6 if strategy == PAPER_LITERAL else slots
    members = [(f"n={n}", frozenset({2 * n, a, 2 * n + a})) for n, a in enumerate(padded[:n_max], start=1) if a]
    return tuple(members), len(members)


class TestGehFamily:
    def test_x20_literal(self):
        cert = geh_family(20, PAPER_LITERAL)
        assert cert.count == 2
        assert [ds for _, ds in cert.members] == [
            frozenset({2, 18, 20}),
            frozenset({4, 12, 16}),
        ]

    def test_x20_extended(self):
        cert = geh_family(20, EXTENDED)
        assert cert.count == 3
        assert cert.members[2][1] == {6, 8, 14}

    def test_empty_small_x(self):
        assert geh_family(7, PAPER_LITERAL).count == 0

    def test_raw_count(self):
        assert geh_family(20, PAPER_LITERAL).raw_count == 2
        assert geh_family(20, EXTENDED).raw_count == 3
        for x in range(2, 400):
            pairs = tuple(geh_assignment(x))
            for strategy, n_max in ((PAPER_LITERAL, x // 6), (EXTENDED, x)):
                brute = sum(1 for n, _ in pairs if n <= n_max)
                assert geh_family(x, strategy).raw_count == brute

    def test_keeps_every_slot(self):
        # No span or overlap filter is needed: every pair is a member, so the
        # extended range uses each multiple of 6 in [6, x-2] once. The members
        # are those of the zero-padded construction, in the same order.
        for x in range(2, 3001):
            for strategy in (PAPER_LITERAL, EXTENDED):
                cert = geh_family(x, strategy)
                assert cert.count == cert.raw_count
                assert (cert.members, cert.raw_count) == padded_geh_reference(x, strategy)
                cert.validate()
            assert cert.count == (x - 2) // 6

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            geh_family(20, "bogus")

    def test_candidate_limit_is_checked_before_building(self, monkeypatch):
        monkeypatch.setattr(packing, "CONSTRUCTION_MAX_CANDIDATES", 10)
        assert geh_family(67).raw_count == 10
        assert greedy_regular_packing(3, 131).raw_count == 10
        monkeypatch.setattr(packing, "is_admissible", lambda pattern: pytest.fail("built"))
        for build in (lambda: geh_assignment(68), lambda: geh_family(68), lambda: greedy_regular_packing(3, 132)):
            with pytest.raises(ValueError, match="limit 10"):
                build()

    @pytest.mark.parametrize("strategy", [PAPER_LITERAL, EXTENDED])
    def test_members_valid(self, strategy):
        x = 500
        cert = geh_family(x, strategy)
        cert.validate()
        for _, ds in cert.members:
            values = tuple(sorted(ds))
            assert all(2 <= v <= x and v % 2 == 0 for v in values)
            pattern = normalize((0, values[0], values[2]))
            residues = {h % 3 for h in pattern}
            assert len(residues) <= 2

    def test_within_finite_cap(self):
        for x in (20, 100, 500, 2000, 10**4):
            for strategy in (PAPER_LITERAL, EXTENDED):
                assert geh_family(x, strategy).count <= k3_finite_upper_bound(x)

    def test_extended_density_near_one_sixth(self):
        cert = geh_family(10**4, EXTENDED)
        assert cert.density >= Fraction(1, 24)
        assert abs(cert.density - Fraction(1, 6)) < Fraction(1, 100)


class TestK3FiniteUpperBound:
    def test_values(self):
        assert k3_finite_upper_bound(12) == 2
        assert k3_finite_upper_bound(36) == 7
        assert k3_finite_upper_bound(0) == 0

    def test_formula(self):
        for x in range(0, 300):
            regular = x // 12
            assert k3_finite_upper_bound(x) == regular + (x // 2 - 2 * regular) // 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            k3_finite_upper_bound(-1)

    def test_holds_only_for_admissible_sets(self):
        # (0, 2, 4) meets every class mod 3, so its one-member family {2, 4}
        # in [1, 4] is not counted by the cap, which is 0 there.
        assert difference_set((0, 2, 4)) == {2, 4}
        assert not is_admissible((0, 2, 4))
        assert k3_finite_upper_bound(4) == 0

    def test_trivial_cap_holds_only_for_admissible_sets(self):
        # (0, 1) meets both classes mod 2, so its set {1}, and with it the
        # disjoint sets {d} for every d <= x, are not counted by the k = 2 cap 1/2.
        assert difference_set((0, 1)) == {1}
        assert not is_admissible((0, 1))
        assert trivial_upper_bound_density(2) == Fraction(1, 2)
