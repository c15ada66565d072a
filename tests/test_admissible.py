from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polignac.admissible import difference_set, is_admissible, normalize
from polignac.sieve import primes_up_to, primorial


def naive_is_admissible(pattern):
    """Reference check scanning every prime up to diameter + 1."""
    for p in primes_up_to(max(pattern) - min(pattern) + 1):
        if len({h % p for h in pattern}) == p:
            return False
    return True


class TestNormalize:
    def test_sort_and_translate(self):
        assert normalize([7, 5, 11]) == (0, 2, 6)

    def test_singleton(self):
        assert normalize([0]) == (0,)

    def test_dedupe(self):
        assert normalize([3, 3, 9]) == (0, 6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize([])

    def test_negative_inputs(self):
        assert normalize([-4, 0, 2]) == (0, 4, 6)


class TestIsAdmissible:
    def test_examples(self):
        assert is_admissible((0, 2, 6))
        assert not is_admissible((0, 2, 4))
        assert is_admissible((0,))
        assert not is_admissible((0, 1))

    def test_exhaustive_triples_match_naive(self):
        for a in range(1, 61):
            for c in range(a + 1, 61):
                pattern = (0, a, c)
                assert is_admissible(pattern) == naive_is_admissible(pattern)

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(min_value=1, max_value=60), min_size=1, max_size=3))
    def test_quadruples_match_naive(self, tail):
        pattern = (0,) + tuple(sorted(tail))
        assert is_admissible(pattern) == naive_is_admissible(pattern)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=30),
    )
    def test_translation_invariant(self, offsets, shift):
        base = normalize(offsets)
        assert base[0] == 0 and list(base) == sorted(set(base))
        shifted = tuple(h + shift for h in reversed(base))
        assert is_admissible(shifted) == is_admissible(base)
        assert normalize(shifted) == base

    def test_k3_characterization(self):
        # {0, a, a+b}: admissible iff a, b even and the mod-3 residues miss a
        # class; exactly two differences iff a = b iff 6 | a.
        for a in range(1, 61):
            for b in range(1, 61):
                pattern = (0, a, a + b)
                expected = (
                    a % 2 == 0
                    and b % 2 == 0
                    and len({0, a % 3, (a + b) % 3}) < 3
                )
                assert is_admissible(pattern) == expected
                two_diffs = len(difference_set(pattern)) == 2
                assert two_diffs == (a == b)
                if is_admissible(pattern) and a == b:
                    assert a % 6 == 0


class TestDifferenceSet:
    def test_examples(self):
        assert difference_set((0, 2, 6)) == {2, 4, 6}
        assert difference_set((0, 6, 12)) == {6, 12}
        assert difference_set((0,)) == frozenset()
        assert difference_set((6, 0, 2, 2)) == {2, 4, 6}

    def test_definition(self):
        pattern = (0, 4, 10, 18)
        expected = {b - a for a, b in combinations(pattern, 2)}
        assert difference_set(pattern) == expected

    def test_span(self):
        assert max(difference_set((0, 2, 6)), default=0) == 6
        assert max(difference_set((0,)), default=0) == 0


def regular_pattern(k, n):
    """The arithmetic progression (0, nP(k), ..., (k-1)nP(k)), P(k) the primorial."""
    return tuple(i * n * primorial(k) for i in range(k))


class TestRegularAdmissible:
    """The paper's claim behind the greedy, which never checks it at run time:
    every offset of a regular pattern is 0 mod each prime p <= k."""

    def test_always_admissible(self):
        for k in range(2, 11):
            for n in range(1, 51):
                assert is_admissible(regular_pattern(k, n))

    def test_difference_set_structure(self):
        for k in range(2, 8):
            for n in (1, 2, 7):
                step = n * primorial(k)
                ds = difference_set(regular_pattern(k, n))
                assert ds == {i * step for i in range(1, k)}
                assert len(ds) == k - 1
