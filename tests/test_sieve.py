import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polignac import sieve
from polignac.sieve import (
    CENSUS_MAX_DMAX,
    PRIMORIAL_MAX_K,
    prime_pair_census,
    primes_up_to,
    primorial,
)


def trial_division_primes(limit):
    return [n for n in range(2, limit + 1)
            if all(n % d for d in range(2, int(n**0.5) + 1))]


def naive_census(x, dmax):
    primes = trial_division_primes(x)
    counts = {d: 0 for d in range(2, dmax + 1, 2)}
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            if q - p in counts:
                counts[q - p] += 1
    return counts


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(10) == (2, 3, 5, 7)

    def test_boundary(self):
        assert primes_up_to(2) == (2,)

    def test_empty(self):
        assert primes_up_to(1) == ()
        assert primes_up_to(0) == ()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            primes_up_to(-1)

    @given(st.integers(min_value=0, max_value=10**4))
    def test_agrees_with_trial_division(self, limit):
        assert list(primes_up_to(limit)) == trial_division_primes(limit)

    def test_around_prime_squares(self):
        # The sieve stops at isqrt(limit); p*p is the first multiple p clears.
        for p in trial_division_primes(100):
            for m in (p * p - 1, p * p, p * p + 1):
                assert list(primes_up_to(m)) == trial_division_primes(m)

    def test_strictly_increasing(self):
        primes = primes_up_to(10**4)
        assert all(a < b for a, b in zip(primes, primes[1:]))


class TestPrimorial:
    def test_values(self):
        assert primorial(1) == 1
        assert primorial(3) == 6
        assert primorial(50) == 614889782588491410

    def test_primorial_50_matches_sieve_product(self):
        product = 1
        for p in primes_up_to(50):
            product *= p
        assert primorial(50) == product

    def test_recurrence(self):
        prime_set = set(primes_up_to(100))
        for k in range(2, 101):
            if k in prime_set:
                assert primorial(k) == primorial(k - 1) * k
            else:
                assert primorial(k) == primorial(k - 1)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            primorial(0)

    def test_rejects_above_max_before_sieving(self, monkeypatch):
        assert len(str(primorial(PRIMORIAL_MAX_K))) > 400
        monkeypatch.setattr(sieve, "primes_up_to", lambda limit: pytest.fail("sieved"))
        with pytest.raises(ValueError, match="1000"):
            primorial(PRIMORIAL_MAX_K + 1)


class TestCensus:
    def test_x10(self):
        report = prime_pair_census(10, 2)
        assert report.counts == {2: 2}

    def test_x20(self):
        report = prime_pair_census(20, 6)
        assert report.counts == {2: 4, 4: 3, 6: 4}

    def test_single_prime(self):
        assert prime_pair_census(2, 2).counts == {2: 0}

    def test_rejects_odd_dmax(self):
        with pytest.raises(ValueError):
            prime_pair_census(100, 3)

    def test_rejects_over_limit(self):
        with pytest.raises(ValueError):
            prime_pair_census(10**8 + 1, 2)

    def test_matches_naive_double_loop(self):
        assert prime_pair_census(200, 10).counts == naive_census(200, 10)

    @pytest.mark.parametrize(
        "x, dmax, expected",
        [
            (3, 4, {2: 0, 4: 0}),
            (4, 2, {2: 0}),
            (5, 2, {2: 1}),
            (7, 8, {2: 2, 4: 1, 6: 0, 8: 0}),
            (13, 14, {2: 3, 4: 2, 6: 2, 8: 2, 10: 1, 12: 0, 14: 0}),
        ],
    )
    def test_top_pair_on_x(self, x, dmax, expected):
        # The largest pair ends exactly at x (or x has no pair at all), and
        # dmax >= x, so an off-by-one in the odd-only layout or shift shows.
        assert prime_pair_census(x, dmax).counts == expected == naive_census(x, dmax)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=3000), st.integers(min_value=1, max_value=CENSUS_MAX_DMAX // 2))
    def test_matches_naive_pair_count(self, x, half_d):
        assert prime_pair_census(x, 2 * half_d).counts == naive_census(x, 2 * half_d)

    def test_twin_primes_below_ten_million(self):
        # OEIS A007508: 58980 twin prime pairs below 10^7.
        assert prime_pair_census(10**7, 2).counts[2] == 58980

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=1, max_value=10))
    def test_monotone_in_x(self, x, half_d):
        dmax = 2 * half_d
        smaller = prime_pair_census(x, dmax).counts
        larger = prime_pair_census(x + 50, dmax).counts
        assert all(smaller[d] <= larger[d] for d in smaller)
