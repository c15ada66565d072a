"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime budget."""

import time
from fractions import Fraction

import pytest

from polignac.admissible import normalize
from polignac.oracle import enumerate_admissible_diffsets, max_disjoint_packing
from polignac.packing import (
    EXTENDED,
    PAPER_LITERAL,
    geh_family,
    greedy_counting_floor,
    greedy_regular_packing,
    k3_finite_upper_bound,
    lower_bound_density,
)
from polignac.sieve import prime_pair_census, primes_up_to, primorial


class _Criterion:
    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"criterion {self.number}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded {self.budget}s budget"
            )
        return False


def test_criterion_1_theorem2_values():
    with _Criterion(1, 1.0):
        assert lower_bound_density(3) == Fraction(1, 24)
        assert lower_bound_density(5) == Fraction(1, 840)
        k50 = lower_bound_density(50)
        assert k50 == Fraction(1, 35462538431226065088930)
        assert k50.denominator == 57673 * primorial(50)
        assert k50 > Fraction(2819, 10**26)


def test_criterion_2_overlap_equivalence():
    with _Criterion(2, 5.0):
        # The regular sets at n < m meet iff i*m = j*n for some 1 <= i < j <= k-1;
        # the greedy keeps n iff that holds for no kept m < n.
        cases = 0
        for k in (3, 4, 5, 6):
            step = primorial(k)
            diff_sets = {n: frozenset(i * n * step for i in range(1, k)) for n in range(1, 101)}

            def lemma(n, m):
                return any(i * m == j * n for j in range(2, k) for i in range(1, j))

            for n in range(1, 101):
                for m in range(n + 1, 101):
                    assert lemma(n, m) == bool(diff_sets[n] & diff_sets[m])
                    cases += 1
            cert = greedy_regular_packing(k, 100 * (k - 1) * step)
            kept = [int(label.removeprefix("n=")) for label, _ in cert.members]
            for n in range(1, 101):
                assert (n in kept) == (not any(lemma(m, n) for m in kept if m < n))
        assert cases == 4 * 100 * 99 // 2


def test_criterion_3_greedy_counting_bound():
    with _Criterion(3, 10.0):
        for k in (3, 5):
            for x in (10**3, 10**4, 10**5, 10**6):
                cert = greedy_regular_packing(k, x)
                member_sets = [ds for _, ds in cert.members]
                union = set().union(*member_sets) if member_sets else set()
                assert len(union) == sum(len(s) for s in member_sets)
                if cert.count <= 1200:
                    for i, a in enumerate(member_sets):
                        assert all(a.isdisjoint(b) for b in member_sets[i + 1 :])
                assert cert.count >= greedy_counting_floor(k, x)
        cert = greedy_regular_packing(3, 100)
        assert cert.count == 5
        assert [label for label, _ in cert.members] == [
            "n=1", "n=3", "n=4", "n=5", "n=7",
        ]


def test_criterion_4_exact_oracle():
    with _Criterion(4, 60.0):
        inst = enumerate_admissible_diffsets(12)
        assert set(inst.candidates) == {
            frozenset({6, 12}),
            frozenset({2, 4, 6}),
            frozenset({2, 6, 8}),
            frozenset({4, 6, 10}),
            frozenset({2, 10, 12}),
            frozenset({4, 8, 12}),
        }
        assert max_disjoint_packing(12).count == 1
        for x in (12, 24, 36, 48, 60):
            optimum = max_disjoint_packing(x)
            optimum.validate()
            assert optimum.count <= k3_finite_upper_bound(x)
            assert optimum.count >= greedy_regular_packing(3, x).count


def test_criterion_5_finite_upper_bound_anchor():
    with _Criterion(5, 1.0):
        assert k3_finite_upper_bound(36) == 7
        assert Fraction(k3_finite_upper_bound(36), 36) == Fraction(7, 36)


def test_criterion_6_geh_construction(capsys):
    with _Criterion(6, 10.0):
        literal = geh_family(20, PAPER_LITERAL)
        assert [ds for _, ds in literal.members] == [
            frozenset({2, 18, 20}),
            frozenset({4, 12, 16}),
        ]
        extended = geh_family(20, EXTENDED)
        assert extended.count == 3
        assert extended.members[2][1] == {6, 8, 14}

        x = 10**4
        densities = {}
        for strategy in (PAPER_LITERAL, EXTENDED):
            cert = geh_family(x, strategy)
            cert.validate()
            for _, ds in cert.members:
                values = tuple(sorted(ds))
                assert all(2 <= v <= x for v in values)
                assert is_admissible_member(values)
            densities[strategy] = cert.density
        best = max(greedy_regular_packing(3, x).density, densities[EXTENDED])
        assert best >= Fraction(1, 24)
    # Reported, not asserted: the claimed asymptotic rate is 1/6.
    with capsys.disabled():
        print(
            f"geh densities at x={x}: literal={densities[PAPER_LITERAL]} "
            f"({float(densities[PAPER_LITERAL]):.4f}), "
            f"extended={densities[EXTENDED]} "
            f"({float(densities[EXTENDED]):.4f}), claimed rate 1/6 ~ 0.1667"
        )


def is_admissible_member(values):
    from polignac.admissible import is_admissible

    pattern = normalize((0, values[0], values[2]))
    return is_admissible(pattern)


def test_criterion_7_admissibility_equivalence():
    with _Criterion(7, 5.0):
        from polignac.admissible import is_admissible

        mismatches = 0
        for a in range(1, 61):
            for c in range(a + 1, 61):
                pattern = (0, a, c)
                fast = is_admissible(pattern)
                naive = naive_all_primes(pattern)
                b = c - a
                characterized = (
                    a % 2 == 0 and b % 2 == 0 and len({0, a % 3, c % 3}) < 3
                )
                if fast != naive or fast != characterized:
                    mismatches += 1
        assert mismatches == 0


def naive_all_primes(pattern):
    for p in primes_up_to(pattern[-1] + 1):
        if len({h % p for h in pattern}) == p:
            return False
    return True


def test_criterion_8_census_diagnostic():
    with _Criterion(8, 1.0):
        report = prime_pair_census(1000, 2)
        primes = primes_up_to(1000)
        naive = sum(
            1 for p in primes for q in primes if p < q and q - p == 2
        )
        assert report.counts[2] == naive
