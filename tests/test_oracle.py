from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from polignac import oracle
from polignac.admissible import is_admissible
from polignac.cli import run_command
from polignac.oracle import (
    DUAL_SCALE,
    EXACT_MAX_X,
    enumerate_admissible_diffsets,
    max_disjoint_packing,
)
from polignac.packing import (
    InvariantViolation,
    geh_family,
    greedy_regular_packing,
    k3_finite_upper_bound,
    k3_sharp_upper_bound,
)

@pytest.fixture
def oracle_calls(monkeypatch):
    """Names of the oracle's solver and geh calls, recorded by pass-through spies."""
    calls = []

    def spy(name, real):
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in ("milp", "linprog", "geh_family"):
        monkeypatch.setattr(oracle, name, spy(name, getattr(oracle, name)))
    return calls


@pytest.fixture
def milp_calls(monkeypatch):
    """Each integer program as (target, value row lower bounds, committed columns), with its answer."""
    calls = []

    def recording_milp(**kwargs):
        rows, count = kwargs["constraints"]
        result = milp(**kwargs)
        found = None if result.status == 2 else int(np.round(result.x).sum())
        committed = tuple(np.flatnonzero(kwargs["bounds"].lb).tolist())  # read now: the oracle updates it in place
        calls.append((int(count.lb[0]), tuple(rows.lb.tolist()), committed, found))
        return result

    monkeypatch.setattr(oracle, "milp", recording_milp)
    return calls


def naive_max_packing_size(candidates):
    """Scan all 2^n subsets; only usable for small instances."""
    best = 0
    for r in range(len(candidates), 0, -1):
        if r <= best:
            break
        for combo in combinations(candidates, r):
            union = set()
            total = 0
            for ds in combo:
                union |= ds
                total += len(ds)
            if len(union) == total:
                best = max(best, r)
                break
    return best


def first_maximum_disjoint(candidates):
    """The lexicographically first of the largest disjoint index combinations.

    Depth-first over increasing indices meets the disjoint combinations in
    lexicographic order, so the first one found of each size is the first.
    """
    best = ()

    def extend(chosen, used, start):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        for j in range(start, len(candidates)):
            if used.isdisjoint(candidates[j]):
                extend((*chosen, j), used | candidates[j], j + 1)

    extend((), frozenset(), 0)
    return best


class TestEnumerate:
    def test_x8(self):
        inst = enumerate_admissible_diffsets(8)
        assert set(inst.candidates) == {
            frozenset({2, 4, 6}),
            frozenset({2, 6, 8}),
        }

    def test_x12(self):
        inst = enumerate_admissible_diffsets(12)
        assert [tuple(sorted(ds)) for ds in inst.candidates] == [
            (2, 4, 6),
            (2, 6, 8),
            (4, 6, 10),
            (2, 10, 12),
            (4, 8, 12),
            (6, 12),
        ]

    def test_empty_below_span_6(self):
        assert enumerate_admissible_diffsets(5).candidates == ()

    def test_matches_all_pairs_reference(self):
        # Every pattern {0, a, a+b} over even a, b, deduplicated, then sorted.
        for x in (*range(1, 121), 323):  # 323 is the largest x under the candidate cap
            seen = {
                frozenset({a, b, a + b})
                for a in range(2, x - 1, 2)
                for b in range(2, x - a + 1, 2)
                if is_admissible((0, a, a + b))
            }
            expected = sorted(seen, key=lambda s: (max(s), sorted(s)))
            assert list(enumerate_admissible_diffsets(x).candidates) == expected

    def test_cap_is_the_last_x_with_at_most_5000_candidates(self):
        # Counted over all pairs up to the first refused x, as in the reference above.
        top = EXACT_MAX_X + 1
        spans = [
            max(ds)
            for ds in {
                frozenset({a, b, a + b})
                for a in range(2, top - 1, 2)
                for b in range(2, top - a + 1, 2)
                if is_admissible((0, a, a + b))
            }
        ]
        assert sum(s <= EXACT_MAX_X for s in spans) <= 5000 < len(spans)

    def test_refused_before_any_set_is_built(self, monkeypatch):
        def no_set(*args):
            raise AssertionError("a candidate set was built")

        monkeypatch.setattr(oracle, "frozenset", no_set, raising=False)
        for x in (EXACT_MAX_X + 1, 10**12):
            with pytest.raises(ValueError, match="323"):
                enumerate_admissible_diffsets(x)

    def test_canonical_order(self):
        inst = enumerate_admissible_diffsets(30)
        keys = [(max(ds), tuple(sorted(ds))) for ds in inst.candidates]
        assert keys == sorted(keys)
        assert len(set(inst.candidates)) == len(inst.candidates)


class TestMaxDisjointPacking:
    def test_x12_optimum_is_one(self):
        cert = max_disjoint_packing(12)
        assert cert.count == 1
        assert cert.members[0][1] == {2, 4, 6}

    def test_empty_instance(self, oracle_calls):
        # Below span 6 there is no candidate, so neither geh nor a solver runs.
        for x in range(1, 6):
            cert = max_disjoint_packing(x)
            assert (cert.x, cert.members, cert.raw_count) == (x, (), 0)
        assert oracle_calls == []

    def test_every_solve_goes_through_the_oracle_solver_names(self, monkeypatch):
        # The benchmark tracer and the oracle_calls / milp_calls fixtures patch these two globals.
        assert oracle.linprog.__module__ == oracle.milp.__module__ == "polignac.oracle"
        seen = {"oracle": [], "scipy": []}

        def spy(where, name, real):
            return lambda **kwargs: seen[where].append(name) or real(**kwargs)

        for name in ("linprog", "milp"):
            monkeypatch.setattr(oracle, name, spy("oracle", name, getattr(oracle, name)))
            monkeypatch.setattr(scipy.optimize, name, spy("scipy", name, getattr(scipy.optimize, name)))
        max_disjoint_packing(36)
        assert seen["oracle"] == seen["scipy"]
        assert {"linprog", "milp"} <= set(seen["oracle"])

    def test_cap_enforced(self):
        assert len(enumerate_admissible_diffsets(323).candidates) <= 5000
        for x in (324, 400):
            with pytest.raises(ValueError, match=r"^x must be in \[1, 323\], got "):
                enumerate_admissible_diffsets(x)

    def test_agrees_with_naive_subset_scan(self):
        for x in (6, 8, 10, 12, 14):
            inst = enumerate_admissible_diffsets(x)
            assert len(inst.candidates) <= 12
            cert = max_disjoint_packing(x)
            cert.validate()
            assert cert.count == naive_max_packing_size(inst.candidates)

    def test_deterministic(self):
        assert max_disjoint_packing(36).members == max_disjoint_packing(36).members

    def test_lexicographically_first_optimum(self):
        # At x=24 the span-6 set {2,4,6} is in no optimal packing, so the
        # extraction must skip it.
        cert = max_disjoint_packing(24)
        assert cert.count == 4
        chosen = [int(label[1:]) for label, _ in cert.members]
        assert chosen == sorted(chosen)
        assert 0 not in chosen

    def test_certificate_is_first_optimal_combination(self):
        for x in range(1, 31):
            first = first_maximum_disjoint(enumerate_admissible_diffsets(x).candidates)
            cert = max_disjoint_packing(x)
            assert [int(label[1:]) for label, _ in cert.members] == list(first), x

    @pytest.mark.parametrize(
        "vector",
        [
            [0.5, 0.5, 0, 0, 0, 0],  # fractional
            [1, 1, 0, 0, 0, 0],  # {2,4,6} and {2,6,8} both use 2 and 6
            [-1, 0, 0, 0, 0, 0],  # integral and disjoint, but below its bound
            [0, 0, 0, 0, 0, 0],  # a disjoint 0/1 family in bounds, but below the target 1
        ],
    )
    def test_rejects_bad_solver_vector(self, monkeypatch, vector):
        # The solver reports success, so only the vector is wrong.
        fake = SimpleNamespace(status=0, success=True, x=np.array(vector, dtype=float))
        monkeypatch.setattr(oracle, "milp", lambda **kwargs: fake)
        # geh is the first witness at x=12, so an LP that never solves is what
        # sends the forced candidate {2,4,6} to the faked integer program.
        monkeypatch.setattr(oracle, "linprog", lambda **kwargs: SimpleNamespace(status=4))
        with pytest.raises(InvariantViolation):
            max_disjoint_packing(12)

    def test_every_integer_program_is_a_feasibility_question(self, monkeypatch):
        # Every integer program is a feasibility question with a zero objective,
        # so any family it finds is optimal for it: there is no gap to close.
        targets = []

        def recording_milp(**kwargs):
            assert not np.any(kwargs["c"]) and "options" not in kwargs
            rows, count = kwargs["constraints"]
            assert np.all(count.A == 1) and count.ub[0] == np.inf
            targets.append(count.lb[0])
            result = milp(**kwargs)
            assert result.x is None or np.round(result.x).sum() >= count.lb[0]
            return result

        monkeypatch.setattr(oracle, "milp", recording_milp)
        # A search that always gives up and an LP that never solves send every
        # forced candidate to the integer program.
        monkeypatch.setattr(oracle, "COVER_NODES", 0)
        monkeypatch.setattr(oracle, "linprog", lambda **kwargs: SimpleNamespace(status=4))
        assert max_disjoint_packing(30).count == 5
        assert len(targets) > 1
        assert all(target == 5 for target in targets)

    def test_dominates_constructions_and_respects_cap(self):
        for x in (12, 24, 36, 48, 60):
            optimum = max_disjoint_packing(x).count
            assert optimum <= k3_finite_upper_bound(x)
            assert optimum >= greedy_regular_packing(3, x).count
            assert optimum >= geh_family(x, "paper-literal").count
            assert optimum >= geh_family(x, "extended").count

    def test_geh_family_is_among_the_candidates(self):
        # The lower half of the optimum sandwich: max(0, (x-2)//6) <= optimum.
        for x in range(2, 121):
            cands = set(enumerate_admissible_diffsets(x).candidates)
            geh = [ds for _, ds in geh_family(x).members]
            assert cands.issuperset(geh)
            assert len(geh) == max(0, (x - 2) // 6)


class TestSharpBound:
    """The closed-form optimum, and the geh witness it lets the oracle use."""

    def test_equals_the_integer_program_optimum(self):
        # Two-sided: scipy's maximum-cardinality integer program, asked from
        # here with no value rows, so neither the cap's proof nor the oracle's
        # question is assumed, finds a disjoint family of exactly the cap.
        for x in range(1, 73):
            cap = k3_sharp_upper_bound(x)
            cands = enumerate_admissible_diffsets(x).candidates
            if not cands:
                assert cap == 0, x
                continue
            incidence = np.array([[v in ds for ds in cands] for v in sorted(set().union(*cands))], dtype=np.int64)
            result = milp(
                c=-np.ones(len(cands)),
                constraints=LinearConstraint(incidence, 0, 1),
                integrality=1,
                bounds=Bounds(0, 1),
                options={"mip_rel_gap": 0},
            )
            chosen = np.round(result.x)
            assert result.status == 0 and np.all(incidence @ chosen <= 1), x
            assert round(-result.fun) == chosen.sum() == cap, x

    def test_family_above_the_cap_is_refused(self, monkeypatch):
        # geh's 7 members at x = 48 beat a cap of 6, so that cap cannot be proven.
        monkeypatch.setattr(oracle, "k3_sharp_upper_bound", lambda x: 6)
        with pytest.raises(InvariantViolation, match="a family of 7 members beats the proven cap 6"):
            max_disjoint_packing(48)

    @pytest.mark.parametrize("source", ["_cover", "linprog", "milp"])
    def test_solver_family_above_the_cap_is_refused(self, monkeypatch, source):
        # x = 30's optimum has 5 members. Asked at a cap of 4, a vector holding
        # that optimum is a checked family that beats the cap, whether it comes
        # from the search over every value, the LP or the integer program.
        cands = enumerate_admissible_diffsets(30).candidates
        values = sorted(set().union(*cands))
        incidence = np.array([[v in ds for ds in cands] for v in values], dtype=np.int64)
        vector = np.zeros(len(cands))
        vector[[int(label[1:]) for label, _ in max_disjoint_packing(30).members]] = 1
        # Zero duals bound nothing, so the LP's vector is checked.
        fake = SimpleNamespace(status=0, success=True, x=vector, ineqlin=SimpleNamespace(marginals=np.zeros(len(values))))
        unsolved = SimpleNamespace(status=4)
        monkeypatch.setattr(oracle, "linprog", lambda **kwargs: fake if source == "linprog" else unsolved)
        infeasible = SimpleNamespace(status=2, success=False)
        monkeypatch.setattr(oracle, "milp", lambda **kwargs: fake if source == "milp" else infeasible)
        index = oracle._cover_index(incidence, np.ones(len(values))) if source == "_cover" else None
        with pytest.raises(InvariantViolation, match="^a family of 5 members beats the proven cap 4$"):
            oracle._ask(incidence, np.zeros(len(cands)), np.ones(len(cands)), 4, np.zeros(len(values)), None, index)

    def test_overlapping_geh_family_is_refused(self, monkeypatch):
        # {2,4,6} and {2,6,8} share 2 and 6, so they are no witness.
        overlapping = SimpleNamespace(members=(("a", frozenset({2, 4, 6})), ("b", frozenset({2, 6, 8}))))
        monkeypatch.setattr(oracle, "geh_family", lambda x: overlapping)
        with pytest.raises(InvariantViolation, match="^the geh family is not a disjoint 0/1 family in bounds$"):
            max_disjoint_packing(12)

    def test_no_family_at_the_cap_is_an_invariant_violation(self, monkeypatch):
        # x = 30 is perfect: geh has 4 members and the cap is 5. An integer
        # program answering "infeasible" at the cap would refute its proof,
        # so it raises instead of returning 4.
        monkeypatch.setattr(oracle, "linprog", lambda **kwargs: SimpleNamespace(status=4))
        monkeypatch.setattr(oracle, "milp", lambda **kwargs: SimpleNamespace(status=2, success=False))
        with pytest.raises(InvariantViolation, match="no disjoint family meets the proven cap 5"):
            max_disjoint_packing(30)
        assert run_command(["pack", "exact", "--x", "30"]).exit_code == 2

    def test_rows_cut_off_no_family(self):
        # Every disjoint family of m = x // 6 members, found by brute force, uses
        # each value whose row is 1. No disjoint family of cap members has a
        # member with more than m - cap + 1 multiples of 6, so none holds a
        # column that the proof bounds to 0.
        for x in range(1, 25):
            cands = enumerate_admissible_diffsets(x).candidates
            values = sorted(set().union(*cands))
            m = x // 6
            cap, rows, upper = oracle._cap_bounds(x, values, cands)
            assert cap == k3_sharp_upper_bound(x), x
            families = 0
            for size in {m, cap}:
                for combo in combinations(range(len(cands)), size):
                    used = [v for j in combo for v in cands[j]]
                    if len(used) != len(set(used)):
                        continue
                    if size == m:
                        families += 1
                        assert all(v in used for v, row in zip(values, rows) if row), (x, combo)
                    if size == cap:
                        assert all(sum(v % 6 == 0 for v in cands[j]) <= m - cap + 1 for j in combo), (x, combo)
                        assert all(upper[j] for j in combo), (x, combo)
            assert (families > 0) == (cap == m), x

    @pytest.mark.parametrize("x, unrestricted", [(48, 1), (50, 0), (52, 0), (60, 0), (66, 0)])
    def test_initial_solve_only_in_the_perfect_case(self, milp_calls, x, unrestricted):
        # x = 48 (m = 8) is perfect, so geh falls one short and one question
        # is asked before extraction: 8 members, each value used exactly once.
        cert = max_disjoint_packing(x)
        assert cert.count == k3_sharp_upper_bound(x)
        initial = [(target, set(rows), found) for target, rows, committed, found in milp_calls if not committed]
        assert initial == [(8, {1.0}, 8)] * unrestricted

    @pytest.mark.parametrize("x", [30, 48, 54, 72])
    def test_perfect_case_asks_no_lp_before_the_first_integer_program(self, oracle_calls, x):
        # A family at the cap exists, so an LP could not say "no" to the
        # question before extraction: it goes to the integer program alone.
        assert max_disjoint_packing(x).count == x // 6
        assert oracle_calls[:2] == ["geh_family", "milp"]

    def test_no_decision_rests_on_an_infeasible_answer(self, milp_calls):
        # Every "no" up to x = 72 is an exact dual bound: each integer program
        # that runs finds a checked family, so none is taken on HiGHS's word.
        for x in range(1, 73):
            max_disjoint_packing(x)
        assert milp_calls and all(found is not None for *_, found in milp_calls)

    def test_no_question_forces_an_excluded_column(self, monkeypatch, oracle_calls):
        # The columns the cap's proof bounds out are never forced in, neither
        # in a question nor in the search over the row values, so the LPs that
        # only proved "no" for them are not solved: even x in 48..72 took 165
        # LP calls without the exclusion.
        forced = []
        searched = []
        real_ask, real_cover = oracle._ask, oracle._cover

        def spy_ask(incidence, lower, upper, *args):
            forced.append(bool(lower[excluded].any()))
            return real_ask(incidence, lower, upper, *args)

        def spy_cover(index, lower, upper):
            searched.append(bool(lower[excluded].any()))
            return real_cover(index, lower, upper)

        monkeypatch.setattr(oracle, "_ask", spy_ask)
        monkeypatch.setattr(oracle, "_cover", spy_cover)
        total_excluded = lp_calls = 0
        for x in range(1, 73):
            cands = enumerate_admissible_diffsets(x).candidates
            excluded = oracle._cap_bounds(x, sorted(set().union(*cands)), cands)[2] == 0
            total_excluded += np.count_nonzero(excluded)
            before = oracle_calls.count("linprog")
            max_disjoint_packing(x)
            if x >= 48 and x % 2 == 0:
                lp_calls += oracle_calls.count("linprog") - before
        assert forced and searched and total_excluded > 0
        assert not any(forced) and not any(searched)
        assert lp_calls < 165

    @pytest.mark.parametrize("x, candidates", [(0, ()), (-5, ()), (-5, ({2, 4, 6},))])
    def test_non_positive_x_refused_before_any_solve(self, monkeypatch, oracle_calls, x, candidates):
        # Left through, x = 0 gave a certificate whose density divides by zero,
        # and x < 0 one with a negative interval. The refusal comes before the
        # enumeration tests a single pattern, whatever it would admit: here
        # exactly the patterns whose difference sets are the given candidates.
        admits = {frozenset(ds) for ds in candidates}
        tested = []

        def stub(pattern):
            tested.append(pattern)
            _, a, c = pattern
            return frozenset({a, c - a, c}) in admits

        monkeypatch.setattr(oracle, "is_admissible", stub)
        with pytest.raises(ValueError, match=rf"^x must be in \[1, 323\], got {x}$"):
            max_disjoint_packing(x)
        assert tested == oracle_calls == []

    def test_x_above_exact_max_refused_before_any_solve(self, oracle_calls):
        with pytest.raises(ValueError, match=rf"^x must be in \[1, 323\], got {EXACT_MAX_X + 1}$"):
            max_disjoint_packing(EXACT_MAX_X + 1)
        assert oracle_calls == []


class TestRelaxation:
    """The LP pre-check settles most forced candidates, and its integer bound is sound."""

    def test_lp_settles_most_forced_candidates(self, monkeypatch):
        solves = []
        monkeypatch.setattr(oracle, "milp", lambda **kwargs: solves.append(1) or milp(**kwargs))
        assert max_disjoint_packing(48).count == 8
        assert len(solves) <= 5  # the initial solve plus a few the LP leaves open

    def test_reused_duals_spare_most_lp_calls(self, oracle_calls):
        # Each LP's duals keep bounding the restricted optimum as bounds tighten,
        # so most rejections need no new LP (57 calls at x = 72 without the reuse).
        assert max_disjoint_packing(72).count == 12
        assert oracle_calls.count("linprog") <= 30

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.sets(st.integers(0, 5), min_size=1, max_size=3), min_size=1, max_size=8),
        st.data(),
    )
    def test_integer_dual_bound_covers_the_optimum(self, sets, data):
        n = len(sets)
        values = sorted(set().union(*sets))
        incidence = np.array([[v in s for s in sets] for v in values], dtype=np.int64)
        # Lower bound 1 on a disjoint set of columns (committed), upper 0 on some others.
        kinds = data.draw(st.lists(st.sampled_from("01f"), min_size=n, max_size=n))
        committed = [j for j in range(n) if kinds[j] == "1"]
        assume(not any(sets[a] & sets[b] for a, b in combinations(committed, 2)))
        lower = np.array([float(k == "1") for k in kinds])
        upper = np.array([float(k != "0") for k in kinds])
        optimum = max(
            len(combo)
            for r in range(n + 1)
            for combo in combinations(range(n), r)
            if set(committed) <= set(combo)
            and all(kinds[j] != "0" for j in combo)
            and sum(len(sets[j]) for j in combo) == len(set().union(*(sets[j] for j in combo)))
        )
        finite = st.floats(-3, 3) | st.sampled_from([0.0, 1.0, 1e300, -1e300])
        marginals = data.draw(st.none() | st.lists(finite | st.floats(), min_size=len(values), max_size=len(values)))
        if marginals is None:
            result = linprog(
                c=-np.ones(n),
                A_ub=incidence,
                b_ub=np.ones(len(values)),
                bounds=np.column_stack((lower, upper)),
                method="highs",
            )
            marginals = result.ineqlin.marginals
        assert oracle._dual_bound(incidence, lower, upper, marginals) >= optimum * DUAL_SCALE
