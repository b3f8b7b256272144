import random
import time
import tracemalloc
from math import comb

import pytest

from facevec import (
    CanonicalRep,
    clique_vector,
    ffk_bound,
    ffk_canonical,
    kk_canonical,
    kk_shadow_bound,
    turan_binom,
)
from facevec.revlex import first_ksets, first_permissible_ksets

from oracles import (
    brute_cliques_by_size,
    ffk_term_lists,
    greedy_terms_by_table,
    kk_term_lists,
    slow_value,
    turan_binom_slow,
    turan_edges_roundrobin,
    turan_graph,
    turan_parts,
)


class TestTuranParts:
    def test_uneven(self):
        assert turan_parts(7, 3) == [3, 2, 2]

    def test_exact(self):
        assert turan_parts(6, 3) == [2, 2, 2]

    def test_more_parts_than_vertices(self):
        assert turan_parts(5, 7) == [1, 1, 1, 1, 1, 0, 0]

    def test_sums_and_monotone(self):
        for n in range(0, 30):
            for r in range(1, 12):
                parts = turan_parts(n, r)
                assert sum(parts) == n
                assert parts == sorted(parts, reverse=True)
                assert max(parts) - min(parts) <= 1


class TestTuranBinom:
    def test_single_vertices(self):
        for n in range(0, 10):
            for r in range(1, 6):
                assert turan_binom(n, 1, r) == n

    def test_explicit_seven_three(self):
        assert turan_binom(7, 3, 3) == 12

    def test_no_triangles_in_bipartite(self):
        assert turan_binom(4, 3, 2) == 0

    def test_reduces_to_binom_when_parts_are_singletons(self):
        for n in range(0, 9):
            for k in range(0, n + 1):
                assert turan_binom(n, k, n + 2) == comb(n, k)

    def test_against_roundrobin_brute_force(self):
        # independent part assignment, independent clique counting
        for n in range(0, 9):
            for r in range(1, n + 1):
                counts = brute_cliques_by_size(n, turan_edges_roundrobin(n, r))
                for k in range(0, n + 1):
                    expected = counts[k] if k < len(counts) else 0
                    assert turan_binom(n, k, r) == expected

    def test_closed_form_against_elementary_symmetric_oracle(self):
        # k = r + 1 covers the vanishing case, n < r the plain-binomial one
        for r in range(1, 13):
            for k in range(0, r + 2):
                for n in range(0, 301):
                    assert turan_binom(n, k, r) == turan_binom_slow(n, k, r), (n, k, r)

    def test_against_package_turan_graph(self):
        for n in range(0, 10):
            for r in range(1, n + 1):
                cv = clique_vector(turan_graph(n, r))
                for k in range(0, n + 1):
                    expected = cv[k] if k < len(cv) else 0
                    assert turan_binom(n, k, r) == expected


class TestKKCanonical:
    def test_worked_example(self):
        assert kk_canonical(99, 3).terms == ((9, 3), (6, 2))

    def test_zero_is_empty(self):
        for k in range(1, 6):
            rep = kk_canonical(0, k)
            assert rep.terms == ()
            assert rep.evaluate() == 0

    def test_exact_single_term(self):
        assert kk_canonical(1140, 3).terms == ((20, 3),)

    def test_round_trip_small(self):
        for k in range(1, 7):
            for m in range(0, 2000):
                assert kk_canonical(m, k).evaluate() == m

    def test_uniqueness_against_enumeration(self):
        for k in range(1, 5):
            for m in range(1, 250):
                lists = kk_term_lists(m, k)
                assert len(lists) == 1, (m, k, lists)
                assert tuple(lists[0]) == kk_canonical(m, k).terms


class TestKKShadowBound:
    def test_worked_examples(self):
        assert kk_shadow_bound(99, 3) == 146
        assert kk_shadow_bound(1140, 3) == 4845

    def test_zero(self):
        assert kk_shadow_bound(0, 4) == 0

    def test_single_face_spans_nothing_above(self):
        # the representation of 1 is C(k, k); one k-set has no (k+1)-subset
        for k in range(1, 8):
            assert kk_canonical(1, k).terms == ((k, k),)
            assert kk_shadow_bound(1, k) == 0


class TestFFKCanonical:
    def test_exact_turan_count(self):
        assert ffk_canonical(12, 3, 3).terms == ((7, 3),)

    def test_two_term_expansion(self):
        rep = ffk_canonical(5, 2, 2)
        assert rep.terms == ((4, 2), (1, 1))
        assert rep.evaluate() == 5

    def test_zero_is_empty(self):
        for k in range(1, 5):
            for r in range(k, 7):
                assert ffk_canonical(0, k, r).terms == ()

    def test_budget_below_k_rejected(self):
        with pytest.raises(ValueError):
            ffk_canonical(10, 3, 2)
        with pytest.raises(ValueError):
            ffk_bound(10, 3, 2)

    def test_round_trip_small(self):
        for r in range(1, 7):
            for k in range(1, r + 1):
                for m in range(0, 1200):
                    assert ffk_canonical(m, k, r).evaluate() == m

    def test_uniqueness_against_enumeration(self):
        for r in range(1, 6):
            for k in range(1, r + 1):
                for m in range(1, 200):
                    lists = ffk_term_lists(m, k, r, turan_binom)
                    assert len(lists) == 1, (m, k, r, lists)
                    assert tuple(lists[0]) == ffk_canonical(m, k, r).terms

    def test_degenerates_to_plain_when_budget_is_ample(self):
        # Once r exceeds the largest value the plain greedy ever probes, every
        # Turán binomial involved reduces to a plain one.  At r = top value
        # exactly the colored greedy may legitimately pick a larger leading
        # term (turan_binom(top+1, k, top) < binom(top+1, k)), so the
        # equality threshold is top + 1.
        for k in range(1, 5):
            for m in range(0, 500):
                plain = kk_canonical(m, k)
                top = max((n for n, _ in plain.terms), default=0)
                for r in range(max(top + 1, k), max(top + 1, k) + 2):
                    colored = ffk_canonical(m, k, r)
                    assert colored.terms == plain.terms
                    assert ffk_bound(m, k, r) == kk_shadow_bound(m, k)

    def test_ample_budget_worked_example_at_its_own_top(self):
        # here the budget equals the largest plain value and agreement still
        # holds: the next probe is already too big
        for r in range(9, 13):
            assert ffk_canonical(99, 3, r).terms == ((9, 3), (6, 2))
            assert ffk_bound(99, 3, r) == 146


class TestFFKBound:
    def test_three_colorable_caps_at_zero(self):
        assert ffk_bound(1140, 3, 3) == 0

    def test_two_colorable_has_no_triangles(self):
        assert ffk_bound(5, 2, 2) == 0

    def test_matches_plain_bound_for_large_budget(self):
        assert ffk_bound(99, 3, 9) == 146
        assert ffk_bound(99, 3, 12) == 146

    def test_equal_budget_and_index_always_zero(self):
        for k in range(1, 6):
            for m in range(0, 300):
                assert ffk_bound(m, k, k) == 0


class TestShadow:
    @pytest.mark.parametrize("r", [None, 2, 3, 4, 5, 6])
    def test_shadow_is_the_size_of_the_segments_shadow(self, r):
        # the (k-1)-shadow of the first m rev-lex (r-permissible) k-sets,
        # grown one set at a time, against the canonical form read one down:
        # its length, and its sets, the initial (k-1)-segment of that length
        top = 300
        for k in range(1, 6 if r is None else min(r, 5) + 1):
            segment = first_ksets(top, k) if r is None else first_permissible_ksets(top, k, r)
            # the initial (k-1)-segment the shadows must be, as long as the last
            most = _canonical(top, k, r).shadow()
            lower = ([()] if k == 1 else first_ksets(most, k - 1) if r is None
                     else first_permissible_ksets(most, k - 1, r))
            shadow = set()
            for m in range(top + 1):
                rep = _canonical(m, k, r)
                assert rep.shadow() == len(shadow), (m, k, r)
                if m < top:
                    new = {segment[m][:i] + segment[m][i + 1:] for i in range(k)} - shadow
                    shadow |= new
                    # with the step before, the shadow is lower[:len(shadow)] as a set
                    assert new == set(lower[len(shadow) - len(new):len(shadow)]), (m, k, r)


class TestBoundProperties:
    def test_monotone_in_m(self):
        for k in range(1, 7):
            prev = 0
            for m in range(0, 10_000):
                cur = kk_shadow_bound(m, k)
                assert cur >= prev
                prev = cur

    def test_colored_monotone_and_dominated(self):
        for k in range(1, 7):
            for r in range(k, 9):
                prev = 0
                for m in range(0, 10_000):
                    cur = ffk_bound(m, k, r)
                    assert cur >= prev
                    assert cur <= kk_shadow_bound(m, k)
                    prev = cur

    def test_colored_bound_monotone_in_budget(self):
        for k in range(1, 4):
            for m in range(0, 300):
                values = [ffk_bound(m, k, r) for r in range(k, 9)]
                assert values == sorted(values)


def _canonical(m, k, r):
    return kk_canonical(m, k) if r is None else ffk_canonical(m, k, r)


class TestDescentAgainstTableOracle:
    def test_term_lists_and_bounds_match(self):
        rng = random.Random(20061)
        for k in range(1, 9):
            # the oracle's table at index k grows like m ** (1 / k)
            top = 12 if k >= 3 else 9
            for r in [None, *range(k, 9)]:
                tables = {}
                for _ in range(40):
                    m = int(10 ** rng.uniform(0, top))
                    lead, _ = greedy_terms_by_table(m, k, r, tables)[0]
                    exact = slow_value(lead, k, r)
                    for mm in (m, exact, exact - 1):
                        expected = greedy_terms_by_table(mm, k, r, tables)
                        rep = _canonical(mm, k, r)
                        assert list(rep.terms) == expected, (mm, k, r)
                        assert rep.successor_bound() == sum(
                            slow_value(n, j + 1, rep.budget_at(j)) for n, j in expected
                        )


def _check_value(n, j, rho):
    # the slow oracle walks every part, so huge budgets use the closed form,
    # which TestTuranBinom checks against it
    return turan_binom(n, j, rho) if rho is not None and rho > 100 else slow_value(n, j, rho)


def _assert_greedy(rep, m):
    rep.validate()
    assert rep.evaluate() == m
    rest = m
    for n, j in rep.terms:
        rho = rep.budget_at(j)
        value = _check_value(n, j, rho)
        assert value <= rest < _check_value(n + 1, j, rho), (m, rep.k, rep.color_budget, n, j)
        rest -= value
    assert rest == 0


class TestHugeInputs:
    def test_huge_m_answers_fast_with_flat_memory(self):
        rng = random.Random(7)
        queries = [
            (m, k, r)
            for k in range(2, 9)
            for r in (None, k, k + 3, 10**9)
            for m in (10**100, int(10 ** rng.uniform(12, 100)))
        ]
        tracemalloc.start()
        try:
            start = time.monotonic()
            reps = [_canonical(m, k, r) for m, k, r in queries]
            elapsed = time.monotonic() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 10.0
        assert peak < 20 * 2**20
        for (m, _, _), rep in zip(queries, reps):
            _assert_greedy(rep, m)

    def test_huge_index_and_budget(self):
        for m in (10, 10**100):
            for r in (None, 10**9):
                _assert_greedy(_canonical(m, 100_000, r), m)

    def test_beyond_float_range(self):
        # the root estimate exceeds the largest float here
        for m, k in ((10**1000, 2), (10**3000, 4)):
            for r in (None, k + 2):
                _assert_greedy(_canonical(m, k, r), m)
        # and here k or the budget cannot be a float at all
        _assert_greedy(kk_canonical(10, 10**400), 10)
        _assert_greedy(ffk_canonical(10**50, 3, 10**400), 10**50)


class TestConcurrentDescent:
    def test_descent_is_consistent_under_threads(self):
        # Six threads share the bounded Turán-value cache; the log-spaced m
        # need about twice its size in values, so entries are evicted while
        # other threads read them.
        import sys
        import threading

        queries = [5000 + i for i in range(400)] + [int(10 ** (4 + i / 400)) for i in range(8000)]
        results = []

        def worker():
            results.append(
                [(kk_canonical(m, 4).terms, ffk_canonical(m, 4, 6).terms) for m in queries]
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 6
        assert all(r == results[0] for r in results)
        for m, (plain, colored) in zip(queries, results[0]):
            assert CanonicalRep(4, None, plain).evaluate() == m
            assert CanonicalRep(4, 6, colored).evaluate() == m


class TestCanonicalRepValidation:
    def test_validate_rejects_broken_chain(self):
        from facevec.errors import InvariantViolation

        bad = CanonicalRep(k=3, color_budget=None, terms=((5, 3), (6, 2)))
        with pytest.raises(InvariantViolation):
            bad.validate()

    def test_validate_rejects_skipped_index(self):
        from facevec.errors import InvariantViolation

        bad = CanonicalRep(k=3, color_budget=None, terms=((5, 3), (4, 1)))
        with pytest.raises(InvariantViolation):
            bad.validate()
