from itertools import combinations, islice
from math import comb

import pytest

from facevec import (
    Complex,
    LevelSpec,
    face_vector,
    ffk_bound,
    first_ksets,
    first_permissible_ksets,
    kk_shadow_bound,
    revlex_faces,
    revlex_key,
    revlex_tails,
)
from facevec.complexes import validate_face
from facevec.errors import GuardExceeded, InputFormatError

from oracles import (
    brute_closure,
    complex_and_face_vector,
    edges,
    kset_rank,
    kset_unrank,
    next_kset,
    one_skeleton,
    pairwise_permissible,
    permissible_ksets,
    precedes,
    rejection_permissible_ksets,
    residue_colored,
    sort_revlex,
)
from test_acceptance import Stopwatch


def revlex_complex(spec):
    return Complex.from_faces(revlex_faces(spec))


def colored_revlex_complex(spec, r):
    return residue_colored(Complex.from_faces(revlex_faces(spec, r)), r)


class TestCompare:
    def test_paper_anchor_pairs(self):
        assert revlex_key((2, 3, 5)) < revlex_key((1, 4, 5))
        assert revlex_key((3, 4, 5)) < revlex_key((1, 2, 6))

    def test_equal(self):
        # keys are equal exactly when the faces are
        faces = list(combinations(range(1, 8), 3))
        assert len({revlex_key(f) for f in faces}) == len(faces)
        assert revlex_key((1, 2)) == revlex_key((1, 2))

    def test_agrees_with_symmetric_difference_definition(self):
        for k in (1, 2, 3, 4):
            faces = list(combinations(range(1, 8), k))
            for a in faces:
                for b in faces:
                    assert (revlex_key(a) < revlex_key(b)) == precedes(a, b)

    def test_total_order_sorting_matches_enumeration(self):
        for k in (1, 2, 3, 4):
            subsets = list(combinations(range(1, 10), k))
            assert sorted(subsets, key=revlex_key) == first_ksets(comb(9, k), k)


class TestFirstKsets:
    def test_first_three_pairs(self):
        assert first_ksets(3, 2) == [(1, 2), (1, 3), (2, 3)]

    def test_empty(self):
        assert first_ksets(0, 3) == []

    def test_negative_length_rejected_on_cold_and_warm_cache(self):
        import facevec.revlex as rl

        rl._segments.pop((2, None), None)
        with pytest.raises(ValueError, match="nonnegative, got -1$"):
            first_ksets(-1, 2)
        assert (2, None) not in rl._segments
        first_ksets(5, 2)
        with pytest.raises(ValueError, match="nonnegative, got -1$"):
            first_ksets(-1, 2)
        assert first_ksets(5, 2) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]

    def test_singletons(self):
        assert first_ksets(4, 1) == [(1,), (2,), (3,), (4,)]

    def test_matches_definitional_sort(self):
        # sort all 3-subsets of {1..7} with the definitional comparator only
        subsets = list(combinations(range(1, 8), 3))
        assert sort_revlex(subsets)[:20] == first_ksets(20, 3)

    def test_successor_never_repeats_or_skips(self):
        # the nested walk against one successor step at a time from (1, ..., k)
        for k in (*range(1, 9), 14, 20):
            chain = [tuple(range(1, k + 1))]
            for _ in range(1999):
                chain.append(next_kset(chain[-1]))
            assert first_ksets(2000, k) == chain

    def test_rank_consistency(self):
        # combinatorial number system: rank and unrank against the walk's positions
        for k in range(1, 6):
            for idx, face in enumerate(first_ksets(10_000, k)):
                assert kset_rank(face) == idx
        for k in range(1, 6):
            for idx, face in enumerate(first_ksets(1500, k)):
                assert kset_unrank(idx, k) == face


class TestPermissible:
    """The definition the segments are checked against: no two elements of
    a permissible set are congruent modulo r."""

    def test_difference_divisible(self):
        assert not pairwise_permissible((1, 4), 3)

    def test_spec_probe_value(self):
        # 6 - 2 = 4 is divisible by 4
        assert not pairwise_permissible((1, 2, 6), 4)

    def test_empty_face_vacuous(self):
        for r in range(1, 5):
            assert pairwise_permissible((), r)

    def test_too_big_never_permissible(self):
        assert not pairwise_permissible((1, 2, 3), 2)

    def test_agrees_with_pairwise_oracle(self):
        # rev-lex order puts every set within 1..8 before any set reaching 9
        for r in range(1, 6):
            for k in range(1, 5):
                within = [f for f in combinations(range(1, 9), k) if pairwise_permissible(f, r)]
                within.sort(key=revlex_key)
                assert first_permissible_ksets(len(within), k, r) == within


class TestFirstPermissible:
    def test_first_five_parity_mixed_pairs(self):
        assert first_permissible_ksets(5, 2, 2) == [(1, 2), (2, 3), (1, 4), (3, 4), (2, 5)]

    def test_leading_set_is_contiguous(self):
        for r in range(1, 6):
            for k in range(1, r + 1):
                assert first_permissible_ksets(1, k, r) == [tuple(range(1, k + 1))]

    def test_zero_count_fine_even_when_unsatisfiable(self):
        assert first_permissible_ksets(0, 5, 3) == []

    def test_unsatisfiable_rejected(self):
        with pytest.raises(ValueError):
            first_permissible_ksets(1, 5, 3)

    def test_negative_length_rejected_on_cold_and_warm_cache(self):
        import facevec.revlex as rl

        rl._segments.pop((2, 3), None)
        with pytest.raises(ValueError, match="nonnegative, got -2$"):
            first_permissible_ksets(-2, 2, 3)
        assert (2, 3) not in rl._segments
        first_permissible_ksets(5, 2, 3)
        with pytest.raises(ValueError, match="nonnegative, got -2$"):
            first_permissible_ksets(-2, 2, 3)
        with pytest.raises(ValueError, match="nonnegative, got -2$"):
            first_permissible_ksets(-2, 5, 3)

    def test_matches_filter_sort_oracle(self):
        for r in range(1, 6):
            for k in range(1, min(r, 4) + 1):
                assert first_permissible_ksets(60, k, r) == permissible_ksets(60, k, r)

    def test_prefix_property(self):
        full = first_permissible_ksets(100, 3, 4)
        for j in (0, 1, 17, 99):
            assert first_permissible_ksets(j, 3, 4) == full[:j]


class TestPermissibleWalk:
    def test_matches_rejection_with_growing_prefixes(self):
        import facevec.revlex as rl

        for r in range(1, 11):
            for k in range(1, r + 1):
                expected = rejection_permissible_ksets(3000, k, r)
                rl._segments.pop((k, r), None)
                assert first_permissible_ksets(7, k, r) == expected[:7]
                assert first_permissible_ksets(3000, k, r) == expected

    def test_every_branch_entered_yields(self, monkeypatch):
        # exact pruning: the walk opens one range per distinct proper suffix of
        # the sets it has yielded, so a loosened free-residue count shows here
        import facevec.revlex as rl

        opened = []
        monkeypatch.setattr(rl, "range", lambda *a: opened.append(a) or range(*a), raising=False)
        for r in (*range(1, 11), None):
            for k in range(1, (r or 6) + 1):
                rl._segments.pop((k, r), None)
                opened.clear()
                seg = rl._segment(3000, k, r)
                assert len(opened) == len({f[i:] for f in seg for i in range(1, k)})

    def test_agrees_with_the_plain_walk_where_the_filter_is_vacuous(self):
        # every k-subset of 1..r is r-permissible and precedes any set reaching r + 1
        for r in range(1, 11):
            for k in range(1, r + 1):
                m = comb(r, k)
                assert first_permissible_ksets(m, k, r) == first_ksets(m, k)

    def test_near_full_residue_use_costs_no_rejections(self):
        # k close to r rejects almost every k-set: by rejection these took 3.8 s
        # and 5.1 s on a 2-core x86 box under Python 3.11
        import facevec.revlex as rl

        for m, k, r in ((2000, 12, 12), (5000, 10, 10)):
            rl._segments.pop((k, r), None)
            with Stopwatch(1.0):
                seg = first_permissible_ksets(m, k, r)
            assert len(seg) == m and all(pairwise_permissible(f, r) for f in seg)
            assert all(a[::-1] < b[::-1] for a, b in zip(seg, seg[1:]))


class TestRankedWalk:
    """``_walk(k, r, skip)`` passes over its first ``skip`` sets a whole
    group at a time; the walk from the start is the oracle."""

    def test_ranked_walk_is_the_walks_slice(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        import facevec.revlex as rl

        below_r = set()

        @st.composite
        def cases(draw):
            k = draw(st.integers(1, 8))
            r = draw(st.sampled_from([None, k, k + 1, k + 3, 50, 10**12]))
            skip = draw(st.one_of(st.integers(0, 60), st.integers(0, 4000)))
            return k, r, skip, draw(st.integers(1, 40))

        @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @hyp.given(cases())
        def check(case):
            k, r, skip, n = case
            expected = list(islice(rl._walk(k, r), skip + n))[skip:]
            assert list(islice(rl._walk(k, r, skip), n)) == expected
            if r is None:
                assert expected[0] == kset_unrank(skip, k)
                assert all(next_kset(a) == b for a, b in zip(expected, expected[1:]))
            elif r < 50:
                # the sets whose tops are at most r are the ones where the
                # free-residue pruning runs
                below_r.add(skip < comb(r, k))

        check()
        assert below_r == {True, False}

    def test_far_ranks_are_cheap(self):
        # ranks past any prefix the tests build: plain, and on more colors
        # than any top, where every set is permissible
        import facevec.revlex as rl

        with Stopwatch(1.0):
            for k in (2, 5, 8):
                for skip in (10**5, 10**8):
                    expected = [kset_unrank(skip, k)]
                    while len(expected) < 20:
                        expected.append(next_kset(expected[-1]))
                    for r in (None, 10**12):
                        assert list(islice(rl._walk(k, r, skip), 20)) == expected

    def test_group_sizes_are_brute_counts(self):
        # the size of a group: the j-sets below top whose residues mod r are
        # distinct and avoid ``used``
        import random

        import facevec.revlex as rl

        rng = random.Random(24)
        for _ in range(600):
            r = rng.choice([None, *range(1, 13), 50, 10**12])
            top, j = rng.randint(1, 17), rng.randint(0, 5)
            residues = rng.sample(range(min(r or 40, 40)), rng.randint(0, min(r or 40, 40) // 2))
            used = 0 if r is None else sum(1 << v for v in residues)
            brute = sum(1 for f in combinations(range(1, top), j)
                        if r is None or (len({v % r for v in f}) == j
                                         and not any(used >> v % r & 1 for v in f)))
            assert rl._below(top, j, r, used) == brute, (top, j, r, used)

    def test_tails_walk_only_what_they_print(self, monkeypatch):
        # cold, each tail is walked from its rank: one set walked per facet
        import facevec.revlex as rl

        walked = _count_walks(monkeypatch)
        for spec, colors in ((LevelSpec.of((2, 40), (4, 300), (7, 90)), 9),
                             (LevelSpec.of((1, 30), (3, 2000), (5, 700)), None)):
            monkeypatch.setattr(rl, "_segments", {})
            walked.clear()
            _, facets = revlex_tails(spec, colors)
            assert sum(walked) == len(facets)


def _count_walks(monkeypatch) -> list[int]:
    """Wrap ``revlex._walk`` so each walk appends the count of sets it yields."""
    import facevec.revlex as rl

    walk, counts = rl._walk, []

    def counted(*args):
        i = len(counts)
        counts.append(0)
        for f in walk(*args):
            counts[i] += 1
            yield f

    monkeypatch.setattr(rl, "_walk", counted)
    return counts


class TestShadowContainment:
    def test_plain_shadow_is_initial_segment(self):
        # grow m one face at a time; the shadow must stay an initial segment
        for k in (2, 3, 4, 5):
            shadow = set()
            lower = first_ksets(3000, k - 1)
            for f in first_ksets(500, k):
                shadow.update(combinations(f, k - 1))
                assert shadow == set(lower[: len(shadow)])

    def test_colored_shadow_is_initial_permissible_segment(self):
        for r in (2, 3, 4, 5, 6):
            for k in range(2, min(r, 4) + 1):
                shadow = set()
                lower = first_permissible_ksets(2000, k - 1, r)
                for f in first_permissible_ksets(200, k, r):
                    shadow.update(combinations(f, k - 1))
                    assert shadow == set(lower[: len(shadow)])


class TestConcurrentEnumeration:
    @pytest.mark.parametrize("k, r", [(3, 4), (3, None)])
    def test_segments_stay_consistent_under_threads(self, k, r):
        import threading

        import facevec.revlex as rl

        rl._segments.pop((k, r), None)
        results = []

        def worker():
            results.append(rl._segment(400, k, r))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = rl._segment(400, k, r)
        assert all(seg == expected for seg in results)
        assert len(set(expected)) == 400


class TestLevelSpec:
    def test_parse(self):
        assert LevelSpec.parse("3:99,4:146").entries == ((3, 99), (4, 146))

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputFormatError):
            LevelSpec.parse("3-99")
        with pytest.raises(InputFormatError):
            LevelSpec.parse("")

    def test_sizes_must_increase(self):
        with pytest.raises(ValueError):
            LevelSpec.of((3, 5), (3, 6))
        with pytest.raises(ValueError):
            LevelSpec.of((4, 5), (2, 6))

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError, match=r"must be positive: \(\(0, 1\),\)$"):
            LevelSpec.of((0, 1))
        with pytest.raises(ValueError, match="must be positive"):
            LevelSpec.of((2, 1), (-1, 1))
        with pytest.raises(InputFormatError, match=r"must be positive: \(\(0, 1\),\)$"):
            LevelSpec.parse("0:1")


class TestRevlexComplex:
    def test_worked_two_level_example(self):
        cx = revlex_complex(LevelSpec.of((3, 99), (4, 146)))
        vec = face_vector(cx)
        assert vec[3] == 99 and vec[4] == 146

    def test_isolated_vertices(self):
        cx = revlex_complex(LevelSpec.of((1, 6)))
        assert face_vector(cx) == (1, 6)

    def test_three_pairs_closure(self):
        cx = revlex_complex(LevelSpec.of((2, 3)))
        assert brute_closure(cx.facets) == {
            (), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3),
        }
        assert face_vector(cx) == (1, 3, 3)

    def test_all_zero_levels_leave_just_the_empty_face(self):
        cx = revlex_complex(LevelSpec.of((2, 0)))
        assert face_vector(cx) == (1,)


class TestGeneratedFacesAreValid:
    """``complex_and_face_vector`` walks ``revlex_faces`` output without
    validating it; ``validate_face`` checks that output here instead."""

    @pytest.mark.parametrize("colors", [None, 1, 2, 3, 5])
    def test_every_face_passes_validate_face(self, colors):
        top = 6 if colors is None else colors
        specs = [LevelSpec.of((s, m)) for s in range(1, top + 1) for m in (0, 1, 7, 120)]
        specs += [LevelSpec.of(*((s, 40 * s) for s in range(1, top + 1))),
                  LevelSpec.of(*((s, 300) for s in range(max(top - 2, 1), top + 1)))]
        for spec in specs:
            faces = revlex_faces(spec, colors)
            for f in faces:
                assert validate_face(f) == f
            assert complex_and_face_vector(faces)[0] == Complex.from_faces(faces)


class TestColoredRevlexComplex:
    def test_five_pairs_two_colors(self):
        cc = colored_revlex_complex(LevelSpec.of((2, 5)), 2)
        assert face_vector(cc.complex) == (1, 5, 5)
        assert cc.complex.vertices == (1, 2, 3, 4, 5)

    def test_skeleton_splits_odd_even(self):
        cc = colored_revlex_complex(LevelSpec.of((2, 5)), 2)
        for u, v in edges(*one_skeleton(cc.complex)):
            assert u % 2 != v % 2

    def test_one_color_gives_isolated_vertices(self):
        cc = colored_revlex_complex(LevelSpec.of((1, 4)), 1)
        assert face_vector(cc.complex) == (1, 4)
        assert set(cc.coloring.values()) == {1}

    def test_twelve_triangles_three_colors(self):
        cc = colored_revlex_complex(LevelSpec.of((3, 12)), 3)
        # frozen closure counts; the 2-level count is Turán-extremal for 12
        assert face_vector(cc.complex) == (1, 7, 16, 12)

    def test_residue_coloring_convention(self):
        cc = colored_revlex_complex(LevelSpec.of((2, 5)), 2)
        assert cc.coloring == {1: 1, 2: 2, 3: 1, 4: 2, 5: 1}

    def test_unsatisfiable_level_rejected(self):
        with pytest.raises(ValueError):
            colored_revlex_complex(LevelSpec.of((3, 1)), 2)


class TestTwoLevelExactness:
    def test_plain_extremal_pairs_close_exactly(self):
        for k in (1, 2, 3):
            for m in (1, 2, 5, 17, 60):
                bound = kk_shadow_bound(m, k)
                vec = face_vector(revlex_complex(LevelSpec.of((k, m), (k + 1, bound))))
                assert vec[k] == m
                assert (vec[k + 1] if k + 1 < len(vec) else 0) == bound

    def test_colored_pairs_below_the_bound_close_exactly(self):
        for r in (2, 3, 5):
            for k in range(1, min(r, 3) + 1):
                for m in (1, 3, 9, 25, 60):
                    top = ffk_bound(m, k, r)
                    for m2 in sorted({0, 1, top // 2, top}):
                        if m2 > top:
                            continue
                        cc = colored_revlex_complex(LevelSpec.of((k, m), (k + 1, m2)), r)
                        vec = face_vector(cc.complex)
                        assert vec[k] == m
                        assert (vec[k + 1] if k + 1 < len(vec) else 0) == m2


def _outcome(build):
    """What a build gives: its face vector and facet set, or its error."""
    try:
        vec, facets = build()
    except (ValueError, GuardExceeded) as exc:
        return type(exc), str(exc)
    return vec, frozenset(facets)


def _walked(spec, colors):
    """The slow oracle: ``_close`` walks the generated faces to the empty face."""
    cx, vec = complex_and_face_vector(revlex_faces(spec, colors))
    return vec, cx.facets


def _tails(spec, colors):
    vec, facets = revlex_tails(spec, colors)
    assert len(set(facets)) == len(facets)
    assert facets == sorted(facets, key=lambda f: (len(f), revlex_key(f)))
    return vec, facets


class TestTailsAgainstTheWalk:
    """``revlex_tails`` reads the complex off its level counts; the walk of
    ``revlex_faces`` stays the oracle for its facets, vector and errors."""

    def test_random_specs(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @st.composite
        def specs(draw):
            colors = draw(st.one_of(st.none(), st.integers(1, 6)))
            # gapped sizes, one past a color budget now and then
            sizes = draw(st.lists(st.integers(1, 6 if colors is None else colors + 1),
                                  min_size=1, max_size=4, unique=True))
            # zero counts, and small counts under a larger level's shadow
            counts = draw(st.lists(st.one_of(st.just(0), st.integers(0, 6), st.integers(0, 90)),
                                   min_size=len(sizes), max_size=len(sizes)))
            return LevelSpec(tuple(zip(sorted(sizes), counts))), colors

        @hyp.settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @hyp.given(specs())
        def check(case):
            spec, colors = case
            assert _outcome(lambda: _tails(spec, colors)) == _outcome(lambda: _walked(spec, colors))

        check()

    def test_a_deep_simplex_is_one_facet(self):
        vec, facets = revlex_tails(LevelSpec.of((20, 1)))
        assert vec == tuple(comb(20, j) for j in range(21))
        assert facets == [tuple(range(1, 21))]

    def test_guard_trips_where_the_walk_does(self, monkeypatch):
        # Every cap up to past each closure's size, plain and colored, with
        # gaps, zero counts and a level beyond the color budget: the same
        # result or the same one-line error, checks in the same order.
        cases = [
            (LevelSpec.of((3, 10)), None),
            (LevelSpec.of((1, 5), (3, 10)), None),
            (LevelSpec.of((2, 0), (4, 7)), None),
            (LevelSpec.of((2, 5), (3, 7)), None),
            (LevelSpec.of((6, 1)), None),
            (LevelSpec.of((2, 5)), 2),
            (LevelSpec.of((1, 9), (3, 12)), 3),
            (LevelSpec.of((2, 30), (4, 20)), 5),
            (LevelSpec.of((1, 4), (3, 1)), 2),
            (LevelSpec.of((2, 3), (3, 0), (4, 2)), 3),
        ]
        seen = set()
        for spec, colors in cases:
            # every cap up to one past the closure, or past the requested
            # faces where the counts cannot be built
            built = _outcome(lambda: _walked(spec, colors))
            top = sum(built[0]) if isinstance(built[0], tuple) else sum(dict(spec.entries).values())
            for cap in range(1, top + 2):
                monkeypatch.setenv("FACEVEC_GUARD", str(cap))
                expected = _outcome(lambda: _walked(spec, colors))
                assert _outcome(lambda: _tails(spec, colors)) == expected, (spec, colors, cap)
                seen.add(expected[1].rstrip("0123456789") if isinstance(expected[1], str)
                         else "built")
            monkeypatch.delenv("FACEVEC_GUARD")
        assert seen == {"built", "requested levels exceed the face cap ",
                        "closure exceeds the face cap ",
                        "no 2-permissible 3-set exists; cannot produce ",
                        "no 3-permissible 4-set exists; cannot produce "}
