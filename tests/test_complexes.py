import random

import pytest

from facevec import (
    ColoredComplex,
    Complex,
    LevelSpec,
    check_coloring,
    clique_vector,
    face_vector,
    revlex_faces,
)
from facevec.complexes import vec_entry
from facevec.errors import GuardExceeded

from conftest import complete_graph
from oracles import (all_graphs, brute_chromatic, brute_closure, brute_face_vector, brute_is_flag,
                     chromatic_number, cliques, edges, graph_from_edges, is_balanced,
                     one_skeleton, residue_colored)


def clique_complex(g):
    return Complex.from_faces(cliques(g))


class TestComplexConstruction:
    def test_dominated_faces_dropped(self):
        cx = Complex.from_faces([(1, 2, 3), (1, 2), (3,), ()])
        assert cx.facets == frozenset({(1, 2, 3)})

    def test_unsorted_face_rejected(self):
        with pytest.raises(ValueError):
            Complex.from_faces([(2, 1)])
        with pytest.raises(ValueError):
            Complex.from_faces([(0, 1)])
        with pytest.raises(ValueError):
            Complex.from_faces([(1, 1)])

    def test_empty_and_point_complexes_are_distinct(self):
        empty = Complex.from_faces([])
        point = Complex.from_faces([()])
        assert empty != point
        assert face_vector(empty) == ()
        assert face_vector(point) == (1,)
        assert Complex.from_faces([(), ()]) == point

    def test_vertices_scanned_once_and_outside_equality(self):
        rng = random.Random(3)
        for _ in range(50):
            faces = [tuple(sorted(rng.sample(range(1, 15), rng.randrange(0, 5))))
                     for _ in range(rng.randrange(0, 8))]
            cx = Complex.from_faces(faces)
            assert cx.vertices == tuple(sorted({v for f in faces for v in f}))
            assert cx.vertices is cx.vertices
            # a twin whose vertices were never read is still equal, hash and all
            twin = Complex(frozenset(cx.facets))
            assert twin == cx and hash(twin) == hash(cx)
            assert twin.vertices == cx.vertices
        with pytest.raises(AttributeError):
            cx.facets = frozenset()

    def test_incomparable_facets_kept(self):
        cx = Complex.from_faces([(1, 2), (2, 3), (1, 3)])
        assert cx.facets == frozenset({(1, 2), (2, 3), (1, 3)})


class TestClosure:
    """The downward closure, as ``face_vector`` counts it and ``from_faces``
    reduces it to facets."""

    def test_triangle_power_set(self):
        assert sum(face_vector(Complex.from_faces([(1, 2, 3)]))) == 8

    def test_empty_complex(self):
        empty = Complex.from_faces([])
        assert empty.facets == frozenset() and face_vector(empty) == ()

    def test_pentagon_face_list(self, pentagon):
        assert sum(face_vector(pentagon)) == 11
        assert face_vector(pentagon) == brute_face_vector(brute_closure(pentagon.facets))

    def test_idempotent_and_monotone(self):
        base = [(1, 2, 3), (3, 4)]
        cx = Complex.from_faces(base)
        again = Complex.from_faces(brute_closure(cx.facets))
        assert again == cx
        bigger = Complex.from_faces(base + [(4, 5, 6)])
        assert all(a <= b for a, b in zip(face_vector(cx), face_vector(bigger)))

    def test_guard_trips(self, monkeypatch):
        cx = Complex.from_faces([tuple(range(1, 21))])
        monkeypatch.setenv("FACEVEC_GUARD", "100")
        with pytest.raises(GuardExceeded):
            face_vector(cx)


class TestFaceVector:
    def test_pentagon(self, pentagon):
        assert face_vector(pentagon) == (1, 5, 5)

    def test_single_simplex_is_binomial_column(self):
        for k in range(1, 7):
            cx = Complex.from_faces([tuple(range(1, k + 1))])
            from math import comb

            assert face_vector(cx) == tuple(comb(k, i) for i in range(k + 1))

    def test_sums_to_closure_size_and_counts_vertices(self):
        for g in all_graphs(4):
            cx = clique_complex(g)
            vec = face_vector(cx)
            faces = brute_closure(cx.facets)
            assert sum(vec) == len(faces)
            assert vec_entry(vec, 1) == len(cx.vertices)


class TestOneSkeleton:
    def test_pentagon_gives_back_cycle(self, pentagon, c5):
        skel, verts = one_skeleton(pentagon)
        assert skel.n == 5 and verts == (1, 2, 3, 4, 5)
        assert sorted(edges(skel)) == sorted(edges(c5))

    def test_triangle_facet_gives_k3(self):
        skel, _ = one_skeleton(Complex.from_faces([(1, 2, 3)]))
        assert sorted(edges(skel)) == [(1, 2), (1, 3), (2, 3)]

    def test_sparse_labels_are_preserved(self):
        skel, verts = one_skeleton(Complex.from_faces([(2, 7), (9,)]))
        assert skel.n == 3 and verts == (2, 7, 9)
        assert edges(skel) == [(1, 2)]
        assert edges(skel, verts) == [(2, 7)]


def is_flag(cx):
    """A complex is flag exactly when its face vector is the clique vector of
    its own 1-skeleton, since every face is a clique of the skeleton."""
    return not cx.facets or face_vector(cx) == clique_vector(one_skeleton(cx)[0])


class TestIsFlag:
    def test_pentagon_is_flag(self, pentagon):
        assert is_flag(pentagon) and brute_is_flag(pentagon.facets)

    def test_hollow_triangle_is_not(self):
        cx = Complex.from_faces([(1, 2), (2, 3), (1, 3)])
        assert not is_flag(cx) and not brute_is_flag(cx.facets)

    def test_single_simplex_is_flag(self):
        for k in range(0, 5):
            cx = Complex.from_faces([tuple(range(1, k + 1))])
            assert is_flag(cx) and brute_is_flag(cx.facets)

    def test_every_clique_complex_is_flag(self):
        for g in all_graphs(5):
            cx = clique_complex(g)
            assert is_flag(cx) and brute_is_flag(cx.facets)

    def test_matches_set_oracle_on_random_complexes(self):
        rng = random.Random(2024)
        flags = 0
        for trial in range(1500):
            n = rng.randint(1, 7)
            faces = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                     for _ in range(rng.randint(0, 6))]
            if trial % 3 == 0:  # a hollow simplex: every facet of the boundary of a k-set
                top = rng.sample(range(1, n + 1), rng.randint(1, n))
                faces += [tuple(sorted(set(top) - {v})) for v in top]
            cx = Complex.from_faces(faces)
            assert is_flag(cx) == brute_is_flag(cx.facets), faces
            flags += is_flag(cx)
        assert 0 < flags < 1500  # both verdicts occur


class TestChromaticNumber:
    def test_five_cycle_needs_three(self, c5):
        assert chromatic_number(c5) == 3

    def test_complete_graphs(self):
        for n in range(1, 8):
            assert chromatic_number(complete_graph(n)) == n

    def test_edgeless(self):
        assert chromatic_number(graph_from_edges(4, [])) == 1
        assert chromatic_number(graph_from_edges(0, [])) == 0

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            chromatic_number(graph_from_edges(21, []))

    def test_against_exhaustive_assignment_search(self):
        for g in all_graphs(5):
            assert chromatic_number(g) == brute_chromatic(g.n, edges(g))

    def test_known_structured_graphs(self):
        c7 = graph_from_edges(7, [(i, i % 7 + 1) for i in range(1, 8)])
        assert chromatic_number(c7) == 3
        k33 = graph_from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
        assert chromatic_number(k33) == 2
        even_wheel = graph_from_edges(
            7, [(i, i % 6 + 1) for i in range(1, 7)] + [(i, 7) for i in range(1, 7)]
        )
        assert chromatic_number(even_wheel) == 3
        odd_wheel = graph_from_edges(
            6, [(i, i % 5 + 1) for i in range(1, 6)] + [(i, 6) for i in range(1, 6)]
        )
        assert chromatic_number(odd_wheel) == 4


class TestIsBalanced:
    def test_pentagon_is_not(self, pentagon):
        assert not is_balanced(pentagon)

    def test_simplex_is(self):
        for k in range(1, 6):
            assert is_balanced(Complex.from_faces([tuple(range(1, k + 1))]))

    def test_degenerate_complexes_are(self):
        assert is_balanced(Complex.from_faces([]))
        assert is_balanced(Complex.from_faces([()]))

    def test_colored_revlex_output_is_balanced_at_full_dimension(self):
        assert is_balanced(Complex.from_faces(revlex_faces(LevelSpec.of((2, 5)), 2)))


class TestCheckColoring:
    def test_colored_revlex_outputs_pass(self):
        for r in (1, 2, 3, 4):
            for m in (0, 1, 5, 20):
                cx = Complex.from_faces(revlex_faces(LevelSpec.of((min(2, r), m)), r))
                assert check_coloring(residue_colored(cx, r))

    def test_monochromatic_edge_fails(self):
        cc = ColoredComplex(
            complex=Complex.from_faces([(1, 2)]), colors=2, coloring={1: 1, 2: 1}
        )
        assert not check_coloring(cc)

    def test_missing_vertex_fails(self):
        cc = ColoredComplex(complex=Complex.from_faces([(1, 2)]), colors=2, coloring={1: 1})
        assert not check_coloring(cc)

    def test_color_out_of_range_fails(self):
        cc = ColoredComplex(
            complex=Complex.from_faces([(1, 2)]), colors=2, coloring={1: 1, 2: 3}
        )
        assert not check_coloring(cc)


class TestBruteForceAgreement:
    def test_face_vector_matches_brute_force(self):
        samples = [
            [(1, 2, 3), (2, 3, 4), (4, 5)],
            [(i, i + 1) for i in range(1, 9)],
            [(1, 3, 5, 7)],
            [()],
        ]
        for facets in samples:
            cx = Complex.from_faces(facets)
            assert face_vector(cx) == brute_face_vector(brute_closure(cx.facets))


def _random_family(rng):
    """Faces on at most 9 vertices at a few random sizes, often with gaps
    between them, plus repeats and subsets of faces already drawn."""
    vertices = range(1, rng.randint(1, 9) + 1)
    sizes = rng.sample(range(len(vertices) + 1), rng.randint(1, min(3, len(vertices) + 1)))
    faces = [tuple(sorted(rng.sample(vertices, rng.choice(sizes)))) for _ in range(rng.randint(1, 8))]
    for f in list(faces):
        if rng.random() < 0.3:
            faces.append(f)
        if f and rng.random() < 0.3:
            faces.append(tuple(sorted(rng.sample(f, rng.randrange(len(f))))))
    rng.shuffle(faces)
    return faces


class TestBoundaryWalkAgainstOracle:
    def test_seeded_families(self):
        import random

        rng = random.Random(20061018)
        for _ in range(400):
            faces = _random_family(rng)
            expected = brute_closure(faces)
            cx = Complex.from_faces(faces)
            assert cx.facets == {f for f in expected if not any(set(f) < set(g) for g in faces)}
            assert face_vector(cx) == brute_face_vector(expected)

    def test_gaps_duplicates_and_dominated_inputs(self):
        faces = [(1, 2, 3, 4, 5), (2, 4), (2, 4), (6,), (1, 3, 5), (), (6,)]
        cx = Complex.from_faces(faces)
        assert cx.facets == {(1, 2, 3, 4, 5), (6,)}
        assert face_vector(cx) == brute_face_vector(brute_closure(faces)) == (1, 6, 10, 10, 5, 1)

    def test_guard_counts_every_level_walked(self, pentagon, monkeypatch):
        monkeypatch.setenv("FACEVEC_GUARD", "11")
        assert sum(face_vector(pentagon)) == 11
        monkeypatch.setenv("FACEVEC_GUARD", "10")
        with pytest.raises(GuardExceeded):
            face_vector(pentagon)

    def test_oversized_facet_is_refused_before_any_level_is_made(self, monkeypatch):
        import tracemalloc

        cx = Complex.from_faces([tuple(range(1, 41))])
        monkeypatch.setenv("FACEVEC_GUARD", str(10**5))
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceeded):
                face_vector(cx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_from_faces_trips_the_guard(self, monkeypatch):
        monkeypatch.setenv("FACEVEC_GUARD", "10")
        # a lone simplex is free to build: only its own size is walked
        assert Complex.from_faces([tuple(range(1, 21))]).dimension == 19
        with pytest.raises(GuardExceeded):
            Complex.from_faces([tuple(range(1, 21)), (1,)])
        with pytest.raises(GuardExceeded):
            Complex.from_faces([(i,) for i in range(1, 12)])
