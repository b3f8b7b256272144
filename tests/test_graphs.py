import random
from math import comb

import pytest

from facevec import (
    Complex,
    Graph,
    clique_vector,
    face_vector,
    graph6_encode,
    parse_graph,
    turan_binom,
)
from facevec.complexes import vec_entry
from facevec.errors import GuardExceeded, InputFormatError
from facevec.graphs import _clique_counts
from facevec.limits import DEFAULT_FACE_GUARD as CAP

from conftest import complete_graph
from oracles import (all_graphs, brute_cliques_by_size, cliques, cliques_through_each_vertex,
                     decode_edge_mask, decode_graph6, edge_mask_pairs, edges, graph_from_edges,
                     one_skeleton, turan_graph)


class TestParseEdgeList:
    def test_five_cycle(self, c5):
        g = parse_graph("5 5\n1 2\n2 3\n3 4\n4 5\n1 5")
        assert g == c5

    def test_isolated_vertices(self):
        g = parse_graph("2 0\n")
        assert g.n == 2 and edges(g) == []

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# a graph\n\n3 1\n# the edge\n1 2\n")
        assert edges(g) == [(1, 2)]

    def test_malformed_header(self):
        with pytest.raises(InputFormatError):
            parse_graph("5\n")
        with pytest.raises(InputFormatError):
            parse_graph("a b\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(InputFormatError):
            parse_graph("3 1\n1 4\n")

    def test_self_loop_rejected(self):
        with pytest.raises(InputFormatError):
            parse_graph("3 1\n2 2\n")

    def test_duplicate_edge_warns_and_dedupes(self):
        with pytest.warns(UserWarning, match=r"^1 duplicate edge\(s\) ignored, the first is \(1, 2\)$"):
            g = parse_graph("3 2\n1 2\n2 1\n")
        assert edges(g) == [(1, 2)]

    def test_duplicate_edges_warn_once_per_input(self):
        with pytest.warns(UserWarning) as caught:
            g = parse_graph("4 5\n3 4\n1 2\n4 3\n2 1\n4 3\n")
        assert [str(w.message) for w in caught] == [
            "3 duplicate edge(s) ignored, the first is (3, 4)"]
        assert edges(g) == [(1, 2), (3, 4)]

    def test_edge_count_mismatch(self):
        with pytest.raises(InputFormatError):
            parse_graph("3 2\n1 2\n")


class TestParseEmptyInput:
    @pytest.mark.parametrize("fmt, message", [(None, "empty graph input"),
                                              ("edges", "empty edge-list input"),
                                              ("graph6", "empty graph6 input")])
    def test_empty_input_names_the_format(self, fmt, message):
        for text in ("", "\n  \n", "# only a comment\n\n# and another"):
            with pytest.raises(InputFormatError, match=f"^{message}$"):
                parse_graph(text, fmt=fmt)

    def test_unknown_format_is_refused_before_the_content(self):
        for text in ("", "3 1\n1 2\n", "D?{"):
            with pytest.raises(InputFormatError, match=r"^unknown graph format 'bogus'$"):
                parse_graph(text, fmt="bogus")


class TestParseGraph6:
    def test_spec_probe_line(self):
        # decoded independently: a 4-star centered at vertex 5
        g = parse_graph("D?{")
        assert g.n == 5
        assert sorted(edges(g)) == [(1, 5), (2, 5), (3, 5), (4, 5)]

    def test_header_accepted(self):
        assert parse_graph(">>graph6<<D?{") == parse_graph("D?{")

    def test_autodetect_vs_explicit(self):
        assert parse_graph("D?{", fmt="graph6") == parse_graph("D?{")

    def test_bad_byte_rejected(self):
        with pytest.raises(InputFormatError):
            parse_graph("D?\x20", fmt="graph6")

    def test_truncated_body_rejected(self):
        with pytest.raises(InputFormatError):
            parse_graph("D?", fmt="graph6")

    def test_roundtrip_against_independent_decoder(self):
        rng = random.Random(7)
        for n in range(0, 12):
            for _ in range(20):
                mask = rng.randrange(1 << comb(n, 2))
                g = Graph.from_edge_mask(n, mask)
                line = graph6_encode(g)
                n2, pairs = decode_graph6(line)
                assert n2 == n
                assert sorted(pairs) == sorted(edges(g))
                assert parse_graph(line) == g


    def test_differential_against_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(20261018)
        # every n up to the cap; n >= 63 takes graph6's 4-byte size form
        for n in range(0, 65):
            p = rng.random()
            pairs = [e for e in edge_mask_pairs(n) if rng.random() < p]
            g = graph_from_edges(n, pairs)
            ref = nx.Graph()
            ref.add_nodes_from(range(n))
            ref.add_edges_from((u - 1, v - 1) for u, v in pairs)
            line = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert graph6_encode(g) == line
            assert parse_graph(line) == g
            back = nx.from_graph6_bytes(graph6_encode(g).encode())
            assert back.number_of_nodes() == n
            assert sorted(tuple(sorted((u + 1, v + 1))) for u, v in back.edges()) == pairs


class TestEdgeMaskCodec:
    def test_against_explicit_pair_list(self):
        rng = random.Random(20261018)
        for n in range(0, 12):
            pairs = edge_mask_pairs(n)
            for t, pair in enumerate(pairs):
                assert edges(Graph.from_edge_mask(n, 1 << t)) == [pair]
            for _ in range(30):
                mask = rng.randrange(1 << len(pairs))
                expected = decode_edge_mask(n, mask)
                g = Graph.from_edge_mask(n, mask)
                assert edges(g) == expected
                assert graph_from_edges(n, expected) == g
                # bits beyond the C(n, 2) pairs name no edge
                high = rng.randrange(1, 256) << len(pairs)
                assert Graph.from_edge_mask(n, mask | high) == g


class TestCliqueVector:
    def test_pentagon(self, c5):
        assert clique_vector(c5) == (1, 5, 5)

    def test_complete_four(self):
        assert clique_vector(complete_graph(4)) == (1, 4, 6, 4, 1)

    def test_turan_seven_three(self):
        assert vec_entry(clique_vector(turan_graph(7, 3)), 3) == 12

    def test_empty_graph(self):
        assert clique_vector(graph_from_edges(0, [])) == (1,)

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("FACEVEC_GUARD", "50")
        with pytest.raises(GuardExceeded):
            clique_vector(complete_graph(10))

    def test_vertices_and_edges_entries(self):
        for g in all_graphs(5):
            vec = clique_vector(g)
            assert vec_entry(vec, 1) == g.n
            assert vec_entry(vec, 2) == len(edges(g))

    def test_against_subset_brute_force(self):
        for g in all_graphs(4):
            assert clique_vector(g) == brute_cliques_by_size(g.n, edges(g))

    def test_agrees_with_clique_complex_face_vector(self):
        for n in (0, 1, 2, 3, 4, 5):
            for g in all_graphs(n):
                cx = Complex.from_faces(cliques(g))
                expected = face_vector(cx) if g.n else (1,)
                assert clique_vector(g) == expected

    def test_agrees_with_clique_complex_face_vector_sampled_n6(self):
        rng = random.Random(99)
        for _ in range(600):
            g = Graph.from_edge_mask(6, rng.randrange(1 << 15))
            assert clique_vector(g) == face_vector(Complex.from_faces(cliques(g)))


class TestCliqueNumber:
    def test_triangle_free_with_edges(self, c5):
        assert len(clique_vector(c5)) - 1 == 2

    def test_complete(self):
        for n in range(0, 7):
            assert len(clique_vector(complete_graph(n))) - 1 == n

    def test_turan_hits_part_count(self):
        for n in range(1, 10):
            for r in range(1, n + 1):
                assert len(clique_vector(turan_graph(n, r))) - 1 == min(n, r)


def _all_sizes(adj, within, cap):
    """``_clique_counts`` at full depth: every clique size the mask allows."""
    return _clique_counts(adj, within, cap, within.bit_count())


class TestGraphLink:
    """A link is a neighbor mask cut to the current vertex mask, counted in place."""

    def test_complete_graph_drops_one(self):
        g = complete_graph(5)
        assert g.adj[2] == 0b11011
        assert _all_sizes(g.adj, g.adj[2], CAP) == [1, 4, 6, 4, 1]

    def test_isolated_vertex(self):
        g = graph_from_edges(3, [(1, 2)])
        assert g.adj[2] == 0
        assert _all_sizes(g.adj, g.adj[2], CAP) == [1]

    def test_five_cycle_neighbors_not_adjacent(self, c5):
        for i in range(5):
            assert c5.adj[i].bit_count() == 2
            assert _all_sizes(c5.adj, c5.adj[i], CAP) == [1, 2]

    def test_link_bijection_with_cliques_through_vertex(self):
        for g in all_graphs(5):
            all_cliques = list(cliques(g))
            for v in range(1, g.n + 1):
                lk_vec = _all_sizes(g.adj, g.adj[v - 1], CAP)
                for k in range(0, 6):
                    through = sum(1 for c in all_cliques if len(c) == k + 1 and v in c)
                    assert vec_entry(lk_vec, k) == through


class TestRemoveVertices:
    """Removing vertices clears their bits from the vertex mask."""

    def test_remove_all(self, c5):
        assert _all_sizes(c5.adj, 0, CAP) == [1]

    def test_remove_none(self, c5):
        assert tuple(_all_sizes(c5.adj, 0b11111, CAP)) == clique_vector(c5)

    def test_k4_minus_vertex(self):
        g = complete_graph(4)
        assert _all_sizes(g.adj, 0b1111 & ~(1 << 1), CAP) == [1, 3, 3, 1]

    def test_chained_removal_reaches_link(self, c5):
        stripped = 0b11111
        for v in (1, 3, 4):
            stripped &= ~(1 << (v - 1))
        assert stripped == c5.adj[0]  # vertices 2 and 5, the neighbors of 1
        assert _all_sizes(c5.adj, stripped, CAP) == [1, 2]


class TestCliqueDifferential:
    def test_against_networkx_on_full_and_sub_masks(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(4242)
        for n in range(0, 21):
            for _ in range(3):
                p = rng.random()
                g = graph_from_edges(n, [e for e in edge_mask_pairs(n) if rng.random() < p])
                full = (1 << n) - 1
                for within in [full] + [rng.randrange(1 << n) for _ in range(4)]:
                    ref = nx.Graph()
                    ref.add_nodes_from(i for i in range(n) if within >> i & 1)
                    ref.add_edges_from((u - 1, w - 1) for u, w in edges(g)
                                       if within >> (u - 1) & within >> (w - 1) & 1)
                    expected = [1]
                    for clique in nx.enumerate_all_cliques(ref):
                        if len(clique) == len(expected):
                            expected.append(0)
                        expected[len(clique)] += 1
                    assert _all_sizes(g.adj, within, CAP) == expected
                    if within == full:
                        assert clique_vector(g) == tuple(expected)
                    for depth in range(len(expected) + 2):
                        assert _clique_counts(g.adj, within, CAP, depth) == \
                            _truncated(expected, depth)


def _networkx_counts(g):
    """Clique counts by size from networkx's enumeration, c_0 = 1."""
    nx = pytest.importorskip("networkx")
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from((i, j) for i in range(g.n) for j in range(i + 1, g.n) if g.adj[i] >> j & 1)
    counts = [1]
    for clique in nx.enumerate_all_cliques(ref):
        if len(clique) == len(counts):
            counts.append(0)
        counts[len(clique)] += 1
    return tuple(counts)


def _enumerated(g):
    """The whole clique vector by enumeration, ``_clique_counts`` at full depth."""
    return tuple(_all_sizes(g.adj, (1 << g.n) - 1, CAP))


def _density_graph(n, p, seed):
    """A graph on n vertices keeping each pair with probability p."""
    rng = random.Random(seed)
    return graph_from_edges(n, [e for e in edge_mask_pairs(n) if rng.random() < p])


class TestPivotCounts:
    """``clique_vector`` pivots; enumeration and networkx are its references."""

    def test_hypothesis_density_graphs(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies

        @hyp.settings(max_examples=150, deadline=None, derandomize=True)
        @hyp.given(st.integers(0, 40), st.sampled_from([0, 0.25, 0.5, 0.75, 1]),
                   st.integers(0, 2**32))
        def check(n, p, seed):
            g = _density_graph(n, p, seed)
            if p == 1:  # 2^n cliques, beyond enumeration: K_n's are binomials
                expected = tuple(comb(n, i) for i in range(n + 1))
            else:
                expected = _enumerated(g)
            if sum(expected) > CAP:
                with pytest.raises(GuardExceeded):
                    clique_vector(g)
            else:
                assert clique_vector(g) == expected

        check()

    def test_no_vertices_and_no_edges(self):
        assert clique_vector(Graph(n=0, adj=())) == (1,)
        assert clique_vector(graph_from_edges(9, [])) == (1, 9)

    def test_complete_twenty(self):
        assert clique_vector(complete_graph(20)) == tuple(comb(20, i) for i in range(21))

    def test_library_graph_beyond_sixty_four_vertices(self):
        g = _density_graph(90, 0.5, 65)
        expected = _enumerated(g)
        assert clique_vector(g) == expected == _networkx_counts(g)
        assert sum(expected) > 1 << 16  # deep enough that pivots stack up

    def test_labelled_one_skeleton(self):
        rng = random.Random(7)
        faces = [tuple(sorted(rng.sample(range(100, 400, 3), rng.randrange(1, 7))))
                 for _ in range(40)]
        g, _ = one_skeleton(Complex.from_faces(faces))
        assert g.n > 64
        assert clique_vector(g) == _enumerated(g) == _networkx_counts(g)

    def test_against_networkx_on_density_graphs(self):
        for n, p, seed in [(30, 0.5, 1), (25, 0.75, 2), (40, 0.25, 3)]:
            g = _density_graph(n, p, seed)
            assert clique_vector(g) == _networkx_counts(g)


def _truncated(counts, depth):
    """The full counts cut to sizes 0..depth, trailing zeros dropped."""
    cut = list(counts[:depth + 1])
    while cut and cut[-1] == 0:
        cut.pop()
    return cut


class TestDepthBoundedCounts:
    """A depth-bounded count is the full count, truncated."""

    def test_random_graphs_every_depth(self):
        rng = random.Random(31)
        for n in range(0, 23):
            for p in (0.2, 0.5, 0.8):
                g = graph_from_edges(n, [e for e in edge_mask_pairs(n) if rng.random() < p])
                for within in ((1 << n) - 1, rng.randrange(1 << n) if n else 0):
                    full = _all_sizes(g.adj, within, CAP)
                    for depth in range(n + 2):
                        assert _clique_counts(g.adj, within, CAP, depth) == _truncated(full, depth)

    def test_guard_counts_only_the_bounded_sizes(self):
        g = complete_graph(6)  # 1, 6, 15, 20, 15, 6, 1: 64 cliques in all
        assert _clique_counts(g.adj, 0b111111, 22, 2) == [1, 6, 15]
        with pytest.raises(GuardExceeded):
            _clique_counts(g.adj, 0b111111, 21, 2)
        with pytest.raises(GuardExceeded):
            _all_sizes(g.adj, 0b111111, 63)


def _credited(adj, within, depth):
    """The counts and credits of one credited pass."""
    credit = [0] * len(adj)
    return _clique_counts(adj, within, CAP, depth, credit), credit


class TestCreditedCounts:
    """One credited pass gives each vertex its count of depth-cliques, as one
    recount of each vertex's link does, and leaves the counts as they were."""

    def test_random_graphs_and_masks_every_depth(self):
        rng = random.Random(2024)
        for n in range(0, 19):
            for p in (0.3, 0.6, 0.9):
                g = graph_from_edges(n, [e for e in edge_mask_pairs(n) if rng.random() < p])
                for within in ((1 << n) - 1, rng.randrange(1 << n) if n else 0):
                    for depth in range(2, n + 2):
                        counts, credit = _credited(g.adj, within, depth)
                        assert counts == _clique_counts(g.adj, within, CAP, depth)
                        assert credit == cliques_through_each_vertex(g.adj, within, depth)
                        assert sum(credit) == depth * vec_entry(counts, depth)

    def test_matches_the_per_vertex_link_recount(self):
        # the recount the pair construction made before: one count per vertex
        # of its link within the mask, one level down
        rng = random.Random(8)
        for n in (6, 10, 14):
            g = Graph.from_edge_mask(n, rng.randrange(1 << comb(n, 2)))
            within = rng.randrange(1 << n)
            for depth in range(2, n + 2):
                _, credit = _credited(g.adj, within, depth)
                recount = [vec_entry(_clique_counts(g.adj, g.adj[i] & within, CAP, depth - 1),
                                     depth - 1) if within >> i & 1 else 0 for i in range(n)]
                assert credit == recount

    def test_hypothesis_graphs_and_masks(self):
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        cases = st.integers(0, 13).flatmap(lambda n: st.tuples(
            st.just(n), st.integers(0, (1 << comb(n, 2)) - 1),
            st.integers(0, (1 << n) - 1), st.integers(2, n + 2)))

        @hyp.settings(max_examples=300, deadline=None, derandomize=True)
        @hyp.given(cases)
        def check(case):
            n, mask, within, depth = case
            g = Graph.from_edge_mask(n, mask)
            counts, credit = _credited(g.adj, within, depth)
            assert counts == _clique_counts(g.adj, within, CAP, depth)
            assert credit == cliques_through_each_vertex(g.adj, within, depth)

        check()

    def test_credits_add_to_the_list_given(self):
        g = complete_graph(4)
        credit = [5, 0, 0, 0]
        assert _clique_counts(g.adj, 0b1111, CAP, 3, credit) == [1, 4, 6, 4]
        assert credit == [8, 3, 3, 3]


class TestAllGraphs:
    def test_counts(self):
        assert sum(1 for _ in all_graphs(3)) == 8
        assert sum(1 for _ in all_graphs(1)) == 1

    def test_n4_total_and_edge_split(self):
        graphs4 = list(all_graphs(4))
        assert len(graphs4) == 64
        edgeless = sum(1 for g in graphs4 if len(edges(g)) == 0)
        with_edges = sum(1 for g in graphs4 if len(edges(g)) > 0)
        assert edgeless == 1
        assert with_edges == 63

    def test_cap(self):
        with pytest.raises(ValueError):
            next(all_graphs(8))

    def test_mask_roundtrip(self):
        for mask, g in enumerate(all_graphs(4)):
            assert edges(g) == decode_edge_mask(4, mask)


class TestZykovTypeBound:
    def test_counts_capped_by_turan_binom_at_clique_number(self):
        for n in range(0, 6):
            for g in all_graphs(n):
                vec = clique_vector(g)
                r = len(vec) - 1
                if r == 0:
                    continue
                for i in range(1, len(vec)):
                    assert vec[i] <= turan_binom(n, i, r)

    def test_random_seven_vertex_samples(self):
        rng = random.Random(20260808)
        for _ in range(4000):
            g = Graph.from_edge_mask(7, rng.randrange(1 << 21))
            vec = clique_vector(g)
            r = len(vec) - 1
            for i in range(1, len(vec)):
                assert vec[i] <= turan_binom(7, i, r)


class TestTuranExtremality:
    def test_max_triangle_free_edges(self):
        # among triangle-free graphs, the balanced bipartite graph has the
        # most edges
        for n in range(2, 7):
            best = max(
                len(edges(g)) for g in all_graphs(n) if vec_entry(clique_vector(g), 3) == 0
            )
            assert best == vec_entry(clique_vector(turan_graph(n, 2)), 2)
