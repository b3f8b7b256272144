import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest

from facevec import (
    Complex,
    Graph,
    check_coloring,
    clique_vector,
    construct_balanced,
    construct_from_vector,
    construct_pair,
    face_vector,
)
import facevec
from facevec import complexes as complexes_mod
from facevec import construct as construct_mod
from facevec import revlex as revlex_mod
from facevec.cli import run
from facevec.combinat import ffk_bound, ffk_canonical
from facevec.complexes import validate_face, vec_entry
from facevec.errors import GuardExceeded
from facevec.graphs import _clique_counts, graph6_encode
from facevec.limits import DEFAULT_FACE_GUARD as CAP
from facevec.limits import face_guard
from facevec.revlex import first_permissible_ksets
from facevec.verify import random_graph

from conftest import complete_graph
from test_revlex import _count_walks
from oracles import (all_graphs, brute_cliques_by_size, brute_closure, brute_face_vector,
                     chromatic_number, edges, graph_from_edges, induced_relabelled, is_balanced,
                     neighbors, one_skeleton, residue_colored, walked_pair)


def assert_pair_contract(g, r, k):
    """Output matches the graph's counts at k and k+1 and is properly colored."""
    cc, trace = construct_pair(g, r, k)
    cv = clique_vector(g)
    out = face_vector(cc.complex)
    assert vec_entry(out, k) == vec_entry(cv, k)
    assert vec_entry(out, k + 1) == vec_entry(cv, k + 1)
    assert check_coloring(cc)
    assert cc.colors <= r or not cc.complex.vertices
    return cc, trace


class TestConstructPairExamples:
    def test_triangle(self):
        g = complete_graph(3)
        cc, _ = construct_pair(g, 3, 1)
        vec = face_vector(cc.complex)
        assert vec_entry(vec, 1) == 3 and vec_entry(vec, 2) == 3

    def test_five_cycle(self, c5):
        cc, _ = construct_pair(c5, 2, 1)
        vec = face_vector(cc.complex)
        assert vec_entry(vec, 1) == 5 and vec_entry(vec, 2) == 5
        assert check_coloring(cc)
        assert chromatic_number(one_skeleton(cc.complex)) == 2

    def test_edgeless_matches_vertices_at_level_one(self):
        g = graph_from_edges(6, [])
        cc, trace = construct_pair(g, 3, 1)
        assert face_vector(cc.complex) == (1, 6)
        assert trace.kind == "flat"

    def test_edgeless_higher_levels_are_empty(self):
        g = graph_from_edges(6, [])
        for k in (2, 3):
            cc, _ = construct_pair(g, 3, k)
            vec = face_vector(cc.complex)
            assert vec_entry(vec, k) == 0 and vec_entry(vec, k + 1) == 0

    def test_k_zero_gives_isolated_vertices(self, c5):
        cc, trace = construct_pair(c5, 2, 0)
        assert trace.kind == "vertices"
        assert face_vector(cc.complex) == (1, 5)

    def test_precondition_rejected(self):
        with pytest.raises(ValueError):
            construct_pair(complete_graph(4), 3, 1)

    def test_empty_graph(self):
        g = graph_from_edges(0, [])
        cc, _ = construct_pair(g, 1, 0)
        assert face_vector(cc.complex) == (1,)


class TestConstructPairTrace:
    def test_five_cycle_trace_shape(self, c5):
        _, trace = construct_pair(c5, 2, 1)
        assert trace.kind == "cone"
        assert trace.pivot == 1
        assert trace.non_neighbors == (3, 4)
        assert [(s.vertex, s.a, s.b) for s in trace.steps] == [(1, 2, 1), (3, 2, 1), (4, 1, 1)]
        assert trace.sub is not None and trace.sub.kind == "flat"

    def test_steps_recomputable_from_the_graph(self, c5, petersen):
        def audit(trace, within, pairs, k):
            if trace.kind != "cone":
                return
            current = set(within)
            for step in trace.steps:
                link = induced_relabelled(neighbors(step.vertex, pairs) & current, pairs)
                lv = brute_cliques_by_size(*link)
                assert step.a == vec_entry(lv, k)
                assert step.b == vec_entry(lv, k - 1)
                current.discard(step.vertex)
            # what survives the peeling is exactly the pivot's neighborhood
            assert current == neighbors(trace.pivot, pairs) & set(within)
            audit(trace.sub, current, pairs, k)

        for g, r, k in [(c5, 2, 1), (petersen, 2, 1), (complete_graph(5), 5, 2),
                        (complete_graph(6), 6, 3), (Graph.from_edge_mask(7, 0x1F3B6F), 5, 2)]:
            _, trace = construct_pair(g, r, k)
            audit(trace, range(1, g.n + 1), edges(g), k)

    def test_labelled_graph_names_its_labels(self):
        cx = Complex.from_faces([(2, 5, 9), (5, 9, 14), (9, 14, 20), (2, 20), (5, 31),
                                 (14, 31), (20, 31, 44), (3, 44)])
        g = one_skeleton(cx)
        assert g.labels == (2, 3, 5, 9, 14, 20, 31, 44)
        plain = Graph(n=g.n, adj=g.adj)
        name = dict(enumerate(g.labels, start=1))

        def relabel(trace):
            if trace is None:
                return None
            return replace(
                trace,
                pivot=None if trace.pivot is None else name[trace.pivot],
                non_neighbors=tuple(name[v] for v in trace.non_neighbors),
                steps=tuple(replace(s, vertex=name[s.vertex]) for s in trace.steps),
                sub=relabel(trace.sub),
            )

        r = len(clique_vector(g)) - 1
        cones = 0
        for k in range(0, r + 2):
            cc, trace = construct_pair(g, r, k)
            cc_plain, trace_plain = construct_pair(plain, r, k)
            assert trace == relabel(trace_plain)
            assert cc == cc_plain
            if trace.kind == "cone":
                cones += 1
                assert trace.pivot in g.labels
                assert trace.non_neighbors and set(trace.non_neighbors) <= set(g.labels)
                assert {s.vertex for s in trace.steps} <= set(g.labels)
        assert cones == 2

    def test_no_walk_per_call(self, monkeypatch, tmp_path):
        # The pair complex is read off its level counts, and the audited
        # levels pad with counts they already hold: no closure walk at all,
        # in the function or in the command.
        walks = []
        close_fn = complexes_mod._close

        def closing(faces, floor, cap):
            walks.append(floor)
            return close_fn(faces, floor, cap)

        monkeypatch.setattr(complexes_mod, "_close", closing)
        cc, trace = construct_pair(complete_graph(5), 5, 2)
        assert trace.sub.kind == "cone" and trace.sub.sub.kind == "cone"
        path = tmp_path / "k5.edges"
        path.write_text("5 10\n" + "".join(f"{u} {v}\n" for u in range(1, 6)
                                          for v in range(u + 1, 6)))
        assert run(["construct-pair", str(path), "--k", "2", "--trace"], io.StringIO()) == 0
        assert walks == []
        face_vector(cc.complex)  # the recount is a walk, and is seen
        assert walks == [0]

    def test_generated_faces_are_valid(self):
        # construct_pair builds its complex from derived facets, unvalidated;
        # validate_face is the check.
        rng = random.Random(11)
        graphs = [complete_graph(5), graph_from_edges(6, [(1, 2), (3, 4), (5, 6)])]
        graphs += [Graph.from_edge_mask(n, rng.randrange(1 << comb(n, 2)))
                   for n in (6, 8, 10) for _ in range(6)]
        facets = []
        for g in graphs:
            cv = clique_vector(g)
            w = max(len(cv) - 1, 1)
            for r in (w, w + 1):
                for k in range(w + 1):
                    cc, _, _, printed = construct_mod._construct_pair(g, r, k, cv)
                    assert len(printed) == len(cc.complex.facets)
                    assert set(printed) == cc.complex.facets
                    facets += printed
        assert len(facets) > 1000
        for f in facets:
            assert validate_face(f) == f

    def test_feasibility_inequalities(self, c5):
        for g, r in [(c5, 2), (complete_graph(4), 4), (graph_from_edges(6, [(1, 2), (3, 4), (5, 6)]), 2)]:
            cv = clique_vector(g)
            for k in range(1, len(cv)):
                _, trace = construct_pair(g, r, k)
                if trace.kind != "cone":
                    continue
                base = dict(trace.base_levels)
                for step in trace.steps:
                    assert step.a <= base[k]
                    assert step.b <= vec_entry(cv, k - 1)

    def test_added_vertices_pairwise_non_adjacent(self, c5):
        cc, trace = construct_pair(c5, 2, 1)
        added = {s.added_vertex for s in trace.steps}
        skel = one_skeleton(cc.complex)
        for u, v in edges(skel):
            assert not (u in added and v in added)

    def test_added_vertices_all_wear_the_last_color(self, c5):
        cc, trace = construct_pair(c5, 2, 1)
        for s in trace.steps:
            assert cc.coloring[s.added_vertex] == cc.colors


class TestConstructPairSweeps:
    def test_exhaustive_small(self):
        for n in range(0, 5):
            for g in all_graphs(n):
                r = max(len(clique_vector(g)) - 1, 1)
                for k in range(0, r + 2):
                    assert_pair_contract(g, r, k)

    def test_budget_above_clique_number_also_works(self):
        for g in all_graphs(4):
            r = len(clique_vector(g))
            for k in range(0, r + 1):
                assert_pair_contract(g, r, k)

    def test_random_medium_graphs(self):
        rng = random.Random(5150)
        for n, trials in [(5, 120), (6, 60), (7, 30)]:
            for _ in range(trials):
                g = Graph.from_edge_mask(n, rng.randrange(1 << comb(n, 2)))
                r = max(len(clique_vector(g)) - 1, 1)
                for k in range(0, r + 1):
                    assert_pair_contract(g, r, k)

    def test_derived_face_vector_is_the_brute_count(self):
        # the construct-pair command passes its own count and prints the
        # vector derived from the level counts
        rng = random.Random(12)
        for n in (5, 7, 9):
            for _ in range(5):
                g = Graph.from_edge_mask(n, rng.randrange(1 << comb(n, 2)))
                cv = clique_vector(g)
                r = max(len(cv) - 1, 1)
                for k in range(0, r + 1):
                    cc, trace = construct_pair(g, r, k)
                    got_cc, got_trace, vec, _ = construct_mod._construct_pair(g, r, k, cv)
                    assert (got_cc, got_trace) == (cc, trace)
                    assert vec == brute_face_vector(brute_closure(cc.complex.facets))


def _pair_outcome(g, r, k):
    """What one construct_pair call gives: its trace, facets and coloring, or
    the message of the guard it trips."""
    try:
        cc, trace = construct_pair(g, r, k)
    except GuardExceeded as exc:
        return f"GuardExceeded: {exc}"
    return repr(trace), sorted(cc.complex.facets), sorted(cc.coloring.items())


# sha256 over the outcomes of every pair construction on pairgold graphs,
# recorded before the credited pivot pass and the memos went in.
PAIR_GOLDEN_SHA256 = "4766e1e8648b478db129a010e7c9944af0ab8cd919b0786f1e3b2dcc34a2298f"

# One process per guard value: the fresh-process reference for the memos.
_FRESH_OUTCOMES = """
import json
from fractions import Fraction
from facevec import construct_pair
from facevec.errors import GuardExceeded
from facevec.verify import random_graph
{outcome}
g = random_graph(12, Fraction(3, 4), "pairguard:0")
print(json.dumps([_pair_outcome(g, 6, k) for k in range(1, 7)]))
"""


class TestPairGoldenAndMemos:
    def test_golden_trace_digest(self):
        digest, cases = hashlib.sha256(), 0
        for i in range(40):
            g = random_graph(16, Fraction(1, 2), f"pairgold:{i}")
            w = len(clique_vector(g)) - 1
            for r in (w, w + 1):
                for k in range(w + 2):
                    trace, facets, coloring = _pair_outcome(g, r, k)
                    digest.update(f"{trace}{facets!r}{coloring!r}".encode())
                    cases += 1
        assert cases == 550
        assert digest.hexdigest() == PAIR_GOLDEN_SHA256

    def test_warm_memos_change_nothing(self, monkeypatch):
        ffk_bound.cache_clear()
        revlex_mod._shadow.cache_clear()
        g = random_graph(14, Fraction(2, 3), "pairmemo:0")
        r = len(clique_vector(g)) - 1
        cold = [_pair_outcome(g, r, k) for k in range(r + 1)]
        for i in range(1, 6):  # unrelated calls fill the memos
            other = random_graph(14, Fraction(2, 3), f"pairmemo:{i}")
            for k in range(len(clique_vector(other))):
                construct_pair(other, len(clique_vector(other)), k)
        assert ffk_bound.cache_info().hits > 0
        assert revlex_mod._shadow.cache_info().hits > 0
        assert [_pair_outcome(g, r, k) for k in range(r + 1)] == cold

        # A tail [skip, m) of a segment comes from the shared prefix when it
        # reaches skip and is walked from its rank otherwise: no prefix, one
        # short of skip, one between skip and m, and one past m give the
        # same outcomes, each from an otherwise empty cache.
        segment, tails, seen = revlex_mod._segment, defaultdict(set), set()

        def recorded(m, s, colors, skip=0):
            if skip:
                tails[k].add((m, s, colors, skip))
                have = len(revlex_mod._segments.get((s, colors), ((),))[0])
                seen.add("none" if not have else "short" if have < skip
                         else "between" if have <= m else "past")
            return segment(m, s, colors, skip)

        monkeypatch.setattr(revlex_mod, "_segment", recorded)
        for prefix in (None, lambda m, skip: 0, lambda m, skip: skip - 1,
                       lambda m, skip: (skip + m) // 2, lambda m, skip: m + 5):
            for k in range(r + 1):
                monkeypatch.setattr(revlex_mod, "_segments", {})
                for m, s, colors, skip in tails[k] if prefix else ():
                    segment(prefix(m, skip), s, colors)
                assert _pair_outcome(g, r, k) == cold[k]
        assert seen == {"none", "short", "between", "past"}

    def test_guard_switches_match_fresh_processes(self, monkeypatch):
        # 300 passes the clique count of this graph but trips two of the
        # closures; the warm ``ffk_bound`` and shadow memos keep nothing of
        # the guard.
        script = _FRESH_OUTCOMES.format(outcome=inspect.getsource(_pair_outcome))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(facevec.__file__)))
        fresh = {}
        for guard in ("1000", "300", "200"):
            env["FACEVEC_GUARD"] = guard
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            fresh[guard] = [o if isinstance(o, str) else (o[0], [tuple(f) for f in o[1]],
                                                          [tuple(c) for c in o[2]])
                            for o in json.loads(proc.stdout)]
        assert any(isinstance(o, str) and "closure" in o for o in fresh["300"])
        assert any(isinstance(o, str) and "clique count" in o for o in fresh["200"])
        ffk_bound.cache_clear()
        revlex_mod._shadow.cache_clear()
        g = random_graph(12, Fraction(3, 4), "pairguard:0")
        for guard in ("1000", "300", "200", "300", "1000", "300"):
            monkeypatch.setenv("FACEVEC_GUARD", guard)
            assert [_pair_outcome(g, 6, k) for k in range(1, 7)] == fresh[guard]

    def test_padded_level_is_the_subgraphs_own(self):
        # every cone level pads its (k-1)-level with the c_{k-1} of the
        # subgraph it traces: g, then the pivot links taken so far
        cases = 0
        for i in range(40):
            g = random_graph(16, Fraction(1, 2), f"pairgold:{i}")
            w = len(clique_vector(g)) - 1
            for r in (w, w + 1):
                for k in range(2, w + 2):
                    _, trace = construct_pair(g, r, k)
                    within = (1 << g.n) - 1
                    while trace.kind == "cone":
                        counts = _clique_counts(g.adj, within, CAP, within.bit_count())
                        assert trace.base_levels[0] == (k - 1, counts[k - 1])
                        within &= g.adj[trace.pivot - 1]
                        trace = trace.sub
                        cases += 1
        assert cases == 458

    def test_padded_shadow_is_the_walk(self):
        # k-faces on enough colors and (k+1)-faces within the colored bound,
        # as a pair construction's link holds them; the walk of the
        # segments' closure is the oracle
        cases = 0
        for colors in range(2, 6):
            for k in range(2, colors + 1):
                for ck in range(1, 30, 3):
                    for ck1 in range(0, ffk_bound(ck, k, colors) + 1, 2):
                        segments = first_permissible_ksets(ck, k, colors)
                        segments += first_permissible_ksets(ck1, k + 1, colors)
                        walked = len(complexes_mod._close(segments, k - 1, CAP)[1][k - 1])
                        assert ffk_canonical(ck, k, colors).shadow() == walked
                        cases += 1
        assert cases > 300


def _derived_pair(g, r, k):
    """The pair construction's face vector and printed facets, or the
    message of the guard it trips."""
    try:
        _, _, vec, facets = construct_mod._construct_pair(g, r, k, clique_vector(g))
    except GuardExceeded as exc:
        return f"GuardExceeded: {exc}"
    return vec, facets


def _walked_pair(g, r, k):
    """The same from the walk oracle over the same trace."""
    try:
        trace = construct_mod._trace(g, (1 << g.n) - 1, clique_vector(g), None, r, k, face_guard())
        facets, vec = walked_pair(trace)
    except GuardExceeded as exc:
        return f"GuardExceeded: {exc}"
    return vec, facets


class TestPairAgainstTheWalk:
    """The pair complex is read off its level counts; the walk of its
    generating faces stays the oracle for its facets, their printed order,
    its face vector and its guard trips."""

    def test_pairgold_corpus(self):
        cases = 0
        for i in range(40):
            g = random_graph(16, Fraction(1, 2), f"pairgold:{i}")
            w = len(clique_vector(g)) - 1
            for r in (w, w + 1, w + 3):
                for k in range(w + 2):
                    assert _derived_pair(g, r, k) == _walked_pair(g, r, k)
                    cases += 1
        assert cases == 825

    def test_random_sweep(self):
        rng = random.Random(23)
        cases = 0
        for n in range(1, 13):
            for _ in range(20):
                g = Graph.from_edge_mask(n, rng.randrange(1 << comb(n, 2)))
                w = len(clique_vector(g)) - 1
                for r in {max(w, 1), w + 1, w + 3}:
                    for k in range(w + 2):
                        assert _derived_pair(g, r, k) == _walked_pair(g, r, k)
                        cases += 1
        assert cases > 3000

    def test_guard_grid(self, monkeypatch):
        # every cap up to one past the largest closure: the clique count
        # (300 faces), the closures (63 to 397) and passes, in process
        g = random_graph(12, Fraction(3, 4), "pairguard:0")
        seen = set()
        for guard in range(1, 399):
            monkeypatch.setenv("FACEVEC_GUARD", str(guard))
            for k in range(1, 7):
                got = _derived_pair(g, 6, k)
                assert got == _walked_pair(g, 6, k)
                seen.add(got.split(" exceeds")[0] if isinstance(got, str) else "ok")
        assert seen == {"GuardExceeded: clique count", "GuardExceeded: closure", "ok"}

    def test_guard_grid_command(self, monkeypatch, tmp_path):
        # the command's one stderr line, or its vector and facet lines, are
        # the walk's
        g = random_graph(12, Fraction(3, 4), "pairguard:0")
        path = tmp_path / "pairguard.g6"
        path.write_text(graph6_encode(g) + "\n")
        for guard in range(290, 399, 3):
            monkeypatch.setenv("FACEVEC_GUARD", str(guard))
            for k in (3, 4, 5):
                out, err = io.StringIO(), io.StringIO()
                code = run(["construct-pair", str(path), "--k", str(k)], out, err)
                walked = _walked_pair(g, 6, k)
                if isinstance(walked, str):
                    assert (code, out.getvalue()) == (4, "")
                    message = walked.removeprefix("GuardExceeded: ")
                    assert err.getvalue() == f"facevec: resource guard: {message}\n"
                    continue
                vec, facets = walked
                lines = out.getvalue().splitlines()
                assert (code, err.getvalue()) == (0, "")
                assert lines[3] == "face-vector " + " ".join(map(str, vec))
                assert lines[5:] == ["facet " + " ".join(map(str, f)) for f in facets]


class TestConstructBalanced:
    def test_complete_graph_gives_simplex_counts(self):
        for n in range(1, 6):
            cc, report = construct_balanced(complete_graph(n))
            assert report.colors == n
            assert report.face_vec == tuple(comb(n, i) for i in range(n + 1))
            assert report.face_vec == report.clique_vec

    def test_five_cycle(self, c5):
        cc, report = construct_balanced(c5)
        assert report.colors == 2
        assert report.face_vec == (1, 5, 5)
        assert set(cc.complex.facets) >= {(1, 2), (2, 3), (1, 4), (3, 4), (2, 5)}
        assert is_balanced(cc.complex)

    def test_petersen(self, petersen):
        cc, report = construct_balanced(petersen)
        assert report.colors == 2
        assert report.clique_vec == (1, 10, 15)
        assert report.face_vec == (1, 10, 15)
        assert is_balanced(cc.complex)

    def test_empty_graph(self):
        cc, report = construct_balanced(graph_from_edges(0, []))
        assert report.colors == 0
        assert report.clique_vec == (1,)
        assert report.face_vec == (1,)
        assert check_coloring(cc)

    def test_edgeless(self):
        cc, report = construct_balanced(graph_from_edges(4, []))
        assert report.colors == 1
        assert report.face_vec == (1, 4)
        assert is_balanced(cc.complex)

    def test_margins_are_nonnegative_bound_slack(self, c5):
        from facevec import ffk_bound

        _, report = construct_balanced(c5)
        cv = report.clique_vec
        assert report.margins == tuple(
            ffk_bound(cv[i], i, report.colors) - cv[i + 1] for i in range(1, report.colors)
        )
        assert all(m >= 0 for m in report.margins)

    def test_exhaustive_small(self):
        for n in range(0, 5):
            for g in all_graphs(n):
                cc, report = construct_balanced(g)
                assert report.face_vec == report.clique_vec
                assert check_coloring(cc)
                assert is_balanced(cc.complex)

    def test_matches_vector_only_entry_point(self, petersen):
        cc_a, rep_a = construct_balanced(petersen)
        cc_b, rep_b = construct_from_vector(clique_vector(petersen))
        assert cc_a == cc_b
        assert rep_a == rep_b

    def test_face_vector_is_one_recount_of_the_built_complex(self):
        rng = random.Random(6006)
        for _ in range(40):
            n = rng.randrange(0, 11)
            g = Graph.from_edge_mask(n, rng.randrange(1 << comb(n, 2)))
            cc, report = construct_from_vector(clique_vector(g))
            assert report.face_vec == face_vector(cc.complex)
            assert report.face_vec == brute_face_vector(brute_closure(cc.complex.facets))

    def test_cold_twin_walks_only_its_facets(self, monkeypatch):
        # each level's tail is walked from its rank: one set walked per facet
        cv = clique_vector(random_graph(38, Fraction(3, 4), "deep:38"))
        assert (len(cv) - 1, sum(cv) - 1) == (11, 139_759)
        walked = _count_walks(monkeypatch)
        monkeypatch.setattr(revlex_mod, "_segments", {})
        _, report = construct_from_vector(cv)
        assert sum(walked) == len(report.facets)

    def test_coloring_keys_are_the_vertices(self):
        # the twins color 1..L_1 and the cone apexes without a facet scan
        cases = 0
        for i in range(40):
            g = random_graph(16, Fraction(1, 2), f"pairgold:{i}")
            w = len(clique_vector(g)) - 1
            built = [construct_balanced(g)[0]]
            built += [construct_pair(g, r, k)[0] for r in (w, w + 1) for k in range(w + 2)]
            for cc in built:
                assert sorted(cc.coloring) == list(cc.complex.vertices)
                recolored = residue_colored(cc.complex, cc.colors)
                assert sorted(recolored.coloring) == list(cc.complex.vertices)
                cases += 1
        assert cases == 590

    def test_face_guard_alone_governs_the_build(self, monkeypatch):
        # the pentagon's twin has 1 + 5 + 5 faces; no argument raises the cap
        monkeypatch.setenv("FACEVEC_GUARD", "10")
        with pytest.raises(GuardExceeded):
            construct_from_vector((1, 5, 5))
        with pytest.raises(TypeError):
            construct_from_vector((1, 5, 5), guard=1000)
        monkeypatch.setenv("FACEVEC_GUARD", "11")
        assert construct_from_vector((1, 5, 5))[1].face_vec == (1, 5, 5)
