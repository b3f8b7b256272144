import io
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache
from math import comb

import pytest

from facevec import (
    Graph,
    LevelSpec,
    VerificationReport,
    clique_vector,
    exhaustive_verify,
    ffk_bound,
    kk_shadow_bound,
    oracle_face_count,
    random_verify,
    verify_graph,
)
from facevec.complexes import ColoredComplex, vec_entry
from facevec.construct import construct_from_vector
from facevec.errors import GuardExceeded
from facevec.graphs import (_clique_counts, _mask_adjacency, graph6_encode, packed_clique_rows,
                            unpack_clique_vector)
from facevec.verify import (_verified_record, iter_exhaustive_records, iter_random_records,
                            random_graph, tally)

from conftest import complete_graph
from oracles import (CHROMATIC_CAP, brute_cliques_by_size, decode_edge_mask, graph_from_edges,
                     is_balanced)


@cache
def _clique_totals(n):
    """Number of cliques, the empty one included, of every graph by edge mask."""
    return [sum(brute_cliques_by_size(n, decode_edge_mask(n, mask))) for mask in range(1 << comb(n, 2))]


class TestVerifyGraph:
    def test_five_cycle_passes(self, c5):
        rec = verify_graph(c5)
        assert rec.ok
        assert rec.clique_vec == (1, 5, 5)
        assert rec.face_vec == (1, 5, 5)
        assert rec.colors == 2

    def test_complete_four_passes(self):
        rec = verify_graph(complete_graph(4))
        assert rec.ok and rec.colors == 4

    def test_empty_graph_passes_vacuously(self):
        rec = verify_graph(graph_from_edges(0, []))
        assert rec.ok and rec.colors == 0

    def test_guard_becomes_recorded_error(self, monkeypatch):
        monkeypatch.setenv("FACEVEC_GUARD", "40")
        rec = verify_graph(complete_graph(8))
        assert not rec.ok
        assert rec.error

    @pytest.mark.parametrize("lie", ["vector", "facets"])
    def test_derived_face_vector_is_recounted(self, lie, c5, monkeypatch, tmp_path):
        # construct reports the face vector it derives from the level
        # counts; verify recounts the twin by walk, so a derived vector that
        # is not the twin's fails, whether it differs from the clique vector
        # or the twin lost a facet behind a vector equal to it
        import facevec.construct as construct_mod
        from facevec.cli import run

        tails = construct_mod.revlex_tails

        def lying(spec, colors):
            vec, facets = tails(spec, colors)
            if lie == "vector":
                return vec[:-1] + (vec[-1] + 1,), facets
            return vec, facets[:-1]

        monkeypatch.setattr(construct_mod, "revlex_tails", lying)
        rec = verify_graph(c5)
        assert not rec.ok and not rec.vectors_equal
        assert rec.coloring_ok and rec.balanced_ok and not rec.error
        path = tmp_path / "c5.g6"
        path.write_text(graph6_encode(c5) + "\n")
        assert run(["verify", str(path)], out=io.StringIO(), err=io.StringIO()) == 1

    def test_graph_id_defaults_to_graph6(self, c5):
        assert verify_graph(c5).graph_id.startswith("g6:")

    def test_twin_is_certified_by_its_coloring(self, monkeypatch, c5):
        import facevec.verify as verify_mod
        from facevec.cli import _record_line

        big = random_graph(22, Fraction(1, 2), "cert:0")
        assert verify_graph(big).clique_vec[1] == 22 > CHROMATIC_CAP
        assert verify_graph(c5).ok and verify_graph(big).ok
        # at every size balancedness rests on the coloring check alone
        monkeypatch.setattr(verify_mod, "check_coloring", lambda cc: False)
        for g in (c5, big):
            rec = verify_graph(g)
            assert rec.vectors_equal
            assert not rec.coloring_ok and not rec.balanced_ok
            assert " coloring=0 balanced=0 ok=0 " in _record_line(rec)


class TestBalancedCertificate:
    """``verify``'s certificate (a proper coloring with at most dimension + 1
    colors) held to the exact chromatic solver."""

    @staticmethod
    def verdicts(cv, record):
        cc, _ = construct_from_vector(cv)
        return record.balanced_ok, is_balanced(cc.complex)

    def test_every_small_vector_agrees_with_the_exact_solver(self):
        vectors = set()
        for n in range(8):
            for _, row in packed_clique_rows(n):
                vectors.update(row)
        for packed in vectors:
            cv = unpack_clique_vector(packed)
            assert self.verdicts(cv, _verified_record(cv, gid="")) == (True, True), cv

    @pytest.mark.parametrize("n, p", [(16, Fraction(1, 2)), (20, Fraction(1, 4))])
    def test_random_twins_agree_with_the_exact_solver(self, n, p):
        seed = 3
        for t, rec in enumerate(iter_random_records(n, p, 50, seed)):
            cv = clique_vector(random_graph(n, p, key=f"{seed}:{t}"))
            assert rec.clique_vec == cv
            assert self.verdicts(cv, rec) == (True, True), t

    def test_an_extra_color_fails_a_balanced_twin(self, monkeypatch, c5):
        # C5's twin is 2-colorable; recolored properly with 3 colors the
        # certificate no longer holds, though the exact solver still finds
        # it balanced: the rule errs only towards failing
        import facevec.verify as verify_mod

        cc, report = construct_from_vector(clique_vector(c5))
        recolored = ColoredComplex(cc.complex, 3, {**cc.coloring, 1: 3})
        monkeypatch.setattr(verify_mod, "construct_from_vector", lambda cv: (recolored, report))
        rec = verify_graph(c5)
        assert rec.vectors_equal and rec.coloring_ok
        assert self.verdicts(clique_vector(c5), rec) == (False, True)
        assert not rec.ok


class TestExhaustive:
    def test_three_vertices(self):
        report = exhaustive_verify(3)
        assert (report.total, report.passes, report.failures) == (8, 8, ())

    def test_four_vertices(self):
        report = exhaustive_verify(4)
        assert report.total == 64 and report.passes == 64

    def test_five_vertices(self):
        report = exhaustive_verify(5)
        assert report.total == 1024 and report.passes == 1024

    def test_record_ids_are_replayable_masks(self):
        records = list(iter_exhaustive_records(3))
        assert records[5].graph_id == "mask:3:5"
        # replay: the id names the graph that produced the record
        g = Graph.from_edge_mask(3, 5)
        assert verify_graph(g).clique_vec == records[5].clique_vec

    def test_every_record_matches_its_own_mask(self):
        for mask, rec in enumerate(iter_exhaustive_records(5)):
            assert rec.graph_id == f"mask:5:{mask}"
            assert rec.clique_vec == clique_vector(Graph.from_edge_mask(5, mask))
            assert rec.clique_vec == brute_cliques_by_size(5, decode_edge_mask(5, mask))

    def test_cap(self):
        with pytest.raises(ValueError):
            exhaustive_verify(8)
        with pytest.raises(ValueError, match="n >= 0"):
            exhaustive_verify(-1)

    @pytest.mark.parametrize("cap", range(1, 34))
    def test_guard_trips_at_the_first_mask_over_the_cap(self, cap, monkeypatch):
        monkeypatch.setenv("FACEVEC_GUARD", str(cap))
        over = next((mask for mask, total in enumerate(_clique_totals(5)) if total > cap), None)
        seen = []
        if over is None:
            seen = list(iter_exhaustive_records(5))
        else:
            with pytest.raises(GuardExceeded, match=f"exceeds the cap {cap}$"):
                for rec in iter_exhaustive_records(5):
                    seen.append(rec)
        assert len(seen) == (1024 if over is None else over)
        # the summary reads the same memo, so it trips exactly when the stream does
        if over is None:
            report = exhaustive_verify(5)
            assert (report.total, report.passes) == (1024, 1024)
        else:
            with pytest.raises(GuardExceeded, match=f"exceeds the cap {cap}$"):
                exhaustive_verify(5)

    def test_failures_are_kept_in_mask_order(self, monkeypatch):
        import facevec.verify as verify_mod

        real = verify_mod._verified_record

        def single_edges_fail(cv, gid):
            rec = real(cv, gid)
            return replace(rec, coloring_ok=False) if cv == (1, 4, 1) else rec

        monkeypatch.setattr(verify_mod, "_verified_record", single_edges_fail)
        report = exhaustive_verify(4)
        assert (report.total, report.passes) == (64, 58)
        assert [r.graph_id for r in report.failures] == [f"mask:4:{1 << t}" for t in range(6)]
        assert report.failures == tuple(r for r in iter_exhaustive_records(4) if not r.ok)


class TestPackedSweep:
    """The vertex-extension sweep against a per-mask recount."""

    @staticmethod
    def recount(n, mask):
        return tuple(_clique_counts(_mask_adjacency(n, mask), (1 << n) - 1, 1 << 30, n))

    def test_every_mask_to_six_matches_a_recount(self):
        for n in range(7):
            masks = 0
            for first, vectors in packed_clique_rows(n):
                assert first == masks
                for mask, packed in enumerate(vectors, first):
                    assert unpack_clique_vector(packed) == self.recount(n, mask), (n, mask)
                masks += len(vectors)
            assert masks == 1 << comb(n, 2)

    def test_sampled_masks_at_seven_match_a_recount(self):
        picked = sorted(random.Random(20_000).sample(range(1 << 21), 20_000))
        found = {}
        for first, vectors in packed_clique_rows(7):
            for mask in picked[bisect_left(picked, first):bisect_left(picked, first + len(vectors))]:
                found[mask] = unpack_clique_vector(vectors[mask - first])
        assert list(found) == picked
        for mask in picked:
            assert found[mask] == self.recount(7, mask), mask

    @pytest.mark.parametrize("n", range(8))
    def test_aggregate_identity(self, n):
        # every k-set is a clique in the 2^(C(n,2) - C(k,2)) graphs holding its pairs
        per_vector = Counter()
        for _, vectors in packed_clique_rows(n):
            per_vector.update(vectors)
        sums = [0] * (n + 1)
        for packed, graphs in per_vector.items():
            for k, c in enumerate(unpack_clique_vector(packed)):
                sums[k] += graphs * c
        assert sums == [comb(n, k) << (comb(n, 2) - comb(k, 2)) for k in range(n + 1)]

    def test_cap(self):
        with pytest.raises(ValueError):
            next(packed_clique_rows(8))


class TestRandom:
    def test_zero_probability_gives_edgeless(self):
        assert random_verify(6, 0, 10, 3).passes == 10
        assert all(r.colors <= 1 for r in iter_random_records(6, 0, 10, 3))

    def test_unit_probability_gives_complete(self):
        assert random_verify(5, 1, 7, 3).passes == 7
        assert all(r.colors == 5 for r in iter_random_records(5, 1, 7, 3))

    def test_fraction_strings_accepted(self):
        report = random_verify(8, "1/2", 25, 11)
        assert report.total == 25 and report.ok

    def test_same_seed_same_report(self):
        # two all-pass reports of one size are equal, so compare the records
        a = list(iter_random_records(9, Fraction(1, 3), 30, 99))
        b = list(iter_random_records(9, Fraction(1, 3), 30, 99))
        assert len(a) == 30 and a == b
        assert random_verify(9, Fraction(1, 3), 30, 99) == tally(a)

    def test_different_seeds_differ(self):
        a = list(iter_random_records(9, "1/2", 10, 1))
        b = list(iter_random_records(9, "1/2", 10, 2))
        assert a != b

    def test_trial_keyed_generator_is_stable(self):
        # trial t depends only on (seed, t), not on preceding trials
        g_direct = random_graph(10, Fraction(1, 2), key="5:3")
        records = list(iter_random_records(10, "1/2", 4, 5))
        assert records[3].graph_id == f"g6:{__import__('facevec').graph6_encode(g_direct)}"

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            random_verify(5, "3/2", 1, 1)

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            random_verify(25, "1/2", 1, 1)

    def test_negative_trials(self):
        with pytest.raises(ValueError, match="trials >= 0, got -1$"):
            random_verify(5, "1/2", -1, 1)
        assert random_verify(5, "1/2", 0, 1) == VerificationReport(0, 0, ())

    def test_report_is_the_tally_of_its_records(self):
        records = list(iter_random_records(7, "1/2", 20, 4))
        assert len(records) == 20
        assert random_verify(7, "1/2", 20, 4) == tally(records)


class TestTally:
    def test_counts_and_keeps_failures_in_stream_order(self, c5):
        good = verify_graph(c5)
        bad = [replace(good, graph_id=f"bad:{i}", balanced_ok=False) for i in range(2)]
        report = tally(iter([bad[0], good, good, bad[1], good]))
        assert (report.total, report.passes, report.failures) == (5, 3, tuple(bad))
        assert not report.ok


class TestOracleFaceCount:
    def test_worked_two_level(self):
        vec = oracle_face_count(LevelSpec.of((3, 99), (4, 146)))
        assert vec[3] == 99 and vec[4] == 146

    def test_colored_pairs(self):
        assert oracle_face_count(LevelSpec.of((2, 5)), colors=2) == (1, 5, 5)

    def test_single_simplex_column(self):
        for k in range(1, 6):
            assert oracle_face_count(LevelSpec.of((k, 1)), colors=k) == tuple(
                comb(k, i) for i in range(k + 1)
            )

    def test_cross_oracle_agreement_plain(self):
        for k in (1, 2, 3):
            for m in (1, 4, 10, 33, 90):
                bound = kk_shadow_bound(m, k)
                vec = oracle_face_count(LevelSpec.of((k, m), (k + 1, bound)))
                assert vec[k] == m
                assert vec_entry(vec, k + 1) == bound

    def test_cross_oracle_agreement_colored(self):
        for r in (2, 3, 5):
            for k in range(1, min(r, 3) + 1):
                for m in (1, 4, 10, 33, 90):
                    bound = ffk_bound(m, k, r)
                    vec = oracle_face_count(LevelSpec.of((k, m), (k + 1, bound)), colors=r)
                    assert vec[k] == m
                    assert vec_entry(vec, k + 1) == bound
