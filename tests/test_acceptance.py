"""Acceptance gate: every criterion at its stated (zero) tolerance.

Each test prints one PASS line with its elapsed time; run with

    pytest tests/test_acceptance.py -v -s

Stated runtime budgets are asserted alongside the exact values.
"""
import io
import time
from math import comb

from facevec import (
    LevelSpec,
    check_coloring,
    clique_vector,
    construct_balanced,
    construct_pair,
    exhaustive_verify,
    face_vector,
    ffk_bound,
    ffk_canonical,
    kk_canonical,
    kk_shadow_bound,
    oracle_face_count,
    random_verify,
    revlex_key,
    turan_binom,
)
from facevec.cli import run as cli_run
from facevec.complexes import Complex, vec_entry
from facevec.verify import iter_random_records

from conftest import C5_EDGES
from oracles import (all_graphs, chromatic_number, ffk_chains_by_sum, graph_from_edges,
                     is_balanced, kk_chains_by_sum, turan_graph)


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.1f}s exceeded the stated {self.budget}s budget"
            )

    def report(self, name):
        print(f"ACCEPTANCE {name}: PASS ({self.elapsed:.2f}s)")


def test_01_worked_shadow_bound_example():
    with Stopwatch(1.0) as sw:
        assert kk_canonical(99, 3).terms == ((9, 3), (6, 2))
        assert kk_shadow_bound(99, 3) == 146
        vec = oracle_face_count(LevelSpec.of((3, 99), (4, 146)))
        assert vec[3] == 99 and vec[4] == 146
    sw.report("1 worked shadow-bound example")


def test_02_coloring_collapses_the_bound():
    with Stopwatch(1.0) as sw:
        assert kk_shadow_bound(1140, 3) == 4845
        assert ffk_bound(1140, 3, 3) == 0
    sw.report("2 coloring collapses the bound")


def test_03_revlex_order_anchors():
    with Stopwatch(1.0) as sw:
        assert revlex_key((2, 3, 5)) < revlex_key((1, 4, 5))
        assert revlex_key((3, 4, 5)) < revlex_key((1, 2, 6))
    sw.report("3 rev-lex order anchors")


def test_04_pentagon_anchors():
    with Stopwatch(1.0) as sw:
        c5 = graph_from_edges(5, C5_EDGES)
        assert clique_vector(c5) == (1, 5, 5)
        assert chromatic_number(c5) == 3
        assert not is_balanced(Complex.from_faces(C5_EDGES))
        cc, report = construct_balanced(c5)
        assert report.colors == 2
        assert report.face_vec == (1, 5, 5)
        assert check_coloring(cc)
        assert is_balanced(cc.complex)
    sw.report("4 pentagon anchors")


def test_05_turan_binomials_vs_built_graphs():
    cases = 0
    with Stopwatch(10.0) as sw:
        for n in range(0, 13):
            for r in range(1, n + 1):
                counted = clique_vector(turan_graph(n, r))
                for k in range(0, n + 1):
                    assert turan_binom(n, k, r) == vec_entry(counted, k)
                    cases += 1
    sw.report(f"5 Turán binomial oracle ({cases} cases)")


def test_06_canonical_round_trip_and_uniqueness():
    with Stopwatch(60.0) as sw:
        for k in range(1, 9):
            for m in range(0, 100_001):
                assert kk_canonical(m, k).evaluate() == m
        for r in range(1, 9):
            for k in range(1, r + 1):
                for m in range(0, 100_001):
                    assert ffk_canonical(m, k, r).evaluate() == m
        for k in range(1, 6):
            buckets = kk_chains_by_sum(2000, k)
            for m in range(1, 2001):
                chains = buckets.get(m, [])
                assert len(chains) == 1, (m, k, chains)
                assert chains[0] == kk_canonical(m, k).terms
        for r in range(1, 7):
            for k in range(1, min(r, 5) + 1):
                buckets = ffk_chains_by_sum(2000, k, r, turan_binom)
                for m in range(1, 2001):
                    chains = buckets.get(m, [])
                    assert len(chains) == 1, (m, k, r, chains)
                    assert chains[0] == ffk_canonical(m, k, r).terms
    sw.report("6 canonical round-trip and uniqueness")


def test_07_extremal_complexes_close_exactly():
    with Stopwatch(120.0) as sw:
        for k in range(1, 5):
            for m in range(0, 301):
                bound = kk_shadow_bound(m, k)
                vec = oracle_face_count(LevelSpec.of((k, m), (k + 1, bound)))
                assert vec_entry(vec, k) == m
                assert vec_entry(vec, k + 1) == bound
                for r in range(k, 7):
                    cbound = ffk_bound(m, k, r)
                    cvec = oracle_face_count(
                        LevelSpec.of((k, m), (k + 1, cbound)), colors=r
                    )
                    assert vec_entry(cvec, k) == m
                    assert vec_entry(cvec, k + 1) == cbound
    sw.report("7 extremal complexes close exactly")


def test_08_every_small_graph_has_a_balanced_twin():
    with Stopwatch(60.0) as sw:
        for n in range(0, 7):
            report = exhaustive_verify(n)
            assert report.total == 1 << comb(n, 2)
            assert report.passes == report.total
            assert report.failures == ()
    sw.report("8a exhaustive verification through n=6")
    with Stopwatch(900.0) as sw7:
        report = exhaustive_verify(7)
        assert report.total == 2_097_152
        assert report.passes == 2_097_152
        assert report.failures == ()
    sw7.report("8b exhaustive verification at n=7 (2097152 graphs)")


def test_09_pair_construction_per_level():
    with Stopwatch(600.0) as sw:
        for n in range(0, 7):
            for g in all_graphs(n):
                cv = clique_vector(g)
                r = max(len(cv) - 1, 1)
                for k in range(0, len(cv)):
                    cc, trace = construct_pair(g, r, k)
                    out = face_vector(cc.complex)
                    assert vec_entry(out, k) == vec_entry(cv, k)
                    assert vec_entry(out, k + 1) == vec_entry(cv, k + 1)
                    assert check_coloring(cc)
                    if trace.kind == "cone":
                        base = dict(trace.base_levels)
                        for step in trace.steps:
                            assert step.a <= base[k]
                            assert step.b <= vec_entry(cv, k - 1)
    sw.report("9 pair construction per level through n=6")


def test_10_randomized_spot_check_is_deterministic():
    def record_bytes(n, p, trials, seed):
        from facevec.cli import _record_line

        lines = [_record_line(rec) for rec in iter_random_records(n, p, trials, seed)]
        return ("\n".join(lines) + "\n").encode()

    with Stopwatch(300.0) as sw:
        first = random_verify(12, "1/2", 200, 42)
        assert first.ok and first.total == 200
        second = random_verify(16, "1/4", 100, 2026)
        assert second.ok and second.total == 100
        assert record_bytes(12, "1/2", 200, 42) == record_bytes(12, "1/2", 200, 42)
        assert record_bytes(16, "1/4", 100, 2026) == record_bytes(16, "1/4", 100, 2026)
    sw.report("10 randomized spot check, byte-identical reruns")


def test_11_cli_golden_lines(tmp_path):
    with Stopwatch(30.0) as sw:
        pentagon = tmp_path / "pentagon.edges"
        pentagon.write_text("5 5\n" + "".join(f"{u} {v}\n" for u, v in C5_EDGES))

        def invoke(argv):
            out = io.StringIO()
            code = cli_run(argv, out=out, err=io.StringIO())
            return code, out.getvalue().encode()

        golden = [
            (["kk-bound", "--m", "99", "--k", "3"],
             b"99 = C(9,3) + C(6,2); bound = 146\n"),
            (["cliquevec", str(pentagon)], b"1 5 5\n"),
            (["verify", "--exhaustive", "3"], b"graphs 8 pass 8 fail 0\n"),
        ]
        for argv, expected in golden:
            code, payload = invoke(argv)
            assert code == 0
            assert payload == expected
            assert invoke(argv) == (code, payload)
    sw.report("11 CLI golden lines")
