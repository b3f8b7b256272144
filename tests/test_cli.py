import hashlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import facevec
from facevec.cli import run
from facevec.errors import GuardExceeded
from facevec.graphs import _clique_counts, clique_vector, graph6_encode
from facevec.revlex import LevelSpec, revlex_faces
from facevec.verify import random_graph

from oracles import complex_and_face_vector
from test_acceptance import Stopwatch

PENTAGON = "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.edges"
    path.write_text(PENTAGON)
    return str(path)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestGoldenOutputs:
    def test_kk_bound_worked_example(self):
        code, out, err = invoke(["kk-bound", "--m", "99", "--k", "3"])
        assert code == 0 and err == ""
        assert out == "99 = C(9,3) + C(6,2); bound = 146\n"

    def test_cliquevec_pentagon(self, pentagon_file):
        code, out, err = invoke(["cliquevec", pentagon_file])
        assert code == 0 and err == ""
        assert out == "1 5 5\n"

    def test_verify_exhaustive_three(self):
        code, out, err = invoke(["verify", "--exhaustive", "3"])
        assert code == 0 and err == ""
        assert out == "graphs 8 pass 8 fail 0\n"

    def test_ffk_bound_three_colors(self):
        code, out, _ = invoke(["ffk-bound", "--m", "1140", "--k", "3", "--r", "3"])
        assert code == 0
        assert out == "1140 = C(31,3)_3 + C(12,2)_2 + C(4,1)_1; bound = 0\n"

    def test_kk_bound_single_term(self):
        code, out, _ = invoke(["kk-bound", "--m", "1140", "--k", "3"])
        assert code == 0
        assert out == "1140 = C(20,3); bound = 4845\n"

    def test_canonical_plain_and_empty(self):
        assert invoke(["canonical", "--m", "99", "--k", "3"])[1] == "C(9,3) + C(6,2)\n"
        assert invoke(["canonical", "--m", "0", "--k", "3"])[1] == "(empty)\n"

    def test_canonical_colored(self):
        code, out, _ = invoke(["canonical", "--m", "5", "--k", "2", "--r", "2"])
        assert out == "C(4,2)_2 + C(1,1)_1\n"

    def test_construct_pentagon(self, pentagon_file):
        code, out, _ = invoke(["construct", pentagon_file])
        assert code == 0
        assert out == (
            "colors 2\n"
            "clique-vector 1 5 5\n"
            "face-vector 1 5 5\n"
            "coloring 1:1 2:2 3:1 4:2 5:1\n"
            "facet 1 2\n"
            "facet 2 3\n"
            "facet 1 4\n"
            "facet 3 4\n"
            "facet 2 5\n"
        )

    def test_revlex_colored_emit_faces(self):
        code, out, _ = invoke(["revlex", "--levels", "2:5", "--colors", "2", "--emit-faces"])
        assert code == 0
        assert out == (
            "face-vector 1 5 5\n"
            "coloring 1:1 2:2 3:1 4:2 5:1\n"
            "facet 1 2\n"
            "facet 2 3\n"
            "facet 1 4\n"
            "facet 3 4\n"
            "facet 2 5\n"
        )

    def test_revlex_huge_color_budget(self):
        # the walk builds no 2^r residue mask, so any budget r >= k is cheap
        code, out, err = invoke(
            ["revlex", "--levels", "1:1", "--colors", "1000000000000", "--emit-faces"])
        assert (code, err) == (0, "")
        assert out == "face-vector 1 1\ncoloring 1:1\nfacet 1\n"
        code, out, _ = invoke(["revlex", "--levels", "2:3,3:1", "--colors", "1000000000000"])
        assert (code, out) == (0, "face-vector 1 3 3 1\n")

    def test_revlex_plain(self):
        code, out, _ = invoke(["revlex", "--levels", "3:99,4:146"])
        assert code == 0
        assert out == "face-vector 1 10 42 99 146\n"

    def test_kk_bound_beyond_any_table(self):
        # C(141421356, 2) + 104271310 == 10**16, checked with math.comb
        code, out, err = invoke(["kk-bound", "--m", "10000000000000000", "--k", "2"])
        assert code == 0 and err == ""
        assert out == (
            "10000000000000000 = C(141421356,2) + C(104271310,1);"
            " bound = 471404513854189711237815\n"
        )

    def test_ffk_bound_huge_budget(self):
        code, out, err = invoke(["ffk-bound", "--m", "10", "--k", "2", "--r", "1000000000"])
        assert code == 0 and err == ""
        assert out == "10 = C(5,2)_1000000000; bound = 10\n"

    def test_kk_bound_huge_index(self):
        code, out, err = invoke(["kk-bound", "--m", "10", "--k", "100000"])
        assert code == 0 and err == ""
        terms = " + ".join(f"C({n},{n})" for n in range(100000, 99990, -1))
        assert out == f"10 = {terms}; bound = 0\n"

    def test_outputs_are_stable_across_runs(self, pentagon_file):
        for argv in (
            ["kk-bound", "--m", "99", "--k", "3"],
            ["cliquevec", pentagon_file],
            ["verify", "--exhaustive", "3"],
            ["construct", pentagon_file],
        ):
            assert invoke(argv) == invoke(argv)


def _sha256(argv):
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode()).hexdigest()


def _random_graph_file(tmp_path, n, p, key):
    path = tmp_path / f"{key}.g6"
    path.write_text(graph6_encode(random_graph(n, Fraction(p), key)) + "\n")
    return str(path)


class TestGoldenBytes:
    """sha256 of whole outputs, recorded before the facet writer and the
    trusted walk replaced the per-facet sort key and re-validation."""

    CONSTRUCT_SHA256 = {
        (30, "3/4", False): "881359c810128ee31a2cde571492a7c300a6a9de948026a961e86bd5c18d5be7",
        (30, "3/4", True): "f71e9d6c3f8619c3c12ef63404ed853d5b1350101fda1afd5a15b8e50b765b5f",
        (40, "1/2", False): "42dc810078844eb84e885a0efa8e0a0313d23b7cfcbf660b5f571c7e274415e0",
        (40, "1/2", True): "80fe984d5614fa71f9ffe427a85a1e4094fc08aa7f3e70b0a4f4ba074ecd860b",
    }

    @pytest.mark.parametrize("n, p, trace", sorted(CONSTRUCT_SHA256))
    def test_construct(self, tmp_path, n, p, trace):
        path = _random_graph_file(tmp_path, n, p, f"golden:{n}")
        argv = ["construct", path] + (["--trace"] if trace else [])
        assert _sha256(argv) == self.CONSTRUCT_SHA256[n, p, trace]

    # G(14, 1/2) with key "golden:14" has clique vector (1, 14, 45, 37, 8)
    PAIR_SHA256 = [
        "636560358fd2da40c8e357ea5ef3fd94acc2f9bbf7012473e114d100153f577a",
        "6fa04c034c103739a82918e57ee786c2af483589812baf8d3bda71e1afcc510a",
        "bce4f4f5620e738e794b9dc99ea95bd11c1291589768e74b5f912c8c95097154",
        "5d3d7c3c20c697f48da4062ab3df9120c33a0b0d6395e8cb88f21a939e11833d",
        "d347b33f6a1df2dcdfc19ca916cd7fa4b79181453a20d2544df1948b8116a308",
    ]

    @pytest.mark.parametrize("k", range(5))
    def test_construct_pair_trace(self, tmp_path, k):
        path = _random_graph_file(tmp_path, 14, "1/2", "golden:14")
        argv = ["construct-pair", path, "--k", str(k), "--trace"]
        assert _sha256(argv) == self.PAIR_SHA256[k]

    def test_revlex_emit_faces_plain(self):
        argv = ["revlex", "--levels", "1:40,3:300,4:500", "--emit-faces"]
        assert _sha256(argv) == "e59800ed13a0fe1f2fbb781cde12f76b6ff0d4cea5b5dfe559e56432c88286d3"

    def test_revlex_emit_faces_colored(self):
        argv = ["revlex", "--levels", "1:12,2:45,3:120", "--colors", "3", "--emit-faces"]
        assert _sha256(argv) == "1bb2456e79c11b8841df34e8ad0e8973b40c86abc13d76c842882720f72b6781"


class TestCliqueGuard:
    """The pivoting count trips the guard exactly where enumeration trips,
    with its message, at small caps and around the whole counts, 28,582 and
    139,760 cliques with c_0."""

    @pytest.mark.parametrize("n, key, total", [(30, "golden:30", 28582), (38, "deep:38", 139760)])
    def test_trips_where_enumeration_trips(self, tmp_path, monkeypatch, n, key, total):
        path = _random_graph_file(tmp_path, n, "3/4", key)
        g = random_graph(n, Fraction(3, 4), key)
        for cap in [1, 2, n, 1000] + list(range(total - 3, total + 2)):
            monkeypatch.setenv("FACEVEC_GUARD", str(cap))
            try:
                enumerated, tripped = _clique_counts(g.adj, (1 << n) - 1, cap, n), None
            except GuardExceeded as exc:
                enumerated, tripped = None, str(exc)
            assert (tripped is None) == (cap >= total)
            code, out, err = invoke(["cliquevec", path])
            _, record, _ = invoke(["verify", path, "--output", "records"])
            if tripped is None:
                assert clique_vector(g) == tuple(enumerated)
                assert (code, err) == (0, "")
                assert f" cliquevec={','.join(map(str, enumerated))} " in record
            else:
                with pytest.raises(GuardExceeded) as pivoted:
                    clique_vector(g)
                assert str(pivoted.value) == tripped
                assert (code, out) == (4, "")
                assert err == f"facevec: resource guard: {tripped}\n"
                assert record.endswith(f" cliquevec=- facevec=- margins=- equal=0 coloring=0"
                                       f" balanced=0 ok=0 error={tripped}\n")


class TestDenseSixtyFour:
    """G(64, 3/4) with key "dense:0": 7,130,784 nonempty cliques, counted by pivoting."""

    def test_cliquevec(self, tmp_path):
        path = _random_graph_file(tmp_path, 64, "3/4", "dense:0")
        with Stopwatch(1.0):
            code, out, err = invoke(["cliquevec", path])
        assert (code, err) == (0, "")
        assert out == ("1 64 1521 17926 118117 464935 1138980 1780764 1799224 1174833"
                       " 488821 125476 18672 1412 39\n")

    def test_construct_pair(self, tmp_path):
        path = _random_graph_file(tmp_path, 64, "3/4", "dense:0")
        with Stopwatch(1.0):
            code, out, err = invoke(["construct-pair", path, "--k", "1"])
        assert (code, err) == (0, "")
        assert out.startswith("colors 14\nk 1\ntargets 64 1521\n")


class TestConstructPairCommand:
    def test_five_cycle(self, pentagon_file):
        code, out, _ = invoke(["construct-pair", pentagon_file, "--k", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "colors 2"
        assert lines[1] == "k 1"
        assert lines[2] == "targets 5 5"
        assert lines[3] == "face-vector 1 5 5"

    def test_huge_color_budget(self, pentagon_file):
        code, out, err = invoke(
            ["construct-pair", pentagon_file, "--k", "1", "--r", "1000000000000"])
        assert (code, err) == (0, "")
        assert out.splitlines()[:4] == [
            "colors 1000000000000", "k 1", "targets 5 5", "face-vector 1 5 5"]

    def test_trace_lines(self, pentagon_file):
        code, out, _ = invoke(["construct-pair", pentagon_file, "--k", "1", "--trace"])
        assert code == 0
        assert "trace[0] kind=cone k=1 colors=2 levels=1:2,2:0 pivot=1 non-neighbors=3,4" in out
        assert "trace[0] step i=0 v=1 a=2 b=1 adds=5" in out
        assert "trace[1] kind=flat k=1 colors=1 levels=1:2" in out


class TestVerifyCommand:
    def test_single_graph(self, pentagon_file):
        code, out, _ = invoke(["verify", pentagon_file])
        assert code == 0
        assert out == "graphs 1 pass 1 fail 0\n"

    def test_records_output(self, pentagon_file):
        code, out, _ = invoke(["verify", pentagon_file, "--output", "records"])
        assert code == 0
        # "Dhc" confirmed as the 5-cycle by the independent decoder oracle
        assert out == (
            "graph=g6:Dhc r=2 cliquevec=1,5,5 facevec=1,5,5 margins=1"
            " equal=1 coloring=1 balanced=1 ok=1 error=-\n"
        )

    def test_random_deterministic(self):
        argv = ["verify", "--random", "8", "1/2", "12", "42", "--output", "records"]
        first, second = invoke(argv), invoke(argv)
        assert first == second
        assert first[0] == 0

    def test_exhaustive_records_stream(self):
        code, out, _ = invoke(["verify", "--exhaustive", "3", "--output", "records"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0] == (
            "graph=mask:3:0 r=1 cliquevec=1,3 facevec=1,3 margins=-"
            " equal=1 coloring=1 balanced=1 ok=1 error=-"
        )
        assert lines[7] == (
            "graph=mask:3:7 r=3 cliquevec=1,3,3,1 facevec=1,3,3,1 margins=0,0"
            " equal=1 coloring=1 balanced=1 ok=1 error=-"
        )

    # sha256 of `verify --exhaustive N --output records`, recorded from the
    # per-mask recount that preceded the vertex-extension sweep
    RECORD_SHA256 = {
        0: "ad65b770c5c8334cd1530f5fcea64d005a5e352587d6fbf60800f28191ee5402",
        1: "75357e87d858280bb974350ff5a489ac5cf16a2410d8bfd3d4dc9dc416d169c1",
        2: "f41fedf3d850228ec36fc0ef9faec98349adaa4794a310bb078e5261ef6b0573",
        3: "747078fa6214a6c311a86066318c4659f7329bd476efe41097436ef08723287e",
        4: "94d89caf62c0d34b7a646cf3d490ab1bdee4383ed51c231da9fb9b23da1e0df6",
        5: "1bf0f898b31e68c1742f334df1a53747b8a31e90d8a0b17cdba7324bfe76c028",
        6: "0e2a87b323dd624d445c7964d896c81ac96f2e5d8f7869d58e753d393b85efee",
    }

    @pytest.mark.parametrize("n", range(7))
    def test_exhaustive_record_bytes(self, n):
        code, out, err = invoke(["verify", "--exhaustive", str(n), "--output", "records"])
        assert (code, err) == (0, "")
        assert out.count("\n") == 1 << n * (n - 1) // 2
        assert hashlib.sha256(out.encode()).hexdigest() == self.RECORD_SHA256[n]

    def test_exhaustive_plain_bytes(self):
        assert invoke(["verify", "--exhaustive", "5"]) == (0, "graphs 1024 pass 1024 fail 0\n", "")

    def test_exhaustive_guard_trips_mid_sweep(self, monkeypatch):
        monkeypatch.setenv("FACEVEC_GUARD", "5")
        code, out, err = invoke(["verify", "--exhaustive", "3", "--output", "records"])
        assert code == 4
        assert out == (
            "graph=mask:3:0 r=1 cliquevec=1,3 facevec=1,3 margins=-"
            " equal=1 coloring=1 balanced=1 ok=1 error=-\n"
            "graph=mask:3:1 r=2 cliquevec=1,3,1 facevec=1,3,1 margins=1"
            " equal=1 coloring=1 balanced=1 ok=1 error=-\n"
            "graph=mask:3:2 r=2 cliquevec=1,3,1 facevec=1,3,1 margins=1"
            " equal=1 coloring=1 balanced=1 ok=1 error=-\n"
        )
        assert err == "facevec: resource guard: clique count exceeds the cap 5\n"

    def test_exhaustive_failure_exit_is_one(self, monkeypatch):
        import facevec.verify as verify_mod
        from dataclasses import replace

        real = verify_mod._verified_record
        monkeypatch.setattr(verify_mod, "_verified_record", lambda cv, gid: replace(
            real(cv, gid), balanced_ok=cv != (1, 3, 1)))
        code, out, _ = invoke(["verify", "--exhaustive", "3", "--output", "records"])
        assert code == 1
        assert [line.endswith("ok=0 error=-") for line in out.splitlines()] == [
            False, True, True, False, True, False, False, False]
        code, out, _ = invoke(["verify", "--exhaustive", "3"])
        assert code == 1
        assert out.splitlines()[0] == "graphs 8 pass 5 fail 3"
        assert [line.split()[1] for line in out.splitlines()[1:]] == [
            "graph=mask:3:1", "graph=mask:3:2", "graph=mask:3:4"]

    def test_exhaustive_record_keeps_percent_signs(self, monkeypatch):
        # each vector's line is formatted once, around the mask; a % or %d
        # in the record must come out as itself
        import facevec.verify as verify_mod
        from dataclasses import replace
        from facevec.cli import _record_line

        real = verify_mod._verified_record
        monkeypatch.setattr(verify_mod, "_verified_record", lambda cv, gid: replace(
            real(cv, gid), error=f"100% of %d and %s at {cv[-1]}%"))
        code, out, err = invoke(["verify", "--exhaustive", "3", "--output", "records"])
        assert (code, err) == (1, "")
        expected = [_record_line(rec) for rec in verify_mod.iter_exhaustive_records(3)]
        assert out.splitlines() == expected
        assert expected[1].endswith(" error=100% of %d and %s at 1%")

    def test_duplicate_edge_is_one_warning_line(self, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("3 2\n1 2\n1 2\n"))
        assert invoke(["cliquevec", "-"]) == (
            0, "1 3 1\n", "facevec: warning: 1 duplicate edge(s) ignored, the first is (1, 2)\n")
        # an error drops the warning, so the error line stays the only line
        monkeypatch.setenv("FACEVEC_GUARD", "3")
        monkeypatch.setattr(sys, "stdin", io.StringIO("3 2\n1 2\n1 2\n"))
        assert invoke(["cliquevec", "-"]) == (
            4, "", "facevec: resource guard: clique count exceeds the cap 3\n")

    def test_graph6_stdin_roundtrip(self, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("Dhc\n"))
        code, out, _ = invoke(["cliquevec", "-"])
        assert code == 0 and out == "1 5 5\n"

    def test_graph6_stdin_holds_one_graph(self, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO("# a comment\nD?{\n\n"))
        assert invoke(["verify", "-"]) == (0, "graphs 1 pass 1 fail 0\n", "")
        for command in (["verify", "-"], ["cliquevec", "-"]):
            monkeypatch.setattr(sys, "stdin", io.StringIO("D?{\nDQc\n"))
            code, out, err = invoke(command)
            assert code == 3 and out == ""
            assert err.startswith("facevec: input error:") and err.count("\n") == 1


class TestModuleEntryPoint:
    @staticmethod
    def _env():
        src = str(Path(facevec.__file__).resolve().parent.parent)
        return {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def test_python_dash_m_help(self):
        proc = subprocess.run([sys.executable, "-m", "facevec", "--help"], env=self._env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: facevec")

    @pytest.mark.parametrize("argv", [
        ["verify", "--exhaustive", "7", "--output", "records"],
        ["revlex", "--levels", "4:20000", "--emit-faces"],
    ])
    def test_closed_stdout_pipe_ends_quietly(self, argv):
        # the reader takes one line and goes, as ``| head -1`` does; each
        # output is far larger than a pipe buffer, so a later write fails
        proc = subprocess.Popen([sys.executable, "-m", "facevec", *argv], env=self._env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first and proc.returncode == 0 and err == b""


class TestExitCodes:
    def test_usage_error_unknown_flag(self):
        code, _, _ = invoke(["kk-bound", "--m", "99", "--k", "3", "--bogus"])
        assert code == 2

    def test_usage_error_missing_subcommand_argument(self):
        code, out, err = invoke(["verify"])
        assert code == 2 and out == ""  # no source, like two, is a usage problem
        assert err == "facevec: usage error: verify takes one of <graph>, --exhaustive or --random\n"

    def test_input_error_missing_file(self):
        code, _, err = invoke(["cliquevec", "/nonexistent/file.edges"])
        assert code == 3 and "input error" in err

    def test_input_error_malformed(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("3 1\n1 9\n")
        code, _, _ = invoke(["cliquevec", str(bad)])
        assert code == 3

    def test_input_error_directory(self, tmp_path):
        code, out, err = invoke(["cliquevec", str(tmp_path)])
        assert code == 3 and out == ""
        assert err.startswith("facevec: input error: cannot read") and err.count("\n") == 1

    def test_input_error_not_utf8_file(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"\xff3 1\n1 2\n")
        code, _, err = invoke(["cliquevec", str(bad)])
        assert code == 3 and "input error" in err and err.count("\n") == 1

    def test_input_error_not_utf8_stdin(self, monkeypatch):
        import sys

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n"), encoding="utf-8"))
        code, _, err = invoke(["cliquevec", "-"])
        assert code == 3 and "input error" in err and err.count("\n") == 1

    def test_usage_error_negative_random_vertices(self):
        code, out, err = invoke(["verify", "--random", "-3", "1/2", "2", "1"])
        assert code == 2 and out == ""
        assert err == "facevec: usage error: random verification needs n >= 0, got -3\n"

    def test_usage_error_negative_random_trials(self):
        for output in ("plain", "records"):
            code, out, err = invoke(["verify", "--random", "5", "1/2", "-1", "1", "--output", output])
            assert code == 2 and out == ""
            assert err == "facevec: usage error: random verification needs trials >= 0, got -1\n"

    def test_usage_error_more_than_one_verify_source(self, pentagon_file):
        for argv in (
            ["verify", "--exhaustive", "7", "--random", "3", "1", "1", "1"],
            ["verify", pentagon_file, "--exhaustive", "2"],
            ["verify", pentagon_file, "--random", "3", "1", "1", "1", "--output", "records"],
            ["verify", "/nonexistent/file.edges", "--exhaustive", "0"],
        ):
            code, out, err = invoke(argv)
            assert code == 2 and out == "", argv
            assert err == "facevec: usage error: verify takes one of <graph>, --exhaustive or --random\n"

    def test_usage_error_zero_denominator_probability(self):
        code, out, err = invoke(["verify", "--random", "5", "1/0", "1", "1"])
        assert code == 2 and out == ""
        assert err == (
            "facevec: usage error: edge probability must be a fraction like 1/2, got '1/0'\n"
        )

    def test_usage_error_non_integer_random_field(self):
        for argv in (["x", "1/2", "2", "1"], ["3", "1/2", "2.5", "1"], ["3", "1/2", "2", "x"]):
            for output in ("plain", "records"):
                code, out, err = invoke(["verify", "--random", *argv, "--output", output])
                assert code == 2 and out == "", argv
                bad = next(v for v in argv if v in ("x", "2.5"))
                assert err == ("facevec: usage error: random verification needs integer"
                               f" N, TRIALS and SEED, got {bad!r}\n")

    def test_input_error_zero_level_size(self):
        for colors in ([], ["--colors", "2"]):
            code, out, err = invoke(["revlex", "--levels", "0:1", *colors])
            assert code == 3 and out == ""
            assert err == "facevec: input error: level sizes must be positive: ((0, 1),)\n"

    def test_unexpected_exception_exit_is_five(self, monkeypatch):
        import facevec.cli as cli_mod

        def boom(args, out):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "_cmd_bound", boom)
        code, out, err = invoke(["kk-bound", "--m", "99", "--k", "3"])
        assert code == 5 and out == ""
        assert err == "facevec: internal error: RuntimeError: boom\n"

    def test_guard_exit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FACEVEC_GUARD", "40")
        big = tmp_path / "k8.edges"
        edges = [(u, v) for u in range(1, 9) for v in range(u + 1, 9)]
        big.write_text(f"8 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        code, _, err = invoke(["cliquevec", str(big)])
        assert code == 4 and "guard" in err

    def test_guard_trips_before_revlex_enumeration(self, monkeypatch):
        import tracemalloc

        monkeypatch.setenv("FACEVEC_GUARD", "1000")
        tracemalloc.start()
        try:
            code, out, err = invoke(["revlex", "--levels", "2:2000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4 and out == ""
        assert err.startswith("facevec: resource guard:") and err.count("\n") == 1
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("argv", [["--levels", "1000000000:1"],
                                      ["--levels", "5000:1", "--colors", "6000"],
                                      ["--levels", "1000000000:1", "--colors", "1000000000"]])
    def test_revlex_guard_bounds_the_level_counts(self, argv):
        # the closure's running count trips at the first level past the
        # cap, not after every level's length is derived
        with Stopwatch(1.0):
            code, out, err = invoke(["revlex"] + argv)
        assert (code, out) == (4, "")
        assert err == "facevec: resource guard: closure exceeds the face cap 10000000\n"

    def test_construct_pair_huge_k_stays_cheap(self, tmp_path):
        # nothing is sized by k: a level past the clique number is flat and empty
        path = tmp_path / "p3.edges"
        path.write_text("3 2\n1 2\n2 3\n")
        with Stopwatch(1.0):
            code, out, err = invoke(["construct-pair", str(path), "--k", "1000000000"])
        assert (code, err) == (0, "")
        assert out == "colors 2\nk 1000000000\ntargets 0 0\nface-vector 1\ncoloring\nfacet \n"

    def test_revlex_guard_lines_are_the_walks(self, monkeypatch):
        # the command no longer walks its complex; it trips where the walk
        # of the same faces does, with the walk's message
        spec = LevelSpec.of((1, 5), (3, 3))
        for cap in (8, 12):
            monkeypatch.setenv("FACEVEC_GUARD", str(cap))
            with pytest.raises(GuardExceeded) as walked:
                complex_and_face_vector(revlex_faces(spec))
            code, out, err = invoke(["revlex", "--levels", "1:5,3:3", "--emit-faces"])
            assert code == 4 and out == ""
            assert err == f"facevec: resource guard: {walked.value}\n"
        assert str(walked.value) == "closure exceeds the face cap 12"

    def test_input_error_edge_list_beyond_vertex_cap(self, tmp_path):
        huge = tmp_path / "huge.edges"
        huge.write_text("300000000 0\n")
        code, out, err = invoke(["cliquevec", str(huge)])
        assert code == 3 and out == ""
        assert err.startswith("facevec: input error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_usage_error_bad_precondition(self):
        code, _, err = invoke(["ffk-bound", "--m", "10", "--k", "3", "--r", "2"])
        assert code == 2 and "usage error" in err

    def test_verify_failure_exit_is_one(self, monkeypatch):
        # force a failure through the guard: the error is recorded, the
        # harness keeps going, and the exit status reports it
        monkeypatch.setenv("FACEVEC_GUARD", "40")
        code, out, _ = invoke(["verify", "--random", "8", "1", "2", "7"])
        assert code == 1
        assert "fail 2" in out

    def test_invariant_violation_exit_is_five(self, monkeypatch, pentagon_file):
        import facevec.construct as construct_mod

        monkeypatch.setattr(construct_mod, "ffk_bound", lambda *a: -1)
        code, _, err = invoke(["construct", pentagon_file])
        assert code == 5 and "invariant" in err
