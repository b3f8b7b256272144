"""Property test of the CLI contract: whatever the argv or input bytes, a run
ends with a documented exit code, at most one stderr line and no traceback.

Sizes stay at most 8, counts at most 1,000 and graphs at most 8 vertices
(16 bytes when unstructured), so that no example runs long.
"""
import io
import sys
from itertools import combinations
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from facevec.cli import run  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, database=None)

sizes = st.integers(min_value=-2, max_value=8)
counts = st.integers(min_value=-5, max_value=1000)
formats = st.sampled_from([[], ["--format=edges"], ["--format=graph6"]])
def edge_list(n):
    """Edge lists on n vertices, mostly well formed: now and then a stray
    label, a self-loop, a duplicate edge or a miscounted header."""
    label = st.integers(min_value=1, max_value=max(n, 1))
    edge = st.tuples(label, label)
    if n >= 2:
        edge = st.one_of(st.sampled_from(list(combinations(range(1, n + 1), 2))), edge)
    edge = st.one_of(edge, st.tuples(st.integers(0, 9), st.integers(0, 9)))
    return st.builds(lambda edges, miss: (f"{n} {len(edges) + miss}\n"
                                          + "".join(f"{u} {v}\n" for u, v in edges)).encode(),
                     st.lists(edge, max_size=12), st.sampled_from([0, 0, 0, 1, -1]))


def graph6_line(n):
    """graph6 lines on n vertices with a body of the right length."""
    return st.binary(min_size=-(-n * (n - 1) // 12), max_size=-(-n * (n - 1) // 12)).map(
        lambda raw: bytes([63 + n]) + bytes(63 + x % 64 for x in raw))


on_eight = st.integers(min_value=0, max_value=8)
graph_bytes = st.one_of(
    st.binary(max_size=16),
    st.text(alphabet="0123456789 \n#-?@_~ABCDEFG", max_size=16).map(str.encode),
    on_eight.flatmap(edge_list),
    on_eight.flatmap(graph6_line),
)


def check_contract(argv, stdin=b""):
    out, err = io.StringIO(), io.StringIO()
    source = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    with mock.patch.object(sys, "stdin", source), mock.patch.object(sys, "stderr", err):
        code = run(argv, out=out, err=err)
    assert 0 <= code <= 5, (argv, stdin, code)
    assert err.getvalue().count("\n") <= 1, (argv, stdin, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()


@FUZZ
@given(command=st.sampled_from(["cliquevec", "verify"]), fmt=formats, stdin=graph_bytes)
def test_graph_commands_on_stdin_bytes(command, fmt, stdin):
    check_contract([command, "-", *fmt], stdin)


@FUZZ
@given(m=counts, k=sizes, r=sizes,
       command=st.sampled_from(["kk-bound", "ffk-bound", "canonical", "canonical-r"]))
def test_bound_commands(m, k, r, command):
    argv = [command.removesuffix("-r"), f"--m={m}", f"--k={k}"]
    if command in ("ffk-bound", "canonical-r"):
        argv.append(f"--r={r}")
    check_contract(argv)


levels = st.one_of(
    st.lists(st.tuples(sizes, counts), min_size=1, max_size=3)
    .map(lambda pairs: ",".join(f"{s}:{m}" for s, m in pairs)),
    st.text(alphabet="0123456789:,- x", max_size=12),
)


@FUZZ
@given(spec=levels, colors=st.one_of(st.none(), sizes), emit=st.booleans())
def test_revlex(spec, colors, emit):
    argv = ["revlex", f"--levels={spec}"]
    if colors is not None:
        argv.append(f"--colors={colors}")
    if emit:
        argv.append("--emit-faces")
    check_contract(argv)
