"""Brute-force re-counting harness for the whole-vector construction.

Every claim is re-established from scratch here: the constructed complex is
fully closed and re-counted, the coloring is re-checked face by face, and
balancedness is certified by that coloring: every facet is a clique of the
1-skeleton, so a twin of dimension d - 1 needs d colors, and a proper
coloring with at most d colors pins its chromatic number at d.
Discrepancies become failure records, never assertions, so a bug surfaces
as a replayable counterexample.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .complexes import _close, check_coloring, face_vector
from .construct import construct_from_vector
from .errors import GuardExceeded
from .graphs import Graph, clique_vector, graph6_encode, packed_clique_rows, unpack_clique_vector
from .limits import EXHAUSTIVE_CAP, face_guard
from .revlex import LevelSpec, revlex_faces

RANDOM_VERTEX_LIMIT = 24


@dataclass(frozen=True)
class GraphRecord:
    """Outcome of verifying one graph; all flags True means the twin checked out."""

    graph_id: str
    clique_vec: tuple[int, ...]
    colors: int
    margins: tuple[int, ...]
    face_vec: tuple[int, ...]
    vectors_equal: bool
    coloring_ok: bool
    balanced_ok: bool
    error: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.vectors_equal and self.coloring_ok and self.balanced_ok and not self.error
        )


@dataclass(frozen=True)
class VerificationReport:
    """Counts of a verification run and its failures, each fully replayable.

    A report keeps no passing record: the streams ``iter_exhaustive_records``
    and ``iter_random_records`` give every record.
    """

    total: int
    passes: int
    failures: tuple[GraphRecord, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def tally(records) -> VerificationReport:
    """Count a stream of records: total, passes and the failures in stream order."""
    total = 0
    failures = []
    for rec in records:
        total += 1
        if not rec.ok:
            failures.append(rec)
    return VerificationReport(total, total - len(failures), tuple(failures))


def verify_graph(g: Graph) -> GraphRecord:
    """Run the construction on one graph and recount everything brute force;
    the record names the graph by its graph6 string."""
    gid = f"g6:{graph6_encode(g)}"
    try:
        cv = clique_vector(g)
    except GuardExceeded as exc:
        return GraphRecord(gid, (), 0, (), (), False, False, False, error=str(exc))
    return _verified_record(cv, gid)


def _verified_record(cv: tuple[int, ...], gid: str) -> GraphRecord:
    try:
        cc, report = construct_from_vector(cv)
    except GuardExceeded as exc:
        return GraphRecord(gid, cv, len(cv) - 1, (), (), False, False, False, error=str(exc))
    cx = cc.complex
    # The face vector the construction derived is checked against a walk of
    # the twin, which holds the 1 + sum(L) faces the guard already admitted.
    recount = face_vector(cx)
    coloring_ok = check_coloring(cc)
    balanced_ok = coloring_ok and cc.colors_used() <= cx.dimension + 1
    return GraphRecord(
        graph_id=gid,
        clique_vec=cv,
        colors=report.colors,
        margins=report.margins,
        face_vec=report.face_vec,
        vectors_equal=recount == report.face_vec == cv,
        coloring_ok=coloring_ok,
        balanced_ok=balanced_ok,
    )


class _RecordMemo(dict):
    """Packed clique vector -> the verified record of that vector, with an
    empty graph_id, built on the vector's first sight.

    The guard is checked there too: the first mask whose vector is over the
    cap is always that vector's first sight, so a sweep trips at the same
    mask as a recount of every graph would.
    """

    def __init__(self) -> None:
        super().__init__()
        self.cap = face_guard()

    def __missing__(self, packed: int) -> GraphRecord:
        cv = unpack_clique_vector(packed)
        if sum(cv) > self.cap:
            raise GuardExceeded(f"clique count exceeds the cap {self.cap}")
        record = self[packed] = _verified_record(cv, gid="")
        return record


def exhaustive_sweep(n: int):
    """The sweep every exhaustive consumer shares: ``(rows, memo)``.

    ``rows`` yields ``(first, vectors)`` one high part at a time, where
    ``vectors[i]`` is the packed clique vector of the graph with edge mask
    ``first + i``; ``memo[packed]`` is that vector's record.
    """
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive verification capped at n <= {EXHAUSTIVE_CAP}")
    if n < 0:
        raise ValueError(f"exhaustive verification needs n >= 0, got {n}")
    return packed_clique_rows(n), _RecordMemo()


def iter_exhaustive_records(n: int):
    """Per-graph records over every labeled graph on n vertices, in mask order.

    Each graph's clique vector is exact and its own, computed by vertex
    extension from the graph with vertex 1 removed (``packed_clique_rows``);
    the construction and its recount are memoized per clique vector, since
    the constructed complex is a function of the vector alone.
    """
    rows, memo = exhaustive_sweep(n)
    for first, vectors in rows:
        for mask, packed in enumerate(vectors, first):
            yield replace(memo[packed], graph_id=f"mask:{n}:{mask}")


def exhaustive_verify(n: int) -> VerificationReport:
    """Verify every labeled graph on n vertices; failures come in mask order.

    Each row reads the memo once per distinct vector, in first-sight order;
    per-graph records are built only for the failing graphs, in the rows that
    hold them.
    """
    rows, memo = exhaustive_sweep(n)
    total = 0
    failures: list[GraphRecord] = []
    for first, vectors in rows:
        total += len(vectors)
        if not all(memo[packed].ok for packed in dict.fromkeys(vectors)):
            failures += [replace(memo[packed], graph_id=f"mask:{n}:{mask}")
                         for mask, packed in enumerate(vectors, first) if not memo[packed].ok]
    return VerificationReport(total, total - len(failures), tuple(failures))


def random_graph(n: int, p: Fraction, key: str) -> Graph:
    """Deterministic G(n, p) sample; ``key`` seeds a dedicated generator,
    whose t-th draw decides bit t of the edge mask."""
    rng = random.Random(key)
    num, den = p.numerator, p.denominator
    mask = sum(1 << t for t in range(comb(n, 2)) if rng.randrange(den) < num)
    return Graph.from_edge_mask(n, mask)


def iter_random_records(n: int, p, trials: int, seed: int):
    """Seeded, reproducible stream of verification records on G(n, p) samples.

    Each trial draws from its own generator keyed by (seed, trial index), so
    any sub-range of trials can be reproduced independently.
    """
    if n > RANDOM_VERTEX_LIMIT:
        raise ValueError(f"random verification capped at n <= {RANDOM_VERTEX_LIMIT}")
    if n < 0:
        raise ValueError(f"random verification needs n >= 0, got {n}")
    if trials < 0:
        raise ValueError(f"random verification needs trials >= 0, got {trials}")
    try:
        p = Fraction(p)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"edge probability must be a fraction like 1/2, got {p!r}") from None
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    for t in range(trials):
        yield verify_graph(random_graph(n, p, key=f"{seed}:{t}"))


def random_verify(n: int, p, trials: int, seed: int) -> VerificationReport:
    """Seeded random spot check; identical arguments give identical reports."""
    return tally(iter_random_records(n, p, trials, seed))


def oracle_face_count(spec: LevelSpec, colors: int | None = None) -> tuple[int, ...]:
    """Face vector of the (colored) rev-lex complex by full closure.

    Entirely independent of the canonical-representation bound formulas; this
    is the ground truth the bounds are validated against.
    """
    return tuple(_close(revlex_faces(spec, colors), 0, face_guard())[1])
