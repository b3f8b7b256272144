"""Turns a graph's clique counts into colored complexes with the same counts.

Two entry points: ``construct_pair`` matches the clique counts at one pair of
adjacent levels (k, k+1) with a complex on a limited color budget, following
the inductive cone construction step by step and recording an auditable
trace; ``construct_balanced`` matches the whole clique vector at once with a
single multi-level colored rev-lex complex.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .combinat import ffk_bound
from .complexes import ColoredComplex, Complex, Face, FaceVector, vec_entry
from .errors import GuardExceeded, InvariantViolation
from .graphs import Graph, _clique_counts, clique_vector
from .limits import face_guard
from .revlex import LevelSpec, _levels, _residue_coloring, _tails, revlex_tails


@dataclass(frozen=True)
class TraceStep:
    """One cone step: vertex processed, and the two face counts of its link."""

    vertex: int
    a: int  # k-face count of the link within the shrinking graph
    b: int  # (k-1)-face count of the same link
    added_vertex: int  # label of the fresh color-r cone vertex


@dataclass(frozen=True)
class ConstructionTrace:
    """Auditable record of one recursion level of the pair construction."""

    kind: str  # "vertices" | "flat" | "cone"
    k: int
    colors: int
    base_levels: tuple[tuple[int, int], ...]
    pivot: int | None = None
    non_neighbors: tuple[int, ...] = ()
    steps: tuple[TraceStep, ...] = ()
    sub: "ConstructionTrace | None" = None


def construct_pair(g: Graph, r: int, k: int) -> tuple[ColoredComplex, ConstructionTrace]:
    """r-colorable complex matching g's clique counts at levels k and k+1.

    Requires that g has no clique on r+1 vertices.  Inductive construction:
    pick the pivot vertex in the most (k+1)-cliques, peel the pivot and its
    non-neighbors one at a time, realize the pivot link's counts as a colored
    rev-lex complex on r-1 colors, then cone one fresh color-r vertex per
    peeled vertex over an initial segment sized by that vertex's link counts.
    Only the top level is realized, read off its level counts; the levels
    below it are audited through their traces alone.  The full clique count
    of g trips the guard where any count would, and every recount below is
    of a subgraph, to depth k + 1 at most.
    """
    cc, trace, _, _ = _construct_pair(g, r, k, clique_vector(g))
    return cc, trace


def _construct_pair(g: Graph, r: int, k: int, cv: tuple[int, ...] | list[int]
                    ) -> tuple[ColoredComplex, ConstructionTrace, FaceVector, list[Face]]:
    """``construct_pair`` from g's full clique vector ``cv``, with the face
    vector and the printed facets of the complex, read off its levels: each
    cone's base lies within the base, its lengths count one level up, and a
    base facet lies past what every cone holds.  The base's counts are g's
    clique counts, under the guard already; the closure is checked once."""
    if r < 1:
        raise ValueError("need a positive color budget")
    if k < 0:
        raise ValueError("need k >= 0")
    if vec_entry(cv, r + 1) > 0:
        raise ValueError(f"graph has a clique on {r + 1} vertices; budget {r} infeasible")
    cap = face_guard()
    trace = _trace(g, (1 << g.n) - 1, cv, None, r, k, cap)

    colors = r - 1 if trace.kind == "cone" else r
    base = list(_levels(LevelSpec(trace.base_levels), colors))
    cones = [(step.added_vertex,  # ascending, so the cones print in this order
              list(_levels(LevelSpec.of(*([(k - 1, step.b)] if k >= 2 else []), (k, step.a)),
                           colors)))
             for step in reversed(trace.steps)]
    counts, held = Counter({s: length for s, _, length in base}), Counter()
    for _, levels in cones:
        for s, _, length in levels:
            counts[s + 1] += length
            held[s] = max(held[s], length)
    face_vec = tuple(counts[s] for s in range(max(counts) + 1))
    if sum(face_vec) > cap:
        raise GuardExceeded(f"closure exceeds the face cap {cap}")
    facets = sorted(_tails(base, colors, held) + [f + (apex,) for apex, levels in cones
                                                  for f in _tails(levels, colors, {})], key=len)
    coloring = _residue_coloring(range(1, counts[1] - len(cones) + 1), colors)  # the base's 1..L_1
    coloring.update((apex, r) for apex, _ in cones)
    return (ColoredComplex(complex=Complex(frozenset(facets)), colors=r, coloring=coloring),
            trace, face_vec, facets)


def _trace(g: Graph, within: int, cv: tuple[int, ...] | list[int],
           credit: list[int] | None, r: int, k: int, cap: int) -> ConstructionTrace:
    """Trace of the pair construction on the subgraph of g induced by the
    vertex mask ``within``, whose clique counts are ``cv`` up to size k + 1
    at least; ``credit[i]`` is the count of (k+1)-cliques of that subgraph
    through vertex i, from one credited pass (made here when None).

    Each level makes one credited pass, over the pivot's surviving link to
    depth k + 1.  It gives the next level's ``cv`` and credits and the
    pivot's own step; only the peeled non-neighbors are recounted, to
    depth k.  Each level reads c_{k-1}, c_k and c_{k+1} only."""
    ck, ck1 = vec_entry(cv, k), vec_entry(cv, k + 1)
    if k == 0:
        return ConstructionTrace(kind="vertices", k=0, colors=r,
                                 base_levels=((1, vec_entry(cv, 1)),))
    if ck1 == 0:
        return ConstructionTrace(kind="flat", k=k, colors=r, base_levels=((k, ck),))

    # Pivot: the vertex in the most (k+1)-cliques, i.e. whose link has the
    # most k-cliques; ties go to the lowest label (bit i is label i + 1),
    # and vertices outside ``within`` carry no credit.
    adj = g.adj
    if credit is None:
        credit = [0] * g.n
        _clique_counts(adj, within, cap, k + 1, credit)
    i0 = max(range(g.n), key=credit.__getitem__)
    if credit[i0] == 0:
        raise InvariantViolation("pivot lies in no (k+1)-clique despite c_{k+1} > 0")
    others = within & ~adj[i0] & ~(1 << i0)
    non_neighbors = [i for i in range(g.n) if others >> i & 1]

    # What survives the peeling is the link of v_0; its one credited pass
    # also gives v_0's own step, the counts of the same link.
    current = within & adj[i0]
    link_credit = [0] * g.n
    link_cv = _clique_counts(adj, current, cap, k + 1, link_credit)
    ck_link, ck1_link = vec_entry(link_cv, k), vec_entry(link_cv, k + 1)
    if ck1_link >= ck1:
        raise InvariantViolation("peeling failed to reduce the (k+1)-face count")

    # Peel v_0, v_1, ..., v_s, recording each peeled vertex's link counts.
    steps = [(i0 + 1, ck_link, vec_entry(link_cv, k - 1))]
    peeled = within & ~(1 << i0)
    for i in non_neighbors:
        lv = _clique_counts(adj, adj[i] & peeled, cap, k)
        steps.append((i + 1, vec_entry(lv, k), vec_entry(lv, k - 1)))
        peeled &= ~(1 << i)

    # Inner induction on the (k+1)-count, over the link's mask.
    sub = _trace(g, current, link_cv, link_credit, r - 1, k, cap)

    if ffk_bound(ck_link, k, r - 1) < ck1_link:
        raise InvariantViolation("link counts violate the colored shadow bound")

    # Base levels: the link's counts at (k, k+1), over the subgraph's own
    # c_{k-1}, which covers every b_i and, by the colored bound on the flag
    # link, the shadow of its c_k k-sets: the check below is that theorem.
    pad = vec_entry(cv, k - 1) if k >= 2 else 0
    if k >= 2 and ffk_bound(pad, k - 1, r - 1) < ck_link:
        raise InvariantViolation("padded level cannot support the link's k-faces")
    levels = LevelSpec.of(*([(k - 1, pad)] if k >= 2 else []), (k, ck_link), (k + 1, ck1_link))

    for v, a, b in reversed(steps):
        if a > ck_link:
            raise InvariantViolation(f"step clique count {a} exceeds the base's {ck_link}")
        if k >= 2:
            if b > pad:
                raise InvariantViolation(f"step shadow count {b} exceeds the padded level {pad}")
            if ffk_bound(b, k - 1, r - 1) < a:
                raise InvariantViolation(f"step counts ({a}, {b}) violate the colored bound")

    # One fresh color-r vertex per peeled vertex, latest peel first, above
    # the base's vertices, 1 up to its level-1 length.
    *_, (_, _, vertices), _ = _levels(levels, r - 1)
    last = len(steps) + vertices
    recorded = tuple(TraceStep(v, a, b, last - i) for i, (v, a, b) in enumerate(steps))

    return ConstructionTrace(
        kind="cone",
        k=k,
        colors=r,
        base_levels=levels.entries,
        pivot=i0 + 1,
        non_neighbors=tuple(i + 1 for i in non_neighbors),
        steps=recorded,
        sub=sub,
    )


@dataclass(frozen=True)
class BalancedReport:
    """Input and output counts of a whole-vector construction, with margins."""

    colors: int
    clique_vec: tuple[int, ...]
    face_vec: tuple[int, ...]
    margins: tuple[int, ...] = field(default=())  # ffk bound slack per level pair
    # The twin's facets in printed order: smaller first, each size in rev-lex order.
    facets: tuple[Face, ...] = field(default=(), compare=False, repr=False)


def construct_from_vector(cv: tuple[int, ...]) -> tuple[ColoredComplex, BalancedReport]:
    """Whole-vector construction from a clique vector alone.

    The output is a function of the vector, not of the graph it came from;
    ``construct_balanced`` is this plus the clique count of its input.  The
    reported face vector is derived from the level counts, not counted on a
    walk of the complex (``revlex_tails``).
    """
    r = len(cv) - 1
    margins = []
    for i in range(1, r):
        slack = ffk_bound(cv[i], i, r) - cv[i + 1]
        if slack < 0:
            raise InvariantViolation(f"clique vector {cv} violates the colored bound at level {i}")
        margins.append(slack)
    face_vec, facets = (revlex_tails(LevelSpec.of(*((i, cv[i]) for i in range(1, r + 1))), r)
                        if r else ((1,), [()]))
    report = BalancedReport(colors=r, clique_vec=cv, face_vec=face_vec, margins=tuple(margins),
                            facets=tuple(facets))
    coloring = _residue_coloring(range(1, vec_entry(face_vec, 1) + 1), r)
    return ColoredComplex(complex=Complex(frozenset(facets)), colors=r, coloring=coloring), report


def construct_balanced(g: Graph) -> tuple[ColoredComplex, BalancedReport]:
    """Balanced complex whose face vector equals g's clique vector.

    With r the clique number, checks the colored shadow bound between every
    adjacent pair of clique counts (these always hold; a failure is a bug),
    then realizes all levels at once as one r-colored rev-lex complex, which
    equals the union of the per-pair complexes because every level is an
    initial segment of the same enumeration.
    """
    return construct_from_vector(clique_vector(g))
