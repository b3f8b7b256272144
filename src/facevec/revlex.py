"""Rev-lex (colexicographic) order on k-sets and the complexes built from it.

A set A precedes B (|A| = |B|) when the largest element of their symmetric
difference lies in B; equivalently, reversed tuples compare lexicographically.
Enumeration is successor-based; rank/unrank via the combinatorial number
system is kept alongside as an independent cross-check for the uncolored
order.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from math import comb

from .complexes import ColoredComplex, Complex, Face
from .errors import GuardExceeded, InputFormatError
from .limits import face_guard


def revlex_key(face: Face) -> tuple[int, ...]:
    """Sort key realizing rev-lex order among equal-size faces."""
    return tuple(reversed(face))


def revlex_compare(a: Face, b: Face) -> int:
    """-1, 0 or 1 as ``a`` precedes, equals or follows ``b`` in rev-lex order."""
    if len(a) != len(b):
        raise ValueError(f"rev-lex compares equal-size faces only: {a} vs {b}")
    ka, kb = revlex_key(a), revlex_key(b)
    if ka == kb:
        return 0
    return -1 if ka < kb else 1


def next_kset(face: Face) -> Face:
    """Successor of a k-set in rev-lex order over all positive integers."""
    k = len(face)
    if k == 0:
        raise ValueError("the empty face has no rev-lex successor")
    for i in range(k):
        bumped = face[i] + 1
        if i + 1 == k or bumped < face[i + 1]:
            return tuple(range(1, i + 1)) + (bumped,) + face[i + 1:]
    raise AssertionError("unreachable")


def kset_rank(face: Face) -> int:
    """0-based rev-lex position via the combinatorial number system."""
    return sum(comb(v - 1, i) for i, v in enumerate(face, start=1))


def kset_unrank(rank: int, k: int) -> Face:
    """Inverse of ``kset_rank`` for k-sets."""
    out = []
    for i in range(k, 0, -1):
        v = i
        while comb(v, i) <= rank:
            v += 1
        rank -= comb(v - 1, i)
        out.append(v)
    return tuple(reversed(out))


def is_permissible(face: Face, r: int) -> bool:
    """True iff no two elements are congruent modulo r."""
    return len({v % r for v in face}) == len(face)


def next_permissible_kset(face: Face, r: int) -> Face:
    """Next r-permissible k-set after ``face`` in rev-lex order."""
    nxt = next_kset(face)
    while not is_permissible(nxt, r):
        nxt = next_kset(nxt)
    return nxt


# Initial segments are append-only and shared: segment (k, r)[i] is the
# (i+1)-th (r-permissible) k-set, r = None meaning no color constraint.
# Growth happens behind a lock; readers only ever slice a stable prefix.
_segments: dict[tuple[int, int | None], list[Face]] = {}
_segment_lock = threading.Lock()


def _segment(m: int, k: int, r: int | None) -> list[Face]:
    if m == 0:
        return []
    seg = _segments.setdefault((k, r), [])
    if len(seg) < m:
        with _segment_lock:
            if not seg:
                seg.append(tuple(range(1, k + 1)))
            while len(seg) < m:
                prev = seg[-1]
                seg.append(next_kset(prev) if r is None else next_permissible_kset(prev, r))
    return seg[:m]


def first_ksets(m: int, k: int) -> list[Face]:
    """The first m k-sets in rev-lex order."""
    if k < 1:
        raise ValueError("face size must be positive")
    return _segment(m, k, None)


def first_permissible_ksets(m: int, k: int, r: int) -> list[Face]:
    """The first m r-permissible k-sets in rev-lex order.

    No permissible k-set exists at all when k > r, so only m = 0 is
    satisfiable there.
    """
    if k < 1:
        raise ValueError("face size must be positive")
    if k > r:
        if m == 0:
            return []
        raise ValueError(f"no {r}-permissible {k}-set exists; cannot produce {m}")
    return _segment(m, k, r)


@dataclass(frozen=True)
class LevelSpec:
    """Requested face counts per size: ((size, count), ...), sizes increasing."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 0
        for size, count in self.entries:
            if size <= prev:
                raise ValueError(f"level sizes must strictly increase: {self.entries}")
            if count < 0:
                raise ValueError(f"level counts must be nonnegative: {self.entries}")
            prev = size

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "LevelSpec":
        return cls(entries=tuple(pairs))

    @classmethod
    def parse(cls, text: str) -> "LevelSpec":
        """Parse the CLI form "i1:m1,i2:m2,..."."""
        entries = []
        for chunk in text.split(","):
            part = chunk.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) != 2:
                raise InputFormatError(f"level entry must be 'size:count', got {part!r}")
            try:
                entries.append((int(pieces[0]), int(pieces[1])))
            except ValueError:
                raise InputFormatError(f"level entry must be integers, got {part!r}") from None
        if not entries:
            raise InputFormatError(f"no levels in {text!r}")
        try:
            return cls(entries=tuple(entries))
        except ValueError as exc:
            raise InputFormatError(str(exc)) from None


def _union(spec: LevelSpec, colors: int | None) -> Complex:
    """Union of the requested initial segments; refused before enumerating when
    the empty face plus the requested faces (all distinct) pass the guard."""
    cap = face_guard()
    if 1 + sum(count for _, count in spec.entries) > cap:
        raise GuardExceeded(f"requested levels exceed the face cap {cap}")
    facets: list[Face] = []
    for size, count in spec.entries:
        facets.extend(first_ksets(count, size) if colors is None
                      else first_permissible_ksets(count, size, colors))
    return Complex.from_faces(facets if facets else [()])


def revlex_complex(spec: LevelSpec) -> Complex:
    """Union of the initial-segment complexes at every requested level.

    When adjacent requested levels respect the shadow bound, the closure has
    exactly the requested number of faces at each level; this function builds
    the complex either way and leaves exactness to its callers.
    """
    return _union(spec, None)


def colored_revlex_complex(spec: LevelSpec, colors: int) -> ColoredComplex:
    """Union of permissible initial segments, colored by label residue.

    Vertex v gets color ((v - 1) mod colors) + 1; permissible faces never
    repeat a residue, so the coloring is proper by construction.
    """
    if colors < 1:
        raise ValueError("need at least one color")
    cx = _union(spec, colors)
    coloring = {v: (v - 1) % colors + 1 for v in cx.vertices}
    return ColoredComplex(complex=cx, colors=colors, coloring=coloring)
