"""Rev-lex (colexicographic) order on k-sets and the complexes built from it.

A set A precedes B (|A| = |B|) when the largest element of their symmetric
difference lies in B; equivalently, reversed tuples compare lexicographically.
Plain and r-permissible k-sets come from one nested walk in that order that
never builds a set it rejects: the sets are grouped by their largest
element, and each group is the smaller sets below it, with r set only those
whose residues avoid the ones already taken.  ``first_ksets``,
``first_permissible_ksets`` and ``revlex_faces`` read a cached prefix of each
segment; the facets ``revlex_tails`` and the twins print are walked from
their rank unless that prefix already reaches them.  ``combinat`` gives the
level shadows, from its one memo of canonical forms, and the group sizes.
"""
from __future__ import annotations

import threading
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import count, islice
from math import comb

from .combinat import _forms, _transversals
from .complexes import Face, FaceVector
from .errors import GuardExceeded, InputFormatError
from .limits import face_guard


def revlex_key(face: Face) -> tuple[int, ...]:
    """Sort key realizing rev-lex order among equal-size faces."""
    return tuple(reversed(face))


def _walk(k: int, r: int | None, skip: int = 0) -> Iterator[Face]:
    """Every k-set in rev-lex order from rank ``skip`` on, only the
    r-permissible ones when r is set.

    Rev-lex order is nested: the sets come grouped by their largest element
    ``top``, rising from k, and the group of ``top`` is the (j-1)-sets below
    it, in the same order.  With r set, those are the ones whose residues mod
    r avoid the bitmask ``used`` of the residues taken above, and a branch is
    entered only when the values below its top still hold as many free
    residues as elements are needed.  Either way every branch yields, so no
    set is rejected and each costs O(k) amortised.  The first ``skip`` sets
    are passed over a whole group at a time, by its size (``_below``).
    """
    def below(j: int, tops, used: int, suffix: Face, skip: int = 0) -> Iterator[Face]:
        for top in tops:
            bit = 0 if r is None else 1 << top % r
            if used & bit:
                continue
            if skip and skip >= (size := _below(top, j - 1, r, used | bit)):
                skip -= size
                continue
            if j == 1:
                yield (top,) + suffix
                continue
            used_here = used | bit
            # Once top > r every residue occurs below it, and with k - j + 1
            # of them used, k <= r leaves the j - 1 needed free; below a
            # smaller top the residues are the values 1..top-1 themselves.
            if r is None or top > r or ((1 << top) - 2 & ~used_here).bit_count() >= j - 1:
                yield from below(j - 1, range(j - 1, top), used_here, (top,) + suffix, skip)
                skip = 0

    return below(k, count(k), 0, (), skip)


def _below(top: int, j: int, r: int | None, used: int) -> int:
    """How many j-sets below ``top`` have distinct residues mod r outside
    ``used`` (all C(top - 1, j) when plain): with top - 1 = q r + rem, residues
    1..rem hold q + 1 values, the rest q, and each free residue is a part."""
    if r is None:
        return comb(top - 1, j)
    q, rem = divmod(top - 1, r)
    low = (1 << rem + 1) - 2
    return _transversals((low & ~used).bit_count(), r - rem - (used & ~low).bit_count(), q, j)


# Initial segments, append-only, shared by ``first_(permissible_)ksets`` and
# the tails they reach: segment (k, r)[i] is the (i+1)-th (r-permissible)
# k-set, r = None meaning no color constraint, and the walk next to it
# resumes where the list ends.  Growth happens behind a lock (a generator
# cannot be advanced by two threads at once); readers slice a stable prefix.
_segments: dict[tuple[int, int | None], tuple[list[Face], Iterator[Face]]] = {}
_segment_lock = threading.Lock()


def _segment(m: int, k: int, r: int | None, skip: int = 0) -> list[Face]:
    """Sets [skip, m) of segment (k, r); not cached when the list is short of skip."""
    if m < 0:
        raise ValueError(f"segment length must be nonnegative, got {m}")
    if m <= skip:
        return []
    have = len(_segments.get((k, r), ((),))[0])
    if have < skip:
        return list(islice(_walk(k, r, skip), m - skip))
    if have < m:
        with _segment_lock:
            seg, walk = _segments.setdefault((k, r), ([], _walk(k, r)))
            seg.extend(islice(walk, max(0, m - len(seg))))
    return _segments[k, r][0][skip:m]


def first_ksets(m: int, k: int) -> list[Face]:
    """The first m k-sets in rev-lex order."""
    return _first(m, k, None)


def first_permissible_ksets(m: int, k: int, r: int) -> list[Face]:
    """The first m r-permissible k-sets in rev-lex order.

    No permissible k-set exists at all when k > r, so only m = 0 is
    satisfiable there.
    """
    return _first(m, k, r)


def _require_permissible(m: int, k: int, r: int) -> None:
    if k > r and m > 0:
        raise ValueError(f"no {r}-permissible {k}-set exists; cannot produce {m}")


def _first(m: int, k: int, colors: int | None, skip: int = 0) -> list[Face]:
    """Sets [skip, m) of the rev-lex k-sets, ``colors``-permissible if set."""
    if k < 1:
        raise ValueError("face size must be positive")
    if colors is not None:
        _require_permissible(m, k, colors)
    return _segment(m, k, colors, skip)


@dataclass(frozen=True)
class LevelSpec:
    """Requested face counts per size: ((size, count), ...), sizes increasing."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 0
        for size, count in self.entries:
            if size < 1:
                raise ValueError(f"level sizes must be positive: {self.entries}")
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


def _admit(spec: LevelSpec, colors: int | None) -> int:
    """The face cap, once the color budget and the requested counts pass it:
    the empty face plus the requested faces, all distinct, must fit."""
    if colors is not None and colors < 1:
        raise ValueError("need at least one color")
    cap = face_guard()
    if 1 + sum(m for _, m in spec.entries) > cap:
        raise GuardExceeded(f"requested levels exceed the face cap {cap}")
    return cap


def revlex_faces(spec: LevelSpec, colors: int | None = None) -> list[Face]:
    """The requested initial segments, r-permissible ones when ``colors`` is r.

    Gives [()] when every count is 0, so the complex they generate is never
    the void one.  Refused before enumerating when the empty face plus the
    requested faces (all distinct) pass the guard.
    """
    _admit(spec, colors)
    return [f for size, m in spec.entries for f in _first(m, size, colors)] or [()]


def _levels(spec: LevelSpec, colors: int | None) -> Iterator[tuple[int, int, int]]:
    """Each level of the complex ``revlex_faces`` generates, from the top
    down to the empty face, as (s, start, L_s): L_s = max(m_s, start) sets,
    where start is the shadow of level s + 1, an initial segment whose
    length is read off ``combinat``'s memo once it is asked for."""
    given, shadow = dict(spec.entries), 0
    for s in range(max((s for s, m in spec.entries if m), default=0), 0, -1):
        length = max(given.get(s, 0), shadow)
        yield s, shadow, length
        shadow = _forms(length, s, colors)[0]
    yield 0, shadow, 1


def _tails(levels, colors: int | None, held: dict[int, int]) -> list[Face]:
    """The facets of ``levels``, smaller first and each size in rev-lex
    order: the s-sets past the shadow and past the first ``held[s]``, which
    lie in larger faces elsewhere; [()] when no face lies above the empty one."""
    return [f for s, start, length in reversed(levels)
            if length > (skip := max(start, held.get(s, 0)))
            for f in (_first(length, s, colors, skip) if s else [()])]


def revlex_tails(spec: LevelSpec, colors: int | None = None
                 ) -> tuple[FaceVector, list[Face]]:
    """Face vector and facets (``_tails``) of the complex ``revlex_faces``
    generates, read off its levels.  The closure's faces are counted against
    the cap level by level before any segment is enumerated, so the guard
    trips where a walk of the closure would, as soon as the count passes."""
    cap = _admit(spec, colors)
    for size, m in spec.entries if colors is not None else ():
        _require_permissible(m, size, colors)
    levels, total = [], 0
    for level in _levels(spec, colors):
        total += level[2]
        if total > cap:
            raise GuardExceeded(f"closure exceeds the face cap {cap}")
        levels.append(level)
    return tuple(length for _, _, length in reversed(levels)), _tails(levels, colors, {})


def _residue_coloring(vertices, colors: int) -> dict[int, int]:
    """Vertex v colored ((v - 1) mod colors) + 1.  A rev-lex complex's
    vertices are 1..L_1, its first L_1 1-sets, so it needs no facet scan."""
    return {v: (v - 1) % colors + 1 for v in vertices}
