"""Simplicial complexes stored by their facets.

Faces are strictly ascending tuples of positive vertex labels; the empty
tuple is the empty face.  A complex that contains any face at all contains
the empty face; the complex with no faces whatsoever is represented by an
empty facet set and reports the empty face vector ().
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby
from math import comb

from .errors import GuardExceeded
from .limits import face_guard

Face = tuple[int, ...]
FaceVector = tuple[int, ...]


def validate_face(face: Face) -> Face:
    """Reject anything that is not a strictly ascending tuple of labels >= 1."""
    face = tuple(face)
    for prev, cur in zip((0,) + face, face):
        if cur <= prev:
            raise ValueError(f"face must be strictly ascending positive labels: {face}")
    return face


def vec_entry(vec: tuple[int, ...], i: int) -> int:
    """Entry i of a face/clique vector, 0 beyond its length."""
    return vec[i] if 0 <= i < len(vec) else 0


@dataclass(frozen=True)
class Complex:
    """An abstract simplicial complex, canonically represented by its facets."""

    facets: frozenset[Face]

    @classmethod
    def from_faces(cls, faces) -> "Complex":
        """Build a complex whose face set is the downward closure of ``faces``.

        Only the given faces that lie in no larger one are kept, so equal
        complexes always compare equal.  The walk stops at the smallest given
        size, so a lone simplex costs nothing to build.
        """
        pool = [validate_face(f) for f in faces]
        return cls(frozenset(_close(pool, min(map(len, pool), default=0), face_guard())[0]))

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        """Sorted labels of every vertex; scanned once per complex, and not
        part of equality or hashing, which stay on ``facets``."""
        return tuple(sorted({v for f in self.facets for v in f}))

    @property
    def dimension(self) -> int:
        """Largest face size minus one; -1 for both degenerate complexes."""
        return max((len(f) for f in self.facets), default=0) - 1


@dataclass(frozen=True, eq=True)
class ColoredComplex:
    """A complex together with a total vertex coloring into 1..colors."""

    complex: Complex
    colors: int
    coloring: dict[int, int]

    def colors_used(self) -> int:
        return len(set(self.coloring.values()))


def _close(faces, floor: int, cap: int) -> tuple[set[Face], list[set[Face]]]:
    """Walk the downward closure of ``faces`` from the largest size to ``floor``.

    Level s is the given s-faces plus the codimension-1 boundaries of level
    s+1, so by induction it holds every s-face of the closure; a given face
    in no boundary is a facet.  Returns the facets and the levels by size,
    empty below ``floor``.  Raises ``GuardExceeded`` once the walk holds more
    than ``cap`` faces, or up front when one level of the largest face would.
    """
    given: dict[int, set[Face]] = {}
    for size, run in groupby(faces, len):
        given.setdefault(size, set()).update(run)
    top = max(given, default=-1)
    if top >= 0 and comb(top, max(floor, top // 2)) > cap:
        raise GuardExceeded(f"closure exceeds the face cap {cap}")
    levels: list[set[Face]] = [set() for _ in range(top + 2)]
    facets: set[Face] = set()
    room = cap
    for s in range(top, floor - 1, -1):
        level, own = levels[s], given.get(s, set())
        for f in levels[s + 1]:
            level.update(combinations(f, s))
            if len(level) > room:
                break
        facets |= own - level
        level |= own
        room -= len(level)
        if room < 0:
            raise GuardExceeded(f"closure exceeds the face cap {cap}")
    return facets, levels[:-1]


def face_vector(c: Complex) -> FaceVector:
    """Exact face counts (c_0, c_1, ..., c_d) of the closure; () when empty."""
    return tuple(map(len, _close(c.facets, 0, face_guard())[1]))


def check_coloring(cc: ColoredComplex) -> bool:
    """Totality, properness on the 1-skeleton, and color range, as one flag."""
    col = cc.coloring
    for v in cc.complex.vertices:
        if v not in col or not 1 <= col[v] <= cc.colors:
            return False
    # Properness: vertices sharing a face are pairwise adjacent, so every
    # facet must be rainbow.
    for facet in cc.complex.facets:
        if len({col[v] for v in facet}) != len(facet):
            return False
    return True
