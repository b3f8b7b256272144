"""Graphs on labels 1..n with bitmask adjacency.

Clique counting is the workhorse, over candidate masks and never storing the
cliques: a whole clique vector pivots, so one leaf stands for 2^q cliques,
and a pass bounded by depth (the pair construction's) enumerates by
recursive extension, its last level counting its candidates.  A subgraph
is a vertex mask over its graph (a link is ``adj[i] & mask``), so nothing
is ever copied or relabelled; a graph carries a label map only when it
comes from vertex names that are not 1..n, as a complex's 1-skeleton does.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from math import comb

from .errors import GuardExceeded, InputFormatError
from .limits import EXHAUSTIVE_CAP, face_guard

MASK_WIDTH_CAP = 64


# ---------------------------------------------------------------------------
# Adjacency codec: every decoder lists its edges as 0-based pairs (i, j) and
# hands them to ``_adjacency``; the two bit orders are written once each.

def _adjacency(n: int, pairs) -> tuple[int, ...]:
    """Neighbor masks of the graph on vertices 0..n-1 whose edges are ``pairs``."""
    adj = [0] * n
    for i, j in pairs:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return tuple(adj)


@lru_cache(maxsize=MASK_WIDTH_CAP + 1)  # every edge-mask decode reads it
def _lex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Edge-mask bit order: bit t is the t-th pair in lexicographic order,
    (0,1), (0,2), ..., (n-2,n-1), i.e. labels (1,2), (1,3), ..., (n-1,n)."""
    return tuple(combinations(range(n), 2))


def _graph6_pairs(n: int):
    """graph6 bit order: column by column, (0,1), (0,2), (1,2), (0,3), ..."""
    return ((i, j) for j in range(1, n) for i in range(j))


def _mask_adjacency(n: int, mask: int) -> tuple[int, ...]:
    """Neighbor masks of the graph whose edges are the set bits of ``mask``;
    bits beyond the C(n, 2) pairs are ignored.  Walks the set bits only."""
    pairs, picked = _lex_pairs(n), []
    mask &= (1 << len(pairs)) - 1
    while mask:
        low = mask & -mask
        picked.append(pairs[low.bit_length() - 1])
        mask ^= low
    return _adjacency(n, picked)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``adj[i]`` is the neighbor bitmask of vertex i.

    Bits are 0-based internal indices; public labels are ``labels[i]`` when a
    label map is present and i + 1 otherwise.  Label maps are kept ascending
    so faces built from them stay sorted.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[int, ...] | None = None

    def label(self, i: int) -> int:
        return self.labels[i] if self.labels is not None else i + 1

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        """Graph whose edge set is the bits of ``mask`` over pairs in
        lexicographic order (1,2), (1,3), ..., (n-1,n)."""
        return cls(n=n, adj=_mask_adjacency(n, mask))


def _clique_counts(adj: tuple[int, ...] | list[int], within: int, cap: int,
                   depth: int, credit: list[int] | None = None) -> list[int]:
    """Counts of the cliques among the vertices of the mask ``within`` by size,
    c_0 = 1, up to ``depth`` vertices; recursive extension on bitmasks, where
    the last level counts its candidates and walks none of them.

    With a ``credit`` list, indexed by vertex, the last level also adds its
    candidate count to each member of its prefix clique and 1 to each
    candidate, so ``credit[i]`` gains the number of ``depth``-cliques through
    vertex i: the clique count of its link one level down, for every vertex
    at once."""
    counts = [0] * (depth + 1)
    counts[0] = 1
    total = 1
    stack = [(within, 0, 0)] if depth else []
    while stack:
        cand, size, prefix = stack.pop()
        size += 1
        if size == depth:
            last = cand.bit_count()
            counts[size] += last
            total += last
            if credit is not None:
                while prefix:
                    b = prefix & -prefix
                    prefix ^= b
                    credit[b.bit_length() - 1] += last
                while cand:
                    b = cand & -cand
                    cand ^= b
                    credit[b.bit_length() - 1] += 1
            cand = 0
        while cand:
            b = cand & -cand
            cand ^= b
            counts[size] += 1
            total += 1
            rest = cand & adj[b.bit_length() - 1]
            if rest:
                stack.append((rest, size, prefix | b))
        if total > cap:
            raise GuardExceeded(f"clique count exceeds the cap {cap}")
    while counts and counts[-1] == 0:
        counts.pop()
    return counts


LANE = 8  # bits per count in a packed clique vector; c_k <= C(7, 3) = 35 < 2^8


def _bit_reversal(width: int) -> list[int]:
    """``table[m]`` is m with its ``width`` low bits in reverse order."""
    table = [0]
    for _ in range(width):
        table = [r << 1 for r in table] + [r << 1 | 1 for r in table]
    return table


def _extend(sub: list[int], nbrs: int) -> list[int]:
    """One subset-recursion doubling: a new vertex, adjacent to the index
    mask ``nbrs``, as the next index bit of ``sub``."""
    return sub + [s + (sub[m & nbrs] << LANE) for m, s in enumerate(sub)]


def packed_clique_rows(n: int):
    """Packed clique vectors of every graph on n <= 7 vertices, in edge-mask order.

    Count c_k sits in bits [8k, 8k + 8) of one int, so a vector sum is one
    add.  The low n-1 bits of a mask are vertex 1's pairs and ``mask >> (n-1)``
    is H = G - 1 in the same order, so c(G) = c(H) + (c(H[N(1)]) << 8).  A
    subset recursion over H gives every induced vector, S[N] = S[N - u] +
    (S[N & adj_H(u)] << 8) (the zeta transform of Björklund et al., *Fourier
    meets Möbius*).  It runs from H's highest-numbered vertex down: the pairs
    of vertex u and above are the high bits of H's mask, so each prefix of
    those bits is extended once and its ``sub`` list shared by every row
    below it.  Per row only H's lowest vertex is added.  Top-down, index bit
    t of ``sub`` is H's vertex n-2-t, so the neighbor masks and the final
    read go through bit-reversal tables.  Yields ``(first, vectors)`` once
    per H: ``vectors[low]`` belongs to the mask ``first + low``.
    """
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive generation capped at n <= {EXHAUSTIVE_CAP}")
    if n < 2:  # H has no vertex: the vectors (1) and (1, 1)
        yield 0, [1 + (n << LANE)]
        return
    width = n - 1
    # H's vertex u has ``above`` = width-1-u vertices over it; its pairs to
    # them are the next bits down of H's mask.  Each value of those bits, in
    # increasing order, is read through the table as a mask of index bits.
    prefixes = [[1]]
    for above in range(width - 1):  # vertices width-1 down to 1, shared
        table = _bit_reversal(above)
        prefixes = [_extend(sub, nbrs) for sub in prefixes for nbrs in table]
    last, read, first = _bit_reversal(width - 1), _bit_reversal(width), 0
    for sub in prefixes:
        for nbrs in last:  # vertex 0, once per row
            sub0 = _extend(sub, nbrs)
            whole = sub0[-1]
            yield first, [whole + (sub0[m] << LANE) for m in read]
            first += 1 << width


def unpack_clique_vector(packed: int) -> tuple[int, ...]:
    """The clique vector a packed int holds; it ends at the clique number."""
    lanes = []
    while packed:
        lanes.append(packed & ((1 << LANE) - 1))
        packed >>= LANE
    return tuple(lanes)


def _pivot_counts(adj: tuple[int, ...], within: int, cap: int) -> list[int]:
    """Counts of all the cliques among the vertices of the mask ``within`` by
    size, c_0 = 1, by pivoting (Jain and Seshadhri, *The Power of Pivoting
    for Exact Clique Counting*, WSDM 2020).

    A node (P, held, free) stands for every clique "held vertices, any subset
    of the ``free`` pivots, and a clique of G[P]".  Its pivot p is the
    candidate with the most neighbors in P: the cliques within p's closed
    neighborhood go on with p free and P cut to its neighbors, and as in
    Bron-Kerbosch each non-neighbor of p is held in one child, with the
    non-neighbors before it dropped.  A leaf (P empty) stands for 2^free
    cliques, C(free, i) of them of size held + i; leaves are tallied by
    (held, free) and expanded once at the end.  The guard adds 2^free per
    leaf, so it trips iff the total, c_0 included, passes ``cap``, as the
    enumerating ``_clique_counts`` does, with the same message."""
    width = within.bit_count() + 1
    leaves: dict[int, int] = {}  # keyed by held * width + free
    total = 0
    stack = [(within, 0, 0)]  # (P, held * width, free)
    while stack:
        cand, at, free = stack.pop()
        while cand:
            if not cand & (cand - 1):  # a lone candidate is a free pivot
                free += 1
                break
            most, rest, full = -1, cand, cand.bit_count() - 1
            while rest:
                b = rest & -rest
                rest ^= b
                nbrs = adj[b.bit_length() - 1] & cand
                deg = nbrs.bit_count()
                if deg > most:
                    most, pivot, inside = deg, b, nbrs
                    if deg == full:
                        break
            rest = cand ^ pivot
            others = rest & ~inside
            while others:
                b = others & -others
                others ^= b
                rest ^= b
                sub = rest & adj[b.bit_length() - 1]
                if sub:
                    stack.append((sub, at + width, free))
                else:  # a leaf, tallied without a push
                    key = at + width + free
                    leaves[key] = leaves.get(key, 0) + 1
                    total += 1 << free
            cand = inside
            free += 1
        key = at + free
        leaves[key] = leaves.get(key, 0) + 1
        total += 1 << free
        if total > cap:
            raise GuardExceeded(f"clique count exceeds the cap {cap}")
    counts = [0] * width
    for key, times in leaves.items():
        held, free = divmod(key, width)
        for i in range(free + 1):
            counts[held + i] += times * comb(free, i)
    while counts[-1] == 0:
        counts.pop()
    return counts


def clique_vector(g: Graph) -> tuple[int, ...]:
    """Face vector of the clique complex: c_i counts the i-vertex cliques."""
    return tuple(_pivot_counts(g.adj, (1 << g.n) - 1, face_guard()))


# ---------------------------------------------------------------------------
# Parsing: edge-list and graph6 inputs.

def parse_graph(text: str, fmt: str | None = None) -> Graph:
    """Parse EdgeList or graph6 input; auto-detect by first meaningful byte.

    Blank lines and ``#`` comments are skipped.  Edge-list input starts with
    a digit (its "n m" header); every valid graph6 byte is >= 63, so the two
    never collide.
    """
    lines = [s for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]
    if fmt is None:
        if not lines:
            raise InputFormatError("empty graph input")
        fmt = "edges" if lines[0][0].isdigit() else "graph6"
    if fmt == "edges":
        return _parse_edge_list(lines)
    if fmt == "graph6":
        return _parse_graph6(lines)
    raise InputFormatError(f"unknown graph format {fmt!r}")


def _parse_edge_list(lines: list[str]) -> Graph:
    if not lines:
        raise InputFormatError("empty edge-list input")
    header = lines[0].split()
    if len(header) != 2:
        raise InputFormatError(f"edge-list header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise InputFormatError(f"edge-list header must be 'n m', got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise InputFormatError("vertex and edge counts must be nonnegative")
    if n > MASK_WIDTH_CAP:
        raise InputFormatError(f"edge-list vertex count {n} beyond the {MASK_WIDTH_CAP}-vertex cap")
    body = lines[1:]
    if len(body) != m:
        raise InputFormatError(f"header declares {m} edges but {len(body)} lines follow")
    seen: set[tuple[int, int]] = set()
    duplicates: list[tuple[int, int]] = []
    for line in body:
        tokens = line.split()
        if len(tokens) != 2:
            raise InputFormatError(f"edge line must be 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InputFormatError(f"edge line must be 'u v', got {line!r}") from None
        if u == v:
            raise InputFormatError(f"self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise InputFormatError(f"edge ({u},{v}) out of range 1..{n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            duplicates.append(key)
        seen.add(key)
    if duplicates:
        warnings.warn(f"{len(duplicates)} duplicate edge(s) ignored, the first is {duplicates[0]}",
                      stacklevel=3)
    return Graph(n=n, adj=_adjacency(n, ((u - 1, v - 1) for u, v in seen)))


GRAPH6_HEADER = ">>graph6<<"


def _parse_graph6(lines: list[str]) -> Graph:
    if not lines:
        raise InputFormatError("empty graph6 input")
    if len(lines) > 1:
        raise InputFormatError(f"graph6 input holds {len(lines)} lines; give one graph per input")
    line = lines[0]
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    data = [ord(ch) - 63 for ch in line]
    if any(x < 0 or x > 63 for x in data):
        raise InputFormatError(f"invalid graph6 byte in {line!r}")
    if not data:
        raise InputFormatError("empty graph6 line")
    if data[0] < 63:
        n, rest = data[0], data[1:]
    elif len(data) >= 4 and data[1] < 63:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        rest = data[4:]
    elif len(data) >= 8:
        n = 0
        for x in data[2:8]:
            n = (n << 6) | x
        rest = data[8:]
    else:
        raise InputFormatError(f"truncated graph6 size in {line!r}")
    if n > MASK_WIDTH_CAP:
        raise InputFormatError(f"graph6 vertex count {n} beyond the {MASK_WIDTH_CAP}-vertex cap")
    need = (comb(n, 2) + 5) // 6
    if len(rest) != need:
        raise InputFormatError(f"graph6 body length {len(rest)}, expected {need} for n={n}")
    bits = [(x >> (5 - i)) & 1 for x in rest for i in range(6)]
    return Graph(n=n, adj=_adjacency(n, compress(_graph6_pairs(n), bits)))


def graph6_encode(g: Graph) -> str:
    """Standard graph6 line for a graph (no trailing newline)."""
    n = g.n
    if n > MASK_WIDTH_CAP:
        raise ValueError(f"graph6 encoding capped at {MASK_WIDTH_CAP} vertices here")
    if n <= 62:
        prefix = chr(n + 63)
    else:
        prefix = chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    bits = [g.adj[i] >> j & 1 for i, j in _graph6_pairs(n)]
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for t in range(0, len(bits), 6):
        x = 0
        for b in bits[t:t + 6]:
            x = (x << 1) | b
        chars.append(chr(x + 63))
    return prefix + "".join(chars)
