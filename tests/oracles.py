"""Independent brute-force oracles used across the test suite.

The oracles work straight from definitions with itertools and math.comb and
never call into the package, so agreement between the two is evidence, not
circularity.  There are two exceptions.  The graph helpers build and read
the package's ``Graph`` as test inputs, and the tests check them against the
oracles; ``residue_colored`` likewise wraps a complex in the package's
``ColoredComplex``.  The walk oracles at the end generate faces with the package's
rev-lex segments and walk their closure with its ``_close``, as the builders
did before they read their complexes off the level counts; the derived
builders are held to them, guard trips included.  The exact chromatic solver
at the very end reads a ``Complex``'s 1-skeleton into a ``Graph``; it is held
to ``brute_chromatic``, and ``verify``'s balancedness certificate to it.
"""
from bisect import bisect_right
from itertools import combinations, product
from math import comb

from facevec.complexes import ColoredComplex, Complex, _close
from facevec.errors import GuardExceeded
from facevec.graphs import Graph, _adjacency, _lex_pairs
from facevec.limits import EXHAUSTIVE_CAP, face_guard
from facevec.revlex import LevelSpec, first_permissible_ksets, revlex_faces


def precedes(a, b):
    """Definitional rev-lex order: max of the symmetric difference lies in b."""
    sa, sb = set(a), set(b)
    diff = sa ^ sb
    if not diff:
        return False
    return max(diff) in sb


def sort_revlex(faces):
    """Sort faces by repeated use of the definitional comparison."""
    out = list(faces)
    # insertion sort keeps us honest: only `precedes` drives the order
    for i in range(1, len(out)):
        j = i
        while j > 0 and precedes(out[j], out[j - 1]):
            out[j], out[j - 1] = out[j - 1], out[j]
            j -= 1
    return out


def next_kset(face):
    """Successor of a k-set in rev-lex order over all positive integers."""
    k = len(face)
    if k == 0:
        raise ValueError("the empty face has no rev-lex successor")
    for i in range(k):
        bumped = face[i] + 1
        if i + 1 == k or bumped < face[i + 1]:
            return tuple(range(1, i + 1)) + (bumped,) + face[i + 1:]
    raise AssertionError("unreachable")


def kset_rank(face):
    """0-based rev-lex position via the combinatorial number system."""
    return sum(comb(v - 1, i) for i, v in enumerate(face, start=1))


def kset_unrank(rank, k):
    """Inverse of ``kset_rank`` for k-sets."""
    out = []
    for i in range(k, 0, -1):
        v = i
        while comb(v, i) <= rank:
            v += 1
        rank -= comb(v - 1, i)
        out.append(v)
    return tuple(reversed(out))


def brute_closure(facets):
    faces = set()
    for f in facets:
        for s in range(len(f) + 1):
            faces.update(combinations(sorted(f), s))
    return faces


def brute_is_flag(facets):
    """Closure equals the set of every clique of its 1-skeleton, compared as sets."""
    faces = brute_closure(facets)
    if not faces:
        return True
    verts = sorted({v for f in faces for v in f})
    edges = {f for f in faces if len(f) == 2}
    cliques = {sub for size in range(len(verts) + 1) for sub in combinations(verts, size)
               if all(pair in edges for pair in combinations(sub, 2))}
    return faces == cliques


def brute_face_vector(faces):
    if not faces:
        return ()
    counts = [0] * (max(len(f) for f in faces) + 1)
    for f in faces:
        counts[len(f)] += 1
    return tuple(counts)


def pairwise_permissible(face, r):
    return all((b - a) % r != 0 for a, b in combinations(face, 2))


def permissible_ksets(m, k, r, universe=None):
    """First m permissible k-sets by filter-and-sort over a finite universe.

    The universe grows until it holds strictly more than m sets, which
    guarantees the first m are the true global initial segment.
    """
    top = universe or (k + r)
    while True:
        found = [f for f in combinations(range(1, top + 1), k) if pairwise_permissible(f, r)]
        if len(found) > m or universe is not None:
            break
        top += r
    found.sort(key=lambda f: tuple(reversed(f)))
    assert len(found) >= m, "universe too small for the requested segment"
    return found[:m]


def rejection_permissible_ksets(m, k, r):
    """First m r-permissible k-sets by rejection: step through every k-set in
    rev-lex order and keep those whose residues mod r are distinct."""
    out = []
    face = list(range(1, k + 1))
    while len(out) < m:
        if len({v % r for v in face}) == k:
            out.append(tuple(face))
        # rev-lex successor: raise the lowest element that can rise, reset the ones below
        i = 0
        while i + 1 < k and face[i] + 1 == face[i + 1]:
            i += 1
        face[i] += 1
        face[:i] = range(1, i + 1)
    return out


def brute_cliques_by_size(n, edges):
    """Clique counts per size by testing every vertex subset."""
    es = {tuple(sorted(e)) for e in edges}
    counts = [0] * (n + 1)
    counts[0] = 1
    for size in range(1, n + 1):
        for sub in combinations(range(1, n + 1), size):
            if all(tuple(sorted(p)) in es for p in combinations(sub, 2)):
                counts[size] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def cliques_through_each_vertex(adj, within, depth):
    """Per vertex index i, the count of cliques on ``depth`` vertices of the
    mask ``within`` that contain i (0 outside the mask), by one recount of
    each vertex's link to depth - 1 vertices: the slow path that a credited
    clique count replaces."""

    def count(cand, left):  # cliques on exactly ``left`` more vertices of cand
        if left == 0:
            return 1
        total = 0
        while cand:
            b = cand & -cand
            cand ^= b
            total += count(cand & adj[b.bit_length() - 1], left - 1)
        return total

    return [count(adj[i] & within, depth - 1) if within >> i & 1 else 0
            for i in range(len(adj))]


def neighbors(v, edges):
    """Labels adjacent to v."""
    return {u for e in edges if v in e for u in e if u != v}


def induced_relabelled(keep, edges):
    """The subgraph induced on the labels ``keep``, relabelled 1..len(keep) in
    ascending order, as (vertex count, edges)."""
    pos = {v: i for i, v in enumerate(sorted(keep), start=1)}
    return len(pos), [(pos[u], pos[v]) for u, v in edges if u in pos and v in pos]


def brute_chromatic(n, edges):
    """Smallest k admitting a proper coloring, by trying every assignment."""
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for coloring in product(range(k), repeat=n):
            if all(coloring[u - 1] != coloring[v - 1] for u, v in edges):
                return k
    raise AssertionError("unreachable")


def turan_edges_roundrobin(n, r):
    """Turán graph with parts assigned round-robin (v mod r), as a cross-check
    against the package's contiguous-block assignment."""
    return [
        (u, v)
        for u, v in combinations(range(1, n + 1), 2)
        if u % r != v % r
    ]


def edge_mask_pairs(n):
    """Edge-mask bit order spelled out: bit t is the t-th pair of
    (1,2), (1,3), ..., (1,n), (2,3), ..., (n-1,n)."""
    pairs = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            pairs.append((u, v))
    return pairs


def decode_edge_mask(n, mask):
    """Edges named by the set bits of an edge mask, in bit order."""
    return [pair for t, pair in enumerate(edge_mask_pairs(n)) if mask >> t & 1]


def decode_graph6(line):
    """Straightforward graph6 decoder, small sizes only."""
    data = [ord(ch) - 63 for ch in line]
    n = data[0]
    bits = []
    for x in data[1:]:
        bits.extend((x >> (5 - i)) & 1 for i in range(6))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i + 1, j + 1))
            idx += 1
    return n, edges


def kk_term_lists(m, k):
    """Every term list meeting the plain chain conditions and summing to m."""
    results = []

    def extend(remaining, j, upper, prefix):
        if j < 1:
            return
        for n in range(j, upper):
            val = comb(n, j)
            if val > remaining:
                break
            chain = prefix + [(n, j)]
            if val == remaining:
                results.append(chain)
            else:
                extend(remaining - val, j - 1, n, chain)

    extend(m, k, m + k + 1, [])
    return results


def ffk_term_lists(m, k, r, turan_binom):
    """Every term list meeting the colored chain conditions and summing to m.

    ``turan_binom`` is injected so the arithmetic (but not the search) can be
    shared with the implementation under test.
    """
    results = []

    def extend(remaining, j, rho, upper, prefix):
        if j < 1 or rho < 1:
            return
        for n in range(j, upper):
            val = turan_binom(n, j, rho)
            if val > remaining:
                break
            chain = prefix + [(n, j)]
            if val == remaining:
                results.append(chain)
            else:
                extend(remaining - val, j - 1, rho - 1, n - n // rho, chain)

    extend(m, k, r, m + k + 1, [])
    return results


def kk_chains_by_sum(limit, k):
    """Map m -> list of valid plain term lists with sum m, for all m <= limit."""
    buckets = {}

    def extend(total, j, upper, prefix):
        if j < 1:
            return
        for n in range(j, upper):
            val = comb(n, j)
            if total + val > limit:
                break
            chain = prefix + ((n, j),)
            buckets.setdefault(total + val, []).append(chain)
            extend(total + val, j - 1, n, chain)

    extend(0, k, limit + k + 1, ())
    return buckets


def ffk_chains_by_sum(limit, k, r, turan_binom):
    """Map m -> list of valid colored term lists with sum m, for all m <= limit."""
    buckets = {}

    def extend(total, j, rho, upper, prefix):
        if j < 1 or rho < 1:
            return
        for n in range(j, upper):
            val = turan_binom(n, j, rho)
            if total + val > limit:
                break
            chain = prefix + ((n, j),)
            buckets.setdefault(total + val, []).append(chain)
            extend(total + val, j - 1, rho - 1, n - n // rho, chain)

    extend(0, k, r, limit + k + 1, ())
    return buckets


def turan_binom_slow(n, k, r):
    """k-cliques of the balanced complete r-partite graph on n vertices, as the
    k-th elementary symmetric polynomial of the part sizes, one part at a time."""
    if k > r:
        return 0
    q, rem = divmod(n, r)
    coeffs = [1] + [0] * k
    for part in [q + 1] * rem + [q] * (r - rem):
        for i in range(k, 0, -1):
            coeffs[i] += coeffs[i - 1] * part
    return coeffs[k]


def slow_value(n, k, r):
    """C(n, k) for the plain expansion (r None), the slow Turán binomial otherwise."""
    return comb(n, k) if r is None else turan_binom_slow(n, k, r)


def greedy_terms_by_table(m, k, r, tables):
    """Greedy canonical term list of m at index k, color budget r (None: plain).

    At each index j the table of value(j + i, j), i = 0, 1, ..., grows until it
    passes m and the greedy term is found by bisection in it; index 1 takes
    n = m directly.  ``tables`` maps (j, budget) to its table and may be
    shared between calls; its memory grows like m ** (1 / j).
    """
    terms = []
    j, rho = k, r
    while m > 0:
        if j == 1:
            terms.append((m, 1))
            break
        table = tables.setdefault((j, rho), [1])
        while table[-1] <= m:
            table.append(slow_value(j + len(table), j, rho))
        idx = bisect_right(table, m) - 1
        terms.append((j + idx, j))
        m -= table[idx]
        j -= 1
        rho = None if rho is None else rho - 1
    return terms


# ---------------------------------------------------------------------------
# Graph helpers: test inputs built on the package's ``Graph``.

def graph_from_edges(n, edges):
    """The graph on labels 1..n whose edges are the given label pairs."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    edges = list(edges)
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) out of range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
    return Graph(n=n, adj=_adjacency(n, ((u - 1, v - 1) for u, v in edges)))


def edges(g):
    """Edges as label pairs, in edge-mask order."""
    return [(g.label(i), g.label(j)) for i, j in _lex_pairs(g.n) if g.adj[i] >> j & 1]


def cliques(g):
    """Yield every clique as an ascending label tuple, the empty one included."""
    cap = face_guard()
    emitted = 0

    def extend(prefix, cand):
        nonlocal emitted
        while cand:
            b = cand & -cand
            cand ^= b
            i = b.bit_length() - 1
            cur = prefix + (g.label(i),)
            emitted += 1
            if emitted > cap:
                raise GuardExceeded(f"clique count exceeds the cap {cap}")
            yield cur
            rest = cand & g.adj[i]
            if rest:
                yield from extend(cur, rest)

    yield ()
    if g.n:
        yield from extend((), (1 << g.n) - 1)


def turan_parts(n, r):
    """Sizes of the r parts of n vertices split as evenly as possible, non-increasing."""
    q, rem = divmod(n, r)
    return [q + 1] * rem + [q] * (r - rem)


def turan_graph(n, r):
    """Complete r-partite graph on n vertices with parts as even as possible.

    Vertices 1..n are assigned to parts in contiguous blocks, largest first.
    """
    part_of = []
    for p, size in enumerate(turan_parts(n, r)):
        part_of.extend([p] * size)
    cross = ((i, j) for i, j in _lex_pairs(n) if part_of[i] != part_of[j])
    return Graph(n=n, adj=_adjacency(n, cross))


def all_graphs(n):
    """All labeled graphs on n vertices, in increasing edge-mask order."""
    if n > EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive generation capped at n <= {EXHAUSTIVE_CAP}")
    for mask in range(1 << comb(n, 2)):
        yield Graph.from_edge_mask(n, mask)


def complex_and_face_vector(faces):
    """The complex the trusted ``faces`` generate and its face vector, from
    one ``_close`` walk down to the empty face, under the face guard."""
    facets, levels = _close(faces, 0, face_guard())
    return Complex(frozenset(facets)), tuple(map(len, levels))


def walked_pair(trace):
    """The pair complex of a top-level ``construct_pair`` trace by its walk:
    its facets in printed order (smaller first, each size in rev-lex order)
    and its face vector.  The faces are the rev-lex complex of the trace's
    levels, on one color fewer under a cone, and one cone per step, from its
    added vertex over the first a k-sets and b (k-1)-sets."""
    k = trace.k
    colors = trace.colors - 1 if trace.kind == "cone" else trace.colors
    faces = revlex_faces(LevelSpec(trace.base_levels), colors)
    for step in trace.steps:
        cone_base = [()] + first_permissible_ksets(step.a, k, colors)
        if k >= 2:
            cone_base += first_permissible_ksets(step.b, k - 1, colors)
        faces += [f + (step.added_vertex,) for f in cone_base]
    cx, vec = complex_and_face_vector(faces)
    return sorted(cx.facets, key=lambda f: (len(f), f[::-1])), vec


def residue_colored(cx, colors):
    """``cx`` with vertex v colored ((v - 1) mod colors) + 1.

    Permissible faces never repeat a residue, so on a complex built from
    them the coloring is proper by construction.
    """
    return ColoredComplex(cx, colors, {v: (v - 1) % colors + 1 for v in cx.vertices})


# ---------------------------------------------------------------------------
# Exact chromatic solver: the reference that ``verify``'s balancedness
# certificate is held to.  It reads the package's ``Complex`` and ``Graph``.

# Exact chromatic number is only attempted up to this many vertices.
CHROMATIC_CAP = 20


def one_skeleton(c):
    """Underlying graph: all vertices, edges = two-element faces."""
    verts = c.vertices
    index = {v: i for i, v in enumerate(verts)}
    pairs = ((index[u], index[w]) for facet in c.facets for u, w in combinations(facet, 2))
    labels = None if verts == tuple(range(1, len(verts) + 1)) else verts
    return Graph(n=len(verts), adj=_adjacency(len(verts), pairs), labels=labels)


def chromatic_number(g):
    """Exact chromatic number by branch and bound; capped at small vertex counts."""
    n = g.n
    if n > CHROMATIC_CAP:
        raise ValueError(f"too many vertices for exact coloring: {n} > {CHROMATIC_CAP}")
    if n == 0:
        return 0

    # Greedy clique gives a valid lower bound, greedy coloring an upper bound.
    order = sorted(range(n), key=lambda v: -g.adj[v].bit_count())
    clique_mask, lb = 0, 0
    for v in order:
        if clique_mask & ~g.adj[v] == 0:
            clique_mask |= 1 << v
            lb += 1
    greedy = {}
    for v in order:
        taken = {greedy[u] for u in greedy if g.adj[v] >> u & 1}
        color = 1
        while color in taken:
            color += 1
        greedy[v] = color
    ub = max(greedy.values())

    adj = g.adj
    colors = [0] * n

    def colorable(i, used, k):
        if i == n:
            return True
        v = order[i]
        taken = 0
        m = adj[v]
        while m:
            b = m & -m
            m ^= b
            cu = colors[b.bit_length() - 1]
            if cu:
                taken |= 1 << cu
        # Allowing at most one brand-new color breaks color-class symmetry.
        for color in range(1, min(used + 1, k) + 1):
            if taken >> color & 1:
                continue
            colors[v] = color
            if colorable(i + 1, max(used, color), k):
                return True
            colors[v] = 0
        return False

    for k in range(lb, ub):
        if colorable(0, 0, k):
            return k
    return ub


def is_balanced(c):
    """True iff the chromatic number of the 1-skeleton equals dimension + 1."""
    if not c.vertices:
        return True
    return chromatic_number(one_skeleton(c)) == c.dimension + 1
