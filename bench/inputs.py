"""Seeded inputs for the four workloads, made without the code under test.

Every generator draws from ``random.Random(f"{workload}:{seed}")``, so one
seed always gives the same inputs.  The program only ever receives what is
made here: graphs (graph6 lines), ``n``, or ``(m, k, r)`` queries.

Input sizes come in two scales: ``full`` for measurement and ``tiny`` for
the benchmark's own self-test.
"""
from __future__ import annotations

import random
from itertools import combinations
from math import comb

# Sizes per scale.  The full sizes are what BENCHMARK.json measures.
SIZES = {
    "full": {
        "sweep_n": 6,
        "sample_n": 16,
        # Graphs per clique number: the G(16, 1/2) mix (about 1/4, 5/8, 1/8),
        # fixed so that each seed carries the same mix of cheap and costly ops.
        "sample_quota": {4: 37, 5: 94, 6: 19},
        # (n, edges, clique number, closure weight) per dense shape: see
        # _dense_graph.  The targets are the medians of the draws with that
        # clique number.
        "dense_deep": (38, 527, 11, 10_240_000),
        "dense_wide": (64, 1008, 8, 585_000),
        "dense_counts": (1, 3),  # deep graphs, wide graphs
        "bounds_queries": 20_000,
        "bounds_log10_max": 10,
    },
    "tiny": {
        "sweep_n": 4,
        "sample_n": 8,
        "sample_quota": {3: 2, 4: 2},
        "dense_deep": (12, 50, None, None),
        "dense_wide": (16, 60, None, None),
        "dense_counts": (1, 1),
        "bounds_queries": 300,
        "bounds_log10_max": 4,
    },
}

MAX_K = 8  # bounds queries use k in 1..MAX_K and color budgets r in k..MAX_K


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# Independent combinatorics (the checkers use these, never the program's).

def clique_counts(adj: list[int], n: int) -> list[int]:
    """Clique counts by size, c_0 = 1, by a plain recursive extension."""
    counts = [1]

    def extend(cand: int, size: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            if len(counts) <= size + 1:
                counts.append(0)
            counts[size + 1] += 1
            extend(cand & adj[low.bit_length() - 1], size + 1)

    extend((1 << n) - 1, 0)
    return counts


def turan_value(n: int, j: int, r: int) -> int:
    """j-cliques of the balanced complete r-partite graph on n vertices."""
    if j > r:
        return 0
    q, rem = divmod(n, r)
    coeffs = [1] + [0] * j
    for size in [q + 1] * rem + [q] * (r - rem):
        for i in range(j, 0, -1):
            coeffs[i] += coeffs[i - 1] * size
    return coeffs[j]


def graph6(adj: list[int], n: int) -> str:
    """graph6 line of a bitmask adjacency list (n < 2^18)."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = chr(126) + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    bits = [adj[i] >> j & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[t:t + 6])), 2)) for t in range(0, len(bits), 6)
    )
    return head + body


def _graph_from_pairs(n: int, chosen) -> list[int]:
    adj = [0] * n
    for i, j in chosen:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


# ---------------------------------------------------------------------------
# Workload inputs.

def sweep_inputs(seed: int, scale: str) -> dict:
    """Whole exhaustive sweeps only; n is fixed, so the seed changes nothing."""
    n = SIZES[scale]["sweep_n"]
    return {"n": n, "ops": 1 << comb(n, 2)}


def sample_inputs(seed: int, scale: str) -> dict:
    """A seeded stream of G(n, 1/2) graphs, kept until each clique-number
    quota is full, with their clique vectors."""
    size = SIZES[scale]
    rng = rng_for("sample", seed)
    n, left = size["sample_n"], dict(size["sample_quota"])
    graphs = []
    while any(left.values()):
        adj = _graph_from_pairs(n, [p for p in combinations(range(n), 2) if rng.random() < 0.5])
        cv = clique_counts(adj, n)
        if left.get(len(cv) - 1):
            left[len(cv) - 1] -= 1
            graphs.append({"g6": graph6(adj, n), "cliquevec": cv})
    return {"graphs": graphs, "ops": len(graphs)}


def _dense_graph(rng: random.Random, n: int, edges: int, omega, weight) -> dict:
    """First G(n, edges) draw with clique number ``omega`` and closure weight
    sum_i c_i 2^i within 4 % of ``weight`` (None: no condition).

    The twin is a function of the clique vector alone, and its cost follows
    the closure weight, so the condition keeps the work per seed even.
    """
    pairs = list(combinations(range(n), 2))
    while True:
        adj = _graph_from_pairs(n, rng.sample(pairs, edges))
        cv = clique_counts(adj, n)
        closure_weight = sum(c << i for i, c in enumerate(cv))
        if (omega is None or len(cv) - 1 == omega) and (
                weight is None or abs(closure_weight - weight) <= 0.04 * weight):
            return {"g6": graph6(adj, n), "cliquevec": cv}


def dense_inputs(seed: int, scale: str) -> dict:
    """Deep graphs G(38, 527 edges), then wide graphs G(64, 1008 edges)."""
    size = SIZES[scale]
    rng = rng_for("dense", seed)
    deep, wide = size["dense_counts"]
    graphs = [dict(_dense_graph(rng, *size["dense_deep"]), shape="deep") for _ in range(deep)]
    graphs += [dict(_dense_graph(rng, *size["dense_wide"]), shape="wide") for _ in range(wide)]
    return {"graphs": graphs, "ops": len(graphs)}


def bounds_inputs(seed: int, scale: str) -> dict:
    """Canonical-bound queries: k in 1..8, half plain, half colored.

    m is log-uniform in [1, 10^top], drawn stratified within each (k, r)
    class so that every class reaches close to 10^top on every seed: the
    largest m of a class sets its table growth, which would otherwise make
    the per-seed cost swing.
    """
    size = SIZES[scale]
    rng = rng_for("bounds", seed)
    total, top = size["bounds_queries"], size["bounds_log10_max"]
    # k cycles through 1..MAX_K; colored queries cycle r through k..MAX_K.
    by_class: dict = {}
    for i in range(total):
        k, turn = i // 2 % MAX_K + 1, i // (2 * MAX_K)
        cls = (k, None) if i % 2 == 0 else (k, k + turn % (MAX_K - k + 1))
        by_class[cls] = by_class.get(cls, 0) + 1
    queries = []
    for (k, r), count in by_class.items():
        for i in range(count):
            exponent = top * (i + rng.random()) / count
            queries.append([max(1, int(10 ** exponent)), k, r])
    rng.shuffle(queries)
    return {"queries": queries, "ops": len(queries)}


GENERATORS = {
    "sweep": sweep_inputs,
    "sample": sample_inputs,
    "dense": dense_inputs,
    "bounds": bounds_inputs,
}
