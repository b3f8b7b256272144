"""Output checkers, one per workload.

Each checker takes a workload's outputs as plain data (text or lists) and
returns a ``Verdict``: how many operations it judged and which failed.  The
checks avoid the code under test wherever that is cheap: clique counts,
binomial and Turán values, rainbow facets and the sweep's aggregate identity
are all recomputed here.  Only the checks the workload definition asks for
by name (``CanonicalRep.evaluate``, ``check_coloring``, the rev-lex oracle)
call into the program, and those calls happen outside the timed section.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from inputs import clique_counts, turan_value

SPOT_CHECKS = 64  # sweep records whose clique vector is recounted here


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + ops)
        if len(self.messages) < 5:
            self.messages.append(message)


def _vec(text: str) -> list[int]:
    return [] if text == "-" else [int(x) for x in text.split(",")]


def check_sweep(text: str, n: int) -> Verdict:
    """`verify --exhaustive n --output records` text.

    Every record must be ok, carry its mask id in order, and report equal
    clique and face vectors.  The clique vectors must satisfy the aggregate
    identity sum_G c_k(G) = C(n,k) 2^(C(n,2) - C(k,2)), and a spread of
    records is recounted from its mask.
    """
    pairs = list(combinations(range(n), 2))
    expected = 1 << len(pairs)
    verdict = Verdict(expected)
    lines = text.split("\n")
    if lines[-1] != "":
        verdict.fail("output does not end with a newline", expected)
    lines = lines[:-1]
    if len(lines) != expected:
        verdict.fail(f"{len(lines)} records, expected {expected}", expected)
        return verdict
    totals = [0] * (n + 1)
    spot = set(range(0, expected, max(1, expected // SPOT_CHECKS)))
    for mask, line in enumerate(lines):
        head, sep, error = line.partition(" error=")
        fields = dict(tok.split("=", 1) for tok in head.split(" ") if "=" in tok)
        try:
            cv = _vec(fields["cliquevec"])
            good = (
                sep and error == "-"
                and fields["graph"] == f"mask:{n}:{mask}"
                and all(fields[k] == "1" for k in ("equal", "coloring", "balanced", "ok"))
                and fields["facevec"] == fields["cliquevec"]
                and int(fields["r"]) == len(cv) - 1
            )
        except (KeyError, ValueError):
            good, cv = False, []
        if good and mask in spot:
            adj = [0] * n
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            good = clique_counts(adj, n) == cv
        if not good:
            verdict.fail(f"bad record {mask}: {line[:120]}")
        for k, c in enumerate(cv[: n + 1]):
            totals[k] += c
    want = [comb(n, k) << (len(pairs) - comb(k, 2)) for k in range(n + 1)]
    if totals != want:
        verdict.fail(f"clique totals {totals} break the identity {want}", expected)
    return verdict


def check_dense(text: str, cliquevec: list[int]) -> tuple[Verdict, int]:
    """`construct <graph>` text for one graph; returns the verdict and faces.

    The printed clique vector must be the independently counted one, the face
    vector must equal it, and every facet must be rainbow under the printed
    coloring with colors in 1..r.
    """
    verdict = Verdict(1)

    def require(condition: bool, message: str) -> None:
        if not condition:
            raise ValueError(message)

    try:
        lines = text.split("\n")
        require(len(lines) > 4 and lines[-1] == "", "output truncated")
        r = int(lines[0].removeprefix("colors "))
        cv = [int(x) for x in lines[1].removeprefix("clique-vector ").split()]
        fv = [int(x) for x in lines[2].removeprefix("face-vector ").split()]
        require(lines[3].startswith("coloring"), "missing coloring line")
        coloring = dict(tuple(map(int, tok.split(":"))) for tok in lines[3].split()[1:])
        require(all(line.startswith("facet ") for line in lines[4:-1]), "stray line")
        facets = [tuple(map(int, line.split()[1:])) for line in lines[4:-1]]
        require(cv == cliquevec, f"clique-vector {cv} != counted {cliquevec}")
        require(fv == cv, f"face-vector {fv} != clique-vector {cv}")
        require(r == len(cv) - 1, f"colors {r} for clique number {len(cv) - 1}")
        require(all(1 <= c <= r for c in coloring.values()), "color out of range")
        for facet in facets:
            require(list(facet) == sorted(set(facet)), f"facet {facet} not ascending")
            colors = [coloring.get(v) for v in facet]
            require(None not in colors, f"uncolored vertex in {facet}")
            require(len(set(colors)) == len(facet), f"facet {facet} is not rainbow")
    except ValueError as exc:
        verdict.fail(f"dense output: {exc}")
        return verdict, 0
    return verdict, sum(fv)


def check_sample(ops: list[dict], graphs: list[dict]) -> Verdict:
    """Per graph: the verify record and one pair construction per level k.

    Each op is ``{"ok", "cliquevec", "facevec", "pairs": [[k, f_k, f_k1,
    coloring_ok, rainbow, faces]]}``; the record's vectors must match the
    clique vector counted here and every level 0..r-1 must be paired.
    """
    verdict = Verdict(len(graphs))
    if len(ops) != len(graphs):
        verdict.fail(f"{len(ops)} outputs for {len(graphs)} graphs", len(graphs))
        return verdict
    for i, (op, graph) in enumerate(zip(ops, graphs)):
        cv = graph["cliquevec"]
        padded = cv + [0]
        problems = []
        if op.get("error"):
            problems.append(op["error"])
        elif not (op["ok"] and op["cliquevec"] == cv and op["facevec"] == cv):
            problems.append(f"record {op['ok']} {op['cliquevec']} {op['facevec']}")
        elif [p[0] for p in op["pairs"]] != list(range(len(cv) - 1)):
            problems.append(f"levels {[p[0] for p in op['pairs']]}")
        else:
            for k, fk, fk1, coloring_ok, rainbow, _ in op["pairs"]:
                if [fk, fk1] != padded[k:k + 2] or not coloring_ok or not rainbow:
                    problems.append(f"pair k={k}: {fk},{fk1} {coloring_ok} {rainbow}")
        if problems:
            verdict.fail(f"graph {i}: {problems[0]}")
    return verdict


def _value(n: int, j: int, rho) -> int:
    return comb(n, j) if rho is None else turan_value(n, j, rho)


def check_bounds(ops: list[list], queries: list[list]) -> Verdict:
    """Each op is ``[terms, bound, evaluated, oracle]`` for query (m, k, r).

    The terms must be the greedy canonical expansion of m (checked with
    independent binomial and Turán values), ``evaluate()`` must give m back,
    the bound must be the shifted evaluation, and where the oracle closed
    the two-level rev-lex complex it must hit (m, bound) exactly.
    """
    verdict = Verdict(len(queries))
    if len(ops) != len(queries):
        verdict.fail(f"{len(ops)} outputs for {len(queries)} queries", len(queries))
        return verdict
    for i, ((m, k, r), op) in enumerate(zip(queries, ops)):
        if not isinstance(op, list):
            verdict.fail(f"query {i} ({m},{k},{r}): {op}")
            continue
        terms, bound, evaluated, oracle = op
        rest, shifted, good = m, 0, evaluated == m
        for idx, (n, j) in enumerate(terms):
            rho = None if r is None else r - (k - j)
            value = _value(n, j, rho)
            good = good and j == k - idx and j >= 1 and value <= rest < _value(n + 1, j, rho)
            rest -= value
            shifted += _value(n, j + 1, rho)
        good = good and rest == 0 and shifted == bound
        if oracle is not None:
            good = good and oracle == [m, bound]
        if not good:
            verdict.fail(f"query {i} ({m},{k},{r}): terms {terms} bound {bound}")
    return verdict
