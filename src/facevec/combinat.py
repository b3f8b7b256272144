"""Exact integer combinatorics behind the shadow bounds.

Plain binomials serve complexes with no coloring constraint; Turán binomials
(k-clique counts of complete multipartite graphs with balanced parts) serve
complexes that must stay r-colorable.  Both bounds go through the same two
steps: expand a face count m canonically at index k, then re-evaluate the
expansion with every index shifted up by one.

One greedy descent serves both, a color budget of None meaning plain.  Each
term comes from a log-domain root estimate and an exact integer search, in
time logarithmic in m and with no tables.  One memo, ``_forms``, holds each
form's shadow (the rev-lex levels) and successor bound (every bound check).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, exp, lgamma, log

from .errors import InvariantViolation


@lru_cache(maxsize=1 << 14)  # values recur across nearby descents and their bounds
def turan_binom(n: int, k: int, r: int) -> int:
    """Number of k-cliques of the balanced complete r-partite graph on n vertices.

    The parts take two sizes, q + 1 (rem of them) and q (``_transversals``).
    Vanishes for k > r and reduces to a plain binomial once r >= n.
    """
    if k > r:
        return 0
    if n <= r:
        return comb(n, k)
    q, rem = divmod(n, r)
    return _transversals(rem, r - rem, q, k)


def _transversals(a: int, b: int, q: int, j: int) -> int:
    """j-cliques of the complete multipartite graph with ``a`` parts of size
    q + 1 and ``b`` of size q: one vertex from each of j parts, i of them
    large, sum_i C(a, i) C(b, j - i) (q + 1)^i q^(j - i) over nonzero terms."""
    total = 0
    for i in range(max(0, j - b), min(j, a) + 1):
        total += comb(a, i) * comb(b, j - i) * (q + 1) ** i * q ** (j - i)
    return total


@dataclass(frozen=True)
class CanonicalRep:
    """Canonical expansion of an integer as a descending sum of (Turán) binomials.

    ``terms`` holds pairs (n_j, j) with j = k, k-1, ... descending by exactly
    one.  ``color_budget`` is None for the plain expansion; with a budget r the
    term at index j is evaluated as a Turán binomial with r - (k - j) colors.
    The empty term list represents m = 0.
    """

    k: int
    color_budget: int | None
    terms: tuple[tuple[int, int], ...]

    def budget_at(self, j: int) -> int | None:
        if self.color_budget is None:
            return None
        return self.color_budget - (self.k - j)

    def _shifted_sum(self, shift: int) -> int:
        r, k = self.color_budget, self.k
        if r is None:
            return sum(comb(n, j + shift) for n, j in self.terms)
        return sum(turan_binom(n, j + shift, r - k + j) for n, j in self.terms)

    def evaluate(self) -> int:
        """Recover the integer this expansion represents."""
        return self._shifted_sum(0)

    def successor_bound(self) -> int:
        """Evaluate the expansion with every index raised by one.

        This is the largest possible face count one level up: the shadow-type
        bound attached to this representation.
        """
        return self._shifted_sum(1)

    def shadow(self) -> int:
        """Evaluate the expansion with every index lowered by one.

        This is the size of the (k-1)-shadow of the first m (permissible)
        k-sets in rev-lex order, itself an initial segment (Kruskal-Katona;
        Frankl-Füredi-Kalai for colored sets).
        """
        return self._shifted_sum(-1)

    def validate(self) -> None:
        """Check the chain conditions that make the expansion unique."""
        k, r, terms = self.k, self.color_budget, self.terms
        for idx, (n, j) in enumerate(terms):
            if j != k - idx or j < 1 or n < j:
                raise InvariantViolation(f"bad term chain in {self}")
        for (n_hi, j_hi), (n_lo, _) in zip(terms, terms[1:]):
            if r is None and n_hi <= n_lo:
                raise InvariantViolation(f"values not strictly decreasing in {self}")
            if r is not None and n_hi - n_hi // (r - k + j_hi) <= n_lo:
                raise InvariantViolation(f"colored chain condition fails in {self}")


def _largest(m: int, k: int, r: int | None) -> tuple[int, int]:
    """Largest n with value(n, k) <= m, and that value, for m >= 1 and 1 <= k <= r.

    C(n, k) <= (n - (k-1)/2)^k / k!, and turan_binom(n, k, r) <= C(r, k) (n/r)^k
    with equality when r divides n; below r, where m < (r/k)^k, it is C(n, k).
    Inverted in the log domain these start at or just below the answer; an
    exact gallop, then a bisection, settle it for any m.
    """
    log_m = log(m)
    try:
        if r is not None and log_m >= k * log(r / k):
            start = int(r * exp((log_m - log(comb(r, k))) / k))
        else:
            start = int(exp((log_m + lgamma(k + 1)) / k) + (k - 1) / 2)
    except OverflowError:  # k, r / k or the root is beyond float range: climb from k
        start = k
    start = k if start < k else start
    probe, step, lo, hi = start, 1, None, None
    while True:
        value = comb(probe, k) if r is None else turan_binom(probe, k, r)
        if value <= m:
            lo, lo_value = probe, value
        else:
            hi = probe
        if hi is None:
            probe, step = start + step, 2 * step
        elif lo is None:  # float rounding put the start above the answer
            probe, step = max(start - step, k), 2 * step
        elif hi - lo > 1:
            probe = (lo + hi) // 2
        else:
            return lo, lo_value


def _canonical(m: int, k: int, r: int | None) -> CanonicalRep:
    """Greedy largest-term descent, dropping one color per index step if r is set."""
    if m < 0 or k < 1:
        raise ValueError(f"need m >= 0 and k >= 1, got m={m}, k={k}")
    if r is not None and r < k:
        raise ValueError(f"color budget r={r} must be at least k={k}")
    terms: list[tuple[int, int]] = []
    j, rho = k, r
    while m > 0:
        if j < 1:
            raise InvariantViolation(f"greedy descent ran out of indices for m={m}")
        n, value = (m, m) if j == 1 else _largest(m, j, rho)
        terms.append((n, j))
        m -= value
        j -= 1
        rho = None if rho is None else rho - 1
    rep = CanonicalRep(k=k, color_budget=r, terms=tuple(terms))
    rep.validate()
    return rep


def kk_canonical(m: int, k: int) -> CanonicalRep:
    """k-canonical representation of m: greedy largest-binomial descent.

    The chain condition n_k > n_{k-1} > ... >= last index always holds and is
    re-checked before returning, so a violation can only mean a bug.
    """
    return _canonical(m, k, None)


def kk_shadow_bound(m: int, k: int) -> int:
    """Maximum possible count of (k+1)-faces in any complex with m k-faces."""
    return kk_canonical(m, k).successor_bound()


def ffk_canonical(m: int, k: int, r: int) -> CanonicalRep:
    """(k, r)-canonical representation of m, for color budget r >= k.

    Greedy descent on Turán binomials, dropping one color per index step; the
    colored chain condition n_j - floor(n_j / budget) > n_{j-1} is re-checked.
    """
    return _canonical(m, k, r)


def ffk_bound(m: int, k: int, r: int) -> int:
    """Maximum count of (k+1)-faces in an r-colorable complex with m k-faces."""
    return _forms(m, k, r)[1]


@lru_cache(maxsize=1 << 14)  # levels, margins and pair checks repeat their counts
def _forms(m: int, k: int, r: int | None) -> tuple[int, int]:
    """Shadow and successor bound of the (k, r)-canonical form of m, the
    plain k-canonical one when r is None: one descent per (m, k, r)."""
    rep = kk_canonical(m, k) if r is None else ffk_canonical(m, k, r)
    return rep.shadow(), rep.successor_bound()
