"""Brute-force ground truth over tiny prime fields.

Vectors of F_{q^m}^n are enumerated as ell matrices of size m x eta with
entries in F_q (q prime), ranks are computed by forward elimination mod q,
and one pass over the whole space tallies every vector's distances to two
centers; sphere, ball and intersection counts are read off that tally.
Enumeration cost is q^{m*n} per pass, so one budget rule, `check_passes`,
guards every exhaustive count and every command's total of passes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from decimal import Decimal

from sumrank.compositions import RankProfile
from sumrank.qkit import InputError, smallest_prime_factor
from sumrank.volumes import Params

DEFAULT_BUDGET = 2**24

Matrix = tuple[tuple[int, ...], ...]


class OracleBudgetError(Exception):
    """The requested enumeration exceeds the configured budget."""

    def __init__(self, required: int, budget: int):
        # Decimal prints counts past the interpreter's int-to-str digit limit
        super().__init__(
            f"enumeration needs {Decimal(required)} candidates, budget is {budget}"
        )
        self.required = required
        self.budget = budget


def check_prime_field(q: int) -> None:
    """Raise InputError unless q is a prime: the oracle computes over F_q as integers mod q."""
    if q < 2 or smallest_prime_factor(q) != q:
        raise InputError(f"oracle requires a prime field size, got {q}")


def check_passes(p: Params, passes: int, budget: int) -> None:
    """Refuse a q that is not prime, then `passes` enumerations of p's space over budget.

    A space over the budget on its own is refused by its size, else by the total.
    """
    check_prime_field(p.q)
    for required in (p.space_size, passes * p.space_size):
        if required > budget:
            raise OracleBudgetError(required, budget)


def matrix_rank(mat: Matrix, q: int) -> int:
    """Rank of a matrix over F_q, its count of pivots; q must be prime (not checked).

    Forward elimination: each pivot clears only the rows below it.
    """
    rows = [list(r) for r in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv % q
            if factor:
                rows[r] = [(a - factor * b) % q for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def canonical_centers(p: Params, profile: RankProfile) -> tuple[Matrix, ...]:
    """The blocks of the center y paired with x = 0 to realize a distance profile.

    The metric is translation invariant, so x = 0 and y with profile[i]
    leading diagonal ones in block i represent every pair with that profile.
    """
    p.check_profile(profile)
    return tuple(
        tuple(
            tuple(1 if r == c and r < ti else 0 for c in range(p.eta))
            for r in range(p.m)
        )
        for ti in profile
    )


def _subtract(a: Matrix, b: Matrix, q: int) -> Matrix:
    return tuple(
        tuple((x - y) % q for x, y in zip(arow, brow)) for arow, brow in zip(a, b)
    )


def _all_block_matrices(p: Params) -> list[Matrix]:
    """Every m x eta matrix over F_q, enumerated as mixed-radix counters."""
    return list(itertools.product(itertools.product(range(p.q), repeat=p.eta), repeat=p.m))


def distance_histogram(
    p: Params, profile: RankProfile, budget: int = DEFAULT_BUDGET
) -> list[list[int]]:
    """Joint distance counts H[a][b] over the whole space, by one enumeration.

    H[a][b] is the number of vectors at sum-rank distance a from x = 0 and b
    from the canonical y of the profile. Every vector of the product space is
    visited: the ranks of its blocks against x and y are summed, never
    combined from per-block counts.
    """
    check_passes(p, 1, budget)
    # blocks at equal distance have equal center blocks: one per distinct distance
    y = dict(zip(profile, canonical_centers(p, profile)))
    # each block matrix is ranked once: subtracting a center block permutes them
    rank = {mat: matrix_rank(mat, p.q) for mat in _all_block_matrices(p)}
    stride = p.max_weight + 1
    # block code = (rank distance to x) * stride + (rank distance to y); the
    # codes of a vector's blocks sum to a * stride + b, as b < stride
    codes = {
        ti: [a * stride + rank[_subtract(mat, yblock, p.q)] for mat, a in rank.items()]
        for ti, yblock in y.items()
    }
    tally = Counter(map(sum, itertools.product(*(codes[ti] for ti in profile))))
    return [[tally[a * stride + b] for b in range(stride)] for a in range(stride)]


def count_weights(p: Params, budget: int = DEFAULT_BUDGET) -> list[int]:
    """Exhaustive counts of vectors by sum-rank weight 0..ell*mu.

    The marginal of the zero profile's histogram, where both centers are 0.
    """
    return [sum(row) for row in distance_histogram(p, (0,) * p.ell, budget)]


def count_intersection(
    p: Params, u: int, s: int, profile: RankProfile, budget: int = DEFAULT_BUDGET
) -> int:
    """Exhaustive count of vectors within distance u of x and s of y.

    Centers are x = 0 and the profile's canonical y; by translation
    invariance the count applies to any pair with the same per-block
    distances.
    """
    return count_within(distance_histogram(p, profile, budget), u, s)


def count_within(hist: list[list[int]], u: int, s: int) -> int:
    """Vectors within distance u of x and s of y, summed off a distance histogram."""
    return sum(sum(row[: max(s + 1, 0)]) for row in hist[: max(u + 1, 0)])


def count_rank1_additive(
    n: int, m: int, r: int, q: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Rank-1 vectors y with wt(x) + wt(y) = wt(x - y), counted exhaustively.

    x is the canonical rank-r representative; by rank-preserving symmetry the
    count is the same for any x of rank r.
    """
    p = Params(q=q, m=m, eta=n, ell=1)
    if r > p.mu:
        raise InputError(f"rank {r} exceeds min(m, n) = {p.mu}")
    # y ranges over the space, x is the profile's center: H[wt(y)][wt(x - y)]
    hist = distance_histogram(p, (r,), budget)
    return hist[1][r + 1] if r < p.mu else 0


def _span(vectors: list[tuple[int, ...]], q: int) -> frozenset[tuple[int, ...]]:
    return frozenset(
        tuple(sum(c * x for c, x in zip(coeffs, column)) % q for column in zip(*vectors))
        for coeffs in itertools.product(range(q), repeat=len(vectors))
    )


def _all_subspaces(dim_total: int, d: int, q: int) -> set[frozenset[tuple[int, ...]]]:
    """All d-dimensional F_q-subspaces of F_q^{dim_total}, by span enumeration."""
    if d == 0:
        return {frozenset({(0,) * dim_total})}
    nonzero = [v for v in itertools.product(range(q), repeat=dim_total) if any(v)]
    spaces = set()
    for combo in itertools.combinations(nonzero, d):
        span = _span(list(combo), q)
        if len(span) == q**d:
            spaces.add(span)
    return spaces


def els_pair_count_check(k: int, a: int, q: int, budget: int = DEFAULT_BUDGET) -> int:
    """Count ordered direct-sum pairs (A, B) of a fixed k-dim space by enumeration.

    A has dimension a, B has dimension k - a, and A + B = V with trivial
    intersection. Only the enumerated count is returned: the closed form it
    checks lives with the formulas, not in the oracle.
    """
    check_prime_field(q)
    if not 0 <= a <= k:
        raise InputError("requires 0 <= a <= k")
    if k > 4:
        raise InputError("ambient dimension capped at 4 for the subspace oracle")
    if q**k > budget:
        raise OracleBudgetError(q**k, budget)
    trivial = {(0,) * k}
    subspaces_b = _all_subspaces(k, k - a, q)
    return sum(
        1 for sa in _all_subspaces(k, a, q) for sb in subspaces_b if sa & sb == trivial
    )
