"""Brute-force ground truth over tiny prime fields.

Vectors of F_{q^m}^n are enumerated as ell matrices of size m x eta with
entries in F_q (q prime). Each block matrix of a shape is ranked once per
process, by forward elimination mod q without division, into a bounded
table of one byte per matrix. One pass over the whole space tallies every
vector's distances to two centers; sphere counts are read off that tally,
ball and intersection counts off its running sums. Enumeration costs
q^{m*n} per pass, so one budget rule, `check_passes`, guards every
exhaustive count and every command's passes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from decimal import Decimal
from functools import lru_cache

from sumrank.compositions import RankProfile
from sumrank.qkit import InputError, running_sums, smallest_prime_factor
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

    Forward elimination without division: a pivot c clears an entry f below
    it by row <- c*row - f*pivot_row, which keeps the row space (c != 0 mod q).
    """
    rows = [list(r) for r in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        c = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] % q
            if f:
                rows[r] = [(c * a - f * b) % q for a, b in zip(rows[r], rows[rank])]
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


# Bound on the rank tables below. A block shape needs min(m, eta) + 1 tables,
# so the bound holds every table of several shapes; a table has one byte per
# block matrix, and a shape past the budget is refused before it is tabulated.
_RANK_CACHE_SIZE = 64


@lru_cache(maxsize=_RANK_CACHE_SIZE)
def _block_ranks(q: int, m: int, eta: int, d: int) -> bytes:
    """Entry i is rank(M_i - Y_d): M_i the i-th m x eta block matrix, Y_d the rank-d center.

    Block matrices are listed by itertools.product, so M_i's entries read as a
    base-q numeral give i. Only the d = 0 table ranks matrices; subtracting Y_d
    permutes them, so a table for d >= 1 reads the d = 0 table at M - Y_d.
    """
    if d == 0:
        blocks = itertools.product(itertools.product(range(q), repeat=eta), repeat=m)
        return bytes(matrix_rank(mat, q) for mat in blocks)
    center = itertools.chain.from_iterable(
        canonical_centers(Params(q=q, m=m, eta=eta, ell=1), (d,))[0]
    )
    places = [q**k for k in reversed(range(m * eta))]
    # the position of M - Y_d, summed digit by digit in the order M is listed
    shifted = itertools.product(
        *[[(e - y) % q * place for e in range(q)] for place, y in zip(places, center)]
    )
    return bytes(map(_block_ranks(q, m, eta, 0).__getitem__, map(sum, shifted)))


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
    p.check_profile(profile)
    stride = p.max_weight + 1
    to_x = _block_ranks(p.q, p.m, p.eta, 0)
    # block code = (rank distance to x) * stride + (rank distance to y); the
    # codes of a vector's blocks sum to a * stride + b, as b < stride
    codes = [
        [a * stride + b for a, b in zip(to_x, _block_ranks(p.q, p.m, p.eta, d))]
        for d in profile
    ]
    tally = Counter(map(sum, itertools.product(*codes)))
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
    distances. A radius past ell * mu counts as ell * mu, a negative one as 0.
    """
    balls = running_sums(distance_histogram(p, profile, budget))
    return balls[min(u, p.max_weight)][min(s, p.max_weight)] if min(u, s) >= 0 else 0


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
