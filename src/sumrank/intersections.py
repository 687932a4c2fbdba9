"""Intersection volumes of spheres and balls, rank metric and sum-rank metric.

The rank-metric counts J (sphere/sphere) and I (ball/ball) are intersection
numbers of the bilinear-forms association scheme. J comes from the scheme's
three-term recurrence on its intersection array; the paper's Krawtchouk
transform gives the same numbers and is now only the tests' reference.
For the sum-rank metric the ground truth is per-profile: the per-block rank
distances between the two centers are an isometry invariant, so the exact
intersection volume is computed block by block for a given distance profile.

The published closed-form expressions (the general triple-partition sum and
the two special cases) are the *_literal functions: the printed sums, evaluated
as coefficients of the exact block DP; I reads its running-sum table of J, and
Theorem 3's sum over the splits of gamma is a coefficient of the same DP.
Where their printed conventions are ambiguous, both readings exist side by
side so a verification run can compare each against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import prod

from sumrank.compositions import RankProfile, enumerate_partitions
from sumrank.qkit import InternalInconsistencyError  # also raised here; kept importable
from sumrank.qkit import InputError, exact_div, gaussian_binomial, num_matrices_rank
from sumrank.volumes import Params


def _check_distance(u: int, s: int, t: int, n: int, m: int) -> int:
    """Raise InputError unless u, s, t >= 0 and t <= min(m, n); return min(m, n)."""
    if min(u, s, t) < 0:
        raise InputError("radii and distance must be nonnegative")
    mu = min(m, n)
    if t > mu:
        raise InputError(f"center distance {t} exceeds min(m, n) = {mu}")
    return mu


# Bound on the kernel caches below. A table is keyed by one radius of one
# (n, m, q) space, so a query on blocks of size eta x m needs at most
# min(m, eta) + 1 of each; the bound holds every key of several such spaces.
_TABLE_CACHE_SIZE = 128
Table = tuple[tuple[int, ...], ...]  # a block's counts, indexed [a][b]


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _j_rows(t: int, n: int, m: int, q: int) -> Table:
    """J(a, b, t) for a, b in 0..min(m, n), by the scheme's three-term recurrence.

    Row 0 is [b == t]. Each later row is 0 off its band |a - b| <= t <= a + b,
    and on it, with the intersection numbers b_i (Lemma 8's rank1_additive_pairs),
    c_i = q^(i-1) [i choose 1]_q and a_i = b_0 - b_i - c_i,
    c_{a+1} J(a+1,b) = b_{b-1} J(a,b-1) + (a_b - a_a) J(a,b) + c_{b+1} J(a,b+1)
                       - b_{a-1} J(a-1,b).
    Every row a must be nonnegative and sum to the sphere NM(n, m, a).
    """
    mu = min(m, n)
    spheres = [num_matrices_rank(n, m, a, q) for a in range(mu + 1)]  # refuses q < 2
    # b_[-1] is b_mu = 0, so the b_{-1} terms at a = 0 or b = 0 vanish
    b_ = [rank1_additive_pairs(n, m, i, q) for i in range(mu + 1)]
    c_ = [0] + [q ** (i - 1) * gaussian_binomial(i, 1, q) for i in range(1, mu + 2)]
    a_ = [b_[0] - bi - ci for bi, ci in zip(b_, c_)]
    rows = [tuple(int(b == t) for b in range(mu + 1))]
    for a in range(mu):
        padded, band = (0, *rows[a], 0), range(abs(t - a - 1), min(t + a + 1, mu) + 1)
        rows.append(tuple(
            exact_div(b_[b - 1] * padded[b] + (a_[b] - a_[a]) * padded[b + 1]
                      + c_[b + 1] * padded[b + 2] - b_[a - 1] * rows[a - 1][b], c_[a + 1], "J")
            if b in band else 0 for b in range(mu + 1)))
    for a, row in enumerate(rows):
        if min(row) < 0:
            raise InternalInconsistencyError("J: negative count")
        if sum(row) != spheres[a]:
            raise InternalInconsistencyError(f"J: row {a} does not sum to NM(n, m, {a})")
    return tuple(rows)


def rank_sphere_intersection_J(u: int, s: int, t: int, n: int, m: int, q: int) -> int:
    """Vectors at rank distance exactly u and s from two centers at distance t.

    The intersection number p^t_{us} of the bilinear-forms scheme, read from
    the recurrence table _j_rows. (The paper's Krawtchouk transform,
    [sum_i NM(n,m,i) K_u(i) K_s(i) K_t(i)] / (q^{mn} NM(n,m,t)), gives the same
    numbers and is the tests' reference.) Clamped to 0 outside the feasible
    region (triangle inequality or a radius above min(m, n)).
    """
    mu = _check_distance(u, s, t, n, m)
    if u > mu or s > mu:
        return 0
    return _j_rows(t, n, m, q)[u][s]


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _j_table(t: int, n: int, m: int, q: int) -> Table:
    """J(a, b, t) for a, b in 0..min(m, n); zero off the band |a - b| <= t <= a + b."""
    mu = min(m, n)
    return tuple(
        tuple(
            rank_sphere_intersection_J(a, b, t, n, m, q) if abs(a - b) <= t <= a + b else 0
            for b in range(mu + 1)
        )
        for a in range(mu + 1)
    )


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _i_table(t: int, n: int, m: int, q: int) -> Table:
    """I(a, b, t) for a, b in 0..min(m, n): _j_table's running sums in both directions."""
    rows = (accumulate(row) for row in _j_table(t, n, m, q))
    return tuple(zip(*(accumulate(col) for col in zip(*rows))))


def rank_ball_intersection_I(u: int, s: int, t: int, n: int, m: int, q: int) -> int:
    """Vectors at rank distance at most u and at most s from centers at distance t.

    Sums J over the running radii: I(u,s,t) = sum_{i<=u} sum_{j<=s} J(i,j,t).
    (The published display repeats the outer arguments inside the double sum;
    that reading is constant in i, j and is treated as a typo.) Refuses what
    J refuses.
    """
    mu = _check_distance(u, s, t, n, m)
    return _i_table(t, n, m, q)[min(u, mu)][min(s, mu)]


@dataclass(frozen=True)
class IntersectionQuery:
    """Two sum-rank balls of radii u and s whose centers differ by tprofile."""

    p: Params
    u: int
    s: int
    tprofile: RankProfile

    def __post_init__(self) -> None:
        if self.u < 0 or self.s < 0:
            raise InputError("radii must be nonnegative")
        self.p.check_profile(self.tprofile)


def sumrank_intersection_exact(query: IntersectionQuery) -> int:
    """Exact intersection volume of two sum-rank balls with a given distance profile.

    Decomposes block-wise: v lies in both balls iff its per-block rank
    distances (a_i to x, b_i to y) satisfy sum a_i <= u and sum b_i <= s, and
    for block i there are J(a_i, b_i, t_i, eta, m) choices. The sum of
    products over all admissible (a, b) profiles is evaluated by a capped
    two-dimensional dynamic program over blocks, on the sorted profile. The
    count does not depend on the order of the blocks; it is not cached, and
    the commands share it among the compositions of a partition.
    """
    p = query.p
    tables = [_j_table(t, p.eta, p.m, p.q) for t in sorted(query.tprofile)]
    return sum(map(sum, _block_product(tables, query.u, query.s)))


def _block_product(tables: list[Table], u: int, s: int) -> list[list[int]]:
    """The product of 1+ tables (entry [a][b] at x^a y^b) as dp[pa][pb], pa <= u, pb <= s."""
    dp = [row[: s + 1] for row in tables[0][: u + 1]]
    for table in tables[1:]:
        mu = len(table) - 1
        # the nonzero entries (b, table[a][b]) of each row a of the table
        bands = [[(b, j) for b, j in enumerate(jrow) if j] for jrow in table]
        width = min(len(dp[0]) + mu, s + 1)
        new = [[0] * width for _ in range(min(len(dp) + mu, u + 1))]
        for pa, row in enumerate(dp):
            nonzero = [pb for pb, c in enumerate(row) if c]
            if not nonzero:
                continue
            lo = nonzero[0]
            seg = row[lo : nonzero[-1] + 1]
            for a, band in enumerate(bands[: u + 1 - pa]):
                out = new[pa + a]
                for b, j in band:
                    start = lo + b
                    if start >= width:
                        break
                    # a slice past width is clipped, and zip stops with it
                    stop = start + len(seg)
                    out[start:stop] = [o + c * j for o, c in zip(out[start:stop], seg)]
        dp = new
    return dp


def _coefficient(tables: list[Table], u: int, s: int) -> int:
    """The coefficient of x^u y^s in the product of the tables."""
    dp = _block_product(tables, u, s)
    return dp[u][s] if u < len(dp) and s < len(dp[0]) else 0


def theorem1_literal(p: Params, u: int, s: int, t: int) -> int:
    """The published general triple-partition sum, exactly as printed.

    Sums prod_i I(u_i, s_i, t_i, eta, m) over all compositions of u, s and t
    into ell parts bounded by mu. Requires u + s >= t. Per composition of t,
    the sums over u and s are the x^u y^s coefficient of the blocks' I tables;
    that coefficient does not depend on the order of the blocks, so it is
    computed once per partition of t and weighted by its compositions.
    """
    if min(u, s, t) < 0:
        raise InputError("radii and distance must be nonnegative")
    if u + s < t:
        raise InputError("requires u + s >= t")
    return sum(count * _coefficient([_i_table(ti, p.eta, p.m, p.q) for ti in tvec], u, s)
               for tvec, count in enumerate_partitions(t, p.ell, p.mu))


def rank1_additive_pairs(n: int, m: int, r: int, q: int) -> int:
    """Rank-1 vectors y with wt(x) + wt(y) = wt(x - y) for a fixed x of rank r.

    (q^n - q^r)(q^m - q^r) / (q - 1); at r = 0 this is the size of the rank-1
    sphere, at r = min(m, n) = m = n it is 0.
    """
    if r < 0 or r > min(m, n):
        raise InputError("rank r must lie in 0..min(m, n)")
    return exact_div((q**n - q**r) * (q**m - q**r), q - 1, "rank1_additive_pairs")


def theorem2_per_profile(p: Params, dprofile: RankProfile) -> int:
    """|B(x, delta) intersect B(y, 1)| for centers with per-block distances dprofile.

    1 + R(n, m, 0) - sum_i R(eta, m, d_i), with R = rank1_additive_pairs
    (Lemma 8) and delta = sum d_i >= 1. The main term is the rank-1 sphere of
    the whole m x n space; the subtracted terms count the rank-1 vectors at
    distance d_i + 1 from the first center within block i.

    Matches brute force only for ell = 1: the main term counts rank-1
    m x n matrices, but for ell >= 2 a rank-1 matrix can spread over several
    blocks and then has sum-rank weight above 1, so the term overcounts the
    radius-1 sphere. Use sumrank_intersection_exact for the true volume.
    """
    p.check_profile(dprofile)
    if sum(dprofile) == 0:
        raise InputError("centers coincide; requires delta >= 1")
    return 1 + rank1_additive_pairs(p.n, p.m, 0, p.q) - sum(
        rank1_additive_pairs(p.eta, p.m, di, p.q) for di in dprofile
    )


def theorem2_literal(p: Params, delta: int) -> int:
    """The published |B(x, delta) intersect B(y, 1)| expression, as printed.

    The subtracted block sum ranges over every composition of delta, not just
    the one realized by a concrete center pair: ell times the x^delta
    coefficient of a block's column of R times ell - 1 columns of ones.
    """
    if not 1 <= delta <= p.max_weight:
        raise InputError(f"delta must lie in 1..{p.max_weight}")
    ones = ((1,),) * (p.mu + 1)
    return 1 + rank1_additive_pairs(p.n, p.m, 0, p.q) - p.ell * _coefficient(
        [_lemma8_column(p.eta, p.m, p.q)] + [ones] * (p.ell - 1), delta, 0)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _lemma8_column(eta: int, m: int, q: int) -> Table:
    """A block's column R(eta, m, d) for d = 0..min(m, eta), as a (mu+1) x 1 table."""
    return tuple((rank1_additive_pairs(eta, m, d, q),) for d in range(min(m, eta) + 1))


def theorem3_per_profile(p: Params, gprofile: RankProfile, dprofile: RankProfile) -> int:
    """Per-block product of ordered direct-sum pair counts (see _split_triangles).

    prod_i pairs(d_i, g_i), requiring g_i <= d_i <= mu. This counts the vectors
    at distance exactly sum g_i from x and exactly sum (d_i - g_i) from y, per
    the block-wise subspace-splitting argument.
    """
    p.check_profile(dprofile)
    if len(gprofile) != p.ell:
        raise InputError("profile length mismatch")
    if any(gi < 0 or gi > di for gi, di in zip(gprofile, dprofile)):
        raise InputError("requires 0 <= gamma_i <= delta_i for every block")
    pairs, _ = _split_triangles(p.mu, p.q)
    return prod(pairs[gi][di - gi] for gi, di in zip(gprofile, dprofile))


def theorem3_aggregate(p: Params, gamma: int, dprofile: RankProfile) -> int:
    """|B(x, gamma) intersect B(y, delta - gamma)| for per-block distances dprofile.

    The per-block product summed over all splits of gamma bounded by dprofile:
    the x^gamma coefficient of the product of the blocks' columns of pair
    counts, block i's column being the anti-diagonal d_i of the pair triangle.
    """
    p.check_profile(dprofile)
    if not 0 <= gamma <= sum(dprofile):
        raise InputError("requires 0 <= gamma <= delta")
    pairs, _ = _split_triangles(p.mu, p.q)
    return _coefficient([tuple((pairs[g][d - g],) for g in range(d + 1)) for d in dprofile],
                        gamma, 0)


def theorem3_literal(p: Params, gamma: int, delta: int) -> int:
    """The published double-partition expression with its inner block sum, as printed.

    sum_i pairs(d_i, g_i) (a sum over blocks, not a product) summed over the
    compositions d of delta and splits g of gamma: ell times the x^gamma
    y^(delta - gamma) coefficient of a block's pair triangle times ell - 1 of ones.
    """
    if not 0 <= gamma <= delta:
        raise InputError("requires 0 <= gamma <= delta")
    pairs, ones = _split_triangles(p.mu, p.q)
    return p.ell * _coefficient([pairs] + [ones] * (p.ell - 1), gamma, delta - gamma)


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _split_triangles(mu: int, q: int) -> tuple[Table, Table]:
    """A block's triangles of pairs(d, g) and of ones at (g, h = d - g), g + h <= mu.

    pairs(d, g) = q^{g(d-g)} [d choose g]_q counts the ordered direct-sum pairs
    (A, B) of F_q^d with dim A = g.
    """
    cells = range(mu + 1)
    pairs = tuple(tuple(q ** (g * h) * gaussian_binomial(g + h, g, q) if g + h <= mu else 0
                        for h in cells) for g in cells)
    return pairs, tuple(tuple(int(g + h <= mu) for h in cells) for g in cells)
