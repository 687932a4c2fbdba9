"""Intersection volumes of spheres and balls, rank metric and sum-rank metric.

The rank-metric counts J (sphere/sphere) and I (ball/ball) come from the
Krawtchouk-transform formula for the bilinear-forms association scheme.
For the sum-rank metric the ground truth is per-profile: the per-block rank
distances between the two centers are an isometry invariant, so the exact
intersection volume is computed block by block for a given distance profile.

The published closed-form expressions (the general triple-partition sum and
the two special cases) are also implemented verbatim as *_literal functions.
Where their printed conventions are ambiguous, both readings exist side by
side so a verification run can compare each against brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from sumrank.compositions import RankProfile, enumerate_bounded, enumerate_uniform
from sumrank.qkit import InternalInconsistencyError  # also raised here; kept importable
from sumrank.qkit import InputError, gaussian_binomial, num_matrices_rank, q_krawtchouk
from sumrank.volumes import Params


def _exact_div(num: int, den: int, what: str) -> int:
    quot, rem = divmod(num, den)
    if rem != 0:
        raise InternalInconsistencyError(f"{what}: division not exact")
    return quot


def rank_sphere_intersection_J(u: int, s: int, t: int, n: int, m: int, q: int) -> int:
    """Vectors at rank distance exactly u and s from two centers at distance t.

    J(u,s,t,n,m) = [sum_i NM(n,m,i) K_u(i) K_s(i) K_t(i)] / (q^{mn} NM(n,m,t)).
    Clamped to 0 outside the feasible region (triangle inequality or a radius
    above min(m, n)) before the Krawtchouk sum is evaluated.
    """
    if min(u, s, t) < 0:
        raise InputError("radii and distance must be nonnegative")
    mu = min(m, n)
    if t > mu:
        raise InputError(f"center distance {t} exceeds min(m, n) = {mu}")
    if u > mu or s > mu or u + s < t or abs(u - s) > t:
        return 0
    numerator = sum(
        num_matrices_rank(n, m, i, q)
        * q_krawtchouk(u, i, n, m, q)
        * q_krawtchouk(s, i, n, m, q)
        * q_krawtchouk(t, i, n, m, q)
        for i in range(n + 1)
    )
    value = _exact_div(numerator, q ** (m * n) * num_matrices_rank(n, m, t, q), "J")
    if value < 0:
        raise InternalInconsistencyError("J: negative count")
    return value


def rank_ball_intersection_I(u: int, s: int, t: int, n: int, m: int, q: int) -> int:
    """Vectors at rank distance at most u and at most s from centers at distance t.

    Sums J over the running radii: I(u,s,t) = sum_{i<=u} sum_{j<=s} J(i,j,t).
    (The published display repeats the outer arguments inside the double sum;
    that reading is constant in i, j and is treated as a typo.)
    """
    mu = min(m, n)
    return sum(
        rank_sphere_intersection_J(i, j, t, n, m, q)
        for i in range(min(u, mu) + 1)
        for j in range(min(s, mu) + 1)
    )


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
    two-dimensional dynamic program over blocks.
    """
    p = query.p
    u = min(query.u, p.max_weight)
    s = min(query.s, p.max_weight)
    # state: partial (sum a, sum b) -> number of partial block choices
    dp = {(0, 0): 1}
    for ti in query.tprofile:
        block = [
            [rank_sphere_intersection_J(a, b, ti, p.eta, p.m, p.q) for b in range(p.mu + 1)]
            for a in range(p.mu + 1)
        ]
        new: dict[tuple[int, int], int] = {}
        for (pa, pb), c in dp.items():
            for a in range(min(p.mu, u - pa) + 1):
                row = block[a]
                for b in range(min(p.mu, s - pb) + 1):
                    j = row[b]
                    if j:
                        key = (pa + a, pb + b)
                        new[key] = new.get(key, 0) + c * j
        dp = new
    return sum(dp.values())


def theorem1_literal(p: Params, u: int, s: int, t: int) -> int:
    """The published general triple-partition sum, exactly as printed.

    Sums prod_i I(u_i, s_i, t_i, eta, m) over all compositions of u, s and t
    into ell parts bounded by mu. Requires u + s >= t.
    """
    if u + s < t:
        raise InputError("requires u + s >= t")
    total = 0
    for uvec in enumerate_uniform(u, p.ell, p.mu):
        for svec in enumerate_uniform(s, p.ell, p.mu):
            for tvec in enumerate_uniform(t, p.ell, p.mu):
                total += prod(
                    rank_ball_intersection_I(ui, si, ti, p.eta, p.m, p.q)
                    for ui, si, ti in zip(uvec, svec, tvec)
                )
    return total


def rank1_additive_pairs(n: int, m: int, r: int, q: int) -> int:
    """Rank-1 vectors y with wt(x) + wt(y) = wt(x - y) for a fixed x of rank r.

    (q^n - q^r)(q^m - q^r) / (q - 1); at r = 0 this is the size of the rank-1
    sphere, at r = min(m, n) = m = n it is 0.
    """
    if r < 0 or r > min(m, n):
        raise InputError("rank r must lie in 0..min(m, n)")
    return _exact_div((q**n - q**r) * (q**m - q**r), q - 1, "rank1_additive_pairs")


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
    the one realized by a concrete center pair.
    """
    if not 1 <= delta <= p.max_weight:
        raise InputError(f"delta must lie in 1..{p.max_weight}")
    return 1 + rank1_additive_pairs(p.n, p.m, 0, p.q) - sum(
        rank1_additive_pairs(p.eta, p.m, di, p.q)
        for dvec in enumerate_uniform(delta, p.ell, p.mu)
        for di in dvec
    )


def theorem3_per_profile(p: Params, gprofile: RankProfile, dprofile: RankProfile) -> int:
    """Per-block product of ordered direct-sum pair counts.

    prod_i q^{g_i (d_i - g_i)} [d_i choose g_i]_q, requiring g_i <= d_i <= mu.
    This counts the vectors at distance exactly sum g_i from x and exactly
    sum (d_i - g_i) from y, per the block-wise subspace-splitting argument.
    """
    p.check_profile(dprofile)
    if len(gprofile) != p.ell:
        raise InputError("profile length mismatch")
    if any(gi < 0 or gi > di for gi, di in zip(gprofile, dprofile)):
        raise InputError("requires 0 <= gamma_i <= delta_i for every block")
    return prod(_direct_sum_pairs(di, gi, p.q) for gi, di in zip(gprofile, dprofile))


def theorem3_aggregate(p: Params, gamma: int, dprofile: RankProfile) -> int:
    """|B(x, gamma) intersect B(y, delta - gamma)| for per-block distances dprofile.

    Sums the per-block product over all splits of gamma bounded by dprofile.
    """
    p.check_profile(dprofile)
    if not 0 <= gamma <= sum(dprofile):
        raise InputError("requires 0 <= gamma <= delta")
    return sum(
        theorem3_per_profile(p, gvec, dprofile)
        for gvec in enumerate_bounded(gamma, dprofile)
    )


def theorem3_literal(p: Params, gamma: int, delta: int) -> int:
    """The published double-partition expression with its inner block sum, as printed.

    sum over compositions of delta, splits of gamma, of
    sum_i q^{g_i (d_i - g_i)} [d_i choose g_i]_q  (sum over blocks, not product).
    """
    if not 0 <= gamma <= delta:
        raise InputError("requires 0 <= gamma <= delta")
    total = 0
    for dvec in enumerate_uniform(delta, p.ell, p.mu):
        for gvec in enumerate_bounded(gamma, dvec):
            total += sum(_direct_sum_pairs(di, gi, p.q) for gi, di in zip(gvec, dvec))
    return total


def _direct_sum_pairs(d: int, g: int, q: int) -> int:
    """Ordered direct-sum pairs (A, B) of F_q^d with dim A = g: q^{g(d-g)} [d choose g]_q."""
    return q ** (g * (d - g)) * gaussian_binomial(d, g, q)
