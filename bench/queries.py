"""Seeded query generators for the three benchmark workloads.

Every workload is a fixed batch of CLI argument lists built from a seed by
`random.Random(seed)`; the same seed always gives the same batch.

Per-query cost in this program spans several orders of magnitude across the
parameter ranges, so a plain uniform draw would make the batch time depend
more on the seed than on the code. Each batch is therefore stratified, so
that the seed changes the inputs but hardly the batch's cost:

- `bounds` and `verify` draw their cells from pools listed per tier, each
  tier holding cells timed at about the same cost;
- `intersect` cannot: inside one cell an intersection's cost changes up to
  40-fold with u, s and the profile. So a stratum there fixes a window on a
  cost proxy, and its queries are drawn uniformly from the parameter ranges
  and kept only when their proxy falls inside the window (rejection
  sampling). The proxies are operation counts weighted by coefficients
  fitted once against timings (2-core Intel Xeon VM, CPython 3.11.7); only
  their relative sizes matter, since they steer the draw and are never
  reported.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Callable, Iterator, Optional

WORKLOADS = ("bounds", "intersect", "verify")

Cell = tuple[int, int, int, int]  # (q, m, eta, ell)

_MAX_DRAWS = 200_000


def _params_args(cell: Cell) -> list[str]:
    q, m, eta, ell = cell
    return ["--q", str(q), "--m", str(m), "--eta", str(eta), "--ell", str(ell)]


def _draw(sample: Callable[[], tuple[object, Optional[float]]], lo: float, hi: float) -> object:
    """Rejection-sample (candidate, cost) pairs until the cost lies in [lo, hi)."""
    for _ in range(_MAX_DRAWS):
        candidate, cost = sample()
        if cost is not None and lo <= cost < hi:
            return candidate
    raise RuntimeError(f"no candidate with cost in [{lo}, {hi}) after {_MAX_DRAWS} draws")


def _compositions(t: int, ell: int, mu: int) -> Iterator[tuple[int, ...]]:
    """Compositions of t into ell parts each <= mu (independent of sumrank)."""
    if ell == 0:
        if t == 0:
            yield ()
        return
    for part in range(max(0, t - (ell - 1) * mu), min(mu, t) + 1):
        for rest in _compositions(t - part, ell - 1, mu):
            yield (part,) + rest


def _count_compositions(t: int, ell: int, mu: int) -> int:
    if t < 0:
        return 0
    if ell == 0:
        return 1 if t == 0 else 0
    total = 0
    for i in range(t // (mu + 1) + 1):
        top = t + ell - 1 - (mu + 1) * i
        if top >= ell - 1:
            term = math.comb(ell, i) * math.comb(top, ell - 1)
            total += -term if i % 2 else term
    return total


def _random_profile(rng: random.Random, t: int, ell: int, mu: int) -> tuple[int, ...]:
    """A composition of t into ell parts <= mu, chosen part by part."""
    parts = []
    remaining = t
    for i in range(ell):
        rest = ell - 1 - i
        part = rng.randint(max(0, remaining - rest * mu), min(mu, remaining))
        parts.append(part)
        remaining -= part
    rng.shuffle(parts)
    return tuple(parts)


# --------------------------------------------------------------------------
# bounds: volume --kind distribution / ball / sphere at large parameters
# --------------------------------------------------------------------------

BOUNDS_RADII = (1, 2, 3, 4)
BOUNDS_QUERIES_PER_PARAMS = 4

# Parameter sets within q in {2,3,4,5,7,8,9}, m and eta in 8..28 and ell in
# 4..28, grouped by the time a cold weight_distribution takes for them:
# about 1.5 ms, 32 ms, 200 ms and 700 ms (median of three calls, 2-core
# Intel Xeon VM, CPython 3.11.7), plus (2,26,26,26) at about 1.5 s, whose
# distribution is the known str() crash. Each batch draws (table sets, radius
# sets) from every tier; the seed picks the cells, their radii and the order. A
# "table" set tabulates the distribution first and then asks small-t balls
# and spheres, which hit the cache; a "radius" set asks only small-t balls
# and spheres, so its first query pays for the whole distribution. The
# counts put the batch's 90th percentile in the middle of the 32 ms tier.
# The spaces of the 700 ms cells, and of some 200 ms ones, pass 4300 digits,
# so their distribution queries hit the known str() defect (see
# `big_output`). Those queries are not timed: the batch keeps the set's
# small-t queries, whose first one then pays for the distribution, and the
# distribution query goes to the set's probes instead.
BOUNDS_TIERS: tuple[tuple[int, int, tuple[Cell, ...]], ...] = (
    (4, 4, ((2, 12, 12, 8), (2, 12, 10, 10), (2, 22, 14, 6), (9, 28, 12, 4),
            (3, 22, 12, 6), (3, 28, 16, 4), (2, 14, 10, 10), (7, 22, 10, 6),
            (9, 20, 14, 4), (4, 22, 8, 8), (7, 8, 8, 10), (4, 14, 26, 4))),
    (5, 5, ((3, 24, 10, 20), (2, 12, 16, 24), (3, 26, 10, 20), (7, 14, 24, 10),
            (9, 14, 12, 14), (8, 8, 20, 22), (4, 14, 10, 24), (2, 28, 10, 26),
            (7, 20, 18, 8), (9, 22, 14, 10), (2, 25, 10, 25), (3, 9, 16, 28),
            (5, 26, 8, 21), (9, 16, 24, 8), (2, 10, 19, 28))),
    (2, 2, ((3, 14, 22, 26), (3, 28, 26, 10), (9, 18, 16, 16), (8, 12, 24, 22),
            (3, 20, 18, 20), (4, 20, 16, 20), (3, 13, 25, 27), (3, 20, 28, 15),
            (3, 22, 22, 15), (3, 23, 15, 24))),
    (1, 1, ((7, 16, 18, 26), (7, 16, 24, 22), (5, 20, 26, 18), (5, 18, 20, 24),
            (4, 24, 18, 24), (8, 24, 22, 14))),
    (1, 0, ((2, 26, 26, 26),)),
)


def big_output(cell: Cell) -> bool:
    """Whether the space q^(m*eta*ell) has more digits than `str(int)` allows.

    A distribution's top entries are nearly that large, so the CLI's
    `--kind distribution` for such a cell raises ValueError when it writes
    them (the known defect in `report.make_record`). Python 3.11 caps
    `str(int)` at `sys.get_int_max_str_digits()` digits (4300 by default);
    0 or an older Python means no cap.
    """
    q, m, eta, ell = cell
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit > 0 and m * eta * ell * math.log10(q) >= limit


def _bounds_split(seed: int) -> tuple[list[list[str]], list[list[str]]]:
    """(the timed batch, the distribution queries that hit the known defect)."""
    rng = random.Random(seed)
    groups = []
    probes = []
    for n_table, n_radius, cells in BOUNDS_TIERS:
        for i, cell in enumerate(rng.sample(cells, n_table + n_radius)):
            args = _params_args(cell)
            radii = rng.sample(
                [(kind, t) for kind in ("ball", "sphere") for t in BOUNDS_RADII],
                BOUNDS_QUERIES_PER_PARAMS,
            )
            group = [["volume", *args, "--kind", kind, "--t", str(t)] for kind, t in radii]
            if i < n_table:
                distribution = ["volume", *args, "--kind", "distribution"]
                if big_output(cell):
                    probes.append(distribution)
                else:
                    group.insert(0, distribution)
            groups.append(group)
    # interleave the params sets but keep each set's own query order
    order = [g for g, group in enumerate(groups) for _ in group]
    rng.shuffle(order)
    cursors = [0] * len(groups)
    batch = []
    for g in order:
        batch.append(groups[g][cursors[g]])
        cursors[g] += 1
    return batch, probes


def bounds_queries(seed: int) -> list[list[str]]:
    return _bounds_split(seed)[0]


# --------------------------------------------------------------------------
# intersect: mid-size ball intersections (exact, all profiles, thm3, thm1)
# --------------------------------------------------------------------------

INTERSECT_Q = (2, 3, 4, 5, 7, 8, 9)
INTERSECT_M = INTERSECT_ETA = (4, 16)
INTERSECT_ELL = (2, 10)
THM1_MAX_WEIGHT = 12

# fitted proxy coefficients: seconds per query, and per counted step
CLI_COST = 2.0e-3
EXACT_J = 1.0e-6
EXACT_J_BITS = 3.4e-9
EXACT_DP = 1.0e-7
EXACT_T_PROFILE = 7.0e-4
THM3_SPLIT = 2.0e-6
THM1_J = 8.6e-7


def _band(t: int, mu: int) -> int:
    """Number of (a, b) in [0, mu]^2 with |a - b| <= t <= a + b."""
    return sum(1 for a in range(mu + 1) for b in range(mu + 1) if abs(a - b) <= t <= a + b)


def _box_sum(limit: int, reach: int, mu: int) -> int:
    """sum over partial sums p in [0, min(limit, reach)] of (min(mu, limit - p) + 1)."""
    return sum(min(mu, limit - p) + 1 for p in range(min(limit, reach) + 1))


def exact_features(cell: Cell, u: int, s: int, profile: tuple[int, ...]) -> tuple[float, float]:
    """(Krawtchouk-sum terms of the J tables, inner steps of the block DP)."""
    q, m, eta, ell = cell
    mu = min(m, eta)
    u = min(u, ell * mu)
    s = min(s, ell * mu)
    j_terms = sum(_band(t, mu) for t in profile) * (eta + 1)
    dp = sum(_box_sum(u, k * mu, mu) * _box_sum(s, k * mu, mu) for k in range(ell))
    return j_terms, dp


def _bits(cell: Cell) -> float:
    q, m, eta, ell = cell
    return m * eta * math.log2(q)


def _splits(gamma: int, bounds: tuple[int, ...]) -> int:
    """Number of compositions of gamma with part i <= bounds[i]."""
    ways = [1] + [0] * gamma
    for b in bounds:
        new = [0] * (gamma + 1)
        for total, w in enumerate(ways):
            if w:
                for part in range(min(b, gamma - total) + 1):
                    new[total + part] += w
        ways = new
    return ways[gamma]


def exact_cost(cell: Cell, u: int, s: int, profile: tuple[int, ...]) -> float:
    j_terms, dp = exact_features(cell, u, s, profile)
    return CLI_COST + j_terms * (EXACT_J + EXACT_J_BITS * _bits(cell)) + dp * EXACT_DP


def exact_t_cost(cell: Cell, u: int, s: int, t: int) -> float:
    j_terms = dp = profiles = 0
    for profile in _compositions(t, cell[3], min(cell[1], cell[2])):
        jt, d = exact_features(cell, u, s, profile)
        j_terms += jt
        dp += d
        profiles += 1
    return (CLI_COST + profiles * EXACT_T_PROFILE
            + j_terms * (EXACT_J + EXACT_J_BITS * _bits(cell)) + dp * EXACT_DP)


def thm3_cost(cell: Cell, gamma: int, profile: tuple[int, ...]) -> float:
    return CLI_COST + THM3_SPLIT * cell[3] * _splits(gamma, profile)


def thm1_cost(cell: Cell, u: int, s: int, t: int) -> float:
    """Proxy for theorem1_literal: J terms over every block triple it visits."""
    q, m, eta, ell = cell
    mu = min(m, eta)

    def counts(total: int) -> list[int]:
        return [_count_compositions(total - a, ell - 1, mu) for a in range(mu + 1)]

    cu, cs, ct = counts(u), counts(s), counts(t)
    j_calls = 0
    for a in range(mu + 1):
        for b in range(mu + 1):
            for c in range(mu + 1):
                weight = cu[a] * cs[b] * ct[c]
                if weight:
                    j_calls += weight * (a + 1) * (b + 1)
    return CLI_COST + THM1_J * ell * j_calls * (eta + 1)


def _intersect_cell(rng: random.Random, max_weight: Optional[int] = None) -> Cell:
    while True:
        cell = (
            rng.choice(INTERSECT_Q),
            rng.randint(*INTERSECT_M),
            rng.randint(*INTERSECT_ETA),
            rng.randint(*INTERSECT_ELL),
        )
        if max_weight is None or cell[3] * min(cell[1], cell[2]) <= max_weight:
            return cell


def _exact_profile_query(rng: random.Random) -> tuple[object, float]:
    cell = _intersect_cell(rng)
    mu = min(cell[1], cell[2])
    w = cell[3] * mu
    profile = _random_profile(rng, rng.randint(1, w), cell[3], mu)
    delta = sum(profile)
    u = rng.randint(0, delta)
    # half the draws sit on the theorem 3 line s = delta - u, the rest anywhere
    s = delta - u if rng.random() < 0.5 else rng.randint(0, w)
    return (cell, u, s, profile), exact_cost(cell, u, s, profile)


def _exact_t_query(rng: random.Random) -> tuple[object, Optional[float]]:
    cell = _intersect_cell(rng)
    mu = min(cell[1], cell[2])
    w = cell[3] * mu
    t = rng.randint(1, w)
    if _count_compositions(t, cell[3], mu) > 64:
        return None, None
    u, s = rng.randint(0, w), rng.randint(0, w)
    return (cell, u, s, t), exact_t_cost(cell, u, s, t)


def _thm3_query(rng: random.Random) -> tuple[object, float]:
    cell = _intersect_cell(rng)
    mu = min(cell[1], cell[2])
    profile = _random_profile(rng, rng.randint(1, cell[3] * mu), cell[3], mu)
    gamma = rng.randint(0, sum(profile))
    return (cell, gamma, profile), thm3_cost(cell, gamma, profile)


def _thm1_query(rng: random.Random) -> tuple[object, Optional[float]]:
    cell = _intersect_cell(rng, max_weight=THM1_MAX_WEIGHT)
    w = cell[3] * min(cell[1], cell[2])
    t = rng.randint(0, w)
    u = rng.randint(0, w)
    s = rng.randint(max(0, t - u), w)
    return (cell, u, s, t), thm1_cost(cell, u, s, t)


def _csv(profile: tuple[int, ...]) -> str:
    return ",".join(map(str, profile))


def _exact_profile_argv(q: tuple) -> list[str]:
    cell, u, s, profile = q
    return ["intersect", *_params_args(cell), "--u", str(u), "--s", str(s),
            "--profile", _csv(profile)]


def _exact_t_argv(q: tuple) -> list[str]:
    cell, u, s, t = q
    return ["intersect", *_params_args(cell), "--u", str(u), "--s", str(s), "--t", str(t)]


def _thm3_argv(q: tuple) -> list[str]:
    cell, gamma, profile = q
    delta = sum(profile)
    return ["intersect", *_params_args(cell), "--u", str(gamma), "--s", str(delta - gamma),
            "--profile", _csv(profile), "--variant", "thm3"]


def _thm1_argv(q: tuple) -> list[str]:
    cell, u, s, t = q
    return ["intersect", *_params_args(cell), "--u", str(u), "--s", str(s), "--t", str(t),
            "--variant", "thm1-literal"]


# (name, count, sampler, argv maker, proxy window in seconds). Windows and
# counts are set so the batch median falls in the middle of `exact-profile`
# and its 90th percentile in the middle of `exact-t`, away from stratum edges.
# Real exact-t costs still differ from the proxy by seed (cache reuse between
# queries, for one), so 80 of them are drawn to hold that percentile steady.
INTERSECT_STRATA = (
    ("thm3", 100, _thm3_query, _thm3_argv, 0.0, 0.004),
    ("exact-profile", 200, _exact_profile_query, _exact_profile_argv, 0.005, 0.0065),
    ("thm1-literal", 20, _thm1_query, _thm1_argv, 0.012, 0.015),
    ("exact-t", 80, _exact_t_query, _exact_t_argv, 0.030, 0.037),
)


def intersect_queries(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    batch = []
    for _name, count, sampler, argv, lo, hi in INTERSECT_STRATA:
        for _ in range(count):
            batch.append(argv(_draw(lambda: sampler(rng), lo, hi)))
    rng.shuffle(batch)
    return batch


# --------------------------------------------------------------------------
# verify: the oracle-vs-formula harness on tiny prime-field cells
# --------------------------------------------------------------------------

# ROADMAP item 1's (3,2,2,2) cell runs in every batch. Its (2,2,2,3) cell is
# left out: it alone takes about 12 s, which would leave room for a single
# batch per run.
VERIFY_ANCHORS: tuple[Cell, ...] = ((3, 2, 2, 2),)

# Tiny cells grouped by the time `verify --grid <cell>` takes: about 5 ms,
# 10 ms and 80 ms. Each batch runs every cell of a tier the same number of
# times (copies per cell, cells), so the batch median falls in the middle
# tier and its 90th percentile in the last, whatever the seed; the seed sets
# the order, and so which runs of a cell meet warm formula caches.
VERIFY_TIERS: tuple[tuple[int, tuple[Cell, ...]], ...] = (
    (3, ((2, 1, 1, 1), (2, 1, 2, 1), (2, 1, 3, 1), (2, 2, 1, 1), (2, 3, 1, 1),
         (3, 1, 1, 1), (3, 1, 2, 1), (3, 2, 1, 1), (5, 1, 1, 1))),
    (6, ((2, 1, 1, 2), (2, 1, 2, 2), (2, 2, 1, 2), (3, 1, 3, 1), (3, 3, 1, 1),
         (5, 1, 2, 1), (5, 2, 1, 1))),
    (4, ((2, 1, 2, 3), (2, 2, 1, 3), (2, 3, 2, 1), (3, 1, 3, 2), (3, 2, 2, 1),
         (3, 3, 1, 2), (5, 1, 2, 2), (5, 2, 1, 2))),
)


def verify_queries(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    cells = list(VERIFY_ANCHORS)
    for copies, tier in VERIFY_TIERS:
        cells.extend(tier * copies)
    rng.shuffle(cells)
    return [["verify", "--grid", ",".join(map(str, cell))] for cell in cells]


GENERATORS = {
    "bounds": bounds_queries,
    "intersect": intersect_queries,
    "verify": verify_queries,
}


def make_batch(workload: str, seed: int) -> list[list[str]]:
    """The fixed batch of CLI argument lists for a workload and seed."""
    return GENERATORS[workload](seed)


def make_probes(workload: str, seed: int) -> list[list[str]]:
    """The workload's queries that hit the known defect; they run once, untimed."""
    return _bounds_split(seed)[1] if workload == "bounds" else []
