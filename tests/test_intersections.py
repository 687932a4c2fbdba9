import dataclasses
import inspect
import itertools
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumrank import compositions, intersections, oracle
from sumrank.compositions import enumerate_bounded, enumerate_uniform
from sumrank.intersections import (
    IntersectionQuery,
    rank1_additive_pairs,
    rank_ball_intersection_I,
    rank_sphere_intersection_J,
    sumrank_intersection_exact,
    theorem1_literal,
    theorem2_literal,
    theorem2_per_profile,
    theorem3_aggregate,
    theorem3_literal,
    theorem3_per_profile,
)
from sumrank.qkit import InputError, gaussian_binomial, num_matrices_rank, q_krawtchouk
from sumrank.volumes import Params, weight_distribution

P221 = Params(q=2, m=2, eta=2, ell=1)
P222 = Params(q=2, m=2, eta=2, ell=2)
P213 = Params(q=2, m=2, eta=1, ell=3)

GRID_CELLS = [P221, P222, P213]


def all_profiles(p):
    for t in range(p.max_weight + 1):
        yield from enumerate_uniform(t, p.ell, p.mu)


class TestRankSphereIntersectionJ:
    def test_coincident_centers(self):
        for n, m in [(2, 2), (3, 2), (2, 3)]:
            for u in range(min(m, n) + 1):
                for s in range(min(m, n) + 1):
                    expected = num_matrices_rank(n, m, u, 2) if u == s else 0
                    assert rank_sphere_intersection_J(u, s, 0, n, m, 2) == expected

    def test_zero_radius_pins_single_vector(self):
        for t in range(3):
            assert rank_sphere_intersection_J(0, t, t, 3, 3, 2) == 1

    def test_frozen_oracle_value(self):
        # frozen: vectors of F_4^2 at rank distance 1 from both centers at distance 2
        assert rank_sphere_intersection_J(1, 1, 2, 2, 2, 2) == 6

    def test_triangle_clamps(self):
        assert rank_sphere_intersection_J(1, 0, 2, 2, 2, 2) == 0
        assert rank_sphere_intersection_J(0, 3, 1, 3, 3, 2) == 0
        assert rank_sphere_intersection_J(4, 1, 1, 4, 2, 2) == 0

    def test_distance_beyond_min_rank_rejected(self):
        with pytest.raises(ValueError):
            rank_sphere_intersection_J(1, 1, 3, 2, 3, 2)

    @pytest.mark.parametrize("q", [2, 3])
    def test_mass_and_symmetry(self, q):
        for n in range(1, 5):
            for m in range(1, 5):
                mu = min(m, n)
                for t in range(mu + 1):
                    js = {
                        (u, s): rank_sphere_intersection_J(u, s, t, n, m, q)
                        for u in range(mu + 1)
                        for s in range(mu + 1)
                    }
                    assert all(v >= 0 for v in js.values())
                    assert sum(js.values()) == q ** (m * n)
                    for (u, s), v in js.items():
                        assert js[(s, u)] == v


class TestRankBallIntersectionI:
    def test_disjoint_balls(self):
        assert rank_ball_intersection_I(1, 0, 2, 2, 2, 2) == 0

    def test_full_cover(self):
        for n, m, q in [(2, 2, 2), (3, 2, 2), (2, 2, 3)]:
            mu = min(m, n)
            for t in range(mu + 1):
                assert rank_ball_intersection_I(mu, mu, t, n, m, q) == q ** (m * n)

    def test_frozen_oracle_value(self):
        # frozen: brute force over F_4^2, centers at rank distance 1
        assert rank_ball_intersection_I(1, 1, 1, 2, 2, 2) == 6

    @staticmethod
    def _refuses_as_j_does(args):
        with pytest.raises(InputError) as refused_by_j:
            rank_sphere_intersection_J(*args)
        with pytest.raises(InputError, match=re.escape(str(refused_by_j.value))):
            rank_ball_intersection_I(*args)
        return str(refused_by_j.value)

    @pytest.mark.parametrize("args", [(-1, 0, 1), (0, -3, 1), (-1, 0, 99)])
    def test_refuses_a_negative_radius_as_j_does(self, args):
        assert "nonnegative" in self._refuses_as_j_does((*args, 2, 2, 2))

    @pytest.mark.parametrize("args", [(0, 0, 3), (2, 1, 99)])
    def test_refuses_a_distance_above_min_m_n_as_j_does(self, args):
        assert "exceeds min(m, n)" in self._refuses_as_j_does((*args, 2, 2, 2))


@pytest.mark.parametrize("q", [1, 0, -2, 6, 10])
@pytest.mark.parametrize("count", [rank_sphere_intersection_J, rank_ball_intersection_I,
                                   rank1_additive_pairs])
def test_j_and_i_refuse_a_field_size_below_two(count, q):
    # no field has q elements; rank1_additive_pairs(2, 2, 1, 6) would give 245
    message = f"q must be an integer >= 2, got {q}" if q < 2 else f"q must be a prime power, got {q}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        count(1, 1, 1, 2, 2, q) if count is not rank1_additive_pairs else count(2, 2, 1, q)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_j_i_and_lemma8_answer_at_a_prime_power_that_is_not_prime(q):
    assert sum(rank_sphere_intersection_J(a, b, 1, 2, 2, q)
               for a in range(3) for b in range(3)) == q**4
    assert rank_ball_intersection_I(2, 2, 1, 2, 2, q) == q**4
    assert rank1_additive_pairs(2, 2, 0, q) == num_matrices_rank(2, 2, 1, q)


@pytest.mark.parametrize("ask", [
    lambda d: sumrank_intersection_exact(IntersectionQuery(p=P222, u=1, s=1, tprofile=d)),
    lambda d: theorem2_per_profile(P222, d),
    lambda d: theorem3_aggregate(P222, 1, d),
    lambda d: oracle.distance_histogram(P222, d),
], ids=["exact", "thm2-profile", "thm3-aggregate", "oracle"])
def test_a_profile_part_that_is_not_an_int_is_refused(ask):
    # a bool is an int to isinstance, but no rank distance
    for bad in [(1.0, 1), (True, False)]:
        with pytest.raises(InputError,
                           match=f"^profile parts must be integers, got {re.escape(repr(bad))}$"):
            ask(bad)


class TestSumrankIntersectionExact:
    def test_trivial_cases(self):
        q = IntersectionQuery(p=P222, u=0, s=4, tprofile=(1, 1))
        assert sumrank_intersection_exact(q) == 1
        q = IntersectionQuery(p=P222, u=1, s=0, tprofile=(2, 0))
        assert sumrank_intersection_exact(q) == 0

    def test_frozen_profile_value(self):
        q = IntersectionQuery(p=P222, u=1, s=1, tprofile=(2, 0))
        assert sumrank_intersection_exact(q) == 6

    def test_radii_beyond_max_weight_clamp(self):
        q = IntersectionQuery(p=P222, u=0, s=9, tprofile=(1, 1))
        assert sumrank_intersection_exact(q) == 1

    def test_query_validation(self):
        with pytest.raises(ValueError):
            IntersectionQuery(p=P222, u=1, s=1, tprofile=(1,))
        with pytest.raises(ValueError):
            IntersectionQuery(p=P222, u=1, s=1, tprofile=(3, 0))

    def test_symmetry_in_radii_and_blocks(self):
        for profile in [(2, 0), (1, 1), (0, 2), (2, 1)]:
            for u, s in itertools.product(range(4), repeat=2):
                a = sumrank_intersection_exact(
                    IntersectionQuery(p=P222, u=u, s=s, tprofile=profile)
                )
                b = sumrank_intersection_exact(
                    IntersectionQuery(p=P222, u=s, s=u, tprofile=profile)
                )
                c = sumrank_intersection_exact(
                    IntersectionQuery(p=P222, u=u, s=s, tprofile=profile[::-1])
                )
                assert a == b == c

    @pytest.mark.parametrize("p", GRID_CELLS, ids=["221", "222", "213"])
    def test_matches_oracle_everywhere(self, p):
        for profile in all_profiles(p):
            for u in range(p.max_weight + 1):
                for s in range(p.max_weight + 1):
                    query = IntersectionQuery(p=p, u=u, s=s, tprofile=profile)
                    assert sumrank_intersection_exact(query) == oracle.count_intersection(
                        p, u, s, profile
                    ), (profile, u, s)


class TestTheorem1Literal:
    def test_single_block_reduces_to_I(self):
        for u, s, t in itertools.product(range(3), repeat=3):
            if u + s < t:
                continue
            assert theorem1_literal(P221, u, s, t) == rank_ball_intersection_I(
                u, s, t, 2, 2, 2
            )

    def test_frozen_single_block_value(self):
        assert theorem1_literal(P221, 1, 1, 1) == 6

    def test_hypothesis_enforced(self):
        with pytest.raises(ValueError):
            theorem1_literal(P222, 0, 0, 1)

    @pytest.mark.parametrize("args", [(-1, 5, 2), (5, -1, 2), (2, 2, -1)])
    def test_refuses_every_negative_radius_or_distance(self, args):
        # u = 5 exceeds ell * mu, so (5, -1, 2) reads 0 unless s is checked
        with pytest.raises(InputError, match="nonnegative"):
            theorem1_literal(P222, *args)

    def test_walks_no_composition_of_t(self, monkeypatch):
        expected = _theorem1_printed(P222, 3, 2, 1)
        _forbid_composition_walks(monkeypatch)
        calls = []
        partitions = compositions.enumerate_partitions

        def recording(total, ell, mu):
            calls.append((total, ell, mu))
            return partitions(total, ell, mu)

        monkeypatch.setattr(intersections, "enumerate_partitions", recording)
        assert theorem1_literal(P222, 3, 2, 1) == expected
        assert calls == [(1, P222.ell, P222.mu)]

    def test_one_block_dp_per_partition_of_t(self, monkeypatch):
        # at (2,2,2,3) t = 3 has 7 compositions but 2 partitions: 1+1+1 and 0+1+2
        p = Params(2, 2, 2, 3)
        calls = []
        coefficient = intersections._coefficient

        def recording(tables, u, s):
            calls.append(len(tables))
            return coefficient(tables, u, s)

        monkeypatch.setattr(intersections, "_coefficient", recording)
        assert theorem1_literal(p, 3, 3, 3) == _theorem1_printed(p, 3, 3, 3)
        assert calls == [3, 3]

    @pytest.mark.parametrize("cell, radius, expected", [
        ((2, 4, 4, 4), 8, 24132412434850654),
        # cross-checked by a 3-D generating function over I, keyed by (u, s, t)
        ((2, 3, 3, 6), 9, 16090611222730880),
        # one partition of t, cross-checked once by grouping its 2,704,156 compositions
        ((2, 1, 1, 24), 12, 8836587973168258576),
    ])
    def test_pinned_values_where_the_printed_sum_is_too_slow(self, cell, radius, expected):
        assert theorem1_literal(Params(*cell), radius, radius, radius) == expected

    def test_at_more_blocks_than_the_recursion_limit(self):
        # 1 x 1 blocks over F_2: the printed sum is 0 unless the block at distance 1 takes
        # a radius; it takes both (I = 2) or one, the other going to one of ell - 1 blocks
        ell = 1200
        assert theorem1_literal(Params(2, 1, 1, ell), 1, 1, 1) == ell * (2 + 2 * (ell - 1))

    def test_known_discrepancy_for_two_blocks(self):
        # the printed triple sum aggregates over center pairs; for ell >= 2 it
        # does not equal the per-pair volume (adjudicated by brute force)
        literal = theorem1_literal(P222, 1, 1, 2)
        per_profile = {
            profile: oracle.count_intersection(P222, 1, 1, profile)
            for profile in enumerate_uniform(2, 2, 2)
        }
        assert literal not in per_profile.values()


class TestTheorem2:
    def test_single_block_values(self):
        # frozen by brute force over F_4^2
        assert theorem2_per_profile(P221, (1,)) == 6
        assert theorem2_per_profile(P221, (2,)) == 10
        assert theorem2_literal(P221, 1) == 6

    def test_rejects_coincident_centers(self):
        with pytest.raises(ValueError):
            theorem2_per_profile(P222, (0, 0))
        with pytest.raises(ValueError):
            theorem2_literal(P222, 0)

    def test_matches_oracle_for_single_block(self):
        for delta in (1, 2):
            assert theorem2_per_profile(P221, (delta,)) == oracle.count_intersection(
                P221, delta, 1, (delta,)
            )

    def test_known_discrepancy_for_two_blocks(self):
        # the published radius-1 sphere term (q^m-1)(q^n-1)/(q-1) counts rank-1
        # m x n matrices, which overcounts sum-rank weight-1 vectors for ell >= 2
        assert theorem2_per_profile(P222, (1, 1)) == 38
        assert oracle.count_intersection(P222, 2, 1, (1, 1)) == 11


class TestTheorem3:
    def test_endpoints(self):
        assert theorem3_per_profile(P222, (0, 0), (2, 1)) == 1
        assert theorem3_per_profile(P222, (2, 1), (2, 1)) == 1
        assert theorem3_aggregate(P222, 0, (2, 1)) == 1
        assert theorem3_aggregate(P222, 3, (2, 1)) == 1

    def test_frozen_values(self):
        # frozen: midpoints between centers at rank distance 2 in F_4^2
        assert theorem3_per_profile(P221, (1,), (2,)) == 6
        assert theorem3_aggregate(P222, 1, (1, 1)) == 2

    def test_rejects_gamma_above_delta(self):
        with pytest.raises(ValueError):
            theorem3_per_profile(P222, (2, 0), (1, 1))

    def test_rank_metric_reduction(self):
        for delta in range(3):
            for gamma in range(delta + 1):
                expected = 2 ** (gamma * (delta - gamma)) * gaussian_binomial(
                    delta, gamma, 2
                )
                assert theorem3_aggregate(P221, gamma, (delta,)) == expected
                query = IntersectionQuery(
                    p=P221, u=gamma, s=delta - gamma, tprofile=(delta,)
                )
                assert sumrank_intersection_exact(query) == expected

    @pytest.mark.parametrize("p", GRID_CELLS, ids=["221", "222", "213"])
    def test_aggregate_matches_exact_and_oracle(self, p):
        for profile in all_profiles(p):
            delta = sum(profile)
            for gamma in range(delta + 1):
                agg = theorem3_aggregate(p, gamma, profile)
                query = IntersectionQuery(
                    p=p, u=gamma, s=delta - gamma, tprofile=profile
                )
                assert agg == sumrank_intersection_exact(query)
                assert agg == oracle.count_intersection(p, gamma, delta - gamma, profile)

    def test_pinned_value_where_the_split_walk_is_too_slow(self):
        # 2,306,025 splits of gamma; cross-checked once against _theorem3_split_walk
        p, profile = Params(2, 8, 8, 8), (8,) * 8
        expected = int("53260740124187954496024823706322199765511300552450484691490763856"
                       "16360275304775750")
        assert theorem3_aggregate(p, 32, profile) == expected
        query = IntersectionQuery(p=p, u=32, s=32, tprofile=profile)
        assert sumrank_intersection_exact(query) == expected

    def test_literal_inner_sum_disagrees_for_two_blocks(self):
        # the printed expression sums over blocks where its own proof multiplies
        literal = theorem3_literal(P222, 1, 2)
        assert literal != theorem3_aggregate(P222, 1, (1, 1))


def test_rank1_additive_pairs():
    assert rank1_additive_pairs(2, 2, 0, 2) == 9
    assert rank1_additive_pairs(2, 2, 1, 2) == 4
    assert rank1_additive_pairs(2, 2, 2, 2) == 0
    for r in range(3):
        assert rank1_additive_pairs(2, 2, r, 2) == oracle.count_rank1_additive(
            2, 2, r, 2
        )


def test_rank1_additive_pairs_zero_rank_is_sphere_size():
    for n, m, q in [(2, 3, 2), (3, 2, 3)]:
        assert rank1_additive_pairs(n, m, 0, q) == num_matrices_rank(n, m, 1, q)


@st.composite
def _rank_cells(draw):
    """(n, m, q, t) with 1 <= n, m <= 5 and center distance t <= min(m, n)."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return n, m, draw(st.sampled_from([2, 3, 4, 5])), draw(st.integers(0, min(m, n)))


@given(_rank_cells(), st.integers(0, 6), st.integers(0, 6))
def test_j_is_symmetric_in_the_radii(cell, u, s):
    n, m, q, t = cell
    assert rank_sphere_intersection_J(u, s, t, n, m, q) == rank_sphere_intersection_J(
        s, u, t, n, m, q)


@given(_rank_cells(), st.integers(0, 5))
def test_j_summed_over_the_second_radius_is_the_first_sphere(cell, u):
    n, m, q, t = cell
    total = sum(rank_sphere_intersection_J(u, s, t, n, m, q) for s in range(min(m, n) + 1))
    assert total == num_matrices_rank(n, m, u, q)


@given(_rank_cells(), st.integers(0, 6), st.integers(0, 6))
def test_one_block_exact_intersection_is_the_rank_metric_one(cell, u, s):
    eta, m, q, t = cell
    query = IntersectionQuery(p=Params(q=q, m=m, eta=eta, ell=1), u=u, s=s, tprofile=(t,))
    assert sumrank_intersection_exact(query) == rank_ball_intersection_I(u, s, t, eta, m, q)


@given(st.sampled_from([2, 3, 4, 5]), st.integers(1, 5), st.integers(1, 5), st.data())
def test_theorem2_is_the_exact_count_for_one_block(q, m, eta, data):
    # Lemma 8's terms against the J-based dynamic program, not against themselves
    p = Params(q=q, m=m, eta=eta, ell=1)
    delta = data.draw(st.integers(1, p.mu))
    query = IntersectionQuery(p=p, u=delta, s=1, tprofile=(delta,))
    assert theorem2_per_profile(p, (delta,)) == sumrank_intersection_exact(query)


def _hamming_intersection(alphabet, length, d, u, s):
    """Words within Hamming distance u of x and s of y, where d(x, y) = d.

    Where x and y differ, a word agrees with x (i places), with y (j places)
    or with neither (k places); where they agree, it differs from both in l.
    """
    total = 0
    for i, j in itertools.product(range(d + 1), repeat=2):
        k = d - i - j
        for l in range(length - d + 1):
            if k >= 0 and j + k + l <= u and i + k + l <= s:
                total += (
                    math.comb(d, i) * math.comb(d - i, j) * (alphabet - 2) ** k
                    * math.comb(length - d, l) * (alphabet - 1) ** l
                )
    return total


@given(st.sampled_from([2, 3, 4, 5]), st.integers(1, 3), st.integers(1, 5), st.data())
def test_one_column_blocks_give_the_hamming_metric(q, m, ell, data):
    # at eta = 1 every block is one symbol of F_{q^m}, of rank 0 or 1
    p = Params(q=q, m=m, eta=1, ell=ell)
    profile = tuple(data.draw(st.lists(st.integers(0, 1), min_size=ell, max_size=ell)))
    u, s = data.draw(st.integers(0, ell + 1)), data.draw(st.integers(0, ell + 1))
    query = IntersectionQuery(p=p, u=u, s=s, tprofile=profile)
    expected = _hamming_intersection(q**m, ell, sum(profile), u, s)
    assert sumrank_intersection_exact(query) == expected


@given(_rank_cells(), st.data())
def test_j_is_the_krawtchouk_sum(cell, data):
    # written out from point values; the sum is 0 off the band, so no clamp
    n, m, q, t = cell
    u, s = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    numerator = sum(
        num_matrices_rank(n, m, i, q)
        * q_krawtchouk(u, i, n, m, q) * q_krawtchouk(s, i, n, m, q) * q_krawtchouk(t, i, n, m, q)
        for i in range(n + 1)
    )
    expected, rem = divmod(numerator, q ** (m * n) * num_matrices_rank(n, m, t, q))
    assert rem == 0
    assert rank_sphere_intersection_J(u, s, t, n, m, q) == expected


@given(_rank_cells())
def test_j_table_rows_and_columns_sum_to_the_spheres(cell):
    n, m, q, t = cell
    table = intersections._j_table(t, n, m, q)
    spheres = [num_matrices_rank(n, m, a, q) for a in range(min(m, n) + 1)]
    assert [sum(row) for row in table] == spheres
    assert [sum(col) for col in zip(*table)] == spheres


@given(_rank_cells(), st.data())
def test_j_counts_each_triangle_of_distances_from_either_corner(cell, data):
    # NM(t) J(a, b, t) and NM(a) J(t, b, a) both count the pairs (y, z) with
    # d(x, y) = t, d(x, z) = a and d(y, z) = b for a fixed x
    n, m, q, t = cell
    a, b = (data.draw(st.integers(0, min(m, n))) for _ in range(2))
    assert num_matrices_rank(n, m, t, q) * rank_sphere_intersection_J(a, b, t, n, m, q) == (
        num_matrices_rank(n, m, a, q) * rank_sphere_intersection_J(t, b, a, n, m, q))


def _krawtchouk_j_table(t, n, m, q):
    """J(a, b, t) for a, b <= min(m, n), each entry by the paper's Krawtchouk sum."""
    mu = min(m, n)
    k = [[q_krawtchouk(j, i, n, m, q) for i in range(n + 1)] for j in range(mu + 1)]
    weighted = [num_matrices_rank(n, m, i, q) * k[t][i] for i in range(n + 1)]
    den = q ** (m * n) * num_matrices_rank(n, m, t, q)
    table = []
    for a in range(mu + 1):
        row = []
        for b in range(mu + 1):
            quot, rem = divmod(sum(w * x * y for w, x, y in zip(weighted, k[a], k[b])), den)
            assert rem == 0
            row.append(quot)
        table.append(tuple(row))
    return tuple(table)


def test_j_tables_are_the_krawtchouk_sums_over_every_small_space():
    # q = 4, 8, 9 are not prime: the recurrence must not depend on a prime field
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n, m in itertools.product(range(1, 7), repeat=2):
            for t in range(min(m, n) + 1):
                expected = _krawtchouk_j_table(t, n, m, q)
                assert intersections._j_table(t, n, m, q) == expected, (t, n, m, q)
                assert intersections._j_rows(t, n, m, q) == expected, (t, n, m, q)


@given(_rank_cells(), st.integers(0, 6), st.integers(0, 6))
def test_i_is_the_double_sum_of_j(cell, u, s):
    n, m, q, t = cell
    mu = min(m, n)
    assert rank_ball_intersection_I(u, s, t, n, m, q) == sum(
        rank_sphere_intersection_J(a, b, t, n, m, q)
        for a in range(min(u, mu) + 1)
        for b in range(min(s, mu) + 1)
    )


@st.composite
def _exact_queries(draw, max_ell):
    """A query with 1 <= m, eta <= 5, ell <= max_ell and radii up to one past ell * mu."""
    p = Params(q=draw(st.sampled_from([2, 3, 4, 5])), m=draw(st.integers(1, 5)),
               eta=draw(st.integers(1, 5)), ell=draw(st.integers(1, max_ell)))
    profile = draw(st.lists(st.integers(0, p.mu), min_size=p.ell, max_size=p.ell))
    u, s = (draw(st.integers(0, p.max_weight + 1)) for _ in range(2))
    return IntersectionQuery(p=p, u=u, s=s, tprofile=tuple(profile))


@given(_exact_queries(max_ell=4))
def test_exact_is_invariant_under_block_permutations(query):
    p = query.p
    expected = sumrank_intersection_exact(query)
    for perm in set(itertools.permutations(query.tprofile)):
        assert sumrank_intersection_exact(dataclasses.replace(query, tprofile=perm)) == expected
        # the block program itself, run in the permuted order rather than the sorted one
        tables = [intersections._j_table(t, p.eta, p.m, p.q) for t in perm]
        assert sum(map(sum, intersections._block_product(tables, query.u, query.s))) == expected


@given(_exact_queries(max_ell=3))
def test_exact_is_the_sum_over_every_block_choice(query):
    p = query.p
    choices = [
        [(a, b, j) for a in range(p.mu + 1) for b in range(p.mu + 1)
         if (j := rank_sphere_intersection_J(a, b, t, p.eta, p.m, p.q))]
        for t in query.tprofile
    ]
    expected = sum(
        math.prod(j for _, _, j in blocks)
        for blocks in itertools.product(*choices)
        if sum(a for a, _, _ in blocks) <= query.u and sum(b for _, b, _ in blocks) <= query.s
    )
    assert sumrank_intersection_exact(query) == expected


@st.composite
def _tables(draw):
    """A table of 1-5 rows by 1-5 columns, with scattered zeros and some all-zero rows."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    entries = st.lists(st.one_of(st.just(0), st.integers(1, 10**6)), min_size=cols, max_size=cols)
    return tuple((0,) * cols if a in zero_rows else tuple(draw(entries)) for a in range(rows))


@given(st.lists(_tables(), min_size=1, max_size=4), st.data())
def test_block_product_is_the_capped_convolution(tables, data):
    # the whole product as a dict, every entry of every table, capped only afterwards
    product = {(0, 0): 1}
    for table in tables:
        step = {}
        for (pa, pb), c in product.items():
            for a, row in enumerate(table):
                for b, j in enumerate(row):
                    step[pa + a, pb + b] = step.get((pa + a, pb + b), 0) + c * j
        product = step
    top_a = sum(len(table) - 1 for table in tables)
    top_b = sum(len(table[0]) - 1 for table in tables)
    u, s = data.draw(st.integers(0, top_a + 2)), data.draw(st.integers(0, top_b + 2))
    dp = intersections._block_product(tables, u, s)
    assert [list(row) for row in dp] == [[product[a, b] for b in range(min(s, top_b) + 1)]
                                         for a in range(min(u, top_a) + 1)]
    assert intersections._coefficient(tables, u, s) == product.get((u, s), 0)
    assert intersections._coefficient(tables, top_a + 1, s) == 0
    assert intersections._coefficient(tables, u, top_b + 1) == 0


# The printed sums, term by term: the references for the *_literal readings.


def _theorem1_printed(p, u, s, t):
    """prod_i I(u_i, s_i, t_i) summed over every composition of u, of s and of t."""
    total = 0
    for uvec in enumerate_uniform(u, p.ell, p.mu):
        for svec in enumerate_uniform(s, p.ell, p.mu):
            for tvec in enumerate_uniform(t, p.ell, p.mu):
                total += math.prod(
                    rank_ball_intersection_I(ui, si, ti, p.eta, p.m, p.q)
                    for ui, si, ti in zip(uvec, svec, tvec)
                )
    return total


def _theorem2_printed(p, delta):
    """1 + R(n, m, 0) minus R(eta, m, d_i) over every block of every composition of delta."""
    return 1 + rank1_additive_pairs(p.n, p.m, 0, p.q) - sum(
        rank1_additive_pairs(p.eta, p.m, di, p.q)
        for dvec in enumerate_uniform(delta, p.ell, p.mu)
        for di in dvec
    )


def _direct_sum_pairs(q, d, g):
    """Ordered direct-sum pairs (A, B) of F_q^d with dim A = g."""
    return q ** (g * (d - g)) * gaussian_binomial(d, g, q)


def _theorem3_split_walk(p, gamma, dprofile):
    """prod_i pairs(d_i, g_i) summed over every split g of gamma bounded by dprofile."""
    return sum(math.prod(_direct_sum_pairs(p.q, di, gi) for gi, di in zip(gvec, dprofile))
               for gvec in enumerate_bounded(gamma, dprofile))


def _theorem3_printed(p, gamma, delta):
    """sum_i q^{g_i (d_i - g_i)} [d_i choose g_i]_q over compositions d of delta, splits g."""
    total = 0
    for dvec in enumerate_uniform(delta, p.ell, p.mu):
        for gvec in enumerate_bounded(gamma, dvec):
            total += sum(_direct_sum_pairs(p.q, di, gi) for gi, di in zip(gvec, dvec))
    return total


@st.composite
def _literal_cells(draw):
    """Params with q in {2, 3, 4}, m, eta <= 3, ell <= 4 and ell * mu <= 8."""
    m, eta = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ell = draw(st.integers(1, min(4, 8 // min(m, eta))))
    return Params(q=draw(st.sampled_from([2, 3, 4])), m=m, eta=eta, ell=ell)


@given(_literal_cells(), st.data())
def test_theorem1_literal_is_the_printed_sum(p, data):
    t, u = (data.draw(st.integers(0, p.max_weight + 1)) for _ in range(2))
    s = data.draw(st.integers(max(0, t - u), p.max_weight + 1))
    assert theorem1_literal(p, u, s, t) == _theorem1_printed(p, u, s, t)


@given(_literal_cells(), st.data())
def test_theorem2_literal_is_the_printed_sum(p, data):
    delta = data.draw(st.integers(1, p.max_weight))
    assert theorem2_literal(p, delta) == _theorem2_printed(p, delta)


@given(_literal_cells(), st.data())
def test_theorem3_literal_is_the_printed_sum(p, data):
    delta = data.draw(st.integers(0, p.max_weight + 1))
    gamma = data.draw(st.integers(0, delta))
    assert theorem3_literal(p, gamma, delta) == _theorem3_printed(p, gamma, delta)


@st.composite
def _theorem3_queries(draw, max_mu, max_ell):
    """(p, gamma, profile) with q up to 9 (non-prime q too), mu <= max_mu, ell <= max_ell."""
    p = Params(q=draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])), m=draw(st.integers(1, max_mu)),
               eta=draw(st.integers(1, max_mu)), ell=draw(st.integers(1, max_ell)))
    profile = tuple(draw(st.lists(st.integers(0, p.mu), min_size=p.ell, max_size=p.ell)))
    return p, draw(st.integers(0, sum(profile))), profile


@given(_theorem3_queries(max_mu=4, max_ell=4))
def test_theorem3_aggregate_is_the_split_walk(query):
    p, gamma, profile = query
    assert theorem3_aggregate(p, gamma, profile) == _theorem3_split_walk(p, gamma, profile)
    for gvec in enumerate_bounded(gamma, profile):
        assert theorem3_per_profile(p, gvec, profile) == math.prod(
            _direct_sum_pairs(p.q, di, gi) for gi, di in zip(gvec, profile))


@given(_theorem3_queries(max_mu=6, max_ell=5))
def test_theorem3_aggregate_is_the_exact_count_between_touching_balls(query):
    # |B(x, gamma) ∩ B(y, delta - gamma)| past the oracle's reach, against the J tables
    p, gamma, profile = query
    exact = IntersectionQuery(p=p, u=gamma, s=sum(profile) - gamma, tprofile=profile)
    assert theorem3_aggregate(p, gamma, profile) == sumrank_intersection_exact(exact)


def _forbid_composition_walks(monkeypatch):
    """Make every composition walker raise, wherever a formula could reach it."""
    def boom(*args, **kwargs):
        raise AssertionError("a formula walked compositions or splits")

    for module in (intersections, compositions):
        for name in ("enumerate_bounded", "enumerate_uniform"):
            monkeypatch.setattr(module, name, boom, raising=False)


def test_no_formula_walks_compositions_or_splits(monkeypatch):
    p = Params(2, 2, 2, 3)
    formulas = {
        "rank_sphere_intersection_J": lambda: rank_sphere_intersection_J(1, 2, 1, 2, 2, 2),
        "rank_ball_intersection_I": lambda: rank_ball_intersection_I(1, 2, 1, 2, 2, 2),
        "sumrank_intersection_exact": lambda: sumrank_intersection_exact(
            IntersectionQuery(p=p, u=3, s=2, tprofile=(2, 1, 0))),
        "theorem1_literal": lambda: theorem1_literal(p, 3, 3, 3),
        "rank1_additive_pairs": lambda: rank1_additive_pairs(2, 2, 1, 2),
        "theorem2_per_profile": lambda: theorem2_per_profile(p, (2, 1, 0)),
        "theorem2_literal": lambda: theorem2_literal(p, 3),
        "theorem3_per_profile": lambda: theorem3_per_profile(p, (1, 1, 0), (2, 1, 0)),
        "theorem3_aggregate": lambda: theorem3_aggregate(p, 2, (2, 1, 1)),
        "theorem3_literal": lambda: theorem3_literal(p, 2, 4),
    }
    public = {name for name, obj in vars(intersections).items()
              if inspect.isfunction(obj) and obj.__module__ == intersections.__name__
              and not name.startswith("_")}
    assert public == set(formulas)
    expected = {name: formula() for name, formula in formulas.items()}
    _clear_kernel_caches()
    _forbid_composition_walks(monkeypatch)
    assert {name: formula() for name, formula in formulas.items()} == expected


KERNELS = (intersections._j_rows, intersections._j_table, intersections._i_table,
           intersections._pair_triangle)


def _clear_kernel_caches():
    for kernel in KERNELS:
        kernel.cache_clear()


def test_kernel_and_distribution_caches_are_bounded():
    for cached in (*KERNELS, weight_distribution):
        maxsize = cached.cache_parameters()["maxsize"]
        assert isinstance(maxsize, int) and maxsize > 0, cached.__name__


def test_a_sweep_past_the_table_bounds_keeps_cold_answers():
    # every (t, n, m, q) for n, m <= 9 and q in {2, 3}: more tables than fit
    keys = [(t, n, m, q) for q in (2, 3) for n in range(1, 10) for m in range(1, 10)
            for t in range(min(m, n) + 1)]
    bounded = KERNELS[:3]
    for kernel in bounded:
        assert len(keys) > kernel.cache_parameters()["maxsize"]

    def answers(t, n, m, q):
        mu = min(m, n)
        return [rank_ball_intersection_I(a, b, t, n, m, q)
                for a in range(mu + 1) for b in range(mu + 1)]

    _clear_kernel_caches()
    swept = {}
    for key in keys:
        swept[key] = answers(*key)
        for kernel in bounded:
            info = kernel.cache_info()
            assert info.currsize <= info.maxsize
    assert all(kernel.cache_info().misses > kernel.cache_info().maxsize for kernel in bounded)
    for key in keys:
        _clear_kernel_caches()
        assert answers(*key) == swept[key], key
