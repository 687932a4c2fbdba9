import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrank import intersections, oracle
from sumrank.intersections import IntersectionQuery, sumrank_intersection_exact
from sumrank.oracle import (
    OracleBudgetError,
    canonical_centers,
    check_passes,
    check_prime_field,
    count_intersection,
    count_weights,
    els_pair_count_check,
    matrix_rank,
)
from sumrank.qkit import InputError, gaussian_binomial, running_sums
from sumrank.volumes import Params, ball_volume

P221 = Params(q=2, m=2, eta=2, ell=1)
P222 = Params(q=2, m=2, eta=2, ell=2)


def test_matrix_rank_basics():
    assert matrix_rank(((1, 0), (0, 1)), 2) == 2
    assert matrix_rank(((0, 0), (0, 0)), 2) == 0
    assert matrix_rank(((1, 1), (1, 1)), 2) == 1
    assert matrix_rank(((1, 2), (2, 1)), 3) == 1  # second row = 2 * first mod 3


def test_matrix_rank_transpose_invariant():
    import itertools

    for flat in itertools.product(range(3), repeat=6):
        mat = (flat[0:3], flat[3:6])
        transposed = tuple(zip(*mat))
        assert matrix_rank(mat, 3) == matrix_rank(transposed, 3)


def test_canonical_centers():
    y = canonical_centers(P222, (2, 1))
    assert y == (((1, 0), (0, 1)), ((1, 0), (0, 0)))
    # the constructed center realizes its profile against x = 0
    for profile in [(0, 0), (1, 0), (2, 2), (1, 2)]:
        y = canonical_centers(P222, profile)
        assert tuple(matrix_rank(b, 2) for b in y) == profile


def test_count_weights_examples():
    assert count_weights(P221) == [1, 9, 6]


def test_count_weights_exhaustive():
    assert sum(count_weights(P222)) == 256


def test_count_intersection_examples():
    assert count_intersection(P222, 4, 4, (1, 1)) == 256
    assert count_intersection(P222, 0, 1, (2, 0)) == 0
    assert count_intersection(P221, 1, 1, (2,)) == 6


def test_count_intersection_clamps_radii_past_the_largest_weight():
    # ell * mu = 4 at P222: radii past it read the whole space
    assert count_intersection(P222, 9, 9, (1, 1)) == 256
    assert count_intersection(P222, 9, 2, (1, 1)) == count_intersection(P222, 4, 2, (1, 1))
    assert count_intersection(P222, -1, 9, (1, 1)) == 0
    assert count_intersection(P222, 9, -1, (1, 1)) == 0


def test_count_intersection_symmetry():
    for profile in [(2, 0), (1, 1)]:
        assert count_intersection(P222, 1, 2, profile) == count_intersection(
            P222, 2, 1, profile
        )
        assert count_intersection(P222, 1, 2, profile) == count_intersection(
            P222, 1, 2, profile[::-1]
        )


def test_budget_refusal():
    big = Params(q=2, m=5, eta=5, ell=2)
    with pytest.raises(OracleBudgetError) as exc:
        count_weights(big, budget=2**10)
    assert exc.value.required == big.space_size


def test_check_passes_refuses_a_q_that_is_not_prime_before_any_budget():
    with pytest.raises(InputError, match="oracle requires a prime field size, got 4"):
        check_passes(Params(q=4, m=1, eta=1, ell=1), 1, budget=0)


def test_check_passes_reports_a_space_over_budget_by_its_size():
    with pytest.raises(OracleBudgetError) as exc:
        check_passes(P222, 3, budget=255)
    assert exc.value.required == 256 and exc.value.budget == 255
    assert str(exc.value) == "enumeration needs 256 candidates, budget is 255"


def test_check_passes_reports_several_passes_by_their_total():
    with pytest.raises(OracleBudgetError) as exc:
        check_passes(P222, 3, budget=767)
    assert exc.value.required == 768


def test_check_passes_accepts_a_total_equal_to_the_budget():
    check_passes(P222, 3, budget=768)
    check_passes(P222, 1, budget=256)


def test_composite_q_rejected():
    with pytest.raises(ValueError):
        count_weights(Params(q=4, m=2, eta=2, ell=1))


def test_prime_field_check_accepts_exactly_the_primes():
    accepted = []
    for q in range(30):
        try:
            check_prime_field(q)
            accepted.append(q)
        except ValueError as exc:
            assert str(exc) == f"oracle requires a prime field size, got {q}"
    assert accepted == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_els_pair_count_examples():
    assert els_pair_count_check(2, 0, 2) == 1
    assert els_pair_count_check(3, 3, 2) == 1
    assert els_pair_count_check(2, 1, 2) == 6


@pytest.mark.parametrize("q", [2, 3])
def test_els_pair_count_matches_closed_form(q):
    for k in range(4):
        for a in range(k + 1):
            assert els_pair_count_check(k, a, q) == q ** (a * (k - a)) * gaussian_binomial(k, a, q)


def test_rank1_additive_oracle():
    assert oracle.count_rank1_additive(2, 2, 1, 2) == 4


# -- properties of the joint distance histogram ------------------------------

PRIME_CELLS = [
    Params(q=q, m=m, eta=eta, ell=ell)
    for q in (2, 3, 5, 7)
    for m in range(1, 13)
    for eta in range(1, 13)
    for ell in range(1, 13)
    if q ** (m * eta * ell) <= 2**12
]


@functools.lru_cache(maxsize=None)
def _histogram(p, profile):
    return oracle.distance_histogram(p, profile)


def _balls(p, profile):
    """The ball table of a profile's histogram: [u][s] counts within u of x and s of y."""
    return running_sums(_histogram(p, profile))


@st.composite
def _questions(draw):
    p = draw(st.sampled_from(PRIME_CELLS))
    profile = tuple(draw(st.lists(st.integers(0, p.mu), min_size=p.ell, max_size=p.ell)))
    radius = st.integers(0, p.max_weight)
    return p, profile, draw(radius), draw(radius)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@PROPERTY_SETTINGS
@given(_questions())
def test_histogram_counts_the_whole_space(question):
    p, profile, _, _ = question
    hist = _histogram(p, profile)
    assert sum(map(sum, hist)) == p.space_size
    assert _balls(p, profile)[p.max_weight][p.max_weight] == p.space_size


@PROPERTY_SETTINGS
@given(_questions())
def test_histogram_count_is_symmetric_in_the_radii(question):
    p, profile, u, s = question
    balls = _balls(p, profile)
    assert balls[u][s] == balls[s][u]


@PROPERTY_SETTINGS
@given(_questions(), st.randoms(use_true_random=False))
def test_histogram_count_ignores_block_order(question, rng):
    p, profile, u, s = question
    shuffled = list(profile)
    rng.shuffle(shuffled)
    assert _balls(p, tuple(shuffled))[u][s] == _balls(p, profile)[u][s]


@PROPERTY_SETTINGS
@given(_questions())
def test_histogram_count_matches_exact_formula_and_ball_bound(question):
    p, profile, u, s = question
    count = _balls(p, profile)[u][s]
    query = IntersectionQuery(p=p, u=u, s=s, tprofile=profile)
    assert count == sumrank_intersection_exact(query)
    assert count <= min(ball_volume(p, u), ball_volume(p, s))


# -- one rank per block matrix -----------------------------------------------


def _all_matrices(q, rows, cols):
    for flat in itertools.product(range(q), repeat=rows * cols):
        yield tuple(flat[r * cols : (r + 1) * cols] for r in range(rows))


@pytest.mark.parametrize("q, max_side", [(2, 3), (3, 3), (5, 2), (7, 2)])
def test_matrix_rank_is_the_dimension_of_the_row_space(q, max_side):
    for rows in range(1, max_side + 1):
        for cols in range(1, max_side + 1):
            for mat in _all_matrices(q, rows, cols):
                assert q ** matrix_rank(mat, q) == len(oracle._span(list(mat), q)), mat


def _cell_id(p):
    return f"{p.q}-{p.m}-{p.eta}-{p.ell}"


RANK_CELLS = [P221, P222, Params(q=3, m=1, eta=2, ell=2), Params(q=2, m=2, eta=1, ell=3)]


def _profiles(p):
    return list(itertools.product(range(p.mu + 1), repeat=p.ell))


@pytest.mark.parametrize("p", RANK_CELLS, ids=_cell_id)
def test_histogram_ranks_each_block_matrix_once(monkeypatch, p):
    calls = []

    def counted(mat, q):
        calls.append(mat)
        return matrix_rank(mat, q)

    monkeypatch.setattr(oracle, "matrix_rank", counted)
    oracle._block_ranks.cache_clear()
    oracle.distance_histogram(p, (p.mu,) * p.ell)
    assert len(calls) == p.q ** (p.m * p.eta) == len(set(calls))
    calls.clear()
    for profile in _profiles(p):
        oracle.distance_histogram(p, profile)
    assert calls == []


def test_block_rank_tables_are_a_bounded_cache():
    assert isinstance(oracle._block_ranks.cache_parameters()["maxsize"], int)


@pytest.mark.parametrize("p", RANK_CELLS, ids=_cell_id)
def test_histograms_from_a_cold_and_a_warm_rank_cache_are_equal(p):
    cold = []
    for profile in _profiles(p):
        oracle._block_ranks.cache_clear()
        cold.append(oracle.distance_histogram(p, profile))
    for profile in _profiles(p):
        oracle.distance_histogram(p, profile)
    assert [oracle.distance_histogram(p, profile) for profile in _profiles(p)] == cold


def _minus(a, b, q):
    return tuple(tuple((x - z) % q for x, z in zip(arow, brow)) for arow, brow in zip(a, b))


def _naive_histograms(p):
    """Every profile's histogram by whole-vector enumeration, ranking blocks directly.

    Each vector v is split into its blocks, and the rank of every block of v and
    of v - y is computed for it alone. A center block with t leading diagonal
    ones serves every profile whose part is t there.
    """
    ys = [canonical_centers(p, (t,) * p.ell)[0] for t in range(p.mu + 1)]
    profiles = list(itertools.product(range(p.mu + 1), repeat=p.ell))
    stride = p.max_weight + 1
    hists = {profile: [[0] * stride for _ in range(stride)] for profile in profiles}
    size = p.m * p.eta
    for flat in itertools.product(range(p.q), repeat=size * p.ell):
        blocks = [tuple(flat[i * size + r * p.eta : i * size + (r + 1) * p.eta]
                        for r in range(p.m)) for i in range(p.ell)]
        a = sum(matrix_rank(block, p.q) for block in blocks)
        to_y = [[matrix_rank(_minus(block, y, p.q), p.q) for y in ys] for block in blocks]
        for profile in profiles:
            hists[profile][a][sum(row[t] for row, t in zip(to_y, profile))] += 1
    return hists


SMALL_PRIME_CELLS = [
    Params(q=q, m=m, eta=eta, ell=ell)
    for q in range(2, 2**10 + 1)
    if all(q % d for d in range(2, math.isqrt(q) + 1))
    for m in range(1, 11)
    for eta in range(1, 11)
    for ell in range(1, 11)
    if q ** (m * eta * ell) <= 2**10
]


@pytest.mark.parametrize("p", SMALL_PRIME_CELLS, ids=_cell_id)
def test_histogram_equals_a_naive_enumeration_on_every_profile(p):
    for profile, hist in _naive_histograms(p).items():
        assert oracle.distance_histogram(p, profile) == hist, profile


@pytest.mark.parametrize("q", [2, 3])
def test_els_pair_enumeration_matches_the_library_pair_table(q):
    for k in range(4):
        pairs = intersections._pair_triangle(k, q)
        for a in range(k + 1):
            assert els_pair_count_check(k, a, q) == pairs[a][k - a]
