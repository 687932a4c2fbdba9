import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumrank.qkit import num_matrices_rank
from sumrank.volumes import (
    Params,
    ball_volume,
    sphere_volume,
    sphere_volume_by_profiles,
    weight_distribution,
)


def test_params_derived_quantities():
    p = Params(q=2, m=3, eta=2, ell=4)
    assert p.n == 8
    assert p.mu == 2
    assert p.max_weight == 8
    assert p.space_size == 2**24


def test_params_validation():
    with pytest.raises(ValueError):
        Params(q=1, m=2, eta=2, ell=1)
    with pytest.raises(ValueError):
        Params(q=2, m=0, eta=2, ell=1)
    with pytest.raises(ValueError):
        Params(q=6, m=2, eta=2, ell=1)  # not a prime power: no field has 6 elements
    with pytest.raises(ValueError):
        Params(q=2.5, m=2, eta=2, ell=1)


def test_check_profile():
    p = Params(q=2, m=3, eta=2, ell=2)
    p.check_profile((0, 2))
    with pytest.raises(ValueError, match=r"^profile length 3 != ell = 2$"):
        p.check_profile((1, 1, 0))
    for bad in [(3, 0), (0, -1)]:
        with pytest.raises(ValueError, match=r"^profile parts must lie in 0\.\.mu = 2$"):
            p.check_profile(bad)


def test_sphere_volume_examples():
    # frozen from brute-force enumeration at q=2, m=eta=2
    assert sphere_volume(Params(q=2, m=2, eta=2, ell=1), 1) == 9
    assert sphere_volume(Params(q=2, m=2, eta=2, ell=2), 1) == 18
    assert sphere_volume(Params(q=3, m=2, eta=3, ell=2), 0) == 1


def test_ball_volume_examples():
    p1 = Params(q=2, m=2, eta=2, ell=1)
    p2 = Params(q=2, m=2, eta=2, ell=2)
    assert ball_volume(p2, 4) == 256
    assert ball_volume(p2, 9) == 256  # radii beyond ell*mu clamp to the space
    assert ball_volume(p1, 0) == 1
    assert ball_volume(p1, 1) == 10


def test_weight_distribution_example():
    assert weight_distribution(Params(q=2, m=2, eta=2, ell=1)) == (1, 9, 6)
    assert sum(weight_distribution(Params(q=2, m=2, eta=2, ell=2))) == 256


@pytest.mark.parametrize("q", [2, 3])
def test_mass_conservation(q):
    for m in range(1, 4):
        for eta in range(1, 4):
            for ell in range(1, 4):
                p = Params(q=q, m=m, eta=eta, ell=ell)
                assert sum(weight_distribution(p)) == p.space_size


def test_ball_is_prefix_sum_and_nondecreasing():
    p = Params(q=2, m=2, eta=3, ell=2)
    dist = weight_distribution(p)
    previous = 0
    for t in range(p.max_weight + 1):
        bv = ball_volume(p, t)
        assert bv == sum(dist[: t + 1])
        assert bv >= previous
        previous = bv


@pytest.mark.parametrize("q", [2, 3])
def test_rank_metric_reduction(q):
    # one block: sum-rank is the rank metric
    for m in range(1, 4):
        for eta in range(1, 4):
            p = Params(q=q, m=m, eta=eta, ell=1)
            for t in range(p.mu + 2):
                assert sphere_volume(p, t) == num_matrices_rank(eta, m, t, q)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_hamming_metric_reduction(q, m):
    # eta = 1: sum-rank is the Hamming metric over F_{q^m}
    for ell in range(1, 7):
        p = Params(q=q, m=m, eta=1, ell=ell)
        for t in range(ell + 1):
            assert sphere_volume(p, t) == math.comb(ell, t) * (q**m - 1) ** t


@pytest.mark.parametrize("q", [2, 3])
def test_convolution_agrees_with_profile_sum(q):
    for m in range(1, 4):
        for eta in range(1, 4):
            for ell in range(1, 5):
                p = Params(q=q, m=m, eta=eta, ell=ell)
                for t in range(p.max_weight + 1):
                    assert sphere_volume(p, t) == sphere_volume_by_profiles(p, t)


@st.composite
def _radius_sequences(draw):
    """A small cell, radii to ask in order (some past ell*mu), and when to tabulate."""
    p = Params(q=draw(st.sampled_from([2, 3, 4])), m=draw(st.integers(1, 4)),
               eta=draw(st.integers(1, 4)), ell=draw(st.integers(1, 4)))
    asks = draw(st.lists(
        st.tuples(st.sampled_from(["sphere", "ball"]), st.integers(0, p.max_weight + 2)),
        max_size=8,
    ))
    return p, asks, draw(st.integers(0, len(asks)))


@given(_radius_sequences())
def test_truncated_volumes_agree_with_the_distribution_in_any_order(case):
    p, asks, tabulate_at = case
    weight_distribution.cache_clear()
    answers = []
    for i, (kind, t) in enumerate(asks):
        if i == tabulate_at:
            weight_distribution(p)
        answers.append(sphere_volume(p, t) if kind == "sphere" else ball_volume(p, t))
    dist = weight_distribution(p)
    assert len(dist) == p.max_weight + 1 and sum(dist) == p.space_size
    for (kind, t), answer in zip(asks, answers):
        if kind == "sphere":
            assert answer == (dist[t] if t < len(dist) else 0)
        else:
            assert answer == sum(dist[: t + 1])
