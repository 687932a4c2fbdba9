import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sumrank import volumes
from sumrank.qkit import InputError, num_matrices_rank
from sumrank.volumes import (
    Params,
    _weights_up_to,
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
    # Params checks q by qkit's one field-size rule
    with pytest.raises(InputError, match="^q must be an integer >= 2, got 1$"):
        Params(q=1, m=2, eta=2, ell=1)
    with pytest.raises(ValueError):
        Params(q=2, m=0, eta=2, ell=1)
    with pytest.raises(ValueError):
        Params(q=6, m=2, eta=2, ell=1)  # not a prime power: no field has 6 elements
    with pytest.raises(ValueError):
        Params(q=2.5, m=2, eta=2, ell=1)
    # a bool is an int to isinstance, but no field size or length
    for field in ("q", "m", "eta", "ell"):
        with pytest.raises(InputError, match=f"^{field} must be a positive int, got True$"):
            Params(**{"q": 2, "m": 2, "eta": 2, "ell": 1, field: True})


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


def test_profile_sum_at_more_blocks_than_the_recursion_limit():
    p = Params(q=2, m=1, eta=1, ell=1200)
    assert sphere_volume_by_profiles(p, 1) == sphere_volume(p, 1) == 1200


@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]), m=st.integers(1, 4),
       eta=st.integers(1, 4), ell=st.integers(1, 4))
def test_power_recurrence_agrees_with_profile_sum_at_every_top(q, m, eta, ell):
    p = Params(q=q, m=m, eta=eta, ell=ell)
    reference = tuple(sphere_volume_by_profiles(p, t) for t in range(p.max_weight + 1))
    for top in range(p.max_weight + 1):
        assert _weights_up_to(p, top) == reference[: top + 1]


@given(q=st.sampled_from([2, 3, 4, 5, 7, 8, 9]), m=st.integers(1, 4),
       ell=st.integers(1, 10**5))
@example(q=2, m=1, ell=10**5)
def test_power_recurrence_at_large_ell_and_small_radius(q, m, ell):
    # eta = 1 is the Hamming metric over F_{q^m}: S(t) = C(ell, t) (q^m - 1)^t
    top = min(3, ell)
    expected = tuple(math.comb(ell, t) * (q**m - 1) ** t for t in range(top + 1))
    assert _weights_up_to(Params(q=q, m=m, eta=1, ell=ell), top) == expected


def test_mass_guard_survives_optimize():
    # a wrong block count still gives integral coefficients, so the sum check
    # is what catches it; -O strips asserts
    src = str(Path(volumes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sumrank.volumes as v\n"
        "from sumrank.qkit import InternalInconsistencyError, num_matrices_rank\n"
        "v.num_matrices_rank = lambda n, m, r, q: num_matrices_rank(n, m, r, q) + (r == 1)\n"
        "try:\n    v.weight_distribution(v.Params(2, 2, 2, 3))\n"
        "except InternalInconsistencyError:\n    print('raised')\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "raised\n"


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
