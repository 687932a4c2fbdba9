import itertools
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumrank.compositions import (
    count_uniform,
    count_upper_bound,
    enumerate_bounded,
    enumerate_partitions,
    enumerate_uniform,
)
from sumrank.qkit import InputError


def test_enumerate_uniform_examples():
    assert list(enumerate_uniform(2, 2, 1)) == [(1, 1)]
    assert list(enumerate_uniform(2, 2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(enumerate_uniform(5, 2, 2)) == []


def test_enumerate_bounded_examples():
    assert list(enumerate_bounded(2, (1, 2))) == [(0, 2), (1, 1)]
    assert list(enumerate_bounded(0, (3, 1, 2))) == [(0, 0, 0)]
    assert list(enumerate_bounded(4, (1, 1))) == []


def test_count_uniform_examples():
    assert count_uniform(2, 2, 1) == 1
    assert count_uniform(2, 2, 2) == 3
    assert count_uniform(3, 2, 2) == 2


def test_count_upper_bound_examples():
    assert count_upper_bound(2, 2) == 3
    assert count_upper_bound(0, 4) == 1
    assert count_upper_bound(3, 2) == 4


@pytest.mark.parametrize("ell", range(1, 7))
@pytest.mark.parametrize("mu", range(6))
def test_count_matches_enumeration(ell, mu):
    for t in range(13):
        profiles = list(enumerate_uniform(t, ell, mu))
        assert count_uniform(t, ell, mu) == len(profiles)
        assert len(profiles) <= count_upper_bound(t, ell)
        # no duplicates, valid parts, correct sums, lexicographic order
        assert len(set(profiles)) == len(profiles)
        assert profiles == sorted(profiles)
        for prof in profiles:
            assert len(prof) == ell
            assert sum(prof) == t
            assert all(0 <= part <= mu for part in prof)


def test_bounded_with_uniform_bounds_agrees():
    for ell in range(1, 5):
        for mu in range(4):
            for t in range(10):
                assert len(list(enumerate_bounded(t, (mu,) * ell))) == count_uniform(
                    t, ell, mu
                )


def test_enumeration_is_lazy():
    it = enumerate_uniform(29, 6, 5)
    assert next(it) == (4, 5, 5, 5, 5, 5)


def test_enumerate_partitions_examples():
    assert list(enumerate_partitions(2, 2, 2)) == [((2, 0), 2), ((1, 1), 1)]
    assert list(enumerate_partitions(3, 3, 2)) == [((2, 1, 0), 6), ((1, 1, 1), 1)]
    assert list(enumerate_partitions(0, 4, 0)) == [((0, 0, 0, 0), 1)]
    assert list(enumerate_partitions(5, 2, 2)) == []


@pytest.mark.parametrize("ell", range(1, 6))
@pytest.mark.parametrize("mu", range(5))
def test_partitions_are_the_sorted_compositions_with_their_counts(ell, mu):
    for t in range(ell * mu + 2):
        partitions = list(enumerate_partitions(t, ell, mu))
        sorted_compositions = Counter(
            tuple(sorted(c, reverse=True)) for c in enumerate_uniform(t, ell, mu))
        assert len({parts for parts, _ in partitions}) == len(partitions)
        assert dict(partitions) == sorted_compositions
        assert sum(count for _, count in partitions) == count_uniform(t, ell, mu)


@pytest.mark.parametrize("t, ell", [(-1, 2), (2, 0), (0, -1)])
def test_enumerate_partitions_refuses_a_negative_total_or_no_parts(t, ell):
    with pytest.raises(InputError):
        enumerate_partitions(t, ell, 2)


@pytest.mark.parametrize("enumerate_, args", [
    (enumerate_bounded, (1, (2, -1))),
    (enumerate_uniform, (0, 2, -1)),
    (enumerate_partitions, (0, 2, -1)),
])
def test_a_negative_bound_is_refused_at_the_call(enumerate_, args):
    with pytest.raises(InputError):
        enumerate_(*args)


@given(st.lists(st.integers(0, 4), max_size=6), st.data())
def test_bounded_is_the_box_filtered_by_sum_in_lexicographic_order(bounds, data):
    t = data.draw(st.integers(0, sum(bounds) + 1))
    box = itertools.product(*(range(bound + 1) for bound in bounds))
    assert list(enumerate_bounded(t, bounds)) == [c for c in box if sum(c) == t]


@given(st.integers(1, 6), st.integers(0, 4), st.data())
def test_partitions_are_the_sorted_compositions_in_reverse_order(ell, mu, data):
    t = data.draw(st.integers(0, ell * mu + 1))
    sorted_compositions = {tuple(sorted(c, reverse=True))
                           for c in itertools.product(range(mu + 1), repeat=ell) if sum(c) == t}
    partitions = [parts for parts, _ in enumerate_partitions(t, ell, mu)]
    assert partitions == sorted(sorted_compositions, reverse=True)


def test_enumeration_depth_does_not_grow_with_the_number_of_parts():
    # past the interpreter's recursion limit: a generator frame per part would not get here
    assert sum(1 for _ in enumerate_uniform(1, 5000, 1)) == 5000
    assert list(enumerate_partitions(3, 5000, 3)) == [
        ((3,) + (0,) * 4999, 5000),
        ((2, 1) + (0,) * 4998, 5000 * 4999),
        ((1, 1, 1) + (0,) * 4997, math.comb(5000, 3)),
    ]


def test_partition_counts_at_a_hundred_thousand_parts():
    ell = 100_000
    assert list(enumerate_partitions(2, ell, 1)) == [
        ((1, 1) + (0,) * (ell - 2), math.comb(ell, 2)),
    ]
    assert list(enumerate_partitions(3, ell, 3)) == [
        ((3,) + (0,) * (ell - 1), ell),
        ((2, 1) + (0,) * (ell - 2), ell * (ell - 1)),
        ((1, 1, 1) + (0,) * (ell - 3), math.comb(ell, 3)),
    ]


@given(st.integers(1, 8), st.integers(0, 4), st.data())
def test_partition_counts_are_the_multinomials(ell, mu, data):
    t = data.draw(st.integers(0, ell * mu))
    for parts, count in enumerate_partitions(t, ell, mu):
        mults = Counter(parts).values()
        assert count == math.factorial(ell) // math.prod(map(math.factorial, mults))
