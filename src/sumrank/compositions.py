"""Bounded ordered partitions (compositions) of an integer.

A rank profile is a length-ell tuple of nonnegative parts summing to t,
each part capped by a uniform bound mu or a per-part bound. Enumeration is
streaming and lexicographic; the closed-form count uses inclusion-exclusion
over the uniform bound. The partitions of t (the sorted compositions) are
enumerated on their own, each with the number of compositions it stands for.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator, Sequence

from sumrank.qkit import InputError

RankProfile = tuple[int, ...]


def enumerate_bounded(t: int, bounds: Sequence[int]) -> Iterator[RankProfile]:
    """Yield every composition of t with part i <= bounds[i], lexicographically."""
    if t < 0:
        raise InputError("total must be nonnegative")
    bounds = tuple(bounds)
    ell = len(bounds)
    # suffix[i] = max total achievable by parts i..ell-1
    suffix = [0] * (ell + 1)
    for i in range(ell - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]

    def rec(i: int, remaining: int) -> Iterator[RankProfile]:
        if i == ell:
            if remaining == 0:
                yield ()
            return
        lo = max(0, remaining - suffix[i + 1])
        hi = min(bounds[i], remaining)
        for part in range(lo, hi + 1):
            for rest in rec(i + 1, remaining - part):
                yield (part,) + rest

    return rec(0, t)


def enumerate_uniform(t: int, ell: int, mu: int) -> Iterator[RankProfile]:
    """Yield every composition of t into ell parts each <= mu, lexicographically."""
    if ell < 1:
        raise InputError("number of parts must be positive")
    return enumerate_bounded(t, (mu,) * ell)


def enumerate_partitions(t: int, ell: int, mu: int) -> Iterator[tuple[RankProfile, int]]:
    """Yield each nonincreasing composition of t into ell parts <= mu once, with its count.

    The count is the number of compositions that sort to it, the multinomial
    ell! / prod(mult!) over the multiplicities of its parts. Partitions come
    in reverse lexicographic order, and no composition is visited.
    """
    if t < 0:
        raise InputError("total must be nonnegative")
    if ell < 1:
        raise InputError("number of parts must be positive")

    def rec(slots: int, remaining: int, cap: int) -> Iterator[RankProfile]:
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        # the first of the remaining parts is the largest, so at least their mean
        for part in range(min(cap, remaining), -(-remaining // slots) - 1, -1):
            for rest in rec(slots - 1, remaining - part, part):
                yield (part,) + rest

    return (
        (parts, math.factorial(ell) // math.prod(map(math.factorial, Counter(parts).values())))
        for parts in rec(ell, t, mu)
    )


def count_uniform(t: int, ell: int, mu: int) -> int:
    """Number of compositions of t into ell parts each <= mu.

    Inclusion-exclusion over parts that exceed mu:
    sum_{i=0}^{floor(t/(mu+1))} (-1)^i C(ell,i) C(t+ell-1-(mu+1)i, ell-1),
    where a binomial with negative top contributes 0.
    """
    if t < 0 or mu < 0:
        raise InputError("arguments must be nonnegative")
    if ell < 1:
        raise InputError("number of parts must be positive")
    total = 0
    for i in range(t // (mu + 1) + 1):
        top = t + ell - 1 - (mu + 1) * i
        if top < 0:
            continue
        term = math.comb(ell, i) * math.comb(top, ell - 1)
        total += -term if i % 2 else term
    return total


def count_upper_bound(t: int, ell: int) -> int:
    """Stars-and-bars bound C(t+ell-1, ell-1) on the bounded count."""
    if t < 0 or ell < 1:
        raise InputError("invalid arguments")
    return math.comb(t + ell - 1, ell - 1)
