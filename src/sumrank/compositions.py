"""Bounded ordered partitions (compositions) of an integer.

A rank profile is a length-ell tuple of nonnegative parts summing to t,
each part capped by a uniform bound mu or a per-part bound. Enumeration is
one flat, streaming loop in lexicographic order, at any ell; the closed-form
count uses inclusion-exclusion over the uniform bound. The partitions of t
(the sorted compositions) are listed alone, each with its number of compositions.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator, Sequence

from sumrank.qkit import InputError

RankProfile = tuple[int, ...]


def enumerate_bounded(t: int, bounds: Sequence[int]) -> Iterator[RankProfile]:
    """Yield every composition of t with part i <= bounds[i], lexicographically."""
    bounds = tuple(bounds)
    if t < 0 or min(bounds, default=0) < 0:
        raise InputError("total and bounds must be nonnegative")
    ell = len(bounds)

    def walk() -> Iterator[RankProfile]:
        if t > sum(bounds):
            return
        parts, carry, j = [0] * ell, t, ell - 1
        while True:
            # the least tail holding carry: each part as full as it goes, from the right
            while carry:
                parts[j] = min(bounds[j], carry)
                carry -= parts[j]
                j -= 1
            yield tuple(parts)
            # the rightmost part below its bound with a nonzero tail goes up by one,
            # and the tail it passes is emptied into carry
            i = ell - 1
            while i >= 0 and (carry == 0 or parts[i] == bounds[i]):
                carry += parts[i]
                parts[i] = 0
                i -= 1
            if i < 0:
                return
            parts[i] += 1
            carry, j = carry - 1, ell - 1

    return walk()


def enumerate_uniform(t: int, ell: int, mu: int) -> Iterator[RankProfile]:
    """Yield every composition of t into ell parts each <= mu, lexicographically."""
    if ell < 1:
        raise InputError("number of parts must be positive")
    return enumerate_bounded(t, (mu,) * ell)


def enumerate_partitions(t: int, ell: int, mu: int) -> Iterator[tuple[RankProfile, int]]:
    """Yield each nonincreasing composition of t into ell parts <= mu once, with its count.

    The count is the number of compositions that sort to it, the multinomial
    ell! / prod(mult!), taken as the product of C(places left, mult) over the
    multiplicities of its parts. Partitions come in reverse lexicographic
    order, and no composition is visited.
    """
    if t < 0 or mu < 0:
        raise InputError("total and part bound must be nonnegative")
    if ell < 1:
        raise InputError("number of parts must be positive")

    def walk() -> Iterator[tuple[RankProfile, int]]:
        if t > ell * mu:
            return
        parts, i, cap, carry = [0] * ell, -1, mu, t
        while True:
            # the greatest tail holding carry under the cap: each part as full as it goes
            for j in range(i + 1, ell):
                parts[j] = min(cap, carry)
                carry -= parts[j]
            count, left = 1, ell  # each value in turn takes mult of the places left
            for mult in Counter(parts).values():
                count *= math.comb(left, mult)
                left -= mult
            yield tuple(parts), count
            # the rightmost part that can drop by one while its tail takes the unit
            i = ell - 1
            while i >= 0 and carry + 1 > (parts[i] - 1) * (ell - 1 - i):
                carry += parts[i]
                i -= 1
            if i < 0:
                return
            parts[i] -= 1
            cap, carry = parts[i], carry + 1

    return walk()


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
