"""Sphere and ball volumes in the sum-rank metric.

The ambient space is F_{q^m}^n split into ell blocks of length eta, so
n = ell*eta and each block has rank at most mu = min(m, eta). The weight
distribution is the coefficient list of P(x)^ell, where P is the
single-block rank distribution. The production path computes it by
J. C. P. Miller's power recurrence, one coefficient per radius, truncated at
the asked radius: a sphere or ball of radius t costs about t*mu products,
whatever ell is, and the full weight distribution is the same recurrence at
t = ell*mu. A direct sum over rank profiles is kept as an independent
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from sumrank.compositions import enumerate_uniform
from sumrank.qkit import (
    InputError,
    InternalInconsistencyError,
    exact_div,
    is_prime_power,
    num_matrices_rank,
)


@dataclass(frozen=True)
class Params:
    """Ambient-space parameters (q, m, eta, ell) with derived n and mu."""

    q: int
    m: int
    eta: int
    ell: int

    def __post_init__(self) -> None:
        for name in ("q", "m", "eta", "ell"):
            if not isinstance(getattr(self, name), int) or getattr(self, name) < 1:
                raise InputError(f"{name} must be a positive int, got {getattr(self, name)!r}")
        if not is_prime_power(self.q):
            raise InputError(f"q must be a prime power, got {self.q}")

    def check_profile(self, profile: tuple[int, ...]) -> None:
        """Raise InputError unless profile has ell parts, each an int in 0..mu."""
        if len(profile) != self.ell:
            raise InputError(f"profile length {len(profile)} != ell = {self.ell}")
        if not all(isinstance(x, int) for x in profile):
            raise InputError(f"profile parts must be integers, got {profile!r}")
        if any(x < 0 or x > self.mu for x in profile):
            raise InputError(f"profile parts must lie in 0..mu = {self.mu}")

    @property
    def n(self) -> int:
        return self.ell * self.eta

    @property
    def mu(self) -> int:
        return min(self.m, self.eta)

    @property
    def space_size(self) -> int:
        return self.q ** (self.m * self.n)

    @property
    def max_weight(self) -> int:
        return self.ell * self.mu


def _weights_up_to(p: Params, top: int) -> tuple[int, ...]:
    """Sphere volumes for radii 0..top: the coefficients Q_0..Q_top of Q = P^ell.

    P is the single-block rank distribution, P_r = NM(eta, m, r), and
    P_0 = 1. Differentiating Q = P^ell gives P*Q' = ell*P'*Q, so
    Q_0 = 1 and k*Q_k = sum_{j=1..min(mu,k)} ((ell+1)*j - k) * P_j * Q_{k-j}
    (Miller's recurrence; Knuth, TAOCP Vol. 2, section 4.7). Each Q_k reads
    only lower coefficients, so no rank or weight beyond top is ever
    computed and the prefix is exact. Every division by k must be exact, and
    the full distribution (top = ell*mu) must sum to q^{mn}; either failure
    raises InternalInconsistencyError. top must lie in 0..ell*mu.
    """
    block = [num_matrices_rank(p.eta, p.m, r, p.q) for r in range(min(p.mu, top) + 1)]
    ell1 = p.ell + 1
    dist = [1]
    for k in range(1, top + 1):
        num = 0
        for j in range(1, min(len(block), k + 1)):
            num += (ell1 * j - k) * block[j] * dist[k - j]
        dist.append(exact_div(num, k, "power recurrence"))
    if top == p.max_weight and sum(dist) != p.space_size:
        raise InternalInconsistencyError("weight distribution does not sum to q^(mn)")
    return tuple(dist)


# A distribution can take megabytes (1.1 MB at (2,26,26,26)), and only
# `volume --kind distribution` reads it, once, so the cache keeps the last one.
_DISTRIBUTION_CACHE_SIZE = 1


@lru_cache(maxsize=_DISTRIBUTION_CACHE_SIZE)
def weight_distribution(p: Params) -> tuple[int, ...]:
    """Sphere volumes for every radius 0..ell*mu, by the power recurrence.

    Entry t is the number of vectors of sum-rank weight exactly t; the
    entries sum to q^{mn} (checked).
    """
    return _weights_up_to(p, p.max_weight)


def sphere_volume(p: Params, t: int) -> int:
    """Number of vectors at sum-rank weight exactly t; 0 beyond ell*mu."""
    if t < 0:
        raise InputError("radius must be nonnegative")
    if t > p.max_weight:
        return 0
    return _weights_up_to(p, t)[t]


def sphere_volume_by_profiles(p: Params, t: int) -> int:
    """Reference evaluation: sum over rank profiles of per-block counts.

    Same value as sphere_volume; kept independent of the power recurrence
    for cross-checking.
    """
    if t < 0:
        raise InputError("radius must be nonnegative")
    return sum(
        prod(num_matrices_rank(p.eta, p.m, ti, p.q) for ti in profile)
        for profile in enumerate_uniform(t, p.ell, p.mu)
    )


def ball_volume(p: Params, t: int) -> int:
    """Number of vectors at sum-rank weight at most t.

    Radii beyond ell*mu clamp to the whole space q^{mn}.
    """
    if t < 0:
        raise InputError("radius must be nonnegative")
    return sum(_weights_up_to(p, min(t, p.max_weight)))
