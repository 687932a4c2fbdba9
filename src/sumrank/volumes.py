"""Sphere and ball volumes in the sum-rank metric.

The ambient space is F_{q^m}^n split into ell blocks of length eta, so
n = ell*eta and each block has rank at most mu = min(m, eta). The production
path is an ell-fold convolution of the single-block rank distribution,
truncated at the asked radius: a sphere or ball of radius t convolves only
weights 0..t, and the full weight distribution is the same convolution at
t = ell*mu. A direct sum over rank profiles is kept as an independent
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from sumrank.compositions import enumerate_uniform
from sumrank.qkit import InputError, is_prime_power, num_matrices_rank


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
        """Raise InputError unless profile has ell parts, each in 0..mu."""
        if len(profile) != self.ell:
            raise InputError(f"profile length {len(profile)} != ell = {self.ell}")
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
    """Sphere volumes for radii 0..top, by a convolution truncated at degree top.

    The single-block rank distribution (ranks 0..min(mu, top)) is convolved
    ell times (polynomial multiplication with exact integer coefficients),
    dropping every degree above top, so no rank or weight beyond top is
    ever computed. top must lie in 0..ell*mu.
    """
    block = [num_matrices_rank(p.eta, p.m, r, p.q) for r in range(min(p.mu, top) + 1)]
    dist = [1]
    for _ in range(p.ell):
        new = [0] * min(len(dist) + len(block) - 1, top + 1)
        for w, c in enumerate(dist):
            for r, b in enumerate(block[: top + 1 - w]):
                new[w + r] += c * b
        dist = new
    return tuple(dist)


# A distribution can take megabytes (1.1 MB at (2,26,26,26)), and only
# `volume --kind distribution` reads it, once, so the cache keeps the last one.
_DISTRIBUTION_CACHE_SIZE = 1


@lru_cache(maxsize=_DISTRIBUTION_CACHE_SIZE)
def weight_distribution(p: Params) -> tuple[int, ...]:
    """Sphere volumes for every radius 0..ell*mu, by convolution.

    Entry t is the number of vectors of sum-rank weight exactly t.
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

    Same value as sphere_volume; kept independent of the convolution path
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
