"""Exact q-analogue arithmetic.

Gaussian binomial coefficients, the count of fixed-rank matrices over F_q,
point evaluation of q-Krawtchouk polynomials, and the 2-D running sums that
make ball counts of sphere counts. All of it is exact Python integers, so
nothing overflows or rounds; an exact division goes through exact_div.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from itertools import accumulate


class InputError(ValueError):
    """Parameters outside a count's domain: the one way the library refuses input.

    Any other exception out of sumrank is a fault, not a refusal.
    """


class InternalInconsistencyError(Exception):
    """A count formula produced a non-integral or negative value."""


def exact_div(num: int, den: int, what: str) -> int:
    """num // den, raising InternalInconsistencyError if den does not divide num."""
    quot, rem = divmod(num, den)
    if rem != 0:
        raise InternalInconsistencyError(f"{what}: division not exact")
    return quot


def running_sums(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Entry [a][b] is the sum of table[i][j] over i <= a and j <= b."""
    return tuple(zip(*(accumulate(col) for col in zip(*map(accumulate, table)))))


def _check_q(q: int) -> None:
    if q < 2:
        raise InputError(f"q must be an integer >= 2, got {q}")


# Trial division stops here, so a q above its square may have no certified answer.
TRIAL_DIVISION_BOUND = 10**6


def smallest_prime_factor(q: int) -> int:
    """The least prime dividing q >= 2, by trial division up to sqrt(q) or the bound.

    Raises InputError for a q above TRIAL_DIVISION_BOUND**2 with no factor up
    to TRIAL_DIVISION_BOUND: such a q may be a prime or a product of large
    primes, and telling them apart by trial division could take hours.
    """
    bound = min(math.isqrt(q), TRIAL_DIVISION_BOUND)
    factor = next((d for d in range(2, bound + 1) if q % d == 0), q)
    if factor == q and q > TRIAL_DIVISION_BOUND**2:
        raise InputError(f"q = {q} exceeds {TRIAL_DIVISION_BOUND**2} and has no factor up to "
                         f"{TRIAL_DIVISION_BOUND}, so it cannot be certified a prime power")
    return factor


def is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and k >= 1."""
    if q < 2:
        return False
    p = smallest_prime_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Gaussian binomial [n choose k]_q: number of k-dim subspaces of F_q^n.

    Evaluated by the telescoping product prod_{i=1}^{k} (q^{n-k+i}-1)/(q^i-1),
    multiplying and dividing in index order so every intermediate stays
    integral (checked by exact_div). Returns 0 when k > n and 1 when k = 0.
    """
    _check_q(q)
    if n < 0 or k < 0:
        raise InputError("gaussian_binomial arguments must be nonnegative")
    if k > n:
        return 0
    result = 1
    for i in range(1, k + 1):
        result = exact_div(result * (q ** (n - k + i) - 1), q**i - 1, "gaussian binomial")
    return result


@lru_cache(maxsize=None)
def num_matrices_rank(n: int, m: int, t: int, q: int) -> int:
    """Number of m x n matrices over F_q of rank exactly t.

    [n choose t]_q * prod_{i=0}^{t-1} (q^m - q^i); 0 when t > min(m, n).
    """
    _check_q(q)
    if t < 0:
        raise InputError("rank must be nonnegative")
    if t > min(m, n):
        return 0
    count = gaussian_binomial(n, t, q)
    for i in range(t):
        count *= q**m - q**i
    return count


def q_krawtchouk(j: int, i: int, n: int, m: int, q: int) -> int:
    """q-Krawtchouk polynomial K_j(i) for the m x n bilinear-forms scheme.

    K_j(i) = sum_{l=0}^{j} (-1)^{j-l} q^{lm + C(j-l,2)}
             [n-l choose n-j]_q [n-i choose l]_q

    with C(1,2) = C(0,2) = 0. Can be negative; the value is exact.
    """
    _check_q(q)
    if i > n or j > n:
        raise InputError("q_krawtchouk requires i <= n and j <= n")
    total = 0
    for l in range(j + 1):
        term = (
            q ** (l * m + math.comb(j - l, 2))
            * gaussian_binomial(n - l, n - j, q)
            * gaussian_binomial(n - i, l, q)
        )
        if (j - l) % 2:
            term = -term
        total += term
    return total
