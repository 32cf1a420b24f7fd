"""Totients, divisors, lcm(1..n), cyclotomic polynomials, and the torsion
order polynomials pi_n built from them.

pi_n is the product of the first n cyclotomic polynomials. Its roots are
exactly the roots of unity of order at most n, each once, which is what makes
it detect eventually periodic matrix power sequences. Two independent
constructions are provided: the cyclotomic product (default, cheap) and the
squarefree part of nu_n = (z-1)(z^2-1)...(z^n-1) via a polynomial gcd. They
must agree coefficient for coefficient; the test suite holds them to that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .errors import InternalConsistencyError
from .polynomials import IntPoly, int_gcd


def totient(n: int) -> int:
    """Euler's totient, via trial-division factorization.

    Uses multiplicativity across distinct primes and
    phi(p**v) = p**(v-1) * (p-1) on each prime power.

    >>> [totient(n) for n in (1, 2, 9, 12)]
    [1, 1, 6, 4]
    """
    if n < 1:
        raise ValueError(f"totient is defined for positive integers, got {n}")
    result = 1
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            pv = p
            rest //= p
            while rest % p == 0:
                pv *= p
                rest //= p
            result *= (pv // p) * (p - 1)
        p += 1 if p == 2 else 2
    if rest > 1:
        result *= rest - 1
    return result


def divisors(m: int) -> tuple[int, ...]:
    """All positive divisors of m in increasing order.

    >>> divisors(12)
    (1, 2, 3, 4, 6, 12)
    """
    if m < 1:
        raise ValueError(f"divisors are defined for positive integers, got {m}")
    small = []
    large = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return tuple(small + large[::-1])


def lcm_upto(n: int) -> int:
    """lcm(1, 2, ..., n), exact.

    >>> [lcm_upto(n) for n in (3, 4, 6)]
    [6, 12, 60]
    """
    if n < 1:
        raise ValueError(f"lcm_upto is defined for positive integers, got {n}")
    return math.lcm(*range(1, n + 1))


@dataclass(frozen=True, slots=True)
class TotientTable:
    """phi(n) for every n up to a limit, filled by a sieve.

    ``table[n]`` reads phi(n). Entry 0 is a placeholder and not addressable.
    """

    limit: int
    values: tuple[int, ...]

    @classmethod
    def up_to(cls, limit: int) -> TotientTable:
        if limit < 1:
            raise ValueError(f"table limit must be positive, got {limit}")
        phi = list(range(limit + 1))
        for p in range(2, limit + 1):
            if phi[p] == p:  # p untouched so far, hence prime
                for mult in range(p, limit + 1, p):
                    phi[mult] -= phi[mult] // p
        return cls(limit, tuple(phi))

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise IndexError(f"totient table covers 1..{self.limit}, got {n}")
        return self.values[n]

    def __len__(self) -> int:
        return self.limit


@functools.cache
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, monic of degree phi(n).

    Defined through the factorization z**m - 1 = prod of gamma_d over the
    divisors d of m, read as a recursion: divide z**n - 1 by the cyclotomics
    of the proper divisors. Every division along the way is exact; a nonzero
    remainder would mean corrupted state and raises immediately. Memoised
    for the life of the process; ``cyclotomic.cache_clear()`` empties the
    memo.

    >>> cyclotomic(6)
    IntPoly('z^2 - z + 1')
    """
    if n < 1:
        raise ValueError(f"cyclotomic index must be positive, got {n}")
    result = IntPoly.cyclic(n)
    for d in divisors(n)[:-1]:
        result = result.exact_div(cyclotomic(d))
    if not result.is_monic() or result.degree != totient(n):
        raise InternalConsistencyError(
            f"cyclotomic({n}) came out with degree {result.degree}, "
            f"expected monic of degree {totient(n)}"
        )
    return result


def nu_poly(n: int) -> IntPoly:
    """nu_n = (z - 1)(z**2 - 1)···(z**n - 1), degree n(n+1)/2."""
    if n < 1:
        raise ValueError(f"nu_poly index must be positive, got {n}")
    result = IntPoly.one()
    for j in range(1, n + 1):
        result = result * IntPoly.cyclic(j)
    return result


def pi_poly_product(n: int) -> IntPoly:
    """pi_n as the product gamma_1 * gamma_2 * ... * gamma_n.

    >>> pi_poly_product(3)
    IntPoly('z^4 + z^3 - z - 1')
    """
    if n < 1:
        raise ValueError(f"pi_poly index must be positive, got {n}")
    result = IntPoly.one()
    for j in range(1, n + 1):
        result = result * cyclotomic(j)
    return result


def pi_poly_gcd(n: int) -> IntPoly:
    """pi_n as the squarefree part of nu_n: nu_n / gcd(nu_n, nu_n').

    Much slower than :func:`pi_poly_product` (the gcd dominates) but derived
    by a completely different route, which makes it a useful cross-check.
    """
    if n < 1:
        raise ValueError(f"pi_poly index must be positive, got {n}")
    nu = nu_poly(n)
    common = int_gcd(nu, nu.derivative())
    pi = nu.exact_div(common)
    if not pi.is_monic():
        raise InternalConsistencyError(
            "squarefree part of a monic polynomial must be monic"
        )
    return pi


@functools.cache
def totient_indices(d: int) -> tuple[tuple[int, int], ...]:
    """Every (j, phi(j)) with phi(j) <= d, in ascending j.

    These are the cyclotomics gamma_j that fit in a d-by-d matrix. Scanning
    j <= 2*d*d suffices because phi(j) >= sqrt(j/2): beyond that range the
    totient already exceeds d. One totient sieve builds the list, which is
    memoised per order for the life of the process;
    ``totient_indices.cache_clear()`` empties the memo.

    >>> totient_indices(2)
    ((1, 1), (2, 1), (3, 2), (4, 2), (6, 2))
    """
    if d < 1:
        raise ValueError(f"totient_indices is defined for positive d, got {d}")
    phi = TotientTable.up_to(2 * d * d).values
    return tuple([(j, phi[j]) for j in range(1, len(phi)) if phi[j] <= d])


@functools.cache
def totient_index_map(d: int) -> Mapping[int, int]:
    """phi(j) keyed by j, for every j with phi(j) <= d.

    The same pairs as :func:`totient_indices`, as a read-only mapping
    memoised per order, so a lookup costs no table build and no
    factoring. An index missing from it has phi(j) > d.

    >>> dict(totient_index_map(2))
    {1: 1, 2: 1, 3: 2, 4: 2, 6: 2}
    """
    return MappingProxyType(dict(totient_indices(d)))


def torsion_bound(d: int) -> int:
    """Least n such that phi(m) > d for every m > n.

    This is the last index of :func:`totient_indices`, so it is at most
    2*d*d.

    >>> [torsion_bound(d) for d in (1, 2, 4)]
    [2, 6, 12]
    """
    if d < 1:
        raise ValueError(f"torsion_bound is defined for positive d, got {d}")
    return totient_indices(d)[-1][0]


#: max_torsion_period explores subsets of totient-bounded indices; past this
#: dimension the candidate pool makes exhaustive search unreasonable.
MAX_PERIOD_SEARCH_LIMIT = 24


def max_torsion_period(d: int) -> tuple[int, frozenset[int]]:
    """Largest lcm(J) over index sets J with sum of phi(j), j in J, at most d.

    This is the largest eventual period a d-by-d rational matrix with
    eventually periodic powers can have, together with one witness set J
    (block companion matrices of the cyclotomics gamma_j, j in J, realize
    it). Ties prefer fewer indices, then the lexicographically smallest set,
    so the result is deterministic.

    Depth-first search over candidate indices with a fractional-knapsack
    bound on the achievable log(lcm); the bound uses floats, so pruning only
    fires when the branch is clearly below the incumbent and near-ties are
    always explored.

    >>> max_torsion_period(4)
    (12, frozenset({12}))
    """
    if d < 1:
        raise ValueError(f"max_torsion_period is defined for positive d, got {d}")
    if d > MAX_PERIOD_SEARCH_LIMIT:
        raise ValueError(
            f"max_torsion_period supports d <= {MAX_PERIOD_SEARCH_LIMIT}, got {d}"
        )
    # Index 1 never helps: it costs budget and leaves the lcm unchanged.
    # Best value per unit cost first, for both the search and the bound.
    candidates, costs, logs = zip(*sorted(
        [(j, phi, math.log(j)) for j, phi in totient_indices(d)[1:]],
        key=lambda item: -item[2] / item[1],
    ))

    best_period = 1
    best_log = 0.0
    best_key: tuple[int, tuple[int, ...]] = (0, ())

    def upper_bound(i: int, budget: int) -> float:
        # Fractional relaxation: lcm(J) <= product(J), so log-lcm gained
        # downstream is at most the knapsack optimum on (log j, phi(j)).
        total = 0.0
        for k in range(i, len(candidates)):
            c = costs[k]
            if c <= budget:
                total += logs[k]
                budget -= c
                if budget == 0:
                    break
            else:
                total += logs[k] * (budget / c)
                break
        return total

    def consider(period: int, chosen: tuple[int, ...]) -> None:
        nonlocal best_period, best_log, best_key
        key = (len(chosen), tuple(sorted(chosen)))
        if period > best_period or (period == best_period and key < best_key):
            best_period = period
            best_log = math.log(period)
            best_key = key

    def search(i: int, budget: int, period: int, chosen: tuple[int, ...]) -> None:
        if i == len(candidates) or budget == 0:
            return
        if math.log(period) + upper_bound(i, budget) < best_log - 1e-6:
            return
        j, cost = candidates[i], costs[i]
        if cost <= budget and period % j != 0:
            with_j = chosen + (j,)
            consider(math.lcm(period, j), with_j)
            search(i + 1, budget - cost, math.lcm(period, j), with_j)
        search(i + 1, budget, period, chosen)

    search(0, d, 1, ())
    return best_period, frozenset(best_key[1])
