"""The benchmark's own exact arithmetic, shared by input generation and checks.

Nothing here imports torsionkit: the checks must reach their answers by
routes apart from the program under test. Matrices are lists of rows of
:class:`fractions.Fraction`; polynomials are coefficient lists, lowest
degree first.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from random import Random

Rows = list[list[Fraction]]


@lru_cache(maxsize=None)
def brute_totient(n: int) -> int:
    """phi(n) as a literal count of the k in 1..n coprime to n."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def tight_bound(d: int) -> int:
    """Least n with phi(m) > d for every m > n.

    phi(m) >= sqrt(m / 2), so no m beyond 2*d*d can have phi(m) <= d.
    """
    return max(m for m in range(1, 2 * d * d + 1) if brute_totient(m) <= d)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial.

    Uses the Moebius product gamma_n = prod_{e | n} (z^e - 1)^mu(n/e):
    the factors with mu = 1 are multiplied out, then the ones with mu = -1
    are divided off, so the route shares nothing with the recursion over
    proper divisors that torsionkit uses.
    """
    num, den = [1], [1]
    for e in range(1, n + 1):
        if n % e:
            continue
        mu = _moebius(n // e)
        factor = [-1] + [0] * (e - 1) + [1]
        if mu == 1:
            num = _poly_mul(num, factor)
        elif mu == -1:
            den = _poly_mul(den, factor)
    return tuple(_exact_div(num, den))


def _moebius(n: int) -> int:
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    # den is monic up to sign, as every z^e - 1 product is.
    rem = list(num)
    quo = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(den) - 1] // lead
        quo[k] = c
        for i, b in enumerate(den):
            rem[k + i] -= c * b
    if any(rem):
        raise ArithmeticError("cyclotomic division left a remainder")
    return quo


def identity(d: int) -> Rows:
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


def companion(coeffs: list[int] | tuple[int, ...]) -> Rows:
    """Companion matrix of a monic polynomial: minimal polynomial is coeffs."""
    d = len(coeffs) - 1
    return [
        [Fraction(-coeffs[i]) if j == d - 1 else Fraction(int(i == j + 1)) for j in range(d)]
        for i in range(d)
    ]


def block_diag(blocks: list[Rows]) -> Rows:
    total = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * total for _ in range(total)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def matmul(a: Rows, b: Rows) -> Rows:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def poly_at_matrix(coeffs: list[Fraction], m: Rows) -> Rows:
    """p(M) by Horner's rule, adding each coefficient on the diagonal."""
    d = len(m)
    acc = [[Fraction(0)] * d for _ in range(d)]
    for c in reversed(coeffs):
        acc = matmul(acc, m)
        for i in range(d):
            acc[i][i] += c
    return acc


def determinant(m: Rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Q."""
    rows = [list(r) for r in m]
    d = len(rows)
    det = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        p = rows[col][col]
        det *= p
        for r in range(col + 1, d):
            f = rows[r][col] / p
            if f:
                for c in range(col, d):
                    rows[r][c] -= f * rows[col][c]
    return det


def unimodular_pair(rng: Random, d: int, steps: int) -> tuple[Rows, Rows]:
    """A random integer S with det +-1 and its inverse, by elementary operations.

    Each step adds c times one row of S to another and applies the inverse
    column operation to S^-1, so no inversion is ever computed.
    """
    s, s_inv = identity(d), identity(d)
    if d == 1:
        return s, s_inv
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(d):
            s[j][col] += c * s[i][col]
        for row in range(d):
            s_inv[row][i] -= c * s_inv[row][j]
    return s, s_inv


def shear_pair(d: int) -> tuple[Rows, Rows]:
    """S = I plus ones on the superdiagonal, and S^-1 = sum of (-N)^k."""
    s = [[Fraction(int(j in (i, i + 1))) for j in range(d)] for i in range(d)]
    s_inv = [[Fraction((-1) ** (j - i)) if j >= i else Fraction(0) for j in range(d)] for i in range(d)]
    return s, s_inv


def relabel(rng: Random, m: Rows) -> Rows:
    """P M P^-1 for a random permutation P: M in a shuffled basis."""
    order = list(range(len(m)))
    rng.shuffle(order)
    return [[m[a][b] for b in order] for a in order]


def conjugate(m: Rows, s: Rows, s_inv: Rows) -> Rows:
    return matmul(matmul(s, m), s_inv)


def permutation(rng: Random, cycle_type: tuple[int, ...]) -> Rows:
    """Matrix of a random permutation with the given cycle lengths."""
    d = sum(cycle_type)
    points = list(range(d))
    rng.shuffle(points)
    out = [[Fraction(0)] * d for _ in range(d)]
    at = 0
    for length in cycle_type:
        cycle = points[at:at + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[b][a] = Fraction(1)
        at += length
    return out


def cycle_divisors(cycle_type: tuple[int, ...]) -> frozenset[int]:
    """Index set J of a permutation: every divisor of every cycle length."""
    return frozenset(e for c in cycle_type for e in range(1, c + 1) if c % e == 0)


def to_json_rows(m: Rows) -> list[list[int | str]]:
    """The CLI's JSON matrix form: exact ints or "p/q" strings."""
    return [[int(e) if e.denominator == 1 else f"{e.numerator}/{e.denominator}" for e in row] for row in m]
