"""Independent oracles for the test suite.

Everything here is deliberately written the dumb way (brute force counts,
textbook Euclid, exhaustive subset enumeration) and shares no code with the
library paths under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

from torsionkit.matrices import RatMatrix, mat_mul
from torsionkit.polynomials import RatPoly


def brute_totient(n: int) -> int:
    """Count of k in 1..n coprime to n, by literal counting."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def euclid_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Textbook monic Euclid over the rationals, no remainder-sequence tricks."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def textbook_mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Row-times-column product with a Fraction sum for every entry."""
    d = a.order
    return RatMatrix(
        [
            [sum((a[i, k] * b[k, j] for k in range(d)), Fraction(0)) for j in range(d)]
            for i in range(d)
        ]
    )


def textbook_minimal_polynomial(m: RatMatrix) -> RatPoly:
    """First linear dependence among I, M, M^2, ... by Fraction elimination.

    Each power is reduced against unit-pivot echelon rows while tracking the
    combination of powers it came from; the first power that reduces to zero
    gives the monic minimal polynomial.
    """
    d = m.order
    basis = []
    power = RatMatrix.identity(d)
    for k in range(d + 1):
        vec = [power[i, j] for i in range(d) for j in range(d)]
        combo = [Fraction(0)] * k + [Fraction(1)]
        for pivot, bvec, bcombo in basis:
            factor = vec[pivot]
            vec = [x - factor * y for x, y in zip(vec, bvec)]
            for i, c in enumerate(bcombo):
                combo[i] -= factor * c
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            return RatPoly(combo)
        inv = 1 / vec[lead]
        basis.append((lead, [x * inv for x in vec], [c * inv for c in combo]))
        power = textbook_mat_mul(power, m)
    raise AssertionError(f"no dependence among the first {d + 1} powers")


def textbook_eval(p: RatPoly, m: RatMatrix) -> RatMatrix:
    """p(M) as the sum of c_i * M^i, powers by repeated textbook products."""
    d = m.order
    total = [[Fraction(0)] * d for _ in range(d)]
    power = RatMatrix.identity(d)
    for c in p.coeffs:
        for i in range(d):
            for j in range(d):
                total[i][j] += c * power[i, j]
        power = textbook_mat_mul(power, m)
    return RatMatrix(total)


def determinant(m: RatMatrix) -> Fraction:
    """Exact determinant by fraction Gaussian elimination."""
    d = m.order
    rows = [list(r) for r in m.rows]
    det = Fraction(1)
    for col in range(d):
        pivot_row = next((r for r in range(col, d) if rows[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det *= pivot
        for r in range(col + 1, d):
            factor = rows[r][col] / pivot
            if factor:
                for c in range(col, d):
                    rows[r][c] -= factor * rows[col][c]
    return det


def unimodular_pair(rng: Random, d: int, steps: int = 6) -> tuple[RatMatrix, RatMatrix]:
    """A random integer matrix S with det +-1, returned with its exact inverse.

    Built as a product of elementary operations, applying each to S and its
    inverse to the running inverse, so no matrix inversion is ever needed.
    """
    s = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    s_inv = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for col in range(d):
                s[j][col] += c * s[i][col]
            for row in range(d):
                s_inv[row][i] -= c * s_inv[row][j]
        elif kind == 1 and i != j:
            s[i], s[j] = s[j], s[i]
            for row in range(d):
                s_inv[row][i], s_inv[row][j] = s_inv[row][j], s_inv[row][i]
        else:
            for col in range(d):
                s[i][col] = -s[i][col]
            for row in range(d):
                s_inv[row][i] = -s_inv[row][i]
    pair = RatMatrix(s), RatMatrix(s_inv)
    if not mat_mul(*pair).is_identity():
        raise AssertionError("unimodular generator produced a broken inverse pair")
    return pair


def rational_diagonal_pair(rng: Random, d: int) -> tuple[RatMatrix, RatMatrix]:
    """A random rational diagonal matrix with its inverse."""
    entries = [
        Fraction(rng.choice((1, 2, 3, -1, -2)), rng.choice((1, 2, 3)))
        for _ in range(d)
    ]
    fwd = RatMatrix([[entries[i] if i == j else 0 for j in range(d)] for i in range(d)])
    back = RatMatrix(
        [[1 / entries[i] if i == j else 0 for j in range(d)] for i in range(d)]
    )
    return fwd, back


def conjugate(m: RatMatrix, fwd: RatMatrix, back: RatMatrix) -> RatMatrix:
    return mat_mul(mat_mul(fwd, m), back)


def oracle_max_period(d: int) -> int:
    """Exhaustive max of lcm(J) subject to sum of brute_totient(j) <= d.

    Plain subset recursion over every candidate index, no bounding beyond
    the budget itself; independent of the library's pruned search.
    """
    candidates = [j for j in range(2, 2 * d * d + 1) if brute_totient(j) <= d]
    costs = [brute_totient(j) for j in candidates]
    best = 1

    def explore(i: int, budget: int, current: int) -> None:
        nonlocal best
        if current > best:
            best = current
        for k in range(i, len(candidates)):
            if costs[k] <= budget:
                explore(k + 1, budget - costs[k], math.lcm(current, candidates[k]))

    explore(0, d, 1)
    return best
