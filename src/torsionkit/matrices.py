"""Exact square-matrix arithmetic over the rationals.

Everything here is immutable and pure: multiplication, binary powering
(exponents may be huge integers, e.g. factorials), Horner evaluation of a
polynomial at a matrix, and minimal polynomial extraction from Krylov
sequences of the standard basis vectors. No floating point anywhere.

Entries are :class:`~fractions.Fraction` at every interface, but the hot
loops run on plain integers: a row or column is scaled by the lcm of its
denominators, the arithmetic is done on the numerators, and each result
entry becomes a Fraction once, at the end. The minimal polynomial scales
the whole matrix to integers once and then needs only integer
matrix-vector products, never a matrix product. Tuples on these paths are
built from lists, never from generators: CPython grows a generator-built
tuple from a 10-slot buffer and parks the freed small tuples on per-size
free lists, which only a full garbage collection empties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import InternalConsistencyError
from .polynomials import IntPoly, RatPoly, read_rational

EntryLike = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class RatMatrix:
    """Immutable square matrix of exact rationals.

    >>> RatMatrix([[0, -1], [1, 0]]).order
    2
    >>> RatMatrix([[0, -1], [1, 0]]) * RatMatrix([[0, -1], [1, 0]])
    RatMatrix([[-1, 0], [0, -1]])
    """

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Sequence[EntryLike]]) -> None:
        if isinstance(rows, RatMatrix):
            object.__setattr__(self, "rows", rows.rows)
            return
        grid = tuple([
            tuple([e if isinstance(e, Fraction) else Fraction(e) for e in row])
            for row in rows
        ])
        d = len(grid)
        if d == 0:
            raise ValueError("matrix order must be at least 1")
        for i, row in enumerate(grid):
            if len(row) != d:
                raise ValueError(
                    f"matrix must be square: {d} rows but row {i} has {len(row)} entries"
                )
        object.__setattr__(self, "rows", grid)

    @classmethod
    def _wrap(cls, rows: tuple[tuple[Fraction, ...], ...]) -> RatMatrix:
        """Adopt rows already known to be square tuples of Fractions."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def order(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, d: int) -> RatMatrix:
        if d < 1:
            raise ValueError("matrix order must be at least 1")
        return cls([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @classmethod
    def zeros(cls, d: int) -> RatMatrix:
        if d < 1:
            raise ValueError("matrix order must be at least 1")
        return cls([[0] * d for _ in range(d)])

    @classmethod
    def scalar(cls, d: int, value: EntryLike) -> RatMatrix:
        """value times the identity."""
        if d < 1:
            raise ValueError("matrix order must be at least 1")
        return cls([[value if i == j else 0 for j in range(d)] for i in range(d)])

    def __getitem__(self, pos: tuple[int, int]) -> Fraction:
        i, j = pos
        return self.rows[i][j]

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def is_identity(self) -> bool:
        return all(
            e == (1 if i == j else 0)
            for i, row in enumerate(self.rows)
            for j, e in enumerate(row)
        )

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return RatMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __pow__(self, e: int) -> RatMatrix:
        return mat_pow(self, e)

    def scaled(self, factor: EntryLike) -> RatMatrix:
        f = Fraction(factor)
        return RatMatrix([[f * e for e in row] for row in self.rows])

    def __str__(self) -> str:
        cells = [[str(e) for e in row] for row in self.rows]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(" ".join(c.rjust(width) for c in row) for row in cells)

    def __repr__(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows
        )
        return f"RatMatrix([{rows}])"

    def to_data(self) -> list[list[int | str]]:
        """JSON form: array of rows, entries exact ints or "p/q" strings."""
        return [
            [int(e) if e.denominator == 1 else f"{e.numerator}/{e.denominator}" for e in row]
            for row in self.rows
        ]

    @classmethod
    def from_data(cls, data: Iterable[Sequence[int | str]]) -> RatMatrix:
        """Read a JSON matrix; every entry goes through :func:`read_rational`."""
        return cls([[read_rational(e, "matrix entry") for e in row] for row in data])


def _scaled(entries: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers n and a scale s >= 1 with entries[i] == n[i] / s, s minimal."""
    s = math.lcm(*[e.denominator for e in entries])
    if s == 1:
        return [e.numerator for e in entries], 1
    return [e.numerator * (s // e.denominator) for e in entries], s


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact matrix product; orders must match.

    Each row of a and column of b is scaled to integers, so an entry costs
    one integer dot product and one Fraction normalization.
    """
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    cols = [_scaled(col) for col in zip(*b.rows)]
    out = []
    for row, ra in [_scaled(row) for row in a.rows]:
        entries = []
        for col, cb in cols:
            dot = sum(map(mul, row, col))
            den = ra * cb
            entries.append(Fraction(dot) if den == 1 else Fraction(dot, den))
        out.append(tuple(entries))
    return RatMatrix._wrap(tuple(out))


def mat_pow(m: RatMatrix, e: int) -> RatMatrix:
    """M**e by binary powering; e may be an arbitrarily large non-negative int.

    >>> mat_pow(RatMatrix([[0, -1], [1, 0]]), 4).is_identity()
    True
    """
    if e < 0:
        raise ValueError("matrix powers require a non-negative exponent")
    result = RatMatrix.identity(m.order)
    base = m
    while e:
        if e & 1:
            result = mat_mul(result, base)
        if e > 1:
            base = mat_mul(base, base)
        e >>= 1
    return result


def horner_matrix_eval(p: IntPoly | RatPoly, m: RatMatrix) -> RatMatrix:
    """p(M) by Horner's scheme: one product per coefficient.

    Each nonzero coefficient is added straight onto the diagonal. Only
    ``p.coeffs`` is read, and ``Fraction + int`` is exact, so an integer
    polynomial is evaluated as it is, without a conversion to rationals.

    >>> horner_matrix_eval(RatPoly([-1, 0, 1]), RatMatrix([[0, -1], [1, 0]]))
    RatMatrix([[-2, 0], [0, -2]])
    """
    acc = RatMatrix.zeros(m.order)
    for c in reversed(p.coeffs):
        acc = mat_mul(acc, m)
        if c:
            rows = []
            for i, row in enumerate(acc.rows):
                entries = list(row)
                entries[i] += c
                rows.append(tuple(entries))
            acc = RatMatrix._wrap(tuple(rows))
    return acc


def _mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


def _krylov_annihilator(a: list[list[int]], u: list[int]) -> list[int]:
    """Integer coefficients of the least r, up to scale, with r(A)u == 0.

    Looks for the first linear dependence among u, Au, A^2 u, ... by
    incremental fraction-free elimination. A^k u enters with the
    combination z^k; reducing it against an echelon row b at pivot p
    replaces it by b[p]*v - v[p]*b, and the combination alongside, then
    divides both by their common content. When the vector vanishes its
    combination is the annihilator.
    """
    # Echelon rows found so far: (pivot position, vector, combo), where
    # vector == sum(combo[i] * A^i u) and vector is zero at every earlier
    # pivot.
    basis: list[tuple[int, list[int], list[int]]] = []
    power = u
    for k in range(len(u) + 1):
        vec = power
        combo = [0] * k + [1]
        for pivot, bvec, bcombo in basis:
            factor = vec[pivot]
            if factor:
                bp = bvec[pivot]
                vec = [bp * x - factor * y for x, y in zip(vec, bvec)]
                # bcombo is shorter: it came from an earlier power.
                tail = [bp * x for x in combo[len(bcombo):]]
                combo = [bp * x - factor * y for x, y in zip(combo, bcombo)]
                combo += tail
                g = math.gcd(*vec, *combo)
                if g != 1:
                    vec = [x // g for x in vec]
                    combo = [x // g for x in combo]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is None:
            return combo
        basis.append((lead, vec, combo))
        power = _mat_vec(a, power)
    raise InternalConsistencyError(
        f"no polynomial of degree <= {len(u)} annihilates a vector of length {len(u)}"
    )


def minimal_polynomial(m: RatMatrix) -> RatPoly:
    """The monic generator of all polynomials that vanish at M.

    Works on the integer matrix A = s*M, s the lcm of all denominators,
    and builds its minimal polynomial mu_A one basis vector at a time.
    Starting from mu = 1, for each e_i it forms u = mu(A) e_i by Horner
    on a vector, finds the least r with r(A) u == 0 from the Krylov
    sequence u, Au, A^2 u, ... (see :func:`_krylov_annihilator`), and
    replaces mu by the primitive part of mu*r. Since the annihilator of
    mu(A) e_i is that of e_i divided by its gcd with mu, mu*r is the lcm
    of mu and the annihilator of e_i; over a basis that lcm is mu_A. The
    loop stops early once deg mu reaches d. Then mu_M(z) = mu_A(s*z),
    made monic. Only matrix-vector products on integers are used, so a
    d x d matrix costs O(d^3) integer operations when one e_i is cyclic.

    >>> minimal_polynomial(RatMatrix([[1, 0], [0, 2]]))
    RatPoly('z^2 - 3*z + 2')
    """
    d = m.order
    s = math.lcm(*[e.denominator for row in m.rows for e in row])
    a = [[e.numerator * (s // e.denominator) for e in row] for row in m.rows]
    mu = IntPoly.one()
    for i in range(d):
        # u = mu(A) e_i by Horner, the leading coefficient first.
        u = [0] * d
        u[i] = mu.coeffs[-1]
        for c in reversed(mu.coeffs[:-1]):
            u = _mat_vec(a, u)
            u[i] += c
        if any(u):
            mu = (mu * IntPoly(_krylov_annihilator(a, u))).primitive()
            if mu.degree == d:
                break
    # mu_M(z) = mu_A(s*z) / (lead * s^n): coefficient j is mu[j] / (lead * s^(n-j)).
    top = mu.coeffs[-1]
    coeffs = []
    for c in reversed(mu.coeffs):
        coeffs.append(Fraction(c, top))
        top *= s
    coeffs.reverse()
    return RatPoly(coeffs)


def max_bit_length(m: RatMatrix) -> int:
    """Largest bit length over all entry numerators and denominators.

    A size guardrail for benchmarks: exact arithmetic never truncates, so
    this is how entry growth is observed.
    """
    return max(
        max(abs(e.numerator).bit_length(), e.denominator.bit_length())
        for row in m.rows
        for e in row
    )


def companion_matrix(p: RatPoly) -> RatMatrix:
    """Companion matrix of a monic polynomial of degree >= 1.

    Column d-1 carries the negated low coefficients; the subdiagonal is ones.
    Its minimal polynomial is p itself, which makes companions of cyclotomic
    polynomials the canonical generators of pure rotation blocks.

    >>> companion_matrix(RatPoly([1, -1, 1]))
    RatMatrix([[0, -1], [1, 1]])
    """
    if p.is_zero() or p.degree < 1:
        raise ValueError("companion matrix needs degree at least 1")
    if p.lead() != 1:
        raise ValueError("companion matrix is defined for monic polynomials")
    d = int(p.degree)
    return RatMatrix(
        [
            [
                -p.coeffs[i] if j == d - 1 else (1 if i == j + 1 else 0)
                for j in range(d)
            ]
            for i in range(d)
        ]
    )


def block_diag(*blocks: RatMatrix) -> RatMatrix:
    """Direct sum of square blocks along the diagonal."""
    if not blocks:
        raise ValueError("block_diag needs at least one block")
    total = sum(b.order for b in blocks)
    rows = [[Fraction(0)] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            rows[offset + i][offset:offset + b.order] = row
        offset += b.order
    return RatMatrix(rows)
