"""Exact square-matrix arithmetic over the rationals.

Everything here is immutable and pure: multiplication, binary powering
(exponents may be huge integers, e.g. factorials), Horner evaluation of a
polynomial at a matrix, and minimal polynomial extraction from Krylov
sequences of the standard basis vectors. No floating point anywhere.

A matrix is stored as one grid of integers over one common denominator,
in lowest terms, so products, powers and Horner steps run on plain
integers and build no Fraction; entries are read back as reduced
Fractions through :attr:`RatMatrix.rows` for output. A product is built
row by row: a row of the left factor with at least half zeros sums the
rows of the right factor it picks, and a denser row takes dot products
(see :func:`mat_mul`). Where the other factor is a polynomial in M, and
so commutes with it, M goes on the left, since the matrices met in
practice (permutations, rational conjugates of block rotations) are
sparse; Horner steps, binary powering and the cycle walks all do this.
The minimal polynomial works on the integer grid directly and needs only
matrix-vector products, never a matrix product. Tuples on these paths
are built from lists, never from generators: CPython grows a
generator-built tuple from a 10-slot buffer and parks the freed small
tuples on per-size free lists, which only a full garbage collection
empties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub
from typing import Iterable, Sequence, Union

from .errors import InternalConsistencyError
from .polynomials import IntPoly, RatPoly, _primitive_list, read_rational

EntryLike = Union[int, Fraction]


@dataclass(frozen=True, slots=True)
class RatMatrix:
    """Immutable square matrix of exact rationals.

    The entries are ``num[i][j] / den`` with ``den >= 1`` and no common
    factor of ``den`` and every ``num`` entry, so each matrix has one
    representation and ``==`` and ``hash`` compare values.

    >>> RatMatrix([[0, -1], [1, 0]]).order
    2
    >>> RatMatrix([[0, -1], [1, 0]]) * RatMatrix([[0, -1], [1, 0]])
    RatMatrix([[-1, 0], [0, -1]])
    >>> m = RatMatrix([["1/2", 3], [0, "-1/3"]])
    >>> m.num, m.den
    (((3, 18), (0, -2)), 6)
    """

    num: tuple[tuple[int, ...], ...]
    den: int

    def __init__(self, rows: Iterable[Sequence[EntryLike]]) -> None:
        if isinstance(rows, RatMatrix):
            object.__setattr__(self, "num", rows.num)
            object.__setattr__(self, "den", rows.den)
            return
        # An int is its own numerator over 1; anything else becomes a Fraction.
        grid = [
            [e if isinstance(e, (int, Fraction)) else Fraction(e) for e in row]
            for row in rows
        ]
        d = len(grid)
        if d == 0:
            raise ValueError("matrix order must be at least 1")
        for i, row in enumerate(grid):
            if len(row) != d:
                raise ValueError(
                    f"matrix must be square: {d} rows but row {i} has {len(row)} entries"
                )
        # For each prime p of den, the entry whose denominator holds all of
        # p's power in den keeps a numerator prime to p, so this grid is
        # already in lowest terms.
        den = math.lcm(*[e.denominator for row in grid for e in row])
        object.__setattr__(self, "num", tuple([
            tuple([e.numerator * (den // e.denominator) for e in row]) for row in grid
        ]))
        object.__setattr__(self, "den", den)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as reduced Fractions, row by row."""
        den = self.den
        return tuple([tuple([Fraction(x, den) for x in row]) for row in self.num])

    @property
    def order(self) -> int:
        return len(self.num)

    @classmethod
    def identity(cls, d: int) -> RatMatrix:
        if d < 1:
            raise ValueError("matrix order must be at least 1")
        return _adopt([[1 if i == j else 0 for j in range(d)] for i in range(d)], 1)

    @classmethod
    def zeros(cls, d: int) -> RatMatrix:
        if d < 1:
            raise ValueError("matrix order must be at least 1")
        return _adopt([[0] * d for _ in range(d)], 1)

    @classmethod
    def scalar(cls, d: int, value: EntryLike) -> RatMatrix:
        """value times the identity."""
        if d < 1:
            raise ValueError("matrix order must be at least 1")
        return cls([[value if i == j else 0 for j in range(d)] for i in range(d)])

    def __getitem__(self, pos: tuple[int, int]) -> Fraction:
        i, j = pos
        return Fraction(self.num[i][j], self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_identity(self) -> bool:
        return self.den == 1 and all(
            e == (1 if i == j else 0)
            for i, row in enumerate(self.num)
            for j, e in enumerate(row)
        )

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        return _lowest_terms(
            [
                [x * other.den + y * self.den for x, y in zip(ra, rb)]
                for ra, rb in zip(self.num, other.num)
            ],
            self.den * other.den,
        )

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self + other.scaled(-1)

    def __mul__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __pow__(self, e: int) -> RatMatrix:
        return mat_pow(self, e)

    def scaled(self, factor: EntryLike) -> RatMatrix:
        f = Fraction(factor)
        return _lowest_terms(
            [[x * f.numerator for x in row] for row in self.num], self.den * f.denominator
        )

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
    def from_data(cls, data: list[list[int | str]]) -> RatMatrix:
        """Read a JSON array of row arrays; each entry goes through :func:`read_rational`."""
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError(f"matrix must be an array of row arrays: {data!r}")
        return cls([[read_rational(e, "matrix entry") for e in row] for row in data])


def _adopt(num: Sequence[Sequence[int]], den: int) -> RatMatrix:
    """The matrix num / den, which the caller knows to be in lowest terms."""
    m = object.__new__(RatMatrix)
    object.__setattr__(m, "num", tuple([tuple(row) for row in num]))
    object.__setattr__(m, "den", den)
    return m


def _lowest_terms(num: Sequence[Sequence[int]], den: int) -> RatMatrix:
    """The matrix num / den, brought to lowest terms by one gcd over the grid."""
    if den != 1:
        g = den
        for row in num:
            g = math.gcd(g, *row)
            if g == 1:
                break
        else:
            num = [[x // g for x in row] for row in num]
            den //= g
    return _adopt(num, den)


def mat_mul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Exact matrix product; orders must match.

    Row i of the integer grid is built by one of two methods, chosen by
    how many zeros row i of ``a.num`` holds. A row with at least half
    zeros sums the rows of ``b.num`` that its nonzero entries pick, each
    times its entry, so a zero entry costs nothing and an entry of 1 or
    -1 costs one addition or subtraction per column (Gustavson's
    row-by-row sparse product). A denser row takes one integer dot
    product with each column of ``b.num``. The result is over ``a.den *
    b.den``, with one gcd over the grid to bring it to lowest terms.
    Callers put the sparser factor on the left: where the other factor is
    a polynomial in M, the two commute, and M goes first.

    >>> mat_mul(RatMatrix([[0, 1], [1, 0]]), RatMatrix([[1, 2], [3, 4]]))
    RatMatrix([[3, 4], [1, 2]])
    """
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    d = a.order
    bnum = b.num
    cols = None
    out = []
    for row in a.num:
        if 2 * row.count(0) >= d:
            acc = None
            for x, brow in zip(row, bnum):
                if not x:
                    continue
                if acc is None:
                    acc = brow if x == 1 else list(map(mul, brow, repeat(x)))
                elif x == 1:
                    acc = list(map(add, acc, brow))
                elif x == -1:
                    acc = list(map(sub, acc, brow))
                else:
                    acc = list(map(add, acc, map(mul, brow, repeat(x))))
            out.append([0] * d if acc is None else acc)
        else:
            if cols is None:
                cols = list(zip(*bnum))
            out.append([sum(map(mul, row, col)) for col in cols])
    return _lowest_terms(out, a.den * b.den)


def mat_pow(m: RatMatrix, e: int) -> RatMatrix:
    """M**e by binary powering; e may be an arbitrarily large non-negative int.

    The bits of e are read from the top: each step squares, and a 1 bit
    then multiplies by M on the left, where the row-wise product gains
    most from a sparse M. That is ``(e.bit_length() - 1) + (popcount(e)
    - 1)`` products for e >= 1, with no product by the identity.

    >>> mat_pow(RatMatrix([[0, -1], [1, 0]]), 4).is_identity()
    True
    """
    if e < 0:
        raise ValueError("matrix powers require a non-negative exponent")
    if e == 0:
        return RatMatrix.identity(m.order)
    result = m
    for bit in bin(e)[3:]:
        result = mat_mul(result, result)
        if bit == "1":
            result = mat_mul(m, result)
    return result


def horner_matrix_eval(p: IntPoly | RatPoly, m: RatMatrix) -> RatMatrix:
    """p(M) by Horner's scheme: one product per coefficient.

    Each step computes ``M @ acc``, with M on the left: acc is a
    polynomial in M, so the two commute, and the row-wise product of
    :func:`mat_mul` skips the zeros of a sparse M.

    Each nonzero coefficient c is added straight onto the diagonal of the
    integer grid. An integer c adds ``c * den``, which leaves the grid in
    lowest terms; a Fraction c scales the grid by its denominator first.
    Only ``p.coeffs`` is read, so an integer polynomial is evaluated as it
    is, without a conversion to rationals.

    >>> horner_matrix_eval(RatPoly([-1, 0, 1]), RatMatrix([[0, -1], [1, 0]]))
    RatMatrix([[-2, 0], [0, -2]])
    """
    acc = RatMatrix.zeros(m.order)
    for c in reversed(p.coeffs):
        acc = mat_mul(m, acc)
        if c:
            cd = c.denominator
            shift = c.numerator * acc.den
            num = [list(row) if cd == 1 else [x * cd for x in row] for row in acc.num]
            for i, row in enumerate(num):
                row[i] += shift
            acc = _adopt(num, acc.den) if cd == 1 else _lowest_terms(num, acc.den * cd)
    return acc


def _mat_vec(a: Sequence[Sequence[int]], v: list[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


def _krylov_annihilator(a: Sequence[Sequence[int]], u: list[int]) -> list[int]:
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

    Works on the integer matrix A = s*M, which is ``m.num`` with s =
    ``m.den``, and builds its minimal polynomial mu_A one basis vector at
    a time. Starting from mu = 1, for each e_i it forms u = mu(A) e_i by
    Horner on a vector, finds the least r with r(A) u == 0 from the Krylov
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
    a, s = m.num, m.den
    mu = [1]  # coefficients of mu_A so far, low to high
    for i in range(d):
        # u = mu(A) e_i by Horner, the leading coefficient first.
        u = [0] * d
        u[i] = mu[-1]
        for c in reversed(mu[:-1]):
            u = _mat_vec(a, u)
            u[i] += c
        if any(u):
            r = _krylov_annihilator(a, u)
            # mu is still 1 at the first nonzero u, and 1 * r is r.
            if len(mu) > 1:
                r = (IntPoly(mu) * IntPoly(r)).coeffs
            mu = _primitive_list(r)
            if len(mu) > d:
                break
    # mu_M(z) = mu_A(s*z) / (lead * s^n): coefficient j is mu[j] / (lead * s^(n-j)).
    # An integer matrix has a monic mu_A in Z[z], which is mu_M itself.
    top = mu[-1]
    if s == 1 and top == 1:
        return RatPoly(mu)
    coeffs = []
    for c in reversed(mu):
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
