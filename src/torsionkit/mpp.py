"""Reduction from the torsion decision to a matrix power problem.

From M of order d, build two (d+2)-square block matrices

    A = blockdiag(M^d, N)      N = [[0, 1], [0, 0]]
    B = blockdiag(M^d, O)      O = the 2x2 zero matrix

Then A^n = B holds for some n exactly when M is torsion: the N block dies
at every power n >= 2 and never at n <= 1, while the M^d block has to come
back to itself, which eventually happens iff the powers of M cycle.

A full decision procedure for "is B a power of A" is out of scope; the
bounded search here is a desk-scale stand-in that demonstrates the
reduction on concrete instances.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import RatMatrix, block_diag, mat_mul, mat_pow


@dataclass(frozen=True, slots=True)
class MppInstance:
    """The block pair (A, B) built from a source matrix of order d."""

    a: RatMatrix
    b: RatMatrix
    source_order: int


def build_mpp_instance(m: RatMatrix) -> MppInstance:
    """Assemble the (A, B) pair for a source matrix M.

    >>> inst = build_mpp_instance(RatMatrix([[1]]))
    >>> inst.a.order, inst.b.order
    (3, 3)
    """
    d = m.order
    md = mat_pow(m, d)
    nilpotent = RatMatrix([[0, 1], [0, 0]])
    return MppInstance(
        a=block_diag(md, nilpotent),
        b=block_diag(md, RatMatrix.zeros(2)),
        source_order=d,
    )


def search_matrix_power(a: RatMatrix, b: RatMatrix, cap: int) -> int | None:
    """Least n with 0 <= n <= cap and A^n = B, or None within the cap.

    Absence within the cap proves nothing about larger exponents; this is a
    test utility, not a decision procedure.

    >>> I = RatMatrix.identity(2)
    >>> search_matrix_power(I, I, 5)
    0
    """
    if a.order != b.order:
        raise ValueError(f"order mismatch: {a.order} vs {b.order}")
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    power = RatMatrix.identity(a.order)
    for n in range(cap + 1):
        if power == b:
            return n
        if n < cap:
            power = mat_mul(a, power)
    return None
