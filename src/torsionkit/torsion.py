"""Deciding whether some two distinct powers of a rational matrix coincide.

A square rational matrix M is called torsion when M^p = M^q for some p != q.
Three independent routes are implemented:

* an annihilation test: M is torsion iff it annihilates z**d * pi_n(z),
  where d is the order and n is large enough that phi(m) > d for m > n;
* a certificate method (the default): factor the minimal polynomial as
  z**k times distinct cyclotomics; torsion iff the factorization is exact,
  and the factor indices give the preperiod and eventual period directly;
* brute-force cycle detection over successive powers, used as an oracle.

They must always agree; the certificate is independently checkable by
:func:`verify_certificate`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import InternalConsistencyError
from .matrices import RatMatrix, horner_matrix_eval, mat_mul, mat_pow, minimal_polynomial
from .numbertheory import (
    cyclotomic,
    pi_poly_product,
    torsion_bound,
    totient_index_map,
    totient_indices,
)
from .polynomials import IntPoly, RatPoly


@dataclass(frozen=True, slots=True)
class TorsionCertificate:
    """Verdict plus the data needed to re-check it from scratch.

    For a torsion matrix, ``mu`` (the minimal polynomial) factors exactly as
    z**k times the cyclotomics with indices in J; then the power sequence
    M, M^2, ... enters its cycle at exponent max(k, 1) and the eventual
    period is lcm(J), with lcm of the empty set taken as 1 (nilpotent
    matrices have a constant tail). ``preperiod`` repeats k under the
    convention that exponents range over 1, 2, ...; when k = 0 the matrix
    satisfies M^period = I outright.

    For a non-torsion matrix, ``J`` and ``period`` are None; ``k`` still
    records the multiplicity of the root 0 in mu.
    """

    torsion: bool
    d: int
    k: int
    J: frozenset[int] | None
    preperiod: int
    period: int | None
    mu: RatPoly

    def to_data(self) -> dict:
        """JSON document with a stable field order."""
        doc: dict = {"torsion": self.torsion, "d": self.d, "k": self.k}
        if self.torsion:
            doc["J"] = sorted(self.J)
        doc["preperiod"] = self.preperiod
        if self.torsion:
            doc["period"] = self.period
        doc["mu"] = self.mu.to_data()
        return doc

    @classmethod
    def from_data(cls, doc: dict) -> TorsionCertificate:
        """Read a JSON certificate document, refusing anything but exact types.

        ``torsion`` must be a JSON boolean, the counts JSON integers (not
        booleans, not floats) of the right sign, ``J`` an array of distinct
        indices and ``mu`` an array. Every defect raises ValueError.
        """
        if not isinstance(doc, dict):
            raise ValueError("certificate document must be a JSON object")
        try:
            torsion = doc["torsion"]
            if not isinstance(torsion, bool):
                raise ValueError(
                    f"certificate field 'torsion' must be true or false, got {torsion!r}"
                )
            d = _count_field(doc, "d", 1)
            k = _count_field(doc, "k", 0)
            preperiod = _count_field(doc, "preperiod", 0)
            mu = doc["mu"]
            if not isinstance(mu, list):
                raise ValueError("certificate field 'mu' must be an array")
            mu = RatPoly.from_data(mu)
            J = period = None
            if torsion:
                J = doc["J"]
                if not isinstance(J, list) or not all(_is_count(j, 1) for j in J):
                    raise ValueError("certificate field 'J' must be an array of positive integers")
                if len(set(J)) != len(J):
                    raise ValueError("certificate field 'J' repeats an index")
                J = frozenset(J)
                period = _count_field(doc, "period", 1)
        except KeyError as missing:
            raise ValueError(f"certificate document lacks field {missing}") from None
        return cls(torsion, d, k, J, preperiod, period, mu)


def _is_count(value, least: int) -> bool:
    # bool is a subclass of int, and JSON true must not read as 1.
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _count_field(doc: dict, name: str, least: int) -> int:
    value = doc[name]
    if not _is_count(value, least):
        raise ValueError(
            f"certificate field {name!r} must be an integer >= {least}, got {value!r}"
        )
    return value


@functools.cache
def _annihilator(d: int, faithful: bool) -> IntPoly:
    """z**d * pi_n with n = 2*d*d if ``faithful`` else ``torsion_bound(d)``.

    Built once per order and route per process and kept, since a decision
    on a d-by-d matrix depends on nothing else. The kept polynomials are
    small at the orders met in practice (about 120 KiB for orders 1-6 on
    both routes), but the faithful one grows steeply with d: pi_128 at
    order 8 takes one to two seconds to build and then stays in memory
    for the life of the process.
    """
    n = 2 * d * d if faithful else torsion_bound(d)
    return pi_poly_product(n).shifted(d)


def decide_torsion_annihilation(m: RatMatrix, faithful: bool = False) -> bool:
    """Torsion test by annihilation: is z**d * pi_n evaluated at M zero?

    With n chosen so that phi(j) > d for every j > n, the matrix is torsion
    exactly when it annihilates z**d * pi_n. The tight choice is
    ``torsion_bound(d)``; ``faithful`` uses the blunt bound 2*d*d instead,
    which is never smaller, so both must return the same verdict. The
    polynomial is built once per order and route, and its integer
    coefficients are evaluated at M without conversion to rationals.

    >>> decide_torsion_annihilation(RatMatrix([[0, -1], [1, 0]]))
    True
    >>> decide_torsion_annihilation(RatMatrix([[2]]))
    False
    """
    return horner_matrix_eval(_annihilator(m.order, faithful), m).is_zero()


def torsion_certificate(m: RatMatrix) -> TorsionCertificate:
    """Decide torsion by factoring the minimal polynomial.

    mu is monic, so a torsion mu is z**k times cyclotomics in Z[z], and a
    non-integer coefficient answers non-torsion at once. Otherwise the rest
    of mu after z**k is trial-divided in Z[z] by the cyclotomics gamma_j in
    ascending j, each used at most once (it is squarefree), and M is torsion
    iff it dissolves into such factors. Non-torsion is not an error.

    >>> torsion_certificate(RatMatrix([[0, 1], [0, 0]])).preperiod
    2
    >>> torsion_certificate(RatMatrix([[1, 1], [0, 1]])).torsion
    False
    """
    d = m.order
    mu = minimal_polynomial(m)
    k = next(i for i, c in enumerate(mu.coeffs) if c)
    if any(c.denominator != 1 for c in mu.coeffs):
        return TorsionCertificate(False, d, k, None, k, None, mu)
    # mu / z**k as a coefficient list. Each gamma_j that divides it leaves
    # its quotient list in its place; no polynomial object is built.
    rem = [c.numerator for c in mu.coeffs[k:]]
    indices = []
    degree = k
    for j, phi in totient_indices(d):
        if len(rem) == 1:
            break
        if phi >= len(rem):
            continue
        quotient, leftover = IntPoly._divide(rem, cyclotomic(j).coeffs)
        if not any(leftover):
            indices.append(j)
            degree += phi
            rem = quotient
    if rem != [1]:
        return TorsionCertificate(False, d, k, None, k, None, mu)
    if degree != mu.degree:
        raise InternalConsistencyError(
            "cyclotomic factor degrees do not add up to the minimal polynomial degree"
        )
    J = frozenset(indices)
    period = math.lcm(*J) if J else 1
    return TorsionCertificate(True, d, k, J, k, period, mu)


@dataclass(frozen=True, slots=True)
class VerifyOutcome:
    """Result of an independent certificate check; falsy when invalid."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_certificate(m: RatMatrix, c: TorsionCertificate) -> VerifyOutcome:
    """Re-check a torsion claim from first principles.

    Rebuilds z**k times the claimed cyclotomics in Z[z] and compares it
    with the stated mu, then confirms the degree bound, the preperiod
    convention, the period as lcm(J), that mu annihilates M, and finally the
    power identity M^(preperiod+period) = M^preperiod by binary powering.
    Each failure carries a short reason code.

    >>> M = RatMatrix([[0, -1], [1, 1]])
    >>> bool(verify_certificate(M, torsion_certificate(M)))
    True
    """
    if not c.torsion:
        raise ValueError("only certificates claiming torsion can be verified")
    if c.d != m.order:
        return VerifyOutcome(False, "order mismatch")
    if c.mu.degree > m.order:
        return VerifyOutcome(False, "degree exceeds order")
    if c.preperiod != c.k:
        return VerifyOutcome(False, "preperiod mismatch")
    # The rebuilt annihilator has degree k + sum(phi(j)) and deg(mu) <= d,
    # so a claim with k > d, some phi(j) > d or a wrong degree sum is refused
    # before anything is built. phi(j) is read from the memoised map of
    # every index with phi(j) <= d; an index missing from it has phi(j) > d
    # and is refused without being factored.
    phi = totient_index_map(m.order)
    if any(j not in phi for j in c.J) or c.k + sum(phi[j] for j in c.J) != c.mu.degree:
        return VerifyOutcome(False, "mu mismatch")
    rebuilt = IntPoly.one().shifted(c.k)
    for j in sorted(c.J):
        rebuilt = rebuilt * cyclotomic(j)
    # Canonical coefficient tuples: int == Fraction compares the values.
    if rebuilt.coeffs != c.mu.coeffs:
        return VerifyOutcome(False, "mu mismatch")
    if c.period != (math.lcm(*c.J) if c.J else 1):
        return VerifyOutcome(False, "period mismatch")
    if not horner_matrix_eval(rebuilt, m).is_zero():
        return VerifyOutcome(False, "annihilation fails")
    if mat_pow(m, c.preperiod + c.period) != mat_pow(m, c.preperiod):
        return VerifyOutcome(False, "power identity fails")
    return VerifyOutcome(True)


def _power_digest(m: RatMatrix) -> bytes:
    """A 16-byte BLAKE2b digest of the denominator and every entry.

    Each integer goes in as its byte length and then its signed bytes, so
    the encoding is one-to-one and no entry is turned into a string. The
    built-in ``hash`` of an int is its value modulo 2**61 - 1, which an
    input can steer (every power of ``[[2**61]]`` hashes alike); a digest
    it cannot.
    """
    # Imported here, not at the top: hashlib loads OpenSSL, which adds
    # about 4 MiB to the resident size of every process that imports it.
    from hashlib import blake2b

    h = blake2b(digest_size=16)
    for x in (m.den, *itertools.chain.from_iterable(m.num)):
        size = (x.bit_length() + 8) // 8
        h.update(size.to_bytes(8, "big"))
        h.update(x.to_bytes(size, "big", signed=True))
    return h.digest()


def oracle_cycle_detect(m: RatMatrix, cap: int) -> tuple[int, int] | None:
    """First (p, q) with p < q <= cap and M^p = M^q, by brute force.

    Walks M, M^2, ..., M^cap as ``M @ M^(e-1)``, keeping only a digest of
    each power (see :func:`_power_digest`): a matrix is one integer grid
    over one denominator in lowest terms, so equal powers have equal
    digests. A power whose digest was seen before is compared with M^p,
    recomputed by :func:`mat_pow`, for each earlier exponent p under that
    digest, so a collision cannot give a false answer, and memory holds
    one power at a time. Finding nothing within cap proves nothing; this
    exists to check the clever methods on small instances, not to decide.

    >>> oracle_cycle_detect(RatMatrix([[0, -1], [1, 0]]), 10)
    (1, 5)
    >>> oracle_cycle_detect(RatMatrix([[2]]), 100) is None
    True
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    seen: dict[bytes, list[int]] = {}
    power = RatMatrix.identity(m.order)
    for e in range(1, cap + 1):
        power = mat_mul(m, power)
        exponents = seen.setdefault(_power_digest(power), [])
        for p in exponents:
            if mat_pow(m, p) == power:
                return p, e
        exponents.append(e)
    return None


#: check_power_equivalence computes M to the power torsion_bound(d)! + d;
#: beyond this order the factorial exponent stops being desk-scale.
POWER_EQUIVALENCE_ORDER_LIMIT = 3


def check_power_equivalence(m: RatMatrix) -> bool:
    """Torsion test in pure power form: M^(n!+d) = M^d with n = torsion_bound(d).

    The factorial exponent makes this practical only at tiny order (the
    guard admits d <= 3, where n! is at most 720); binary powering keeps
    even those exponents cheap.

    >>> check_power_equivalence(RatMatrix([[-1]]))
    True
    >>> check_power_equivalence(RatMatrix([[2]]))
    False
    """
    d = m.order
    if d > POWER_EQUIVALENCE_ORDER_LIMIT:
        raise ValueError(
            f"power equivalence check supports order <= {POWER_EQUIVALENCE_ORDER_LIMIT}, "
            f"got {d}"
        )
    n = torsion_bound(d)
    return mat_pow(m, math.factorial(n) + d) == mat_pow(m, d)
