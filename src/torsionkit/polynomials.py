"""Exact dense univariate polynomials over the rationals and the integers.

Coefficients are stored little-endian: ``coeffs[i]`` multiplies ``z**i``.
The zero polynomial is the empty coefficient sequence and has degree
``NEG_INFINITY``; every nonzero polynomial keeps a nonzero last coefficient,
so equal polynomials compare equal structurally.

All values are immutable and every operation is a pure function; instances
are safe to share between threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InternalConsistencyError

#: Exact rational scalar; :class:`fractions.Fraction` already enforces the
#: canonical form (positive denominator, reduced, zero is 0/1).
Rational = Fraction

#: Degree of the zero polynomial. Using minus infinity keeps degree
#: comparisons and sums honest (``deg r < deg b`` holds for a zero remainder).
NEG_INFINITY = float("-inf")

CoeffLike = Union[int, Fraction]


def _format_terms(coeffs: Sequence, var: str = "z") -> str:
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        mag = -c if c < 0 else c
        if i == 0:
            body = f"{mag}"
        else:
            body = var if i == 1 else f"{var}^{i}"
            if mag != 1:
                body = f"{mag}*{body}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _coeff_to_data(c: Fraction) -> int | str:
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


@dataclass(frozen=True, slots=True)
class RatPoly:
    """Dense polynomial over Q.

    Construction canonicalizes: every coefficient is coerced to
    :class:`~fractions.Fraction` and trailing zeros are stripped, so canonical
    form is closed under all operations by construction.

    >>> RatPoly([-1, 0, 1])
    RatPoly('z^2 - 1')
    >>> RatPoly([1, 1]) * RatPoly([-1, 1])
    RatPoly('z^2 - 1')
    >>> RatPoly([2, 0]).degree
    0
    """

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[CoeffLike] = ()) -> None:
        if isinstance(coeffs, RatPoly):
            object.__setattr__(self, "coeffs", coeffs.coeffs)
            return
        cs = tuple([c if isinstance(c, Fraction) else Fraction(c) for c in coeffs])
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    @classmethod
    def zero(cls) -> RatPoly:
        return cls(())

    @classmethod
    def one(cls) -> RatPoly:
        return cls((1,))

    @classmethod
    def variable(cls) -> RatPoly:
        """The monomial z."""
        return cls((0, 1))

    @property
    def degree(self) -> int | float:
        """Degree; ``NEG_INFINITY`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> Fraction:
        """Leading coefficient; rejects the zero polynomial."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __str__(self) -> str:
        return _format_terms(self.coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({str(self)!r})"

    def _coerce(self, other) -> RatPoly | None:
        if isinstance(other, RatPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RatPoly((other,))
        return None

    def __add__(self, other) -> RatPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self) -> RatPoly:
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other) -> RatPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> RatPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> RatPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return RatPoly(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RatPoly:
        n = operator.index(n)
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = RatPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other) -> tuple[RatPoly, RatPoly]:
        """Exact division with remainder: self = q*other + r, deg r < deg other.

        >>> divmod(RatPoly([1, -1, -1, 1]), RatPoly([-1, 1]))
        (RatPoly('z^2 - 1'), RatPoly('0'))
        """
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        if len(self.coeffs) < len(o.coeffs):
            return RatPoly(()), self
        db = len(o.coeffs) - 1
        lb = o.coeffs[-1]
        rem = list(self.coeffs)
        quo = [Fraction(0)] * (len(rem) - db)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + db] / lb
            if c:
                quo[k] = c
                for i, bc in enumerate(o.coeffs):
                    rem[k + i] -= c * bc
        return RatPoly(quo), RatPoly(rem[:db])

    def __floordiv__(self, other) -> RatPoly:
        return divmod(self, other)[0]

    def __mod__(self, other) -> RatPoly:
        return divmod(self, other)[1]

    def derivative(self) -> RatPoly:
        """Formal derivative; drops the degree by one for nonconstant input."""
        return RatPoly([i * c for i, c in enumerate(self.coeffs) if i])

    def monic(self) -> RatPoly:
        if not self.coeffs:
            raise ValueError("cannot normalize the zero polynomial to monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return RatPoly([c / lead for c in self.coeffs])

    def shifted(self, k: int) -> RatPoly:
        """Multiply by z**k."""
        k = operator.index(k)
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if not self.coeffs:
            return self
        return RatPoly((Fraction(0),) * k + self.coeffs)

    def __call__(self, x: CoeffLike) -> Fraction:
        """Evaluate at a rational point by Horner's scheme."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def clear_denominators(self) -> IntPoly:
        """Scale by the lcm of all denominators, yielding an integer polynomial."""
        den = math.lcm(*[c.denominator for c in self.coeffs]) if self.coeffs else 1
        return IntPoly([int(c * den) for c in self.coeffs])

    def to_data(self) -> list[int | str]:
        """Text form: low-to-high list of exact ints or "p/q" strings."""
        return [_coeff_to_data(c) for c in self.coeffs]

    @classmethod
    def from_data(cls, data: Iterable[int | str]) -> RatPoly:
        out = []
        for item in data:
            if isinstance(item, bool) or isinstance(item, float):
                raise ValueError(f"non-exact polynomial coefficient: {item!r}")
            try:
                out.append(Fraction(item))
            except (TypeError, ZeroDivisionError):
                raise ValueError(f"malformed polynomial coefficient: {item!r}") from None
        return cls(out)


@dataclass(frozen=True, slots=True)
class IntPoly:
    """Dense polynomial over Z, same conventions as :class:`RatPoly`.

    Converts losslessly to a :class:`RatPoly` via :meth:`to_rational`.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        if isinstance(coeffs, IntPoly):
            object.__setattr__(self, "coeffs", coeffs.coeffs)
            return
        cs = tuple([operator.index(c) for c in coeffs])
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    @classmethod
    def zero(cls) -> IntPoly:
        return cls(())

    @classmethod
    def one(cls) -> IntPoly:
        return cls((1,))

    @classmethod
    def cyclic(cls, n: int) -> IntPoly:
        """The polynomial z**n - 1."""
        if n < 1:
            raise ValueError("cyclic index must be positive")
        return cls((-1,) + (0,) * (n - 1) + (1,))

    @property
    def degree(self) -> int | float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __str__(self) -> str:
        return _format_terms(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({str(self)!r})"

    def __add__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> IntPoly:
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: IntPoly) -> IntPoly:
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return IntPoly(out)

    def __pow__(self, n: int) -> IntPoly:
        n = operator.index(n)
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> IntPoly:
        return IntPoly([i * c for i, c in enumerate(self.coeffs) if i])

    def shifted(self, k: int) -> IntPoly:
        k = operator.index(k)
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def exact_div(self, other: IntPoly) -> IntPoly:
        """Divide by an exact integer-polynomial divisor.

        The caller asserts divisibility; a nonzero remainder (or a non-integer
        quotient step) is an internal-consistency fault and aborts loudly.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        if self.is_zero():
            return self
        db = len(other.coeffs) - 1
        lb = other.coeffs[-1]
        rem = list(self.coeffs)
        if len(rem) - 1 < db:
            raise InternalConsistencyError(
                f"exact division failed: degree {len(rem) - 1} < divisor degree {db}"
            )
        quo = [0] * (len(rem) - db)
        for k in range(len(quo) - 1, -1, -1):
            c, leftover = divmod(rem[k + db], lb)
            if leftover:
                raise InternalConsistencyError(
                    "exact division failed: leading coefficient not divisible"
                )
            if c:
                quo[k] = c
                for i, bc in enumerate(other.coeffs):
                    rem[k + i] -= c * bc
        if any(rem[:db]):
            raise InternalConsistencyError("exact division failed: nonzero remainder")
        return IntPoly(quo)

    def content_and_primitive(self) -> tuple[int, int, IntPoly]:
        """Split into ``(sign, content, primitive)`` with p = sign*content*primitive.

        content > 0 is the gcd of the coefficients; the primitive part has
        coefficient gcd 1 and a positive leading coefficient, the leading sign
        being reported separately. Rejects the zero polynomial.
        """
        if not self.coeffs:
            raise ValueError("the zero polynomial has no content decomposition")
        content = math.gcd(*self.coeffs)
        sign = -1 if self.coeffs[-1] < 0 else 1
        scale = sign * content
        return sign, content, IntPoly([c // scale for c in self.coeffs])

    def primitive(self) -> IntPoly:
        """Primitive part with positive leading coefficient."""
        return self.content_and_primitive()[2]

    def to_rational(self) -> RatPoly:
        return RatPoly(self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_data(self) -> list[int]:
        return [int(c) for c in self.coeffs]

    @classmethod
    def from_data(cls, data: Iterable[int]) -> IntPoly:
        return cls(operator.index(c) for c in data)


#: Prime for the coprimality screen in :func:`int_gcd`: the largest prime
#: below 2**30, so every residue is a single CPython digit.
_SCREEN_PRIME = 1073741789


def _primitive_list(coeffs) -> list:
    # In a remainder sequence the content is nearly always the gcd of the two
    # end coefficients. Try that first, at one divmod per coefficient; a
    # coefficient it does not divide lowers it, and the quotients found so
    # far are scaled up to match.
    lead = coeffs[-1]
    scale = math.gcd(lead, coeffs[0])
    if lead < 0:
        scale = -scale
    if scale == 1:
        return list(coeffs)
    out = []
    for c in coeffs:
        q, m = divmod(c, scale)
        if m:
            lower = math.gcd(scale, c)
            if lead < 0:
                lower = -lower
            factor = scale // lower
            out = [x * factor for x in out]
            scale = lower
            q = c // scale
        out.append(q)
    return out


def _pseudo_rem(f: list, g: list) -> list:
    # Remainder of lc(g)**k * f by g, computed without fractions. The exact
    # power k is irrelevant here: the caller strips content anyway.
    dg = len(g) - 1
    lc_g = g[-1]
    if len(f) == len(g) + 1 and dg:
        # Degrees one apart, as in nearly every step: both reduction steps
        # in one pass, lc(g)**2 * f - (c1*z + c0) * g.
        c1 = lc_g * f[-1]
        c0 = lc_g * f[-2] - f[-1] * g[-2]
        sq = lc_g * lc_g
        r = [sq * x - c1 * y - c0 * w for x, y, w in zip(f, [0] + g, g[:dg])]
    else:
        r = list(f)
        while len(r) - 1 >= dg and r:
            lc_r = r[-1]
            off = len(r) - 1 - dg
            r = [lc_g * c for c in r]
            for i, c in enumerate(g):
                r[off + i] -= lc_r * c
            while r and not r[-1]:
                r.pop()
    while r and not r[-1]:
        r.pop()
    return r


def _coprime_mod_p(f: Sequence[int], g: Sequence[int]) -> bool:
    """True when the images of f and g in GF(p)[z] have a constant gcd.

    Then f and g have no common factor of positive degree over Z, provided
    p divides neither leading coefficient: such a factor h divides lc(f), so
    p keeps its degree and h mod p divides both images. When p divides a
    leading coefficient the screen proves nothing and answers False.
    """
    p = _SCREEN_PRIME
    if not f[-1] % p or not g[-1] % p:
        return False
    a = [c % p for c in f]
    b = [c % p for c in g]
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        db = len(b) - 1
        if len(a) == db + 2:  # as in _pseudo_rem, both steps in one pass
            q1 = a[-1] * inv % p
            q0 = (a[-2] - q1 * b[-2]) * inv % p
            a = [(x - q1 * y - q0 * w) % p for x, y, w in zip(a, [0] + b, b[:db])]
        while len(a) > db:
            q = a[-1] * inv % p
            off = len(a) - 1 - db
            a[off:] = [(x - q * y) % p for x, y in zip(a[off:-1], b)]
            while a and not a[-1]:
                a.pop()
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(b) == 1


def int_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Greatest common divisor in Z[z], primitive with positive leading coefficient.

    Screens first for coprime primitive parts by Euclid modulo one 30-bit
    prime, which settles squarefreeness checks gcd(f, f') = 1 without any
    big-integer work. Otherwise runs a primitive polynomial remainder
    sequence: each pseudo-remainder is reduced to its primitive part before
    the next step, which keeps the coefficient growth polynomial instead of
    exponential.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero() or b.is_zero():
        _, content, prim = (b if a.is_zero() else a).content_and_primitive()
        return prim * IntPoly((content,))
    _, ca, pa = a.content_and_primitive()
    _, cb, pb = b.content_and_primitive()
    shared = math.gcd(ca, cb)
    if _coprime_mod_p(pa.coeffs, pb.coeffs):
        return IntPoly((shared,))
    f = list(pa.coeffs)
    g = list(pb.coeffs)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _pseudo_rem(f, g)
        if r:
            r = _primitive_list(r)
        f, g = g, r
    prim = IntPoly(_primitive_list(f))
    if shared != 1:
        prim = prim * IntPoly((shared,))
    return prim


def gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic greatest common divisor in Q[z].

    Denominators are cleared and the work happens in the integer remainder
    sequence of :func:`int_gcd`; the result is normalized monic so equal gcds
    always compare equal.

    >>> gcd(RatPoly([1, -1, -1, 1]), RatPoly([-1, -2, 3]))
    RatPoly('z - 1')
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    return int_gcd(a.clear_denominators(), b.clear_denominators()).to_rational().monic()


def squarefree_part(p: RatPoly) -> RatPoly:
    """The monic polynomial with the same roots and all multiplicities one.

    Computed as p / gcd(p, p'), the classical multiple-root elimination.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial has no squarefree part")
    if p.degree == 0:
        return RatPoly.one()
    quotient, rem = divmod(p, gcd(p, p.derivative()))
    if not rem.is_zero():
        raise InternalConsistencyError("gcd does not divide its own input")
    return quotient.monic()
