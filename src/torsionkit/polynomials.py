"""Exact dense univariate polynomials over the rationals and the integers.

Coefficients are stored little-endian: ``coeffs[i]`` multiplies ``z**i``.
The zero polynomial is the empty coefficient sequence and has degree
``NEG_INFINITY``; every nonzero polynomial keeps a nonzero last coefficient,
so equal polynomials compare equal structurally.

:class:`RatPoly` and :class:`IntPoly` share one dense arithmetic core and
differ only in their coefficient type and their ring-specific operations.
Operands must have the same type: ``RatPoly * IntPoly`` is a TypeError, and
an integer polynomial enters rational arithmetic through
:meth:`IntPoly.to_rational`.

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

#: Degree of the zero polynomial. Using minus infinity keeps degree
#: comparisons and sums honest (``deg r < deg b`` holds for a zero remainder).
NEG_INFINITY = float("-inf")

CoeffLike = Union[int, Fraction]


def read_rational(value, what: str) -> int | Fraction:
    """An exact number from untrusted input: an int, or a "p/q" or decimal string.

    An int is returned as it is, and a string as a
    :class:`~fractions.Fraction`, so integer input never pays for one.
    Refuses bool and float (not exact), every other type, and strings in
    exponent notation, which :class:`~fractions.Fraction` would expand in
    full before any size limit applies ("1e999999999" has a billion
    digits). Every refusal is a ValueError whose message names ``what``.

    >>> read_rational(-3, "entry")
    -3
    >>> read_rational("-3/6", "entry"), read_rational("0.25", "entry")
    (Fraction(-1, 2), Fraction(1, 4))
    """
    # bool is a subclass of int, so it is refused before ints are let through.
    if isinstance(value, (bool, float)):
        raise ValueError(f"non-exact {what}: {value!r}")
    if isinstance(value, int):
        return value
    if not isinstance(value, str):
        raise ValueError(f"malformed {what}: {value!r}")
    if "e" in value or "E" in value:
        raise ValueError(f"exponent notation not accepted in {what}: {value!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {what}: {value!r}") from None
    except ValueError:
        raise ValueError(f"malformed {what}: {value!r}") from None


class _DensePoly:
    """Arithmetic common to :class:`RatPoly` and :class:`IntPoly`.

    A subclass is a frozen dataclass with the single field ``coeffs`` and
    states what differs: ``_coeff`` maps an input coefficient to the
    canonical coefficient type, ``_zero`` is that type's zero, and it adds
    its ring-specific operations. Every result has the type of ``self``.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable = ()) -> None:
        if isinstance(coeffs, type(self)):
            object.__setattr__(self, "coeffs", coeffs.coeffs)
            return
        coerce = self._coeff
        cs = tuple([coerce(c) for c in coeffs])
        end = len(cs)
        while end and cs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", cs[:end])

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @property
    def degree(self) -> int | float:
        """Degree; ``NEG_INFINITY`` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self):
        """Leading coefficient; rejects the zero polynomial."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __str__(self) -> str:
        coeffs = self.coeffs
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
                body = "z" if i == 1 else f"z^{i}"
                if mag != 1:
                    body = f"{mag}*{body}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return type(self)(out)

    def __neg__(self):
        return type(self)([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return type(self)(())
        out = [self._zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return type(self)(out)

    def __pow__(self, n: int):
        n = operator.index(n)
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self):
        """Formal derivative; drops the degree by one for nonconstant input."""
        return type(self)([i * c for i, c in enumerate(self.coeffs) if i])

    def shifted(self, k: int):
        """Multiply by z**k."""
        k = operator.index(k)
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if not self.coeffs:
            return self
        return type(self)((self._zero,) * k + self.coeffs)

    @classmethod
    def _divide(cls, a: Sequence, b: Sequence) -> tuple[list, list]:
        """Long division of coefficient sequences: quotient and remainder lists.

        a = q*b + r with deg r < deg b, for canonical coefficients of the
        class's type. Each quotient coefficient is the class's
        ``_quotient_step`` of a remainder coefficient by the leading
        coefficient of ``b``, or that remainder coefficient itself when
        ``b`` is monic. The quotient is canonical as it stands; the
        remainder may end in zeros.
        """
        if not b:
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        db = len(b) - 1
        lb = b[-1]
        step = None if lb == 1 else cls._quotient_step
        rem = list(a)
        # Empty when deg a < deg b: then the remainder is a.
        quo = [cls._zero] * (len(rem) - db)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + db] if step is None else step(rem[k + db], lb)
            if c:
                quo[k] = c
                for i, bc in enumerate(b):
                    rem[k + i] -= c * bc
        return quo, rem[:db]


def _fraction(c: CoeffLike) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def _int_quotient(a: int, b: int) -> int:
    q, leftover = divmod(a, b)
    if leftover:
        raise InternalConsistencyError("non-integer quotient step in Z[z] division")
    return q


# Each subclass binds __mul__ in its own class body, because bench/spans.py
# wraps the methods it finds in a class's own __dict__. init=False and
# repr=False keep dataclass from generating an __init__ and a __repr__ that
# would shadow the shared ones.
@dataclass(frozen=True, slots=True, init=False, repr=False)
class RatPoly(_DensePoly):
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

    _coeff = staticmethod(_fraction)
    _zero = Fraction(0)
    _quotient_step = operator.truediv
    __mul__ = _DensePoly.__mul__

    def __divmod__(self, other: RatPoly) -> tuple[RatPoly, RatPoly]:
        """Exact division with remainder: self = q*other + r, deg r < deg other.

        >>> divmod(RatPoly([1, -1, -1, 1]), RatPoly([-1, 1]))
        (RatPoly('z^2 - 1'), RatPoly('0'))
        """
        if not isinstance(other, RatPoly):
            return NotImplemented
        quo, rem = self._divide(self.coeffs, other.coeffs)
        return RatPoly(quo), RatPoly(rem)

    def __mod__(self, other: RatPoly) -> RatPoly:
        return divmod(self, other)[1]

    def monic(self) -> RatPoly:
        if not self.coeffs:
            raise ValueError("cannot normalize the zero polynomial to monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        return RatPoly([c / lead for c in self.coeffs])

    def to_data(self) -> list[int | str]:
        """Text form: low-to-high list of exact ints or "p/q" strings."""
        return [
            int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
            for c in self.coeffs
        ]

    @classmethod
    def from_data(cls, data: Iterable[int | str]) -> RatPoly:
        return cls([read_rational(item, "polynomial coefficient") for item in data])


@dataclass(frozen=True, slots=True, init=False, repr=False)
class IntPoly(_DensePoly):
    """Dense polynomial over Z, same conventions as :class:`RatPoly`.

    Converts losslessly to a :class:`RatPoly` via :meth:`to_rational`.

    >>> IntPoly([-1, 0, 1]) * IntPoly([1, 1])
    IntPoly('z^3 + z^2 - z - 1')
    """

    coeffs: tuple[int, ...]

    _coeff = operator.index
    _zero = 0
    _quotient_step = staticmethod(_int_quotient)
    __mul__ = _DensePoly.__mul__

    @classmethod
    def cyclic(cls, n: int) -> IntPoly:
        """The polynomial z**n - 1."""
        if n < 1:
            raise ValueError("cyclic index must be positive")
        return cls((-1,) + (0,) * (n - 1) + (1,))

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __divmod__(self, other: IntPoly) -> tuple[IntPoly, IntPoly]:
        """Division with remainder in Z[z], as for :class:`RatPoly`.

        Every quotient step must be an integer, as it is for a monic
        divisor; one that is not is an internal-consistency fault.

        >>> divmod(IntPoly([2, 0, 0, 1]), IntPoly([1, 1, 1]))
        (IntPoly('z - 1'), IntPoly('3'))
        """
        if not isinstance(other, IntPoly):
            return NotImplemented
        quo, rem = self._divide(self.coeffs, other.coeffs)
        return IntPoly(quo), IntPoly(rem)

    def exact_div(self, other: IntPoly) -> IntPoly:
        """Divide by an exact integer-polynomial divisor.

        The caller asserts divisibility; a nonzero remainder (or a non-integer
        quotient step) is an internal-consistency fault and aborts loudly.
        """
        quo, rem = divmod(self, other)
        if rem.coeffs:
            raise InternalConsistencyError("exact division failed: nonzero remainder")
        return quo

    def primitive(self) -> IntPoly:
        """Primitive part with positive leading coefficient; rejects zero."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no primitive part")
        return IntPoly(_primitive_list(self.coeffs))

    def to_rational(self) -> RatPoly:
        return RatPoly(self.coeffs)

    def to_data(self) -> list[int]:
        return [int(c) for c in self.coeffs]


#: Prime for the coprimality screen in :func:`int_gcd`: the largest prime
#: below 2**30, so every residue is a single CPython digit.
_SCREEN_PRIME = 1073741789


def _primitive_list(coeffs) -> list:
    # Primitive part of nonzero coefficients, with a positive leading one.
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
        p = b if a.is_zero() else a
        return -p if p.lead() < 0 else p
    shared = math.gcd(*a.coeffs, *b.coeffs)
    f = _primitive_list(a.coeffs)
    g = _primitive_list(b.coeffs)
    if _coprime_mod_p(f, g):
        return IntPoly((shared,))
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
