"""Quadratic surds: exact numbers t/d * sqrt(s) with s squarefree, the values
of the recoupling layers (`wigner` and `classify`).

A surd t/d * sqrt(s) travels between the layers as the integer triple
(t, d, s).  Such triples multiply in one place, _surd_product, and print in
one place, _surd_text.  A SqrtRational is such a triple, reduced, in its one
fields slot: it multiplies, divides and prints through the same two, so a
value has one text whichever form carries it, and a computed triple becomes
a value through _surd with no Fraction built.  Values enter as int or
Fraction only: a float or a string given to a SqrtRational constructor is a
TypeError, not its binary value or its parse.  The square roots of the
recoupling values come from factorial_surd, which never builds a factorial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .twoj import _check_rational


def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s * t**2 with s squarefree; return (s, t).

    Uses trial division, so it is slow once n has a large prime factor.  The
    recoupling values take their roots through factorial_surd instead; trial
    division stays as the independent route that tests compare them with.
    """
    if n <= 0:
        raise ValueError(f"squarefree_split needs a positive integer, got {n}")
    s, t = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e & 1:
                s *= p
            t *= p ** (e >> 1)
        p += 1 if p == 2 else 2
    # whatever is left is prime (or 1), hence squarefree
    return s * n, t


def _primes_upto(n: int) -> list[int]:
    # sieve of Eratosthenes, for n >= 1
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if sieve[p]]


def _factorial_exponent(n: int, p: int) -> int:
    # Legendre: the exponent of the prime p in n!
    e = 0
    while n:
        n //= p
        e += n
    return e


def factorial_surd(top: Sequence[int], bottom: Sequence[int] = ()) -> tuple[int, int, int]:
    """sqrt(prod(x! for x in top) / prod(x! for x in bottom)) = t/d * sqrt(s),
    returned as (t, d, s) with t, d coprime and s squarefree.

    The prime exponents come from Legendre's formula on each factorial, so
    the factorials are never built (Johansson & Forssen, SIAM J. Sci. Comput.
    38 (2016) A376).  An exponent e >= 0 puts p^(e//2) in t; e < 0 puts
    p^ceil(-e/2) in d; an odd e leaves one p under the root
    (p^-(2f+1) = p^-(2f+2) * p).
    """
    if min((*top, *bottom), default=0) < 0:
        raise ValueError(f"factorial of a negative integer in {top} / {bottom}")
    t = d = s = 1
    for p in _primes_upto(max((*top, *bottom, 1))):
        e = sum([_factorial_exponent(x, p) for x in top if x >= p])
        e -= sum([_factorial_exponent(x, p) for x in bottom if x >= p])
        if e >= 0:
            t *= p ** (e >> 1)
        else:
            d *= p ** ((1 - e) >> 1)
        if e & 1:
            s *= p
    return t, d, s


def _surd_product(surds) -> tuple[int, int, int]:
    """The product of the surds (t, d, s), each t/d*sqrt(s) with d > 0 and
    s squarefree, as (n, d, rad) reduced: n, d coprime, d > 0 and rad
    squarefree, by taking out common factors, and (0, 1, 1) for zero.  The
    one surd multiply of the package; a rational factor is (t, d, 1).
    """
    n = d = rad = 1
    for t, dt, s in surds:
        # the product of coprime squarefree parts stays squarefree
        g = math.gcd(rad, s)
        n *= t * g
        d *= dt
        rad = (rad // g) * (s // g)
    if not n:
        return 0, 1, 1
    g = math.gcd(n, d)
    return n // g, d // g, rad


def _surd_text(n: int, d: int, rad: int = 1) -> str:
    """n/d * sqrt(rad), for n, d coprime and d > 0, as the package prints
    every value: "0" when n = 0, else str(Fraction(n, d)), followed by
    "*sqrt(rad)" when rad > 1.  The one surd printer."""
    if not n:
        return "0"
    text = str(n) if d == 1 else f"{n}/{d}"
    return text if rad == 1 else f"{text}*sqrt({rad})"


class SqrtRational:
    """The exact number n/d * sqrt(rad), held as its integer fields (n, d, rad).

    n and d are coprime with d > 0, rad is a squarefree positive integer, and
    zero is (0, 1, 1), so two values are equal iff their fields are equal.
    coeff = n/d and radicand = rad are read from the fields.  The set of such
    numbers is closed under multiplication, which is all the recoupling
    formulas need: every Delta product, Clebsch-Gordan coefficient and
    6j-symbol is a rational multiple of one square root.  Immutable: the
    fields are set once, when the value is built.

    SqrtRational(coeff, radicand) takes an int or Fraction coeff and a
    squarefree int radicand (another radicand is a ValueError: SqrtRational.of
    takes out its squares); a computed triple that is already reduced
    becomes a value through _surd, with no Fraction built.
    """

    __slots__ = ("fields",)

    def __init__(self, coeff, radicand: int = 1):
        _check_rational(coeff, "coeff")
        if type(radicand) is not int:
            raise TypeError(f"radicand must be an int, got {radicand!r}")
        if radicand < 1:
            raise ValueError(f"radicand must be positive, got {radicand}")
        if radicand > 1 and squarefree_split(radicand)[1] != 1:
            raise ValueError(
                f"radicand {radicand} is not squarefree; SqrtRational.of takes out its squares"
            )
        n, d = coeff.numerator, coeff.denominator
        object.__setattr__(self, "fields", (n, d, radicand) if n else (0, 1, 1))

    def __setattr__(self, name, value):
        raise AttributeError(f"SqrtRational is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SqrtRational is immutable: cannot delete {name!r}")

    @property
    def coeff(self) -> Fraction:
        return Fraction(self.fields[0], self.fields[1])

    @property
    def radicand(self) -> int:
        return self.fields[2]

    def __eq__(self, other):
        if other.__class__ is not SqrtRational:
            return NotImplemented
        return self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        return f"SqrtRational(coeff={self.coeff!r}, radicand={self.radicand!r})"

    def __reduce__(self):
        return _surd, (self.fields,)

    @staticmethod
    def of(coeff, radicand: int = 1) -> "SqrtRational":
        """Construct from an arbitrary positive radicand, extracting squares."""
        _check_rational(coeff, "coeff")
        if type(radicand) is not int:
            raise TypeError(f"radicand must be an int, got {radicand!r}")
        if not coeff:
            return SqrtRational(0)
        s, t = squarefree_split(radicand)
        return _surd(_surd_product(((coeff.numerator * t, coeff.denominator, s),)))

    @staticmethod
    def sqrt_of(value) -> "SqrtRational":
        """Exact square root of a non-negative rational."""
        _check_rational(value, "value")
        if value < 0:
            raise ValueError(f"square root of negative rational {value}")
        if value == 0:
            return SqrtRational(0)
        # sqrt(p/q) = sqrt(p*q)/q
        s, t = squarefree_split(value.numerator * value.denominator)
        return _surd(_surd_product(((t, value.denominator, s),)))

    @property
    def is_zero(self) -> bool:
        return not self.fields[0]

    @property
    def is_rational(self) -> bool:
        return self.fields[2] == 1

    def as_fraction(self) -> Fraction:
        if self.fields[2] != 1:
            raise ValueError(f"{self} is irrational")
        return self.coeff

    def __mul__(self, other):
        if isinstance(other, SqrtRational):
            return _surd(_surd_product((self.fields, other.fields)))
        if isinstance(other, (int, Fraction)):
            return _surd(_surd_product((self.fields, (other.numerator, other.denominator, 1))))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        n, d, rad = self.fields
        return _surd((-n, d, rad))

    def inverse(self) -> "SqrtRational":
        n, d, rad = self.fields
        if not n:
            raise ZeroDivisionError("inverse of zero")
        # 1/(n/d*sqrt(s)) = d/(n*s)*sqrt(s)
        return _surd(_surd_product(((d if n > 0 else -d, abs(n) * rad, rad),)))

    def __truediv__(self, other):
        if isinstance(other, SqrtRational):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return NotImplemented

    def __str__(self) -> str:
        return _surd_text(*self.fields)


def _surd(fields: tuple[int, int, int]) -> SqrtRational:
    """The SqrtRational with these fields, which must already be reduced as
    _surd_product returns them (unchecked): the one constructor of computed
    values, which builds no Fraction."""
    value = object.__new__(SqrtRational)
    object.__setattr__(value, "fields", fields)
    return value


def sqrtrat_sum_is_zero(terms: Iterable[SqrtRational]) -> bool:
    """Whether a finite sum of SqrtRational values is exactly zero.

    Square roots of distinct squarefree integers are linearly independent over
    the rationals, so the sum vanishes iff the coefficients cancel radicand by
    radicand.  Used to verify three-term recurrences and bilinear identities
    without a general algebraic-number field.
    """
    acc: dict[int, Fraction] = {}
    for t in terms:
        acc[t.radicand] = acc.get(t.radicand, Fraction(0)) + t.coeff
    return all(c == 0 for c in acc.values())
