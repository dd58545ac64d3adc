"""Twice-values and the integer and rational scalar checks every layer shares:
the twice-value checks, the triangle condition and the relations built on it
(the couplings of Clebsch-Gordan series, the triangle a map requires, the
radical weight m of a module), binomial, factorial and the parsing of
rational text.  Every other module reads these names here.

It imports no other module of the package and holds no surd or matrix, so a
launch that only tests a triangle compiles this module alone.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import factorial  # the package's factorial, re-exported


def binomial(n: int, k: int) -> int:
    """C(n, k), with C(n, k) = 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _check_twoj(*vals: int, signed: bool = False) -> None:
    # the type comes first, so that a string fails here and not in the
    # comparison, and `type` rather than isinstance, so that bool fails
    for v in vals:
        if type(v) is not int or (v < 0 and not signed):
            kind = "integers" if signed else "non-negative integers"
            raise ValueError(f"twice-values must be {kind}, got {v!r}")


def _check_bound(n: int) -> None:
    _check_twoj(n, signed=True)  # the type; the sign has its own message
    if n < 0:
        raise ValueError(f"the twice-value bound must be non-negative, got {n}")


def _triangle(ta: int, tb: int, tc: int) -> bool:
    # triangle without the type check, for callers that checked already
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def triangle(ta: int, tb: int, tc: int) -> bool:
    """Triangle condition on twice-values: |ta-tb| <= tc <= ta+tb, even sum."""
    _check_twoj(ta, tb, tc)
    return _triangle(ta, tb, tc)


def _couplings(*pairs: tuple[int, int], top: int | None = None) -> range:
    """The z <= top with triangle(x, y, z) for every pair (x, y): the V(z)
    that V(x) x V(y) holds for each pair, as a step-2 range, empty when the
    pairs disagree in parity."""
    _check_twoj(*(v for pair in pairs for v in pair))
    if len({(x + y) % 2 for x, y in pairs}) > 1:
        return range(0)
    hi = min(x + y for x, y in pairs)
    if top is not None:
        hi = min(hi, top)
    return range(max(abs(x - y) for x, y in pairs), hi + 1, 2)


def _require_triangle(ta: int, tb: int, tc: int) -> None:
    if not triangle(ta, tb, tc):
        raise ValueError(f"triangle condition fails for ({ta}, {tb}, {tc})")


def _check_radical_weight(m: int) -> None:
    _check_twoj(m, signed=True)  # the type; the sign has its own message
    if m < 1:
        raise ValueError("the radical weight m must be positive")


_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def rat_from_str(text: str) -> Fraction:
    """Parse "[+-]p" or "[+-]p/q" in decimal digits with q != 0, the form
    str(Fraction) writes; anything else, such as a non-string, whitespace, a
    decimal point or an exponent, raises ValueError.  The digits go to int,
    so a short text never expands into a huge number."""
    if not isinstance(text, str) or not _RATIONAL.fullmatch(text):
        raise ValueError(f"{text!r:.40} is not a rational [+-]p or [+-]p/q")
    p, _, q = text.partition("/")
    if q and not int(q):
        raise ValueError(f"{text!r:.40} has a zero denominator")
    return Fraction(int(p), int(q or 1))


def _check_rational(x, name: str) -> None:
    # type rather than isinstance, so that bool fails; a float or a string
    # would otherwise enter as its binary value or its parse
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError(f"{name} must be an int or a Fraction, got {x!r}")
