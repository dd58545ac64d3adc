"""Exact arithmetic building blocks: big rationals, quadratic surds, sparse
rational linear algebra and the triangle condition on twice-values.

Every value in the package funnels through this module, so no floating point
ever enters a computation.  Matrices and echelon bases hold the integer
numerators of their nonzero entries only, so products and eliminations skip
zeros and never build a Fraction; Fractions appear where values enter or
leave.  A subspace is read only through its RowSpace (membership,
coordinates, echelon rows, the complement at the free columns), against the
integer rows it holds, so no basis is parsed back from Fractions.  Every
type except the growing RowSpace is immutable after construction and all
functions are pure, which makes everything safe to use from parallel
workers.

A surd t/d * sqrt(s) travels between the layers as the integer triple
(t, d, s).  Such triples multiply in one place, _surd_product, and print in
one place, _surd_text.  A SqrtRational is such a triple, reduced, in its one
fields slot: it multiplies, divides and prints through the same two, so a
value has one text whichever form carries it, and a computed triple becomes
a value through _surd with no Fraction built.  Values enter as int or
Fraction only: a float or a string given to a SqrtRational constructor or
as a vector entry is a TypeError, not its binary value or its parse.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import factorial  # the package's factorial, re-exported
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


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


def _check_rational(x, name: str) -> None:
    # type rather than isinstance, so that bool fails; a float or a string
    # would otherwise enter as its binary value or its parse
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError(f"{name} must be an int or a Fraction, got {x!r}")


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
    squarefree int radicand; a computed triple that is already reduced
    becomes a value through _surd, with no Fraction built.
    """

    __slots__ = ("fields",)

    def __init__(self, coeff, radicand: int = 1):
        _check_rational(coeff, "coeff")
        if type(radicand) is not int:
            raise TypeError(f"radicand must be an int, got {radicand!r}")
        if radicand < 1:
            raise ValueError(f"radicand must be positive, got {radicand}")
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
        return SqrtRational(coeff * t, s)

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


# -- sparse integer rows ---------------------------------------------------------
#
# The linear algebra below keeps a rational vector as the integer numerators of
# its nonzero entries, a dict {column: numerator}, over a denominator held
# apart, so its inner loops skip zeros and run in pure bigint arithmetic.
# Such a dict is never changed once built, so rows may be shared.

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _int_vector(vec: Sequence) -> tuple[dict[int, int], int]:
    """The numerators of the nonzero entries of a rational vector over their
    least common denominator, and that denominator.  A dict stands for the
    vector with those {index: value} entries and zeros elsewhere.  An entry
    that is no int or Fraction (a bool, a float, a string) is a TypeError."""
    entries = {}
    for j, x in vec.items() if isinstance(vec, dict) else enumerate(vec):
        if type(x) is not int and type(x) is not Fraction:
            raise TypeError(f"entry {j} must be an int or a Fraction, got {x!r}")
        if x:
            entries[j] = x
    den = math.lcm(*[x.denominator for x in entries.values()])
    return {j: x.numerator * (den // x.denominator) for j, x in entries.items()}, den


def _fractions(row: dict[int, int], den: int, n: int) -> list[Fraction]:
    out = [_ZERO] * n
    for j, x in row.items():
        out[j] = Fraction(x, den)
    return out


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _subtract(out: dict[int, int], f: int, row: dict[int, int]) -> None:
    """out -= f * row, in place, dropping the entries that cancel."""
    for j, y in row.items():
        x = out.get(j, 0) - f * y
        if x:
            out[j] = x
        else:
            del out[j]


def _reduce(basis: dict[int, dict[int, int]], vec: dict[int, int]) -> tuple[dict[int, int], int]:
    """Residual of vec after elimination against basis.

    basis[c] is nonzero at column c and zero at every other key of basis, so
    each term is removed by one subtraction of its row, whatever the order.
    Returns the residual times a positive integer, and that integer.
    """
    hits = [c for c in vec if c in basis]
    if not hits:
        return vec, 1
    scale = math.lcm(*[basis[c][c] for c in hits])
    out = {j: x * scale for j, x in vec.items()}
    for c in hits:
        _subtract(out, vec[c] * scale // basis[c][c], basis[c])
    return out, scale


class RowSpace:
    """A subspace of Q^ncols, held as its reduced row echelon basis.

    The row with pivot p is a primitive sparse integer row, positive at p
    and zero at every other pivot; divided by its entry at p it is the
    unit-pivot echelon row.  That basis is unique to the subspace, so it
    does not depend on the order in which vectors join.  The subspace is
    read only through the methods below, against these integer rows.
    """

    __slots__ = ("ncols", "_rows")

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._rows: dict[int, dict[int, int]] = {}  # pivot -> row

    def __len__(self) -> int:
        return len(self._rows)

    def _parse(self, vec: Sequence) -> tuple[dict[int, int], int]:
        """_int_vector of a vector in Q^ncols: ValueError for a dense vector
        of another length or a dict with a key outside range(ncols)."""
        if isinstance(vec, dict):
            if any(j not in range(self.ncols) for j in vec):
                raise ValueError(f"vector has an index outside range({self.ncols})")
        elif len(vec) != self.ncols:
            raise ValueError(f"vector of length {len(vec)} in a space of {self.ncols} columns")
        return _int_vector(vec)

    def add(self, vec: Sequence) -> bool:
        """Extend the subspace by a rational vector; whether it grew."""
        return self._add(self._parse(vec)[0])

    def _add(self, vec: dict[int, int]) -> bool:
        resid, _ = _reduce(self._rows, vec)
        if not resid:
            return False
        p = min(resid)
        resid = _primitive(resid if resid[p] > 0 else {j: -x for j, x in resid.items()})
        d = resid[p]
        for q, row in list(self._rows.items()):
            a = row.get(p)
            if a:
                new = {j: x * d for j, x in row.items()}
                _subtract(new, a, resid)
                self._rows[q] = _primitive(new)
        self._rows[p] = resid
        return True

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def free_columns(self) -> list[int]:
        return [c for c in range(self.ncols) if c not in self._rows]

    def echelon(self) -> tuple[list[list[Fraction]], list[int]]:
        """The unit-pivot echelon rows, ordered by pivot, and their pivots."""
        pivots = self.pivots()
        rows = [self._rows[p] for p in pivots]
        return [_fractions(row, row[p], self.ncols) for row, p in zip(rows, pivots)], pivots

    def __contains__(self, vec: Sequence) -> bool:
        return not _reduce(self._rows, self._parse(vec)[0])[0]

    def coordinates(self, vectors: Sequence[Sequence]) -> "QMatrix":
        """The len(self) x len(vectors) matrix whose j-th column holds the
        coordinates of vectors[j] in the echelon rows, ordered by pivot.

        Each echelon row is 1 at its own pivot and 0 at the others, so a
        vector that leaves no residual has its entries at the pivots as
        coordinates.  A vector outside the subspace raises RuntimeError, and
        one outside Q^ncols ValueError.
        """
        parsed = []
        for j, vec in enumerate(vectors):
            x, den = self._parse(vec)
            if _reduce(self._rows, x)[0]:
                raise RuntimeError(f"vector {j} lies outside the subspace of dimension {len(self)}")
            parsed.append((x, den))
        den = math.lcm(*[d for _, d in parsed])
        num = [
            {j: x[p] * (den // d) for j, (x, d) in enumerate(parsed) if p in x}
            for p in self.pivots()
        ]
        return QMatrix(len(num), len(parsed), num, den)

    def _complement(self) -> tuple[dict[int, list[tuple[int, int]]], int]:
        """The echelon entries off the pivots, over one common denominator.

        Returns {free column c: [(pivot p, the entry at c of the echelon row
        of p, times scale)]} and scale, the lcm of the entries at the pivots.
        """
        scale = math.lcm(*[row[p] for p, row in self._rows.items()])
        by_free: dict[int, list[tuple[int, int]]] = {}
        for p, row in self._rows.items():
            f = scale // row[p]
            for c, x in row.items():
                if c != p:
                    by_free.setdefault(c, []).append((p, x * f))
        return by_free, scale


class QMatrix:
    """Sparse matrix of exact rationals.

    Stored as the integer numerators of the nonzero entries, one dict
    {column: numerator} per row, over one positive common denominator in
    lowest terms, so that products run in pure bigint arithmetic and skip
    zeros; entries are exposed as Fractions.  Instances are immutable, and
    every one, parsed or computed, comes out of the one constructor.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, num: Sequence[dict[int, int]], den: int = 1):
        """From one {column: nonzero integer numerator} dict per row, over den,
        one per row: a count other than rows is a ValueError and a row that
        is no dict a TypeError.  The entries are unchecked (from_rows and
        from_sparse_rows check and parse values)."""
        if len(num) != rows:
            raise ValueError(f"{len(num)} rows of numerators for a matrix of {rows} rows")
        if not {dict}.issuperset(map(type, num)):  # a pass in C, not in bytecode
            raise TypeError("each row must be a dict {column: integer numerator}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [{j: -x for j, x in row.items()} for row in num]
        g = den
        for row in num:
            if g == 1:
                break
            if row:
                g = math.gcd(g, *row.values())
        if g > 1:
            num = [{j: x // g for j, x in row.items()} for row in num]
            den //= g
        self.rows = rows
        self.cols = cols
        self._num = tuple(num)
        self._den = den

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_rows(data: Sequence[Sequence]) -> "QMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("entry grid does not match declared shape")
        return QMatrix.from_sparse_rows(cols, data)

    @staticmethod
    def from_sparse_rows(cols: int, data: Sequence) -> "QMatrix":
        """From one {column: value} dict per row (as sparse_rows gives) or dense rows."""
        parsed = [_int_vector(row) for row in data]
        den = math.lcm(*[d for _, d in parsed])
        num = [
            row if d == den else {j: x * (den // d) for j, x in row.items()} for row, d in parsed
        ]
        return QMatrix(len(data), cols, num, den)

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix(rows, cols, [{} for _ in range(rows)], 1)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, n, [{i: 1} for i in range(n)], 1)

    @staticmethod
    def diagonal(entries: Sequence) -> "QMatrix":
        entries = list(entries)
        n = len(entries)
        diag, den = _int_vector(entries)
        num = [{i: diag[i]} if i in diag else {} for i in range(n)]
        return QMatrix(n, n, num, den)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self._num[i].get(j, 0), self._den)

    def sparse_rows(self) -> list[dict[int, Fraction]]:
        """The nonzero entries of each row, as {column: value}."""
        d = self._den
        return [{j: Fraction(x, d) for j, x in row.items()} for row in self._num]

    def to_fractions(self) -> tuple[Vector, ...]:
        return tuple(tuple(_fractions(row, self._den, self.cols)) for row in self._num)

    def column(self, j: int) -> Vector:
        d = self._den
        return tuple(Fraction(row[j], d) if j in row else _ZERO for row in self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self):
        entries = tuple(frozenset(row.items()) for row in self._num)
        return hash((self.rows, self.cols, self._den, entries))

    def _combine(self, other: "QMatrix", sign: int) -> "QMatrix":
        """self + sign * other."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: ({self.rows}x{self.cols}) vs ({other.rows}x{other.cols})"
            )
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        num = []
        for ra, rb in zip(self._num, other._num):
            row = {j: x * sa for j, x in ra.items()}
            _subtract(row, -sb, rb)
            num.append(row)
        return QMatrix(self.rows, self.cols, num, den)

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "QMatrix":
        return QMatrix(
            self.rows, self.cols, [{j: -x for j, x in row.items()} for row in self._num], self._den
        )

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"shape mismatch: ({self.rows}x{self.cols}) * ({other.rows}x{other.cols})"
                )
            b = other._num
            num = []
            for ra in self._num:
                acc: dict[int, int] = {}
                for k, x in ra.items():
                    for j, y in b[k].items():
                        acc[j] = acc.get(j, 0) + x * y
                num.append({j: x for j, x in acc.items() if x})
            return QMatrix(self.rows, other.cols, num, self._den * other._den)
        if isinstance(other, (int, Fraction)):
            s = Fraction(other)
            if not s:
                return QMatrix.zero(self.rows, self.cols)
            num = [{j: x * s.numerator for j, x in row.items()} for row in self._num]
            return QMatrix(self.rows, self.cols, num, self._den * s.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "QMatrix":
        num: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._num):
            for j, x in row.items():
                num[j][i] = x
        return QMatrix(self.cols, self.rows, num, self._den)

    def apply(self, vec: Sequence) -> Vector:
        """Matrix-vector product, vector given and returned as Fractions."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        x, den = _int_vector(vec)
        den *= self._den
        out = []
        for row in self._num:
            s = sum([a * x[j] for j, a in row.items() if j in x])
            out.append(Fraction(s, den) if s else _ZERO)
        return tuple(out)

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"


def primitive_family(mats: Sequence[QMatrix]) -> list[QMatrix]:
    """The family times the one rational that makes its entries coprime
    integers with the first nonzero entry positive (row-major, first matrix
    first).  A family of zero matrices is returned as it is."""
    den = math.lcm(*[mat._den for mat in mats])
    num = [
        [{j: x * (den // mat._den) for j, x in row.items()} for row in mat._num] for mat in mats
    ]
    g = math.gcd(*[x for rows in num for row in rows for x in row.values()])
    if not g:
        return list(mats)
    lead = next(row[min(row)] for rows in num for row in rows if row)
    g = -g if lead < 0 else g
    return [
        QMatrix(m.rows, m.cols, [{j: x // g for j, x in r.items()} for r in rows], 1)
        for m, rows in zip(mats, num)
    ]


def commutator(a: QMatrix, b: QMatrix) -> QMatrix:
    return a * b - b * a


def assemble_blocks(
    row_dims: Sequence[int],
    col_dims: Sequence[int],
    blocks: dict[tuple[int, int], QMatrix],
) -> QMatrix:
    """Assemble a block-partitioned matrix; unspecified blocks are zero."""
    row_off = [0]
    for d in row_dims:
        row_off.append(row_off[-1] + d)
    col_off = [0]
    for d in col_dims:
        col_off.append(col_off[-1] + d)
    den = math.lcm(*[blk._den for blk in blocks.values()])
    num: list[dict[int, int]] = [{} for _ in range(row_off[-1])]
    for (bi, bj), blk in blocks.items():
        if blk.rows != row_dims[bi] or blk.cols != col_dims[bj]:
            raise ValueError(f"block ({bi},{bj}) has shape {blk.rows}x{blk.cols}")
        s, c0 = den // blk._den, col_off[bj]
        for i, row in enumerate(blk._num):
            target = num[row_off[bi] + i]
            for j, x in row.items():
                target[c0 + j] = x * s
    return QMatrix(row_off[-1], col_off[-1], num, den)


def quotient_matrix(mat: QMatrix, space: RowSpace) -> QMatrix:
    """Matrix of the map that mat induces on Q^n / space.

    The standard basis vectors at the free (non-pivot) columns of space span
    a complement, and the free columns, in order, index the rows and the
    columns of the result: column j is the image of the j-th free basis
    vector, reduced against space and read at the free columns.
    """
    if mat.rows != space.ncols or mat.cols != space.ncols:
        raise ValueError("matrix and subspace live in different dimensions")
    free = space.free_columns()
    index = {c: k for k, c in enumerate(free)}
    by_free, scale = space._complement()
    mrows = mat._num
    num = []
    for c in free:
        acc = {index[j]: x * scale for j, x in mrows[c].items() if j in index}
        for p, y in by_free.get(c, ()):
            for j, x in mrows[p].items():
                k = index.get(j)
                if k is not None:
                    acc[k] = acc.get(k, 0) - y * x
        num.append({k: x for k, x in acc.items() if x})
    return QMatrix(len(free), len(free), num, mat._den * scale)


# -- exact Gaussian elimination ---------------------------------------------


def rref(rows: Iterable[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form with unit pivots.

    Returns the nonzero rows (ordered by pivot column) and the pivot columns.
    The reduced echelon form of a row space is unique, so the result does not
    depend on the order of the rows.  Every row must have the length of the
    first; any other length is a ValueError.
    """
    space = None
    for row in rows:
        if space is None:
            space = RowSpace(len(row))
        space.add(row)
    return space.echelon() if space is not None else ([], [])


def _row_space(*mats: QMatrix) -> RowSpace:
    """The span of the rows of all the matrices, which must share a column count."""
    if not mats:
        raise ValueError("no matrix given")
    ncols = mats[0].cols
    if any(mat.cols != ncols for mat in mats):
        raise ValueError(f"column counts differ: {[mat.cols for mat in mats]}")
    space = RowSpace(ncols)
    for mat in mats:
        for row in mat._num:
            space._add(row)
    return space


def matrix_rank(*mats: QMatrix) -> int:
    """Rank of the matrices stacked one above the other."""
    return len(_row_space(*mats))


def kernel(*mats: QMatrix) -> list[Vector]:
    """Basis of the joint right null space, in the canonical free-column form.

    The matrices must share a column count; their joint kernel is the kernel
    of their stack, and its reduced echelon form is unique, so the result is
    the one the stacked matrix gives without building it.  For each
    non-pivot column f of the reduced echelon form the basis vector has a 1
    at position f and minus the echelon coefficients at the pivot positions;
    the list is ordered by f, which makes the output reproducible.
    """
    space = _row_space(*mats)
    by_free, scale = space._complement()
    basis: list[Vector] = []
    for f in space.free_columns():
        vec = [_ZERO] * space.ncols
        vec[f] = _ONE
        for p, x in by_free.get(f, ()):
            vec[p] = Fraction(-x, scale)
        basis.append(tuple(vec))
    return basis


def span_closure(mats: Sequence[QMatrix], vec: Sequence) -> RowSpace:
    """The smallest subspace that contains vec and is mapped into itself by
    every matrix in mats, as its RowSpace; callers test membership and take
    coordinates there.

    Each matrix is applied once to each vector that joins the span: those
    vectors span it, so their images lying in it make it invariant.  The
    reduced echelon form of a subspace is unique, so the result does not
    depend on the order in which images join the span.
    """
    space = RowSpace(len(vec))
    todo = [vec] if space.add(vec) else []
    while todo:
        joined = todo.pop()
        for mat in mats:
            image = mat.apply(joined)
            if space.add(image):
                todo.append(image)
    return space

