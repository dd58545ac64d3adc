"""Exact sparse rational linear algebra: matrices, row spaces, echelon forms,
kernels, quotients and span closures.

No floating point ever enters a computation.  Matrices and echelon bases
hold the integer numerators of their nonzero entries only, so products and
eliminations skip zeros and never build a Fraction; Fractions appear where
values enter or leave.  A subspace is read only through its RowSpace
(membership, coordinates, echelon rows, the complement at the free columns),
against the integer rows it holds, so no basis is parsed back from
Fractions.  Every type except the growing RowSpace is immutable after
construction and all functions are pure, which makes everything safe to use
from parallel workers.  A vector entry is an int or a Fraction: a float or a
string is a TypeError, not its binary value or its parse.

The scalars live in two smaller modules, split by who runs them, so that a
launch compiles only what its command needs: `twoj` (twice-value checks,
the triangle condition, binomial, factorial, rational parsing), which every
layer uses, and `surd` (quadratic surds and SqrtRational), which only the
recoupling layers use; read their names there.  This module uses neither.
`SqrtRational` alone still resolves here, for the benchmark's tracer, which
wraps `exact.SqrtRational.sqrt_of` (until ROADMAP item 1 retires it).  It is
looked up in `surd` on access (PEP 562), so the linear algebra does not load
the surds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

# the one name of surd that still resolves here, for the benchmark's tracer;
# each access looks it up in surd
_SURD_NAMES = frozenset({"SqrtRational"})


def __getattr__(name: str):
    if name not in _SURD_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import surd

    return getattr(surd, name)


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

