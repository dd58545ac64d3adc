"""Irreducible sl(2)-modules, tensor products and the canonical embeddings.

Weights here are plain non-negative integers (the highest weight k of the
(k+1)-dimensional irreducible V(k)); only the recoupling layer speaks in
twice-values.  Every matrix is in the divided-power basis F^r e / r! of
V(k), so E has superdiagonal (k, ..., 2, 1) and F has subdiagonal
(1, 2, ..., k); the block-matrix module realizations live in these
coordinates.  Only the integral coefficient formulas (TensorVector, iota,
_f_power_images and _iota_image) work in the plain coordinates F^r e, where
E acts by r(k+1-r) and F by 1; hom_embedding converts their output.

The library calls none of the following; each is a route a test compares
against: tensor and decompose (test_decompose_clebsch_gordan_sweep,
test_socle_factors_match_sl2_decompose), Sl2Rep.validate
(test_irrep_relations_hold) and exterior_square_components (against
decompose of V(m)xV(m)).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .exact import QMatrix, binomial, commutator, factorial, matrix_rank, triangle


class Sl2Rep(NamedTuple):
    """Matrices of h, e, f on a weight basis (h diagonal with integers)."""

    dim: int
    h: QMatrix
    e: QMatrix
    f: QMatrix

    def validate(self) -> None:
        for name, mat in (("h", self.h), ("e", self.e), ("f", self.f)):
            if mat.rows != self.dim or mat.cols != self.dim:
                raise ValueError(f"{name} is not {self.dim}x{self.dim}")
        diagonal_weights(self.h)
        failure = broken_relation(self.h, self.e, self.f)
        if failure:
            raise ValueError(failure)

    def weights(self) -> list[int]:
        return diagonal_weights(self.h)


def broken_relation(h: QMatrix, e: QMatrix, f: QMatrix) -> str | None:
    """The first of [h,e] = 2e, [h,f] = -2f, [e,f] = h that the matrices
    break, by name; None when all three hold."""
    if commutator(h, e) != 2 * e:
        return "[h,e] != 2e"
    if commutator(h, f) != -2 * f:
        return "[h,f] != -2f"
    if commutator(e, f) != h:
        return "[e,f] != h"
    return None


def diagonal_weights(h: QMatrix) -> list[int]:
    """The weights on the diagonal of h; ValueError unless h is diagonal with
    integer entries."""
    weights = []
    for i, row in enumerate(h.sparse_rows()):
        if any(j != i for j in row):
            raise ValueError("h is not diagonal")
        w = row.get(i, 0)
        if w.denominator != 1:
            raise ValueError("h has a non-integer weight")
        weights.append(int(w))
    return weights


def irrep(k: int) -> Sl2Rep:
    """The irreducible module V(k) of dimension k+1."""
    if k < 0:
        raise ValueError("highest weight must be non-negative")
    n = k + 1
    h = QMatrix.diagonal([k - 2 * r for r in range(n)])
    e_rows = [[0] * n for _ in range(n)]
    f_rows = [[0] * n for _ in range(n)]
    for r in range(1, n):
        e_rows[r - 1][r] = k + 1 - r
        f_rows[r][r - 1] = r
    return Sl2Rep(n, h, QMatrix.from_rows(e_rows), QMatrix.from_rows(f_rows))


def tensor(a: Sl2Rep, b: Sl2Rep) -> Sl2Rep:
    """Tensor product on the lexicographic (left index major) product basis."""
    da, db = a.dim, b.dim
    n = da * db
    ha, hb = a.weights(), b.weights()
    h = QMatrix.diagonal([ha[i] + hb[j] for i in range(da) for j in range(db)])

    def kron_sum(ma: QMatrix, mb: QMatrix) -> QMatrix:
        fa, fb = ma.to_fractions(), mb.to_fractions()
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(da):
            for j in range(db):
                r = i * db + j
                for i2 in range(da):
                    if fa[i2][i]:
                        rows[i2 * db + j][r] += fa[i2][i]
                for j2 in range(db):
                    if fb[j2][j]:
                        rows[i * db + j2][r] += fb[j2][j]
        return QMatrix.from_rows(rows)

    return Sl2Rep(n, h, kron_sum(a.e, b.e), kron_sum(a.f, b.f))


class TensorVector:
    """Vector in V(a) tensor V(b), plain coordinates F^r1 e tensor F^r2 e.

    Stored as the integer numerators of the nonzero coefficients over one
    positive denominator, so the F and E actions add and scale integers
    only; ``coeffs`` reads the coefficients as Fractions.
    """

    __slots__ = ("left_dim", "right_dim", "num", "den")

    def __init__(self, left_dim: int, right_dim: int, num: dict[tuple[int, int], int], den: int):
        self.left_dim = left_dim
        self.right_dim = right_dim
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> dict[tuple[int, int], Fraction]:
        return {key: Fraction(c, self.den) for key, c in self.num.items()}

    def is_zero(self) -> bool:
        return not any(self.num.values())

    def _shifted(self, terms) -> "TensorVector":
        out: dict[tuple[int, int], int] = {}
        for key, c in terms:
            out[key] = out.get(key, 0) + c
        num = {key: c for key, c in out.items() if c}
        return TensorVector(self.left_dim, self.right_dim, num, self.den)

    def apply_f(self) -> "TensorVector":
        """Leibniz action of F in plain coordinates (F F^r e = F^{r+1} e)."""
        da, db = self.left_dim, self.right_dim
        terms = []
        for (r1, r2), c in self.num.items():
            if r1 + 1 < da:
                terms.append(((r1 + 1, r2), c))
            if r2 + 1 < db:
                terms.append(((r1, r2 + 1), c))
        return self._shifted(terms)

    def apply_e(self) -> "TensorVector":
        """Leibniz action of E (E F^r e_k = r(k+1-r) F^{r-1} e_k)."""
        ka, kb = self.left_dim - 1, self.right_dim - 1
        terms = []
        for (r1, r2), c in self.num.items():
            if r1 > 0:
                terms.append(((r1 - 1, r2), c * r1 * (ka + 1 - r1)))
            if r2 > 0:
                terms.append(((r1, r2 - 1), c * r2 * (kb + 1 - r2)))
        return self._shifted(terms)

    def weight(self) -> int:
        """Common h-eigenvalue of the support; error if not homogeneous."""
        ka, kb = self.left_dim - 1, self.right_dim - 1
        ws = {ka - 2 * r1 + kb - 2 * r2 for r1, r2 in self.num}
        if len(ws) != 1:
            raise ValueError("vector is not a weight vector")
        return ws.pop()


def iota(k: int, a: int, b: int) -> TensorVector:
    """Highest weight vector of weight k inside V(a) tensor V(b).

    Coefficients in plain coordinates:
        sum_r (-1)^r  C(x, r) / C(x + k, a - r)  F^r e_a  tensor  F^{x-r} e_b
    with x = (a + b - k)/2.  Unique up to scale; this fixes the scale used by
    every composite map in the package.  The numerators share the lcm of the
    C(x + k, a - r).
    """
    if not triangle(a, b, k):
        raise ValueError(f"triangle condition fails for ({a}, {b}, {k})")
    x = (a + b - k) // 2
    dens = [binomial(x + k, a - r) for r in range(x + 1)]
    den = math.lcm(*dens)
    num = {
        (r, x - r): (-1) ** r * binomial(x, r) * (den // d) for r, d in enumerate(dens)
    }
    return TensorVector(a + 1, b + 1, num, den)


@functools.lru_cache(maxsize=1024)
def _f_power_images(k: int, a: int, b: int) -> tuple[tuple[dict[int, tuple[int, int]], ...], int]:
    """F^i iota(k, a, b) for i = 0..k, as integer numerators over one denominator.

    Each image is a weight vector, so its first slot fixes its second: image
    i maps r1 to (r2, numerator) for its nonzero coefficients.  This is the
    one place where F acts on iota.  Memoised, since a sweep contracts the
    same few embeddings many times over; callers must not mutate the shared
    result.
    """
    w = iota(k, a, b)
    images = []
    for i in range(k + 1):
        images.append(_by_first_slot(w))
        if i < k:
            w = w.apply_f()
    return tuple(images), w.den


@functools.lru_cache(maxsize=4096)
def _iota_image(k: int, a: int, b: int) -> tuple[dict[int, tuple[int, int]], int]:
    """Image 0 of _f_power_images(k, a, b), iota itself, without the F-powers.

    For callers that read only the highest weight vector: memoised apart, so
    they neither build the other k images nor evict the entries of
    _f_power_images that other callers reuse.  The bound holds the 2,119
    triangles that verify-classify meets at m <= 12, weights <= 24.
    """
    w = iota(k, a, b)
    return _by_first_slot(w), w.den


def _by_first_slot(w: TensorVector) -> dict[int, tuple[int, int]]:
    return {r1: (r2, c) for (r1, r2), c in w.num.items()}


def hom_embedding(m: int, b: int, a: int) -> tuple[QMatrix, ...]:
    """Equivariant map V(m) -> Hom(V(b), V(a)) as m+1 explicit matrices.

    Image of the weight basis v_0, ..., v_m (v_i = F^i v_0 / i!), realized by
    composing the embedding V(m) -> V(a) tensor V(b) with the contraction
    V(b) -> V(b)*, F^r e |-> (-1)^r (F^{b-r} e)*.  The returned matrices satisfy
        [rep_a(x) , M_i] - M_i shifted = image of x . v_i
    for every generator x.  They are read in int off the F-power images of
    iota: entry (r1, b - r2) of M_i is (-1)^r2 times the (r1, r2) coefficient
    of F^i iota / i!, and the change to the divided-power basis scales it by
    r1! / (b - r2)!, taken as the integer r1! * b! / (b - r2)! over an extra b!.
    Not memoised: its one caller, constructions.radical_blocks, is.
    """
    images, den = _f_power_images(m, a, b)
    row_scale = [factorial(r) for r in range(a + 1)]
    col_scale = [factorial(b) // factorial(s) for s in range(b + 1)]
    den *= factorial(b)
    mats = []
    for i, image in enumerate(images):
        rows: list[dict[int, int]] = [{} for _ in range(a + 1)]
        for r1, (r2, c) in image.items():
            s = b - r2
            rows[r1][s] = (-c if r2 & 1 else c) * row_scale[r1] * col_scale[s]
        mats.append(QMatrix(a + 1, b + 1, rows, den * factorial(i)))
    return tuple(mats)


def decompose(rep: Sl2Rep) -> dict[int, int]:
    """Multiplicities of the irreducible constituents, keyed by highest weight.

    Computed from highest weight vectors: the multiplicity of V(k) is the
    dimension of the kernel of e restricted to the weight-k eigenspace of h.
    The library reads factors off weight multiplicities (`constituents`);
    this e-rank route stays as the tests' independent reference for those
    factors and as a traced target of the benchmark.
    """
    ws = rep.weights()
    e_fr = rep.e.to_fractions()
    out: dict[int, int] = {}
    for k in sorted({w for w in ws if w >= 0}, reverse=True):
        cols = [i for i, w in enumerate(ws) if w == k]
        sub = QMatrix.from_rows([[e_fr[i][j] for j in cols] for i in range(rep.dim)])
        mult = len(cols) - matrix_rank(sub)
        if mult:
            out[k] = mult
    if sum((k + 1) * n for k, n in out.items()) != rep.dim:
        raise ValueError("weight structure is inconsistent with a semisimple module")
    return out


def constituents(weight_dims: dict[int, int]) -> dict[int, int]:
    """Multiplicities of the irreducible constituents of a module, keyed by
    highest weight (highest first), from the dimensions of its weight spaces."""
    out = {}
    for k in sorted((w for w in weight_dims if w >= 0), reverse=True):
        mult = weight_dims[k] - weight_dims.get(k + 2, 0)
        if mult:
            out[k] = mult
    return out


def symmetric_power_components(m: int, i: int) -> dict[int, int]:
    """Irreducible constituents of the i-th symmetric power of V(m)."""
    counts: dict[int, int] = {}
    for combo in itertools.combinations_with_replacement(range(m + 1), i):
        w = i * m - 2 * sum(combo)
        counts[w] = counts.get(w, 0) + 1
    return constituents(counts)


def exterior_square_components(m: int) -> set[int]:
    """Highest weights occurring in the exterior square of V(m).

    Closed form {k : 0 <= k <= 2m-2, k = 2m-2 mod 4}, cross-checked against
    the explicit antisymmetric subspace of V(m) tensor V(m).
    """
    closed = {k for k in range(0, max(2 * m - 1, 0)) if (2 * m - 2 - k) % 4 == 0}
    counts: dict[int, int] = {}
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            w = 2 * m - 2 * i - 2 * j
            counts[w] = counts.get(w, 0) + 1
    explicit = set(constituents(counts))
    if explicit != closed:
        raise AssertionError(f"exterior square mismatch for m={m}: {explicit} vs {closed}")
    return closed
