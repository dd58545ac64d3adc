"""Admissibility of socle-factor sequences, composite-image computations and
the verification of the scalar identity lambda = C * 6j.

A sequence V(a_1), ..., V(a_n) is admissible when some uniserial module of
sl(2) semidirect V(m) has exactly those socle factors.  The closed-form
decision implemented here (and checked in the tests against the brute-force
commutator oracle) is: a single factor; any pair joined by a triangle with m;
arithmetic progressions with increment m of any length; the exceptional
length-3 sequences V(0), V(m), V(c) with c <= 2m, c = 2m mod 4; and the
self-dual length-4 family V(0), V(m), V(m), V(0) for m divisible by 4, the
only case with a one-parameter module family.  Everything is closed under
reversal.

The bridge to recoupling theory: for f: V(p) -> Hom(V(b), V(a)) and
g: V(q) -> Hom(V(c), V(b)), the composite image contains V(k) iff the
6j-symbol {q/2 k/2 p/2; a/2 b/2 c/2} is non-zero, and the proportionality
scalar of the composed equivariant map is that 6j-symbol times an explicit
non-zero factor C.  Both facts are verified here by independent tensor
computations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import sl2
from .constructions import build_from_sequence
from .exact import (
    QMatrix,
    SqrtRational,
    _check_twoj,
    _triangle,
    binomial,
    factorial,
    matrix_rank,
    span_dimension,
    triangle,
)
from .gmod import GRep
from .sl2 import _f_power_images, iota
from .wigner import _delta_surd, _surd_product, cgc, delta, sixj, sixj_tuples, sweep

NOT_ADMISSIBLE = "NotAdmissible"
UNIQUE_MODULE = "UniqueModule"
ONE_PARAMETER_FAMILY = "OneParameterFamily"


@dataclass(frozen=True)
class AdmissibleVerdict:
    status: str
    witness: str | None = None

    @property
    def admissible(self) -> bool:
        return self.status != NOT_ADMISSIBLE


def _oriented_rule(seq: list[int], m: int) -> tuple[str, str] | None:
    n = len(seq)
    if n == 1:
        return UNIQUE_MODULE, "irreducible"
    if all(seq[i + 1] - seq[i] == m for i in range(n - 1)):
        return UNIQUE_MODULE, "arithmetic-progression"
    if n == 2:
        if triangle(seq[0], seq[1], m):
            return UNIQUE_MODULE, "length2-triangle"
        return None
    if n == 3:
        a, b, c = seq
        if a == 0 and b == m and c <= 2 * m and (2 * m - c) % 4 == 0:
            return UNIQUE_MODULE, "length3-exceptional"
        return None
    if n == 4 and seq == [0, m, m, 0] and m % 4 == 0:
        return ONE_PARAMETER_FAMILY, "z-family"
    return None


def is_admissible(seq, m: int) -> AdmissibleVerdict:
    """Closed-form admissibility decision, up to reversal of the sequence."""
    seq = [int(a) for a in seq]
    if not seq:
        raise ValueError("the sequence must be non-empty")
    if any(a < 0 for a in seq):
        raise ValueError("socle factors must be non-negative")
    if m < 1:
        raise ValueError("the radical weight m must be positive")
    hit = _oriented_rule(seq, m) or _oriented_rule(seq[::-1], m)
    if hit is None:
        return AdmissibleVerdict(NOT_ADMISSIBLE)
    return AdmissibleVerdict(*hit)


def length3_condition3(a: int, b: int, c: int, m: int) -> bool:
    """6j-vanishing form of length-3 admissibility.

    The sequence V(a), V(b), V(c) is admissible iff {m/2 k/2 m/2; a/2 b/2 c/2}
    vanishes for every k = 2m-2 mod 4 (beyond k = 2m the symbol is zero by
    definition, so only finitely many k matter).
    """
    if not triangle(a, b, m) or not triangle(b, c, m):
        raise ValueError(f"triangle conditions fail for [{a}, {b}, {c}] with m={m}")
    start = (2 * m - 2) % 4
    for k in range(start, 2 * m + 1, 4):
        if not sixj(m, k, m, a, b, c, cross_check=False).is_zero:
            return False
    return True


# -- composite images -----------------------------------------------------------


def _graded_span_components(members: list[tuple[int, QMatrix]]) -> set[int]:
    """Irreducible constituents of a module spanned by weight vectors, given
    as (weight, matrix) pairs; only the weights >= 0 are read."""
    by_weight: dict[int, list[QMatrix]] = {}
    for w, mat in members:
        by_weight.setdefault(w, []).append(mat)
    return set(sl2.constituents({w: span_dimension(mats) for w, mats in by_weight.items()}))


def compute_I_J(a: int, b: int, c: int, p: int, q: int) -> tuple[list[int], list[int] | None]:
    """Constituents of the composite image V(p) x V(q) -> Hom(V(c), V(a)).

    I lists the k with V(k) in the image of the full product map; when p = q,
    J lists the constituents coming from the alternating square, which are
    exactly the members of I with k = 2p-2 mod 4.  Both are also recomputed
    from the explicit span of products of embedding matrices, and any
    mismatch raises.
    """
    if not triangle(p, a, b):
        raise ValueError(f"triangle condition fails for ({p}, {a}, {b})")
    if not triangle(q, b, c):
        raise ValueError(f"triangle condition fails for ({q}, {b}, {c})")
    lo = max(abs(p - q), abs(a - c))
    hi = min(p + q, a + c)
    candidates = [
        k
        for k in range(lo, hi + 1)
        if triangle(k, p, q) and triangle(k, a, c)
    ]
    image = [
        k for k in candidates if not sixj(q, k, p, a, b, c, cross_check=False).is_zero
    ]
    alternating = None
    if p == q:
        alternating = [k for k in image if (2 * p - 2 - k) % 4 == 0]
    f = sl2.hom_embedding(p, b, a, sl2.DIVIDED_POWER)
    g = sl2.hom_embedding(q, c, b, sl2.DIVIDED_POWER)

    # sl2.constituents reads no negative weight, so no product is built there
    weights = {(i, j): (p - 2 * i) + (q - 2 * j) for i in range(p + 1) for j in range(q + 1)}
    products = {(i, j): f[i] * g[j] for (i, j), w in weights.items() if w >= 0}
    members = [(weights[ij], mat) for ij, mat in products.items()]
    if set(image) != _graded_span_components(members):
        raise AssertionError(f"composite image mismatch at {(a, b, c, p, q)}")
    if p == q:
        alt_members = [
            (weights[(i, j)], products[(i, j)] - products[(j, i)])
            for i, j in products
            if i < j
        ]
        if set(alternating) != _graded_span_components(alt_members):
            raise AssertionError(f"alternating image mismatch at {(a, b, c, p, q)}")
    return image, alternating


# -- the scalar of the composed map ----------------------------------------------


def _require_four_triangles(a, b, c, p, q, k) -> None:
    _check_twoj(a, b, c, p, q, k)
    if not (
        _triangle(k, p, q) and _triangle(p, a, b) and _triangle(q, b, c) and _triangle(k, a, c)
    ):
        raise ValueError(
            f"the four triangle conditions fail for (a,b,c,p,q,k)={(a, b, c, p, q, k)}"
        )


def lambda_phi(a: int, b: int, c: int, p: int, q: int, k: int) -> Fraction:
    """Proportionality scalar of the composed map V(k) -> V(a) tensor V(c).

    Computed by brute tensor expansion: push the canonical highest weight
    vector through V(p) tensor V(q), embed both slots, contract the middle
    V(b) pair, and compare against the canonical highest weight vector of
    V(a) tensor V(c) coefficient by coefficient.  The expansion runs on
    integer numerators; the comparison cross-multiplies them.
    Non-proportionality is an internal error.
    """
    _require_four_triangles(a, b, c, p, q, k)
    left, left_den = _f_power_images(p, a, b)
    right, right_den = _f_power_images(q, b, c)
    top, top_den = _f_power_images(k, p, q)
    target, target_den = _f_power_images(k, a, c)
    phi: dict[tuple[int, int], int] = {}
    for r1, (r2, coeff) in top[0].items():
        lookup = right[r2]
        for i, (r, ca) in left[r1].items():
            hit = lookup.get(b - r)
            if hit is not None:
                n, cb = hit
                term = coeff * ca * cb
                phi[(i, n)] = phi.get((i, n), 0) + (-term if r & 1 else term)
    (i0, (n0, tv0)), *rest = target[0].items()
    pv0 = phi.pop((i0, n0), 0)
    # phi / (top_den * left_den * right_den) = lam * target / target_den
    for i, (n, tv) in rest:
        if phi.pop((i, n), 0) * tv0 != pv0 * tv:
            raise RuntimeError(f"composed image is not proportional at {(a, b, c, p, q, k)}")
    if any(phi.values()):
        raise RuntimeError(f"composed image is not proportional at {(a, b, c, p, q, k)}")
    return Fraction(pv0 * target_den, tv0 * top_den * left_den * right_den)


def c_factor(a: int, b: int, c: int, p: int, q: int, k: int) -> SqrtRational:
    """The explicit non-zero factor C with lambda = C * {q/2 k/2 p/2; a/2 b/2 c/2}.

    C = sign * (p+q+k+2)(a+b+p+2)(b+c+q+2) / (4 (a+c+k+2))
          * Delta(a,b,p) Delta(p,q,k) Delta(b,c,q) / Delta(a,c,k),
    assembled in int from the four memoised Delta surds.
    """
    _require_four_triangles(a, b, c, p, q, k)
    x_ac = (a + c - k) // 2
    sign = -1 if (x_ac + b + k) & 1 else 1
    # 1 / (t/d sqrt(s)) = d/(t s) sqrt(s)
    t4, d4, s4 = _delta_surd(a, c, k)
    n, d, rad = _surd_product(
        (_delta_surd(a, b, p), _delta_surd(p, q, k), _delta_surd(b, c, q), (d4, t4 * s4, s4))
    )
    n *= sign * (p + q + k + 2) * (a + b + p + 2) * (b + c + q + 2)
    d *= 4 * (a + c + k + 2)
    return SqrtRational(Fraction(n, d), rad)


@dataclass(frozen=True)
class LambdaReport:
    a: int
    b: int
    c: int
    p: int
    q: int
    k: int
    lam: Fraction
    c_factor: SqrtRational
    sixj: SqrtRational
    product: SqrtRational
    agrees: bool


def verify_scalar_theorem(
    a: int, b: int, c: int, p: int, q: int, k: int, cross_check_sixj: bool = True
) -> LambdaReport:
    """Compare the tensor-expansion scalar with C times the 6j-symbol."""
    lam = lambda_phi(a, b, c, p, q, k)
    cf = c_factor(a, b, c, p, q, k)
    sj = sixj(q, k, p, a, b, c, cross_check=cross_check_sixj)
    product = cf * sj
    agrees = product.is_rational and product.as_fraction() == lam
    return LambdaReport(a, b, c, p, q, k, lam, cf, sj, product, agrees)


def binomial_identity_check(x: int, y: int, z: int) -> bool:
    """sum_r C(x+r, r) C(y-r, z-r) = C(x+y+1, z), summed over 0 <= r <= z."""
    if x < 0 or z < 0 or y < z:
        raise ValueError("need x >= 0 and y >= z >= 0")
    lhs = sum(binomial(x + r, r) * binomial(y - r, z - r) for r in range(z + 1))
    return lhs == binomial(x + y + 1, z)


def cgc_iota_bridge(a: int, b: int, k: int) -> bool:
    """Tie Clebsch-Gordan coefficients to the canonical embedding exactly.

    In the normalized basis M_{j,mu} = sqrt((j+mu)!/(j-mu)!) F^{j-mu} e, the
    map M_{j,mu} -> sum C^{j,mu} M_{j1,mu1} x M_{j2,mu2} equals the canonical
    embedding scaled by sqrt(2j+1) / ((j1+j2+j+1) Delta(j1,j2,j)); this
    compares the two coefficient by coefficient for every mu.

    The normalising roots here go through SqrtRational.sqrt_of on purpose:
    cgc takes its prefactor from exact.factorial_surd, and the same routine
    on both sides would make the check one route instead of two.
    """
    if not triangle(a, b, k):
        raise ValueError(f"triangle condition fails for ({a}, {b}, {k})")
    images, den = _f_power_images(k, a, b)
    scale = (
        SqrtRational.sqrt_of(k + 1) * Fraction(2, a + b + k + 2)
    ) / delta(a, b, k)
    for tmu in range(-k, k + 1, 2):
        img = images[(k - tmu) // 2]
        common = scale * SqrtRational.sqrt_of(
            Fraction(factorial((k + tmu) // 2), factorial((k - tmu) // 2))
        )
        for r1 in range(a + 1):
            img_r2, img_num = img.get(r1, (None, 0))
            for r2 in range(b + 1):
                tm1, tm2 = a - 2 * r1, b - 2 * r2
                rhs = common * (Fraction(img_num, den) if r2 == img_r2 else 0)
                if tm1 + tm2 != tmu:
                    lhs = SqrtRational(Fraction(0))
                else:
                    lhs = cgc(a, tm1, b, tm2, k, tmu) * SqrtRational.sqrt_of(
                        Fraction(
                            factorial((a + tm1) // 2) * factorial((b + tm2) // 2),
                            factorial((a - tm1) // 2) * factorial((b - tm2) // 2),
                        )
                    )
                if lhs != rhs:
                    return False
    return True


# -- recoupling transition verification --------------------------------------------


def _triple_tensor(a, b, c, k, mid, slot: int) -> dict:
    """Nonzero coefficients on e_k of the map V(k) -> V(a) tensor V(b) tensor V(c)
    coupled through V(mid): iota_k^{mid,c} then (iota_mid^{a,b} tensor 1) for
    slot 0, iota_k^{a,mid} then (1 tensor iota_mid^{b,c}) for slot 1."""
    outer = (mid, c) if slot == 0 else (a, mid)
    inner = (a, b) if slot == 0 else (b, c)
    images, den = _f_power_images(mid, *inner)
    top = iota(k, *outer)
    out: dict[tuple[int, int, int], int] = {}
    for rs, coeff in top.num.items():
        for r1, (r2, cv) in images[rs[slot]].items():
            key = rs[:slot] + (r1, r2) + rs[slot + 1 :]
            out[key] = out.get(key, 0) + coeff * cv
    den *= top.den
    return {key: Fraction(n, den) for key, n in out.items() if n}


def verify_recoupling(a: int, b: int, c: int, k: int) -> bool:
    """Check that 6j-symbols are the transition coefficients between the two
    coupled bases of maps V(k) -> V(a) tensor V(b) tensor V(c).

    The right-coupled maps, one per admissible intermediate q, must be
    linearly independent.  For each admissible intermediate p, the
    left-coupled map must then equal the sum over q of the right-coupled
    maps times their predicted coefficients, each built from the 6j-symbol,
    two Delta ratios and the explicit sign and dimension factors; an
    irrational prediction fails.
    """
    ps = [
        p
        for p in range(abs(a - b), a + b + 1)
        if triangle(a, b, p) and triangle(p, c, k)
    ]
    qs = [
        q
        for q in range(abs(b - c), b + c + 1)
        if triangle(b, c, q) and triangle(a, q, k)
    ]
    if not ps or not qs:
        raise ValueError(f"V({k}) does not occur in V({a}) x V({b}) x V({c})")
    right = [_triple_tensor(a, b, c, k, q, 1) for q in qs]
    keys = sorted(set().union(*right))
    if matrix_rank(QMatrix.from_rows([[v.get(key, 0) for key in keys] for v in right])) < len(qs):
        return False
    for p in ps:
        l_sign = -1 if ((a - b - c + k) // 2) & 1 else 1
        l_fac = SqrtRational(
            Fraction(l_sign * 4, (a + b + p + 2) * (p + c + k + 2))
        ) / (delta(a, b, p) * delta(p, c, k))
        combined: dict[tuple[int, int, int], Fraction] = {}
        for q, vec in zip(qs, right):
            r_sign = -1 if q & 1 else 1
            r_fac = SqrtRational(
                Fraction(r_sign * 4 * (q + 1), (b + c + q + 2) * (a + q + k + 2))
            ) / (delta(b, c, q) * delta(a, q, k))
            predicted = (r_fac * sixj(a, b, p, c, k, q)) / l_fac
            if not predicted.is_rational:
                return False
            coeff = predicted.as_fraction()
            for key, x in vec.items():
                combined[key] = combined.get(key, 0) + coeff * x
        if {key: x for key, x in combined.items() if x} != _triple_tensor(a, b, c, k, p, 0):
            return False
    return True


# -- sweep drivers ------------------------------------------------------------------


def scalar_theorem_tuples(max_val: int) -> list[tuple[int, int, int, int, int, int]]:
    """All (a,b,c,p,q,k) with entries <= max_val passing the four triangles.

    These are the tuples of {q k p; a b c}, relabelled and listed in the
    order of (a, b, p, c, q, k).  A negative bound is an error, not an
    empty box that every row vacuously satisfies.
    """
    if max_val < 0:
        raise ValueError(f"the twice-value bound must be non-negative, got {max_val}")
    tuples = [(a, b, c, p, q, k) for q, k, p, a, b, c in sixj_tuples((max_val,) * 6)]
    return sorted(tuples, key=lambda t: (t[0], t[1], t[3], t[2], t[4], t[5]))


def _scalar_task(tuples) -> list[LambdaReport]:
    return [verify_scalar_theorem(*t, cross_check_sixj=False) for t in tuples]


def verify_scalar_sweep(max_val: int, jobs: int | None = 1) -> list[LambdaReport]:
    """verify_scalar_theorem over the whole box; deterministic order."""
    tuples = scalar_theorem_tuples(max_val)
    tasks = [list(g) for _, g in itertools.groupby(tuples, key=lambda t: t[:2])]
    return [report for chunk in sweep(_scalar_task, tasks, jobs) for report in chunk]


@dataclass(frozen=True)
class ClassificationRow:
    m: int
    a: int
    b: int
    c: int
    closed_form: bool
    sixj_vanishing: bool
    alternating_image_empty: bool
    assembly_succeeds: bool

    @property
    def consistent(self) -> bool:
        return (
            self.closed_form
            == self.sixj_vanishing
            == self.alternating_image_empty
            == self.assembly_succeeds
        )


def classification_tuples(max_m: int, max_weight: int) -> list[tuple[int, int, int, int]]:
    """Every (m, a, b, c) with 1 <= m <= max_m, weights <= max_weight and
    a, c in the decomposition of V(b) x V(m).  An empty box is an error; it
    is empty exactly when max_m < 1 or max_weight < 1 (b = 0 forces a >= m,
    and (1, 1, 0, 1) lies in every other box)."""
    if max_m < 1 or max_weight < 1:
        raise ValueError(
            f"need max_m >= 1 and max_weight >= 1, got max_m={max_m}, max_weight={max_weight}"
        )
    # m > 2 * max_weight would need a, c >= m - b > max_weight: no tuple
    return [
        (m, a, b, c)
        for m in range(1, min(max_m, 2 * max_weight) + 1)
        for b in range(max_weight + 1)
        for a in range(abs(b - m), min(b + m, max_weight) + 1, 2)
        for c in range(abs(b - m), min(b + m, max_weight) + 1, 2)
    ]


def classification_row(m: int, a: int, b: int, c: int) -> ClassificationRow:
    closed = is_admissible([a, b, c], m).admissible
    vanishing = length3_condition3(a, b, c, m)
    _, alternating = compute_I_J(a, b, c, m, m)
    built = build_from_sequence([a, b, c], m)
    return ClassificationRow(
        m, a, b, c, closed, vanishing, alternating == [], isinstance(built, GRep)
    )


def _classification_task(tuples) -> list[ClassificationRow]:
    return [classification_row(*t) for t in tuples]


def classification_sweep(
    max_m: int, max_weight: int, jobs: int | None = 1
) -> list[ClassificationRow]:
    """Three-way check of the length-3 classification over the whole box."""
    tuples = classification_tuples(max_m, max_weight)
    tasks = [list(g) for _, g in itertools.groupby(tuples, key=lambda t: (t[0], t[2]))]
    return [row for chunk in sweep(_classification_task, tasks, jobs) for row in chunk]
