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
non-zero factor C.  compute_I_J reads the composite image off lambda, an
integer tensor contraction, and checks it against the non-zero 6j-symbols;
verify_scalar_theorem compares lambda with C times the 6j-symbol.  Both
compute_I_J and length3_condition3 ask wigner.sixj_is_zero whether a
6j-symbol vanishes.  Every run of weights that must close triangles (the k
of a composite image, the intermediates of a recoupling, the a and c of the
classification box) is twoj._couplings.

The two sides of lambda = C * 6j stay two routes: lambda comes from the
tensor contraction, C * 6j from the Delta surds and the Racah sum.  The
scalar sweep takes each in integers, lambda as (num, den) and C, 6j and
their product as (n, d, rad) for n/d * sqrt(rad).  It reads the 6j as the
fields of wigner.sixj's value, which the Regge class memo holds once per
class, and lambda and C through the ints=True forms of lambda_phi and
c_factor: their values are new on every row, so a value object per row
would cost time, and the benchmark's tracer counts the two by these public
names.  It compares them in reduced ints and writes each row with
surd._surd_text, the text that str(SqrtRational) and so the report's
csv() print.

Only classification_row builds modules, so it alone imports gmod and
constructions, on its first call: the other commands never load them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .exact import QMatrix, matrix_rank
from .surd import SqrtRational, _surd, _surd_product, _surd_text
from .twoj import _check_bound, _check_radical_weight, _check_twoj, _couplings
from .twoj import _require_triangle, binomial, factorial, triangle
from .sl2 import _f_power_images, _iota_image, iota
from .wigner import _delta_surd, cgc, delta, sixj, sixj_is_zero
from .wigner import sixj_triangles_hold, sixj_tuples, sweep

NOT_ADMISSIBLE = "NotAdmissible"
UNIQUE_MODULE = "UniqueModule"
ONE_PARAMETER_FAMILY = "OneParameterFamily"


class AdmissibleVerdict(NamedTuple):
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
    seq = list(seq)
    _check_twoj(*seq, m, signed=True)
    if not seq:
        raise ValueError("the sequence must be non-empty")
    if any(a < 0 for a in seq):
        raise ValueError("socle factors must be non-negative")
    _check_radical_weight(m)
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
        if not sixj_is_zero((m, k, m, a, b, c)):
            return False
    return True


# -- composite images -----------------------------------------------------------


def compute_I_J(a: int, b: int, c: int, p: int, q: int) -> tuple[list[int], list[int] | None]:
    """Constituents of the composite image V(p) x V(q) -> Hom(V(c), V(a)).

    The composite acts on V(k) by the scalar lambda_phi, which is C times
    {q/2 k/2 p/2; a/2 b/2 c/2} with C non-zero, so I lists the k with lambda
    non-zero.  When p = q, J lists the constituents coming from the
    alternating square of V(p), which holds each V(k) with k = 2p-2 mod 4
    once: the members of I in that class.  I is checked against the k with
    a non-zero 6j-symbol, and a mismatch raises.
    """
    _require_triangle(p, a, b)
    _require_triangle(q, b, c)
    candidates = _couplings((p, q), (a, c))
    image = [k for k in candidates if lambda_phi(a, b, c, p, q, k, ints=True)[0]]
    if image != [k for k in candidates if not sixj_is_zero((q, k, p, a, b, c))]:
        raise AssertionError(f"composite image mismatch at {(a, b, c, p, q)}")
    if p != q:
        return image, None
    return image, [k for k in image if (2 * p - 2 - k) % 4 == 0]


# -- the scalar of the composed map ----------------------------------------------


def _require_four_triangles(a, b, c, p, q, k) -> None:
    _check_twoj(a, b, c, p, q, k)
    # the four triangles of {q k p; a b c}: (k,p,q), (q,b,c), (a,k,c), (a,b,p)
    if not sixj_triangles_hold((q, k, p, a, b, c)):
        raise ValueError(
            f"the four triangle conditions fail for (a,b,c,p,q,k)={(a, b, c, p, q, k)}"
        )


def lambda_phi(
    a: int, b: int, c: int, p: int, q: int, k: int, *, ints: bool = False
) -> Fraction | tuple[int, int]:
    """Proportionality scalar of the composed map V(k) -> V(a) tensor V(c).

    Computed by brute tensor expansion: push the canonical highest weight
    vector through V(p) tensor V(q), embed both slots, contract the middle
    V(b) pair, and compare against the canonical highest weight vector of
    V(a) tensor V(c) coefficient by coefficient.  The expansion runs on
    integer numerators; the comparison cross-multiplies them.
    Non-proportionality is an internal error.  With ints on, returns the
    scalar as (num, den), coprime with den > 0, in place of the Fraction.
    """
    _require_four_triangles(a, b, c, p, q, k)
    left, left_den = _f_power_images(p, a, b)
    right, right_den = _f_power_images(q, b, c)
    top, top_den = _iota_image(k, p, q)
    target, target_den = _iota_image(k, a, c)
    phi: dict[tuple[int, int], int] = {}
    for r1, (r2, coeff) in top.items():
        lookup = right[r2]
        for i, (r, ca) in left[r1].items():
            hit = lookup.get(b - r)
            if hit is not None:
                n, cb = hit
                term = coeff * ca * cb
                phi[(i, n)] = phi.get((i, n), 0) + (-term if r & 1 else term)
    (i0, (n0, tv0)), *rest = target.items()
    pv0 = phi.pop((i0, n0), 0)
    # phi / (top_den * left_den * right_den) = lam * target / target_den
    for i, (n, tv) in rest:
        if phi.pop((i, n), 0) * tv0 != pv0 * tv:
            raise RuntimeError(f"composed image is not proportional at {(a, b, c, p, q, k)}")
    if any(phi.values()):
        raise RuntimeError(f"composed image is not proportional at {(a, b, c, p, q, k)}")
    num, den = pv0 * target_den, tv0 * top_den * left_den * right_den
    if not ints:
        return Fraction(num, den)
    g = gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


def c_factor(
    a: int, b: int, c: int, p: int, q: int, k: int, *, ints: bool = False
) -> SqrtRational | tuple[int, int, int]:
    """The explicit non-zero factor C with lambda = C * {q/2 k/2 p/2; a/2 b/2 c/2}.

    C = sign * (p+q+k+2)(a+b+p+2)(b+c+q+2) / (4 (a+c+k+2))
          * Delta(a,b,p) Delta(p,q,k) Delta(b,c,q) / Delta(a,c,k),
    assembled in int from the four memoised Delta surds.  With ints on,
    returns the fields (n, d, rad) of C = n/d * sqrt(rad) in place of the
    SqrtRational: n, d coprime and d > 0.
    """
    _require_four_triangles(a, b, c, p, q, k)
    x_ac = (a + c - k) // 2
    sign = -1 if (x_ac + b + k) & 1 else 1
    # dividing by Delta(a,c,k) = t/d sqrt(s) multiplies by d/(t s) sqrt(s)
    t4, d4, s4 = _delta_surd(a, c, k)
    num = sign * (p + q + k + 2) * (a + b + p + 2) * (b + c + q + 2) * d4
    deltas = (_delta_surd(a, b, p), _delta_surd(p, q, k), _delta_surd(b, c, q))
    fields = _surd_product((*deltas, (num, 4 * (a + c + k + 2) * t4 * s4, s4)))
    return fields if ints else _surd(fields)


class ScalarInts(NamedTuple):
    """One tuple's lambda as (num, den), and C, the 6j-symbol and their
    product as (n, d, rad), each n/d * sqrt(rad); lambda and the product are
    reduced, with the product (0, 1, 1) when it vanishes."""

    lam: tuple[int, int]
    c_factor: tuple[int, int, int]
    sixj: tuple[int, int, int]
    product: tuple[int, int, int]
    agrees: bool


def _scalar_ints(
    a: int, b: int, c: int, p: int, q: int, k: int, cross_check_sixj: bool = True
) -> ScalarInts:
    """lambda from the tensor contraction and C * {q k p; a b c} from the
    Delta surds and the Racah sum: two routes, compared in reduced ints."""
    lam = lambda_phi(a, b, c, p, q, k, ints=True)
    cf = c_factor(a, b, c, p, q, k, ints=True)
    sj = sixj(q, k, p, a, b, c, cross_check=cross_check_sixj).fields
    product = _surd_product((cf, sj))
    return ScalarInts(lam, cf, sj, product, product[2] == 1 and product[:2] == lam)


def _csv_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _scalar_csv(t, s: ScalarInts) -> str:
    """The CSV line of tuple t and its values s, under LambdaReport.CSV_HEADER."""
    a, b, c, p, q, k = t
    return (
        f"{a},{b},{c},{p},{q},{k},{_surd_text(*s.lam)},{_surd_text(*s.c_factor)},"
        f"{_surd_text(*s.sixj)},{_surd_text(*s.product)},{_csv_bool(s.agrees)}"
    )


class LambdaReport(NamedTuple):
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

    CSV_HEADER = "a,b,c,p,q,k,lambda,c_factor,sixj,product,agrees"

    def csv(self) -> str:
        """The report as one line under CSV_HEADER."""
        return ",".join(map(str, self[:10])) + "," + _csv_bool(self.agrees)


def verify_scalar_theorem(a: int, b: int, c: int, p: int, q: int, k: int) -> LambdaReport:
    """Compare the tensor-expansion scalar with C times the cross-checked 6j-symbol."""
    s = _scalar_ints(a, b, c, p, q, k)
    surds = map(_surd, s[1:4])
    return LambdaReport(a, b, c, p, q, k, Fraction(*s.lam), *surds, s.agrees)


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
    cgc takes its prefactor from surd.factorial_surd, and the same routine
    on both sides would make the check one route instead of two.
    """
    _require_triangle(a, b, k)
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
                    lhs = SqrtRational(0)
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
    ps = _couplings((a, b), (c, k))
    qs = _couplings((b, c), (a, k))
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

# A sweep's result row: its CSV line and its verdict.  The workers format the
# lines, so only str and bool travel back from the pool.
CsvRow = tuple[str, bool]


def scalar_theorem_tuples(max_val: int) -> list[tuple[int, int, int, int, int, int]]:
    """All (a,b,c,p,q,k) with entries <= max_val passing the four triangles.

    These are the tuples of {q k p; a b c}, relabelled and listed in the
    order of (a, b, p, c, q, k).  A negative bound is an error, not an
    empty box that every row vacuously satisfies.
    """
    _check_bound(max_val)
    tuples = [(a, b, c, p, q, k) for q, k, p, a, b, c in sixj_tuples(max_val)]
    return sorted(tuples, key=lambda t: (t[0], t[1], t[3], t[2], t[4], t[5]))


def _scalar_task(tuples) -> list[CsvRow]:
    rows = []
    for t in tuples:
        s = _scalar_ints(*t, cross_check_sixj=False)
        rows.append((_scalar_csv(t, s), s.agrees))
    return rows


def verify_scalar_sweep(max_val: int, jobs: int | None = 1) -> list[CsvRow]:
    """verify_scalar_theorem over the whole box, in a deterministic order:
    each report as its CSV line under LambdaReport.CSV_HEADER and whether it
    agrees."""
    tuples = scalar_theorem_tuples(max_val)
    tasks = [list(g) for _, g in itertools.groupby(tuples, key=lambda t: t[:2])]
    return sweep(_scalar_task, tasks, jobs)


class ClassificationRow(NamedTuple):
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

    CSV_HEADER = (
        "m,a,b,c,closed_form,sixj_vanishing,alternating_image_empty,assembly_succeeds,consistent"
    )

    def csv(self) -> str:
        """The row as one line under CSV_HEADER."""
        verdicts = (
            self.closed_form,
            self.sixj_vanishing,
            self.alternating_image_empty,
            self.assembly_succeeds,
            self.consistent,
        )
        return f"{self.m},{self.a},{self.b},{self.c}," + ",".join(map(_csv_bool, verdicts))


def classification_tuples(max_m: int, max_weight: int) -> list[tuple[int, int, int, int]]:
    """Every (m, a, b, c) with 1 <= m <= max_m, weights <= max_weight and
    a, c in the decomposition of V(b) x V(m).  An empty box is an error; it
    is empty exactly when max_m < 1 or max_weight < 1 (b = 0 forces a >= m,
    and (1, 1, 0, 1) lies in every other box)."""
    _check_twoj(max_m, max_weight, signed=True)
    if max_m < 1 or max_weight < 1:
        raise ValueError(
            f"need max_m >= 1 and max_weight >= 1, got max_m={max_m}, max_weight={max_weight}"
        )
    # m > 2 * max_weight would need a, c >= m - b > max_weight: no tuple
    return [
        (m, a, b, c)
        for m in range(1, min(max_m, 2 * max_weight) + 1)
        for b in range(max_weight + 1)
        for a, c in itertools.product(_couplings((b, m), top=max_weight), repeat=2)
    ]


def classification_row(m: int, a: int, b: int, c: int) -> ClassificationRow:
    # only this route builds modules; the other sweeps need not load them
    from .constructions import build_from_sequence
    from .gmod import GRep

    closed = is_admissible([a, b, c], m).admissible
    vanishing = length3_condition3(a, b, c, m)
    _, alternating = compute_I_J(a, b, c, m, m)
    built = build_from_sequence([a, b, c], m)
    return ClassificationRow(
        m, a, b, c, closed, vanishing, alternating == [], isinstance(built, GRep)
    )


def _classification_task(tuples) -> list[CsvRow]:
    rows = (classification_row(*t) for t in tuples)
    return [(r.csv(), r.consistent) for r in rows]


def classification_sweep(max_m: int, max_weight: int, jobs: int | None = 1) -> list[CsvRow]:
    """Three-way check of the length-3 classification over the whole box:
    each row as its CSV line under ClassificationRow.CSV_HEADER and whether
    its routes are consistent."""
    tuples = classification_tuples(max_m, max_weight)
    tasks = [list(g) for _, g in itertools.groupby(tuples, key=lambda t: (t[0], t[2]))]
    # load classification_row's layers here, not in the first task: sweep
    # projects the serial time from that task's rate to decide on a pool
    from . import constructions, gmod  # noqa: F401

    return sweep(_classification_task, tasks, jobs)
