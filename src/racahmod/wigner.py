"""Delta factors, Clebsch-Gordan coefficients and the Racah-Wigner 6j-symbol,
all in exact arithmetic.  The triangle condition lives in `exact`, so that
the module layers can test it without loading this one; `wigner.triangle`
is the same function.

Every angular momentum crosses this API as a twice-value: the integer 2j.
That keeps all intermediate quantities integral and makes half-integer inputs
impossible to mistype.  A failed triangle is a defined zero, not an error,
for delta/cgc/sixj alike.

The 6j-symbol is evaluated by two independent published formulas: a
single-sum form with a product of four Delta factors in front, and a second
single-sum form whose prefactor is a ratio of R factors.  With cross-checking
on (the default) both are evaluated and compared exactly; sweep drivers turn
the cross-check off after the equality has been established over their box.

The Clebsch-Gordan sum and both 6j sums run through one integer routine,
_ratio_sum, on their limits and term ratios.  Every square root taken here
(each Delta factor, the Clebsch-Gordan prefactor and the E coefficient of
the three-term recurrence) is an integer surd t/d*sqrt(s) from
exact.factorial_surd; the Delta factors are memoised per triangle in a
bounded cache, and surds multiply through exact._surd_product.  So each
value stays in int up to the one Fraction returned.  sixj_is_zero, the one
6j zero test, reads the same Racah sum and builds no prefactor.

The zero search evaluates one Racah sum per Regge class: the sum depends only
on the multisets of the four triangle sums and the three column sums, which
all 144 Regge images of a tuple share (T. Regge, Nuovo Cimento 11 (1959) 116;
J. Rasch and A. C. H. Yu, SIAM J. Sci. Comput. 25 (2003) 1416).  It walks the
sorted sums and expands each zero class to its images in the cube.  The 6j
value is the same on all images too, so sixj without the cross-check reads it
from _sixj_class, a bounded memo keyed by Regge class (the sorted triangle
sums and the sorted column sums).  It holds 4,096 classes and evaluates the
Delta route on one image of each, as Rasch and Yu store each value once per
class.  It serves unchecked calls only: a cross-checked call runs both
formulas on its own tuple and leaves the memo alone.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from fractions import Fraction
from math import factorial, gcd, prod
from typing import Callable, Iterator, Sequence

from .exact import (
    SqrtRational,
    _check_bound,
    _check_twoj,
    _surd_product,
    _triangle,
    factorial_surd,
    sqrtrat_sum_is_zero,
    triangle,
)

SixJInput = tuple[int, int, int, int, int, int]


class FormulaDisagreement(RuntimeError):
    """The two independent 6j evaluations differ: an implementation bug."""


def _ratio_sum(lo: int, hi: int, num, den) -> tuple[int, int]:
    """(n, d) with n/d = (x_lo + ... + x_hi) / x_lo, for the alternating
    series with x_{t+1}/x_t = -P(t)/Q(t).  num = (rising, falling) gives
    P(t) = prod(c + t for c in rising) * prod(c - t for c in falling); den
    gives Q alike.  Horner's scheme from the last term (S_hi = 1,
    S_t = 1 - P(t) S_{t+1} / Q(t)) stays in int; Q(t) != 0 for lo <= t < hi.
    """
    (num_up, num_down), (den_up, den_down) = num, den
    n = d = 1
    for t in range(hi - 1, lo - 1, -1):
        p = q = 1
        for c in num_up:
            p *= c + t
        for c in num_down:
            p *= c - t
        for c in den_up:
            q *= c + t
        for c in den_down:
            q *= c - t
        q *= d
        n, d = q - p * n, q
    return n, d


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    # Delta^2 as one Fraction, the tests' oracle for _delta_surd; assumes the
    # triangle condition
    s = (ta + tb + tc) // 2
    return Fraction(factorial(s - tc) * factorial(s - tb) * factorial(s - ta), factorial(s + 1))


@functools.lru_cache(maxsize=4096)
def _delta_surd(ta: int, tb: int, tc: int) -> tuple[int, int, int]:
    """Delta(ta, tb, tc) = t/d * sqrt(s) with t, d coprime and s squarefree.

    Assumes the triangle condition.  Memoised, since a sweep meets each
    triangle many times.
    """
    s2 = (ta + tb + tc) // 2
    return factorial_surd((s2 - tc, s2 - tb, s2 - ta), (s2 + 1,))


def delta(ta: int, tb: int, tc: int) -> SqrtRational:
    """Delta(j1,j2,j3) = sqrt((j1+j2-j3)!(j1-j2+j3)!(-j1+j2+j3)!/(j1+j2+j3+1)!),
    and exactly 0 when the triangle condition fails."""
    if not triangle(ta, tb, tc):
        return SqrtRational(Fraction(0))
    t, d, s = _delta_surd(ta, tb, tc)
    return SqrtRational(Fraction(t, d), s)


def cgc(tj1: int, tm1: int, tj2: int, tm2: int, tj3: int, tm3: int) -> SqrtRational:
    """Clebsch-Gordan coefficient C^{j3,m3}_{j1,m1; j2,m2}, twice-value inputs.

    Zero when m1 + m2 != m3 or the triangle fails; |m| > j or a j/m parity
    mismatch is a domain error.
    """
    _check_twoj(tj1, tj2, tj3)
    _check_twoj(tm1, tm2, tm3, signed=True)
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj:
            raise ValueError(f"|m| > j for (2j, 2m) = ({tj}, {tm})")
        if (tj + tm) % 2:
            raise ValueError(f"j and m differ by a non-integer: (2j, 2m) = ({tj}, {tm})")
    if tm1 + tm2 != tm3 or not triangle(tj1, tj2, tj3):
        return SqrtRational(Fraction(0))
    # sum over r of (-1)^r / (r! (a12-r)! (a1m-r)! (a2m-r)! (b1+r)! (b2+r)!)
    a12 = (tj1 + tj2 - tj3) // 2
    a1m = (tj1 - tm1) // 2
    a2m = (tj2 + tm2) // 2
    b1 = (tj3 - tj2 + tm1) // 2  # may be negative
    b2 = (tj3 - tj1 - tm2) // 2  # may be negative
    lo = max(0, -b1, -b2)
    n, d = _ratio_sum(lo, min(a12, a1m, a2m), ((), (a12, a1m, a2m)), ((1, b1 + 1, b2 + 1), ()))
    d *= prod(map(factorial, (lo, a12 - lo, a1m - lo, a2m - lo, b1 + lo, b2 + lo)))
    # the prefactor Delta(j1, j2, j3) sqrt((2j3+1) prod (j+-m)!) as one
    # factorial surd, with 2j3 + 1 = (2j3+1)! / (2j3)!
    s = (tj1 + tj2 + tj3) // 2
    top = [s - tj3, s - tj2, s - tj1, tj3 + 1]
    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        top += ((tj + tm) // 2, (tj - tm) // 2)
    pt, pd, rad = factorial_surd(top, (s + 1, tj3))
    n *= pt
    return SqrtRational(Fraction(-n if lo & 1 else n, d * pd), rad)


# -- 6j-symbol ---------------------------------------------------------------


def sixj_triangles_hold(tj: SixJInput) -> bool:
    """Whether the four triangles of a 6j-symbol hold; tj must be six
    non-negative ints (unchecked)."""
    t1, t2, t3, t4, t5, t6 = tj
    return (
        _triangle(t1, t2, t3)
        and _triangle(t1, t5, t6)
        and _triangle(t4, t2, t6)
        and _triangle(t4, t5, t3)
    )


def _sums(t1, t2, t3, t4, t5, t6) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The four triangle sums and the three column sums of a tuple."""
    return (
        ((t1 + t2 + t3) // 2, (t1 + t5 + t6) // 2, (t4 + t2 + t6) // 2, (t4 + t5 + t3) // 2),
        ((t2 + t3 + t5 + t6) // 2, (t1 + t3 + t4 + t6) // 2, (t1 + t2 + t4 + t5) // 2),
    )


def _alpha_sum(t1, t2, t3, t4, t5, t6) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """Single sum of the Delta-prefactor formula,

        sum over max(a) <= t <= min(b) of (-1)^t (t+1)! / (prod (t-a_i)! prod (b_j-t)!),

    with a the four triangle sums and b the three column sums, as _sums
    numbers them.  Returns (a, b, n, d): the sum over its first term is n/d,
    so it vanishes exactly when n == 0, which the zero test reads without
    leaving int.
    """
    a, b = _sums(t1, t2, t3, t4, t5, t6)
    a0, a1, a2, a3 = a
    return a, b, *_ratio_sum(max(a), min(b), ((2,), b), ((1 - a0, 1 - a1, 1 - a2, 1 - a3), ()))


def _def_sum(t1, t2, t3, t4, t5, t6) -> tuple[int, int]:
    """Single sum of the R-ratio formula, as (n, d) with d > 0:

    sum over t of (-1)^t (n1+t)! (n2+t)! (n3-t)! / (t! (d2-t)! (d3-t)! (d4+t)! (d5+t)!).
    """
    n1 = (-t1 + t5 + t6) // 2
    n2 = (t2 - t4 + t6) // 2
    n3 = (t1 + t3 + t4 - t6) // 2
    d2 = (t1 + t5 - t6) // 2
    d3 = (t2 + t4 - t6) // 2
    d4 = (-t1 + t3 - t4 + t6) // 2  # may be negative
    d5 = t6 + 1
    lo = max(0, -d4)
    n, d = _ratio_sum(
        lo, min(d2, d3, n3), ((n1 + 1, n2 + 1), (d2, d3)), ((1, d4 + 1, d5 + 1), (n3,))
    )
    n *= factorial(n1 + lo) * factorial(n2 + lo) * factorial(n3 - lo)
    d *= prod(map(factorial, (lo, d2 - lo, d3 - lo, d4 + lo, d5 + lo)))
    return -n if lo & 1 else n, d


def _r_sq_inv(tx: int, ty: int, tz: int) -> int:
    """1/R^2 for R^z_{x,y} = sqrt((jx+jy-jz)! / ((jx-jy+jz)!(-jx+jy+jz)!(jx+jy+jz+1)!)),
    an integer since (jx+jy-jz)! divides (jx+jy+jz+1)!."""
    s = (tx + ty + tz) // 2
    return factorial(s - ty) * factorial(s - tx) * (factorial(s + 1) // factorial(s - tz))


def _sixj_delta_route(tj: SixJInput) -> tuple[int, int, int]:
    """The Delta-prefactor formula as (n, d, rad), its value n/d * sqrt(rad)
    with n, d coprime and d > 0, and (0, 1, 1) for zero; tj must pass the
    four triangles (unchecked)."""
    tj1, tj2, tj3, tj4, tj5, tj6 = tj
    a, b, n, d = _alpha_sum(*tj)
    if not n:
        return 0, 1, 1
    # the sum times the four Delta factors, in int
    lo = max(a)
    first_den = (lo - a[0], lo - a[1], lo - a[2], lo - a[3], b[0] - lo, b[1] - lo, b[2] - lo)
    t, dt, s = _delta_surd(tj1, tj2, tj3)
    n *= t * (-factorial(lo + 1) if lo & 1 else factorial(lo + 1))
    d *= dt * prod(map(factorial, first_den))  # every factor is positive
    return _surd_product(
        (
            (n, d, s),
            _delta_surd(tj1, tj5, tj6),
            _delta_surd(tj4, tj2, tj6),
            _delta_surd(tj4, tj5, tj3),
        )
    )


@functools.lru_cache(maxsize=4096)
def _sixj_class(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, int, int]:
    """The Delta route on the Regge class of sorted triangle sums a and sorted
    column sums b, evaluated on its image _regge_image(a, b).  The value is
    the same on all 144 images, so a sweep pays for each class once; 4,096
    slots hold every class of the cube of side 12 (3,402 of them)."""
    return _sixj_delta_route(_regge_image(a, b))


def _sixj_surd(tj: SixJInput, cross_check: bool) -> tuple[int, int, int]:
    """The 6j-symbol as (n, d, rad), as _sixj_delta_route returns it; tj must
    pass the four triangles (unchecked).  Without the cross-check the value
    comes from the memo of its Regge class; with it, both formulas run on tj
    itself and the memo is neither read nor written."""
    if not cross_check:
        a, b = _sums(*tj)
        return _sixj_class(tuple(sorted(a)), tuple(sorted(b)))
    tj1, tj2, tj3, tj4, tj5, tj6 = tj
    n, d, rad = _sixj_delta_route(tj)
    # value^2 = q_b s_b^2 with equal signs, cross-multiplied on the returned
    # value; every denominator is positive, so once the squares agree the two
    # sides vanish together
    sn, sd = _def_sum(*tj)
    g = gcd(sn, sd)  # keeps the products below small at large twice-values
    sn, sd = sn // g, sd // g
    q_num = _r_sq_inv(tj5, tj6, tj1) * _r_sq_inv(tj2, tj6, tj4)
    q_den = _r_sq_inv(tj2, tj3, tj1) * _r_sq_inv(tj3, tj5, tj4)
    if ((tj1 + tj2 + tj4 + tj5) // 2) & 1:
        sn = -sn
    lhs = n * n * rad * q_den * sd * sd
    if lhs != q_num * sn * sn * d * d or (n < 0) != (sn < 0):
        raise FormulaDisagreement(f"6j formulas disagree at {tj}")
    return n, d, rad


def sixj(
    tj1: int,
    tj2: int,
    tj3: int,
    tj4: int,
    tj5: int,
    tj6: int,
    *,
    cross_check: bool = True,
    ints: bool = False,
) -> SqrtRational | tuple[int, int, int]:
    """The 6j-symbol {j1 j2 j3; j4 j5 j6} on twice-values.

    Returns exactly 0 when any of the four triangle triples fails.  With
    cross_check on, both independent formulas are evaluated and must agree
    exactly: the square of the value returned must equal the R-formula's,
    and so must the sign; a mismatch raises FormulaDisagreement.  With it
    off, the value comes from the memo of the tuple's Regge class.  With ints
    on, returns the fields (n, d, rad) of the value n/d * sqrt(rad) in
    place of the SqrtRational: n, d coprime, d > 0, and (0, 1, 1) for zero.
    """
    tj = (tj1, tj2, tj3, tj4, tj5, tj6)
    _check_twoj(*tj)
    surd = _sixj_surd(tj, cross_check) if sixj_triangles_hold(tj) else (0, 1, 1)
    if ints:
        return surd
    n, d, rad = surd
    return SqrtRational(Fraction(n, d), rad)


def sixj_is_zero(tj: SixJInput) -> bool:
    """Whether the 6j-symbol is zero: a triangle fails or sixj's Racah sum
    vanishes.  Exact and in int, with no prefactor surd built."""
    _check_twoj(*tj)
    if not sixj_triangles_hold(tj):
        return True
    return _alpha_sum(*tj)[2] == 0


# -- three-term recurrence ----------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _sqrt_surd(x: int) -> tuple[int, int, int]:
    """sqrt(x) = sqrt(x! / (x-1)!) as a factorial surd, for an integer x >= 1."""
    return factorial_surd((x,), (x - 1,))


def be_coefficients(
    ti1: int, ti2: int, ti3: int, ti4: int, ti5: int, ti6: int
) -> tuple[SqrtRational, Fraction]:
    """Coefficients (E(i1), F(i1)) of the three-term recurrence in i1.

    Inputs are twice-values of the half-integers i1..i6.  E is the square root
    of a product of four quadratic factors; outside the triangle windows that
    product can go negative, which raises rather than leaving the reals.

    In twice-values 256 E^2 is a product of eight integers x, whose memoised
    surds sqrt|x| multiply in int; 16 F is an integer polynomial in
    C_k = t_k (t_k + 2) = 4 i_k (i_k + 1).
    """
    factors = []
    for ta, tb in ((ti2, ti3), (ti5, ti6)):
        factors += (ti1 - ta + tb, ti1 + ta - tb, ta + tb + 2 - ti1, ta + tb + 2 + ti1)
    e_sq = prod(factors)
    if e_sq < 0:
        raise ValueError(f"E coefficient is imaginary at {(ti1, ti2, ti3, ti4, ti5, ti6)}")
    if e_sq:
        t, d, s = _surd_product(_sqrt_surd(abs(x)) for x in factors)
        e_val = SqrtRational(Fraction(t, 16 * d), s)
    else:
        e_val = SqrtRational(Fraction(0))
    c1, c2, c3, c4, c5, c6 = (t * (t + 2) for t in (ti1, ti2, ti3, ti4, ti5, ti6))
    f16 = (ti1 + 1) * (
        c1 * (-c1 + c2 + c3) + c5 * (c1 + c2 - c3) + c6 * (c1 - c2 + c3) - 2 * c1 * c4
    )
    return e_val, Fraction(f16, 16)


def be_recurrence_terms(
    ti1: int, ti2: int, ti3: int, ti4: int, ti5: int, ti6: int
) -> list[SqrtRational]:
    """The three terms of i1 E(i1+1) {i1+1 ...} + F(i1) {i1 ...} + (i1+1) E(i1) {i1-1 ...}.

    The 6j at i1 - 1 is the defined zero when its triangles fail (that case
    never contributes: E(i1) vanishes there whenever the others are defined).
    """
    i1 = Fraction(ti1, 2)
    e_up = be_coefficients(ti1 + 2, ti2, ti3, ti4, ti5, ti6)[0]
    e_dn, f_mid = be_coefficients(ti1, ti2, ti3, ti4, ti5, ti6)
    val_up = sixj(ti1 + 2, ti2, ti3, ti4, ti5, ti6, cross_check=False)
    val_mid = sixj(ti1, ti2, ti3, ti4, ti5, ti6, cross_check=False)
    val_dn = (
        sixj(ti1 - 2, ti2, ti3, ti4, ti5, ti6, cross_check=False)
        if ti1 >= 2
        else SqrtRational(Fraction(0))
    )
    return [i1 * (e_up * val_up), f_mid * val_mid, (i1 + 1) * (e_dn * val_dn)]


def be_recurrence_holds(ti1, ti2, ti3, ti4, ti5, ti6) -> bool:
    return sqrtrat_sum_is_zero(be_recurrence_terms(ti1, ti2, ti3, ti4, ti5, ti6))


# -- tuple enumeration and sweeps ----------------------------------------------


def sixj_tuples(n: int) -> Iterator[SixJInput]:
    """Every tuple in the cube of side n whose four triangles hold, in lexicographic order."""
    for t1 in range(n + 1):
        for t2 in range(n + 1):
            for t3 in range(abs(t1 - t2), min(t1 + t2, n) + 1, 2):
                for t4 in range(n + 1):
                    for t5 in range(abs(t4 - t3), min(t4 + t3, n) + 1, 2):
                        if (t1 + t5 + t4 + t2) % 2:  # the two t6 parities conflict
                            continue
                        # both lower limits have the parity of t1 + t5
                        lo = max(abs(t1 - t5), abs(t4 - t2))
                        for t6 in range(lo, min(t1 + t5, t4 + t2, n) + 1, 2):
                            yield (t1, t2, t3, t4, t5, t6)


# Seconds a process pool adds to a sweep: importing concurrent.futures,
# forking the workers and shutting them down.  Measured as the median wall
# time of `--jobs 2` minus `--jobs 1` over 41 alternating CLI launches on
# sweeps of almost no work, on 2 cores: 0.071 s for `zeros --max 4`, 0.070 s
# for `verify-classify --max-m 1 --max-weight 4` and 0.066 s for
# `verify-scalar --max 1` (CPU time 0.073, 0.077 and 0.064 s).
POOL_START_S = 0.07


def sweep(fn: Callable, tasks: Sequence, jobs: int | None) -> list:
    """The lists fn(task) for task in tasks, concatenated in task order, on
    up to `jobs` worker processes (None: one per core).

    The tasks run in this process, and after each one the serial time of
    the tasks left is projected from the rate so far (elapsed * tasks left
    / tasks done).  A pool of w workers, w capped at the cores and the
    tasks left, saves at most (w - 1) / w of that time, so the tasks left
    go to a pool only once (w - 1) / w of the projection passes
    POOL_START_S.  Output never depends on jobs.  fn and the tasks must
    pickle, and each task travels alone, so callers group their work: the
    zero scan sends one task per largest triangle sum, the other sweeps one
    per group of tuples that share their first entries.  Results are
    pickled back, so tasks should return plain str, int and bool: a
    Fraction travels as its decimal string.
    """
    cores = os.cpu_count() or 1
    workers = min(cores if jobs is None else jobs, cores)
    results: list = []
    start = time.perf_counter()
    for done, task in enumerate(tasks, 1):
        results += fn(task)
        left = len(tasks) - done
        w = min(workers, left)
        if w > 1 and (time.perf_counter() - start) / done * left * (w - 1) / w > POOL_START_S:
            import concurrent.futures  # only a pool needs it; every launch would pay for it

            with concurrent.futures.ProcessPoolExecutor(max_workers=w) as pool:
                for chunk in pool.map(fn, tasks[done:]):
                    results += chunk
            break
    return results


def _regge_image(a: Sequence[int], b: Sequence[int]) -> SixJInput:
    """The tuple whose triangle sums, as _sums numbers them, are a and
    whose column sums are b: t = (a1+a2-b1, a1+a3-b2, a1+a4-b3, a3+a4-b1,
    a2+a4-b2, a2+a3-b3)."""
    p, q, r, s = a
    u, v, w = b
    return (p + q - u, p + r - v, p + s - w, r + s - u, q + s - v, q + r - w)


def _regge_images(a: Sequence[int], b: Sequence[int]) -> set[SixJInput]:
    """The tuples whose triangle sums are an ordering of a and whose column
    sums are an ordering of b: _regge_image of each pair of orderings."""
    return {
        _regge_image(pa, pb)
        for pa in itertools.permutations(a)
        for pb in itertools.permutations(b)
    }


def _zero_class_task(args) -> list[SixJInput]:
    """The zeros in the cube of side n with largest triangle sum a4, from one
    Racah sum per Regge class a1 <= a2 <= a3 <= a4 <= b1 <= b2 <= b3 of equal
    totals, kept when the class has an image in the cube (sorted triangle
    sums paired with sorted column sums give the least largest entry)."""
    a4, n = args
    zeros = []
    for a3 in range(a4 + 1):
        for a2 in range(a3 + 1):
            # 3 a4 <= 3 b1 <= s sets the floor of a1
            for a1 in range(max(0, 2 * a4 - a2 - a3), a2 + 1):
                s = a1 + a2 + a3 + a4
                den = ((1 - a1, 1 - a2, 1 - a3, 1 - a4), ())
                for b1 in range(max(a4, a1 + a4 - n, a2 + a3 - n), s // 3 + 1):
                    hi = min((s - b1) // 2, s - b1 - a3 - a4 + n)  # b2 <= b3 and the cube
                    for b2 in range(max(b1, a2 + a4 - n), hi + 1):
                        b = (b1, b2, s - b1 - b2)
                        if not _ratio_sum(a4, b1, ((2,), b), den)[0]:
                            zeros += (
                                tj for tj in _regge_images((a1, a2, a3, a4), b) if max(tj) <= n
                            )
    return zeros


def find_sixj_zeros(n: int, jobs: int | None = 1) -> list[SixJInput]:
    """All non-trivial 6j zeros in the cube of twice-values of side n.

    A zero is non-trivial when all four triangle triples hold yet the symbol
    vanishes; defined zeros are suppressed.  Output is sorted
    lexicographically on the twice-value tuple and is independent of the
    worker count.

    The zero test reads only the Racah sum, which depends only on the
    multisets of the four triangle sums and the three column sums, so it is
    the same on all 144 images of a tuple under the Regge symmetries
    (T. Regge, Nuovo Cimento 11 (1959) 116; J. Rasch and A. C. H. Yu, SIAM
    J. Sci. Comput. 25 (2003) 1416).  A tuple's four triangles hold exactly
    when its least column sum is at least its largest triangle sum.  So the
    scan evaluates one sum per class of sorted sums, one pool task per
    largest triangle sum, and expands each zero to its images in the cube.
    """
    _check_bound(n)
    # a triangle sum is at most 3/2 of the side
    tasks = [(a4, n) for a4 in range(3 * n // 2 + 1)]
    return sorted(sweep(_zero_class_task, tasks, jobs))


def dual_formula_agreement(max_twoj: int) -> int:
    """Evaluate every tuple in the cube with both formulas; returns the count.

    Raises FormulaDisagreement at the first mismatch, so a return means the
    two evaluations agree on the whole cube.  A negative bound is an error,
    not an empty box that agrees vacuously.
    """
    _check_bound(max_twoj)
    count = 0
    for tj in sixj_tuples(max_twoj):
        sixj(*tj, cross_check=True)
        count += 1
    return count
