"""Acceptance suite.

Each test implements one acceptance criterion and prints a single PASS/FAIL
line (run pytest with -s to stream them).  All arithmetic is exact, so every
comparison below is equality with tolerance zero; the stated runtime budgets
are asserted as generous upper bounds.
"""

import time
from fractions import Fraction
from functools import lru_cache
from math import comb

from racahmod.classify import (
    cgc_iota_bridge,
    classification_sweep,
    verify_scalar_sweep,
)
from racahmod.constructions import (
    build_exceptional_len3,
    build_symmetric_power,
    build_z,
    build_z_dual,
    build_z_family,
    check_z_characterization,
)
from racahmod.exact import QMatrix
from racahmod.gmod import check_rep, is_uniserial, socle_series
from racahmod.sl2 import symmetric_power_components
from racahmod.surd import SqrtRational
from racahmod.wigner import (
    be_recurrence_holds,
    dual_formula_agreement,
    find_sixj_zeros,
    sixj,
    sixj_is_zero,
    sixj_triangles_hold,
    sixj_tuples,
)

JOBS = 2


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} ({name}) exceeded {budget}s"


def test_criterion_1_sixj_reference_table():
    start = time.perf_counter()
    expected = {
        (4, 0, 4, 4, 6, 4): Fraction(-1, 5),
        (4, 2, 4, 4, 6, 4): Fraction(0),
        (4, 4, 4, 4, 6, 4): Fraction(4, 35),
        (4, 6, 4, 4, 6, 4): Fraction(1, 14),
        (4, 8, 4, 4, 6, 4): Fraction(1, 70),
    }
    ok = all(sixj(*tj) == SqrtRational(val) for tj, val in expected.items())
    _report(1, "6j reference table", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_dual_formula_agreement():
    start = time.perf_counter()
    count = dual_formula_agreement(16)  # raises on the first mismatch
    _report(2, "dual 6j formulas, twice<=16", count > 100000, time.perf_counter() - start, 300.0)


def _displayed_z122():
    """The full 12x12 realization with socle factors V(1), V(3), V(5), m = 2,
    frozen entry-for-entry from the explicit block description."""
    h = QMatrix.diagonal([1, -1, 3, 1, -1, -3, 5, 3, 1, -1, -3, -5])
    e_rows = [[0] * 12 for _ in range(12)]
    f_rows = [[0] * 12 for _ in range(12)]
    for off, a in ((0, 1), (2, 3), (6, 5)):
        for r in range(a):
            e_rows[off + r][off + r + 1] = a - r
            f_rows[off + r + 1][off + r] = r + 1
    v_rows = {i: [[0] * 12 for _ in range(12)] for i in range(3)}
    for i in range(3):
        coeff = (-1) ** i * comb(2, i)
        for off_r, off_c, a in ((0, 2, 1), (2, 6, 3)):
            for r in range(a + 1):
                v_rows[i][off_r + r][off_c + (2 - i) + r] = coeff
    return (
        h,
        QMatrix.from_rows(e_rows),
        QMatrix.from_rows(f_rows),
        tuple(QMatrix.from_rows(v_rows[i]) for i in range(3)),
    )


def test_criterion_3_explicit_twelve_dim_regression():
    start = time.perf_counter()
    rep = build_z(1, 2, 2)
    h, e, f, v = _displayed_z122()
    ok = rep.h == h and rep.e == e and rep.f == f and rep.v == v
    _report(3, "12-dim block realization", ok, time.perf_counter() - start, 1.0)


@lru_cache(maxsize=None)
def _sympow(m, b):
    return build_symmetric_power(m, b)


def test_criterion_4_builder_relation_suite():
    start = time.perf_counter()
    ok = True

    def expect(rep, factors, uniserial=True):
        nonlocal ok
        ok &= check_rep(rep).ok
        series = socle_series(rep)
        if uniserial:
            ok &= is_uniserial(rep)
            ok &= series.factor_weights() == factors
        else:
            ok &= [dict(s.factors) for s in series.steps] == factors

    z_params = [
        (0, 1, 1), (0, 4, 1), (1, 2, 2), (2, 1, 2), (0, 3, 2),
        (1, 1, 3), (0, 2, 3), (2, 2, 3), (1, 1, 4), (3, 3, 4),
        (0, 1, 5), (2, 3, 5), (3, 1, 6),
    ]
    for ell, b, m in z_params:
        factors = [ell + j * m for j in range(b + 1)]
        expect(build_z(ell, b, m), factors)
        expect(build_z_dual(ell, b, m), factors[::-1])
    for m in range(1, 7):
        for c in range((2 * m) % 4, 2 * m + 1, 4):
            expect(build_exceptional_len3(m, c), [0, m, c])
    for z in (0, 1, -1, Fraction(5, 7)):
        expect(build_z_family(4, z), [0, 4, 4, 0])
    for m in range(1, 4):
        for b in range(0, 4):
            pair = _sympow(m, b)
            expect(pair.sub, [j * m for j in range(b + 1)])
            big_factors = [symmetric_power_components(m, i) for i in range(b + 1)]
            expect(pair.big, big_factors, uniserial=False)
            # the ambient polynomial module is uniserial exactly when every
            # symmetric-power factor is a single irreducible
            all_irreducible = all(
                len(f) == 1 and next(iter(f.values())) == 1 for f in big_factors
            )
            ok &= is_uniserial(pair.big) == all_irreducible == (m == 1 or b <= 1)
    _report(4, "builder relation suite", ok, time.perf_counter() - start, 60.0)


def test_criterion_5_scalar_identity_sweep():
    start = time.perf_counter()
    rows = verify_scalar_sweep(8, jobs=JOBS)
    ok = len(rows) > 10000 and all(agrees for _, agrees in rows)
    _report(5, "lambda = C * 6j, all <=8", ok, time.perf_counter() - start, 300.0)


def test_criterion_6_classification_three_way():
    start = time.perf_counter()
    rows = classification_sweep(6, 14, jobs=JOBS)
    ok = len(rows) > 1000 and all(consistent for _, consistent in rows)
    _report(6, "length-3 classification routes", ok, time.perf_counter() - start, 600.0)


def test_criterion_7_zero_families():
    start = time.perf_counter()
    zeros = find_sixj_zeros(20, jobs=JOBS)
    found = set(zeros)
    ok = True
    for a in range(2, 7):
        ok &= (2 * a, 2 * a - 2, 2 * a, 2 * a, 2 * a + 2, 4) in found
    for j in range(4, 11):
        member = (j, 2 * j - 2, j, 3 * j - 8, 2 * j - 6, j)
        if max(member) <= 20:
            ok &= member in found
        # the family vanishes regardless of the box bound
        ok &= sixj_is_zero(member)

    def degenerate(ta, tb, tc):
        return tc == abs(ta - tb) or tc == ta + tb

    for t1, t2, t3, t4, t5, t6 in zeros:
        triples = ((t1, t2, t3), (t1, t5, t6), (t4, t2, t6), (t4, t5, t3))
        ok &= sixj_triangles_hold((t1, t2, t3, t4, t5, t6))
        ok &= not any(degenerate(*tri) for tri in triples)
    _report(7, "non-trivial zero families, twice<=20", ok, time.perf_counter() - start, 300.0)


def test_criterion_8_three_term_recurrence():
    start = time.perf_counter()
    ok = True
    count = 0
    for tj in sixj_tuples(10):
        ok &= be_recurrence_holds(*tj)
        count += 1
    assert count == 42393
    _report(8, f"three-term recurrence on {count} tuples", ok, time.perf_counter() - start, 120.0)


def test_criterion_9_symmetric_power_bridge():
    start = time.perf_counter()
    ok = True
    for m in range(1, 4):
        for b in range(0, 4):
            pair = _sympow(m, b)
            want = socle_series(build_z(0, b, m)).factor_weights()
            ok &= socle_series(pair.sub).factor_weights() == want == [
                j * m for j in range(b + 1)
            ]
            report = check_z_characterization(pair.sub, pair.generator_sub, 0, b)
            ok &= report.all_hold
    _report(9, "symmetric-power bridge", ok, time.perf_counter() - start, 120.0)


def test_criterion_10_cgc_iota_bridge():
    start = time.perf_counter()
    ok = True
    count = 0
    for a in range(9):
        for b in range(9):
            for k in range(abs(a - b), min(a + b, 8) + 1, 2):
                ok &= cgc_iota_bridge(a, b, k)
                count += 1
    _report(10, f"cgc/iota bridge on {count} triples", ok, time.perf_counter() - start, 60.0)
