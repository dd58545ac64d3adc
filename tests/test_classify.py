"""Unit tests for admissibility, composite images and the scalar identity."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racahmod import classify, gmod, sl2, wigner
from racahmod.classify import (
    NOT_ADMISSIBLE,
    ONE_PARAMETER_FAMILY,
    UNIQUE_MODULE,
    ClassificationRow,
    LambdaReport,
    binomial_identity_check,
    c_factor,
    cgc_iota_bridge,
    classification_row,
    classification_tuples,
    compute_I_J,
    is_admissible,
    lambda_phi,
    length3_condition3,
    scalar_theorem_tuples,
    verify_recoupling,
    verify_scalar_theorem,
)
from racahmod.constructions import build_from_sequence
from racahmod.exact import QMatrix, RowSpace
from racahmod.gmod import GRep
from racahmod.sl2 import iota
from racahmod.surd import SqrtRational, _surd_text, squarefree_split
from racahmod.wigner import sixj, triangle


def test_is_admissible_examples():
    assert is_admissible([0, 3, 2], 3).status == UNIQUE_MODULE
    assert is_admissible([0, 4, 4, 0], 4).status == ONE_PARAMETER_FAMILY
    assert is_admissible([4, 6, 4], 4).status == NOT_ADMISSIBLE
    assert is_admissible([2, 5], 3).status == UNIQUE_MODULE
    assert is_admissible([7], 5).status == UNIQUE_MODULE
    assert is_admissible([1, 3, 5, 7, 9], 2).status == UNIQUE_MODULE
    assert is_admissible([1, 3, 5, 7, 10], 2).status == NOT_ADMISSIBLE
    assert is_admissible([0, 8, 8, 0], 8).status == ONE_PARAMETER_FAMILY
    assert is_admissible([0, 6, 6, 0], 6).status == NOT_ADMISSIBLE


def test_is_admissible_reversal_invariance():
    cases = [
        ([0, 3, 2], 3),
        ([2, 3, 0], 3),
        ([4, 6, 4], 4),
        ([1, 3, 5], 2),
        ([0, 4, 4, 0], 4),
        ([2, 5], 3),
        ([9, 7, 5, 3, 1], 2),
    ]
    for seq, m in cases:
        assert is_admissible(seq, m).status == is_admissible(seq[::-1], m).status


def test_admissible_windows_property():
    # all length-3 windows of an admissible sequence are admissible
    for seq, m in [([1, 3, 5, 7, 9], 2), ([0, 4, 4, 0], 4), ([2, 5, 8, 11], 3)]:
        assert is_admissible(seq, m).admissible
        for i in range(len(seq) - 2):
            assert is_admissible(seq[i : i + 3], m).admissible, (seq, i)


def test_is_admissible_validation():
    with pytest.raises(ValueError, match="non-empty"):
        is_admissible([], 2)
    with pytest.raises(ValueError, match="positive"):
        is_admissible([1, 2], 0)
    with pytest.raises(ValueError, match="non-negative"):
        is_admissible([-1], 2)


@pytest.mark.parametrize(
    "seq, m",
    [([0, 3.9, 2], 3), ([0, 3, 2], 3.0), ([0, True, 2], 1), ([1, 2], True), ([Fraction(3)], 3)],
)
def test_is_admissible_refuses_non_integers(seq, m):
    # a float or bool is refused, not truncated into a verdict
    with pytest.raises(ValueError, match="integers"):
        is_admissible(seq, m)


@st.composite
def _triangle_sequences(draw):
    """(seq, m): 1 to 4 weights <= 12, each consecutive pair a triangle with m <= 6."""
    m = draw(st.integers(1, 6))
    seq = [draw(st.integers(0, 12))]
    for _ in range(draw(st.integers(0, 3))):
        seq.append(draw(st.sampled_from(range(abs(seq[-1] - m), min(seq[-1] + m, 12) + 1, 2))))
    return seq, m


@given(_triangle_sequences())
@settings(max_examples=300, deadline=None)
def test_assembly_succeeds_iff_admissible(case):
    seq, m = case
    built = build_from_sequence(seq, m)
    assert isinstance(built, GRep) == is_admissible(seq, m).admissible, case


def test_length3_condition4_examples():
    # the closed form of length-3 admissibility is the length-3 case of is_admissible
    assert is_admissible([5, 3, 1], 2).admissible  # b = c + m, a = c + 2m
    assert is_admissible([2, 3, 0], 3).admissible  # c = 0, b = m, a = 2m mod 4
    assert not is_admissible([4, 6, 4], 4).admissible
    with pytest.raises(ValueError, match=r"triangle conditions fail for \[1, 1, 1\] with m=1"):
        length3_condition3(1, 1, 1, 1)
    with pytest.raises(ValueError, match="triangle conditions fail"):
        classification_row(1, 1, 1, 1)


def test_length3_condition3_examples():
    assert length3_condition3(5, 3, 1, 2)
    assert not length3_condition3(4, 6, 4, 4)


def test_length3_conditions_agree_small_box():
    for m in range(1, 5):
        for b in range(11):
            for a in range(abs(b - m), min(b + m, 10) + 1, 2):
                for c in range(abs(b - m), min(b + m, 10) + 1, 2):
                    assert length3_condition3(a, b, c, m) == is_admissible(
                        [a, b, c], m
                    ).admissible, (m, a, b, c)


def test_classification_tuples_stop_at_twice_the_weight_bound():
    # a, c >= m - b > max_weight once m > 2 * max_weight, so no larger m has a tuple
    for w in range(1, 5):
        box = classification_tuples(2 * w, w)
        assert max(t[0] for t in box) == 2 * w
        assert classification_tuples(2 * w + 5, w) == box
        assert classification_tuples(2 * w - 1, w) == [t for t in box if t[0] < 2 * w]
    # a loop over every m up to 10**9 would run for half an hour: give it a minute
    src = os.path.dirname(os.path.dirname(classify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "from racahmod.classify import classification_tuples as t; print(t(10**9, 2))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    ).stdout
    assert out == f"{classification_tuples(4, 2)}\n"


@pytest.mark.parametrize("bound", [True, 8.0, "8"])
def test_scalar_theorem_tuples_refuses_a_non_integer_bound(bound):
    with pytest.raises(ValueError, match="twice-values must be integers, got"):
        scalar_theorem_tuples(bound)
    # the negative bound keeps its own message
    with pytest.raises(ValueError, match="the twice-value bound must be non-negative, got -1"):
        scalar_theorem_tuples(-1)


@pytest.mark.parametrize("bounds", [(True, True), (3, True), (3.0, 8), (3, "8")])
def test_classification_tuples_refuses_non_integer_bounds(bounds):
    with pytest.raises(ValueError, match="twice-values must be integers, got"):
        classification_tuples(*bounds)
    # the empty box keeps its own message
    with pytest.raises(ValueError, match="need max_m >= 1 and max_weight >= 1"):
        classification_tuples(0, 3)


def test_classification_row_consistency_samples():
    for m, a, b, c in [(4, 6, 4, 4), (2, 5, 3, 1), (3, 2, 3, 0), (4, 4, 4, 4)]:
        assert classification_row(m, a, b, c).consistent


def test_compute_I_J_documented_cases():
    image, alternating = compute_I_J(4, 6, 4, 4, 4)
    assert image == [0, 4, 6, 8]
    assert alternating == [6]
    image, alternating = compute_I_J(4, 2, 4, 4, 4)
    assert image == [0, 2, 4, 8]
    assert alternating == [2]
    assert compute_I_J(0, 0, 0, 0, 0) == ([0], [])


def test_compute_I_J_distinct_pq():
    image, alternating = compute_I_J(2, 3, 1, 3, 2)
    assert alternating is None
    assert image  # non-empty by degenerate-triangle non-vanishing


def test_compute_I_J_cross_check_catches_a_flipped_zero_test(monkeypatch):
    # the image read off lambda is checked against the non-zero 6j-symbols;
    # a zero test that answers wrong must make the check fire, naming the tuple
    true_is_zero = wigner.sixj_is_zero
    monkeypatch.setattr(classify, "sixj_is_zero", lambda tj: not true_is_zero(tj))
    with pytest.raises(AssertionError, match=r"composite image mismatch at \(4, 6, 4, 4, 4\)"):
        compute_I_J(4, 6, 4, 4, 4)


def test_compute_I_J_reads_integer_matrices(monkeypatch):
    # the image is read off the integer scalar lambda: no embedding matrix
    # is built and no matrix product is taken
    want = [compute_I_J(4, 6, 4, 4, 4), compute_I_J(2, 3, 1, 3, 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("compute_I_J built a matrix")

    monkeypatch.setattr(QMatrix, "__mul__", refuse)
    monkeypatch.setattr(sl2, "hom_embedding", refuse)
    assert [compute_I_J(4, 6, 4, 4, 4), compute_I_J(2, 3, 1, 3, 2)] == want


def _product_span_image(a, b, c, p, q):
    """I and J from the span of the products f[i] * g[j] of embedding
    matrices, and of their alternating differences when p = q: the reference
    route for compute_I_J."""
    f = sl2.hom_embedding(p, b, a)
    g = sl2.hom_embedding(q, c, b)
    # gmod.constituents reads no negative weight, so no product is built there
    products = {
        (i, j): f[i] * g[j] for i in range(p + 1) for j in range(q + 1) if 2 * (i + j) <= p + q
    }

    def constituents(members):
        spaces = {}
        for (i, j), mat in members:
            space = spaces.setdefault(p + q - 2 * (i + j), RowSpace(mat.rows * mat.cols))
            rows = enumerate(mat.sparse_rows())
            space.add({r * mat.cols + col: x for r, row in rows for col, x in row.items()})
        return sorted(gmod.constituents({w: len(space) for w, space in spaces.items()}))

    image = constituents(products.items())
    if p != q:
        return image, None
    return image, constituents(
        ((i, j), products[i, j] - products[j, i]) for i, j in products if i < j
    )


def test_compute_I_J_matches_product_span_on_classify_box():
    for m, a, b, c in classification_tuples(3, 8):
        assert compute_I_J(a, b, c, m, m) == _product_span_image(a, b, c, m, m), (a, b, c, m)


def test_compute_I_J_matches_product_span_with_distinct_pq():
    box = [
        (a, b, c, p, q)
        for a, b, c, p, q in itertools.product(range(7), repeat=5)
        if triangle(p, a, b) and triangle(q, b, c)
    ]
    assert len(box) == 1714 and any(p != q for *_, p, q in box)
    for t in box:
        assert compute_I_J(*t) == _product_span_image(*t), t


def test_compute_I_J_triangle_errors():
    with pytest.raises(ValueError):
        compute_I_J(1, 1, 1, 1, 1)


def test_lambda_phi_trivial():
    assert lambda_phi(0, 0, 0, 0, 0, 0) == 1


def test_lambda_phi_triangle_error():
    with pytest.raises(ValueError):
        lambda_phi(1, 1, 4, 2, 1, 1)


def test_lambda_route_calls_no_wigner_formula(monkeypatch):
    tuples = [(1, 1, 0, 2, 1, 1), (4, 6, 4, 4, 4, 6), (4, 6, 4, 4, 4, 2), (5, 3, 4, 6, 5, 3)]
    expected = [(c_factor(*t) * sixj(t[4], t[5], t[3], *t[:3])).as_fraction() for t in tuples]

    def forbidden(*args, **kwargs):
        raise AssertionError("the tensor route called a wigner formula")

    for owner in (wigner, classify):
        monkeypatch.setattr(owner, "sixj", forbidden)
        monkeypatch.setattr(owner, "cgc", forbidden)
    sl2._f_power_images.cache_clear()
    sl2._iota_image.cache_clear()
    assert [lambda_phi(*t) for t in tuples] == expected
    assert expected[1] != 0 and expected[2] == 0


def test_f_power_images_memo_is_bounded():
    assert sl2._f_power_images.cache_info().maxsize is not None


def test_iota_image_is_image_zero_of_the_f_powers():
    for a in range(9):
        for b in range(9):
            for k in range(abs(a - b), a + b + 1, 2):
                images, den = sl2._f_power_images(k, a, b)
                assert sl2._iota_image(k, a, b) == (images[0], den), (k, a, b)


def test_lambda_phi_builds_f_powers_of_the_two_slots_only(monkeypatch):
    asked = []

    def recording(k, a, b):
        asked.append((k, a, b))
        return sl2._f_power_images(k, a, b)

    monkeypatch.setattr(classify, "_f_power_images", recording)
    a, b, c, p, q, k = 4, 6, 4, 4, 4, 6
    lambda_phi(a, b, c, p, q, k)
    assert asked == [(p, a, b), (q, b, c)]


def _fraction_apply_f(coeffs, da, db):
    out = {}
    for (r1, r2), c in coeffs.items():
        if r1 + 1 < da:
            out[(r1 + 1, r2)] = out.get((r1 + 1, r2), 0) + c
        if r2 + 1 < db:
            out[(r1, r2 + 1)] = out.get((r1, r2 + 1), 0) + c
    return {key: c for key, c in out.items() if c}


def test_f_power_images_match_fraction_leibniz():
    for a in range(13):
        for b in range(13):
            for k in range(abs(a - b), a + b + 1, 2):
                images, den = sl2._f_power_images(k, a, b)
                assert len(images) == k + 1
                expected = iota(k, a, b).coeffs
                for i, image in enumerate(images):
                    got = {(r1, r2): Fraction(c, den) for r1, (r2, c) in image.items()}
                    assert got == expected, (a, b, k, i)
                    expected = _fraction_apply_f(expected, a + 1, b + 1)


def test_c_factor_values():
    assert c_factor(0, 0, 0, 0, 0, 0) == SqrtRational(Fraction(1))
    # C never vanishes when the four triangles hold
    for tup in scalar_theorem_tuples(4):
        assert not c_factor(*tup).is_zero, tup


def test_c_factor_matches_fraction_formula():
    # C as it was first written: one square root of the Delta^2 ratio
    for a, b, c, p, q, k in scalar_theorem_tuples(8):
        sign = -1 if ((a + c - k) // 2 + b + k) & 1 else 1
        rational = Fraction(
            sign * (p + q + k + 2) * (a + b + p + 2) * (b + c + q + 2), 4 * (a + c + k + 2)
        )
        ratio_sq = (
            wigner._delta_sq(a, b, p)
            * wigner._delta_sq(p, q, k)
            * wigner._delta_sq(b, c, q)
            / wigner._delta_sq(a, c, k)
        )
        assert c_factor(a, b, c, p, q, k) == SqrtRational.sqrt_of(ratio_sq) * rational


def test_c_factor_zero_product_case():
    report = verify_scalar_theorem(4, 6, 4, 4, 4, 2)
    assert report.agrees and report.lam == 0 and report.sixj.is_zero
    assert not report.c_factor.is_zero


def test_verify_scalar_theorem_examples():
    report = verify_scalar_theorem(0, 0, 0, 0, 0, 0)
    assert isinstance(report, LambdaReport)
    assert report.agrees and report.lam == 1
    report = verify_scalar_theorem(1, 1, 0, 2, 1, 1)
    assert report.agrees
    assert report.lam == report.product.as_fraction()
    report = verify_scalar_theorem(4, 6, 4, 4, 4, 6)
    assert report.agrees and report.lam != 0


@given(
    st.fractions().filter(lambda x: x.denominator < 10**12),
    st.one_of(st.just(1), st.integers(1, 10**6)),
)
@example(Fraction(0), 7)
@example(Fraction(-5, 7), 1)
@example(Fraction(-3), 1)
@example(Fraction(4), 3)
@settings(max_examples=400, deadline=None)
def test_surd_text_is_how_fraction_and_sqrtrational_print(value, rad):
    n, d = value.numerator, value.denominator
    assert _surd_text(n, d) == str(value)
    spelled = str(value) if rad == 1 or not value else str(value) + "*sqrt(" + str(rad) + ")"
    assert _surd_text(n, d, rad) == spelled
    # SqrtRational prints through the same routine; it takes a squarefree radicand only
    if squarefree_split(rad)[1] == 1:
        assert _surd_text(n, d, rad) == str(SqrtRational(value, rad))
    else:
        with pytest.raises(ValueError, match="not squarefree"):
            SqrtRational(value, rad)


def test_surd_text_edge_values():
    assert _surd_text(0, 1, 5) == "0" == str(SqrtRational(Fraction(0), 5))
    assert _surd_text(-3, 2) == "-3/2"
    assert _surd_text(-3, 1, 1) == "-3"
    assert _surd_text(2, 1, 3) == "2*sqrt(3)"
    assert _surd_text(-1, 12, 6) == "-1/12*sqrt(6)"


def test_int_forms_are_the_fields_of_the_values():
    # the sweeps read lambda and C as ints; each must be the value's fields
    def fields(x):
        coeff = x if isinstance(x, Fraction) else x.coeff
        rest = () if isinstance(x, Fraction) else (x.radicand,)
        return (coeff.numerator, coeff.denominator, *rest)

    for t in scalar_theorem_tuples(4):
        assert lambda_phi(*t, ints=True) == fields(lambda_phi(*t)), t
        assert c_factor(*t, ints=True) == fields(c_factor(*t)), t


def test_verify_scalar_theorem_small_sweep():
    for tup in scalar_theorem_tuples(4):
        assert verify_scalar_theorem(*tup).agrees, tup


def _plain(value) -> bool:
    """Whether value is built of lists and tuples of str and bool alone."""
    if isinstance(value, (list, tuple)):
        return all(_plain(x) for x in value)
    return type(value) in (str, bool)


def test_sweep_tasks_return_only_text_and_verdicts():
    # a task's result is pickled back from the pool, where a Fraction or a
    # SqrtRational would cost far more than its text
    scalar = classify._scalar_task(scalar_theorem_tuples(3))
    rows = classify._classification_task(classification_tuples(2, 4))
    for result in (scalar, rows):
        assert result and _plain(result)
        assert all(len(row) == 2 for row in result)
    assert [row for row, _ in rows] == [
        classification_row(*t).csv() for t in classification_tuples(2, 4)
    ]
    assert [ok for _, ok in rows] == [
        classification_row(*t).consistent for t in classification_tuples(2, 4)
    ]


def test_verify_recoupling():
    assert verify_recoupling(0, 0, 0, 0)
    assert verify_recoupling(1, 1, 0, 0)
    assert verify_recoupling(1, 1, 0, 2)
    assert verify_recoupling(2, 2, 2, 2)
    assert verify_recoupling(3, 2, 1, 2)
    assert verify_recoupling(2, 4, 2, 4)
    with pytest.raises(ValueError):
        verify_recoupling(1, 0, 0, 2)


def test_verify_recoupling_rejects_a_wrong_sixj(monkeypatch):
    true_sixj = classify.sixj
    monkeypatch.setattr(classify, "sixj", lambda *tj: 2 * true_sixj(*tj))
    assert not verify_recoupling(2, 2, 2, 2)


def test_binomial_identity():
    assert binomial_identity_check(0, 0, 0)
    assert binomial_identity_check(3, 5, 2)
    for x in range(13):
        for y in range(13):
            for z in range(y + 1):
                assert binomial_identity_check(x, y, z)
    with pytest.raises(ValueError):
        binomial_identity_check(1, 2, 3)


def test_cgc_iota_bridge_examples():
    assert cgc_iota_bridge(0, 0, 0)
    assert cgc_iota_bridge(1, 1, 2)
    assert cgc_iota_bridge(3, 2, 3)
    with pytest.raises(ValueError):
        cgc_iota_bridge(1, 1, 1)


def test_scalar_theorem_beyond_acceptance_box():
    # deterministic scatter with entries above the exhaustive bound
    import random

    rng = random.Random(5)
    checked = 0
    while checked < 12:
        a, b, c = (rng.randrange(0, 13) for _ in range(3))
        ps = [p for p in range(abs(a - b), a + b + 1, 2)]
        qs = [q for q in range(abs(b - c), b + c + 1, 2)]
        if not ps or not qs:
            continue
        p, q = rng.choice(ps), rng.choice(qs)
        ks = [
            k
            for k in range(max(abs(p - q), abs(a - c)), min(p + q, a + c) + 1, 2)
            if triangle(k, p, q) and triangle(k, a, c)
        ]
        if not ks:
            continue
        k = rng.choice(ks)
        if max(a, b, c, p, q, k) <= 8:
            continue
        assert verify_scalar_theorem(a, b, c, p, q, k).agrees, (a, b, c, p, q, k)
        checked += 1


def test_condition3_matches_alternating_emptiness():
    for m in range(1, 4):
        for b in range(9):
            for a in range(abs(b - m), min(b + m, 8) + 1, 2):
                for c in range(abs(b - m), min(b + m, 8) + 1, 2):
                    _, alternating = compute_I_J(a, b, c, m, m)
                    assert (alternating == []) == length3_condition3(a, b, c, m)


def test_csv_headers_are_class_attributes_not_fields():
    for record in (LambdaReport, ClassificationRow):
        assert type(record.CSV_HEADER) is str
        assert "CSV_HEADER" not in record._fields
        assert record.CSV_HEADER.split(",")[: len(record._fields)] == [
            "lambda" if name == "lam" else name for name in record._fields
        ]
