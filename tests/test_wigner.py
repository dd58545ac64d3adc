"""Unit tests for the recoupling layer: triangle, Delta, CGC, 6j, recurrence."""

import importlib
import itertools
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import racahmod
from racahmod import surd, wigner
from racahmod.classify import c_factor, scalar_theorem_tuples, verify_scalar_theorem
from racahmod.surd import SqrtRational, sqrtrat_sum_is_zero
from racahmod.twoj import _check_radical_weight, _couplings, _require_triangle
from racahmod.wigner import (
    FormulaDisagreement,
    be_coefficients,
    be_recurrence_holds,
    cgc,
    delta,
    dual_formula_agreement,
    find_sixj_zeros,
    sixj,
    sixj_is_zero,
    sixj_triangles_hold,
    sixj_tuples,
    triangle,
)

ZERO = SqrtRational(Fraction(0))


def valid_sixj_tuples(cap):
    for tj in itertools.product(range(cap + 1), repeat=6):
        if sixj_triangles_hold(tj):
            yield tj


def test_triangle_examples():
    assert triangle(2, 2, 2)
    assert not triangle(1, 1, 1)  # odd sum
    assert triangle(0, 3, 3)  # degenerate
    assert not triangle(1, 1, 4)
    with pytest.raises(ValueError):
        triangle(-1, 1, 1)


_PAIRS = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=3)


@given(_PAIRS, st.none() | st.integers(0, 30))
@example([(1, 0), (2, 2)], None)  # the pairs disagree in parity
@example([(3, 5), (4, 4)], 5)  # top below the sums, of the other parity
@settings(max_examples=300, deadline=None)
def test_couplings_are_the_triangle_filter(pairs, top):
    # no coupling passes 24, the largest x + y
    bound = 24 if top is None else top
    expected = [z for z in range(bound + 1) if all(triangle(x, y, z) for x, y in pairs)]
    assert list(_couplings(*pairs, top=top)) == expected


def test_couplings_triangle_and_radical_weight_name_their_input():
    with pytest.raises(ValueError, match="non-negative integers, got -1$"):
        _couplings((0, -1), (0, 0))
    _require_triangle(2, 2, 2)
    with pytest.raises(ValueError, match=r"^triangle condition fails for \(1, 1, 4\)$"):
        _require_triangle(1, 1, 4)
    with pytest.raises(ValueError, match="non-negative integers, got -1$"):
        _require_triangle(-1, 1, 0)
    _check_radical_weight(1)
    for m in (0, -4):
        with pytest.raises(ValueError, match="^the radical weight m must be positive$"):
            _check_radical_weight(m)
    for m in (1.0, True, "1"):
        with pytest.raises(ValueError, match="^twice-values must be integers"):
            _check_radical_weight(m)


def test_twice_values_must_be_ints():
    for bad in ("2", 2.0, True, None):
        with pytest.raises(ValueError):
            triangle(bad, 2, 2)
    with pytest.raises(ValueError):
        sixj(True, True, False, True, True, False)
    with pytest.raises(ValueError):
        delta(1, 1, False)
    for bad in ("1", True, 1.0):
        with pytest.raises(ValueError):
            cgc(1, bad, 1, -1, 2, 0)
        with pytest.raises(ValueError):
            cgc(1, 1, 1, -1, 2, bad)


def test_delta_examples():
    assert delta(0, 0, 0) == SqrtRational(Fraction(1))
    assert delta(1, 1, 2) == SqrtRational(Fraction(1, 6), 6)
    assert delta(2, 2, 6) == ZERO


def test_cgc_examples():
    # m1 + m2 != m3 is a defined zero
    assert cgc(1, 1, 1, 1, 2, 0) == ZERO
    # stretched coupling
    for ta, tb in [(1, 1), (2, 3), (4, 4)]:
        assert cgc(ta, ta, tb, tb, ta + tb, ta + tb) == SqrtRational(Fraction(1))
    assert cgc(1, 1, 1, -1, 2, 0) == SqrtRational(Fraction(1, 2), 2)
    assert cgc(1, 1, 1, -1, 0, 0) == SqrtRational(Fraction(1, 2), 2)
    assert cgc(1, -1, 1, 1, 0, 0) == SqrtRational(Fraction(-1, 2), 2)


def test_cgc_domain_errors():
    with pytest.raises(ValueError):
        cgc(1, 3, 1, -1, 2, 2)  # |m| > j
    with pytest.raises(ValueError):
        cgc(2, 1, 1, 1, 3, 2)  # parity mismatch


def test_cgc_zero_exactly_when_m_mismatch():
    for tj1, tj2, tj3 in [(2, 2, 2), (1, 1, 2), (3, 2, 3)]:
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                for tm3 in range(-tj3, tj3 + 1, 2):
                    value = cgc(tj1, tm1, tj2, tm2, tj3, tm3)
                    if tm1 + tm2 != tm3:
                        assert value == ZERO


def test_sixj_reference_row():
    assert sixj(4, 0, 4, 4, 6, 4) == SqrtRational(Fraction(-1, 5))
    assert sixj(4, 2, 4, 4, 6, 4) == ZERO
    assert sixj(4, 4, 4, 4, 6, 4) == SqrtRational(Fraction(4, 35))
    assert sixj(4, 6, 4, 4, 6, 4) == SqrtRational(Fraction(1, 14))
    assert sixj(4, 8, 4, 4, 6, 4) == SqrtRational(Fraction(1, 70))
    assert sixj(0, 0, 0, 0, 0, 0) == SqrtRational(Fraction(1))


def test_sixj_defined_zero_on_failed_triangle():
    assert sixj(1, 1, 1, 1, 1, 1) == ZERO  # odd sums everywhere
    assert sixj(2, 2, 6, 2, 2, 2) == ZERO
    assert sixj_is_zero((2, 2, 6, 2, 2, 2))


def test_sixj_formula_cross_check_box():
    # acceptance runs the <=16 box; keep a fast version in the unit suite
    assert dual_formula_agreement(6) > 0


@st.composite
def _sixj_args(draw, cap=60):
    """A 6j tuple with twice-values <= cap whose four triangles hold."""
    t1, t2, t4 = (draw(st.integers(0, cap)) for _ in range(3))
    t5 = draw(st.integers(0, cap - 1))
    t5 += (t1 + t2 + t4 + t5) % 2  # the parities that t3 and t6 need then agree
    lo3, hi3 = max(abs(t1 - t2), abs(t4 - t5)), min(t1 + t2, t4 + t5, cap)
    lo6, hi6 = max(abs(t1 - t5), abs(t4 - t2)), min(t1 + t5, t4 + t2, cap)
    assume(lo3 <= hi3 and lo6 <= hi6)
    t3 = lo3 + 2 * draw(st.integers(0, (hi3 - lo3) // 2))
    t6 = lo6 + 2 * draw(st.integers(0, (hi6 - lo6) // 2))
    return (t1, t2, t3, t4, t5, t6)


@st.composite
def _cgc_args(draw, cap=60):
    """(2j1, 2m1, 2j2, 2m2, 2j3, 2m3) with m1 + m2 = m3 and the triangle holding."""
    tj1, tj2 = draw(st.integers(0, cap)), draw(st.integers(0, cap))
    tj3 = draw(st.sampled_from(range(abs(tj1 - tj2), min(tj1 + tj2, cap) + 1, 2)))
    tm1 = draw(st.sampled_from(range(-tj1, tj1 + 1, 2)))
    tm2 = draw(st.sampled_from(range(-tj2, tj2 + 1, 2)))
    assume(abs(tm1 + tm2) <= tj3)
    return (tj1, tm1, tj2, tm2, tj3, tm1 + tm2)


def _equals_sympy(value: SqrtRational, expected) -> bool:
    from sympy import Rational, sign

    if value.is_zero:
        return expected == 0
    square = expected**2
    return (
        square.is_Rational
        and Rational(value.coeff.numerator, value.coeff.denominator) ** 2 * value.radicand
        == square
        and int(sign(expected)) == (1 if value.coeff > 0 else -1)
    )


@given(_sixj_args())
@settings(max_examples=40, deadline=None)
def test_sixj_matches_sympy(tj):
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import wigner_6j

    expected = wigner_6j(*(sympy.Rational(t, 2) for t in tj))
    value = sixj(*tj)
    assert sixj(*tj, cross_check=False) == value
    assert _equals_sympy(value, expected), (tj, value, expected)


@given(_cgc_args())
@settings(max_examples=40, deadline=None)
def test_cgc_matches_sympy(args):
    sympy = pytest.importorskip("sympy")
    from sympy.physics.wigner import clebsch_gordan

    tj1, tm1, tj2, tm2, tj3, tm3 = args
    expected = clebsch_gordan(*(sympy.Rational(t, 2) for t in (tj1, tj2, tj3, tm1, tm2, tm3)))
    assert _equals_sympy(cgc(*args), expected), (args, expected)


@given(_sixj_args())
@settings(max_examples=60, deadline=None)
def test_sixj_regge_symmetry(tj):
    t1, t2, t3, t4, t5, t6 = tj
    s = (t2 + t3 + t5 + t6) // 2
    image = (t1, s - t2, s - t3, t4, s - t5, s - t6)
    assert sixj(*image, cross_check=False) == sixj(*tj, cross_check=False), (tj, image)


def test_sixj_keeps_no_memory():
    # the sums run on term ratios; nothing grows with the arguments seen
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = sixj(2000, 2000, 2000, 2000, 2000, 2000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not value.is_zero
    assert held < 1_000_000, held


def test_cgc_keeps_no_memory():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = cgc(2000, 0, 2000, 0, 2000, 0)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert not value.is_zero
    assert held < 1_000_000, held


def test_cgc_at_large_twice_values_is_fast():
    # trial division of the factorial prefactor took about a minute at this size
    src = os.path.dirname(os.path.dirname(wigner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "from racahmod.wigner import cgc; print(cgc(20000, 0, 20000, 0, 20000, 0).is_zero)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=20
    ).stdout
    assert out == "False\n"


def test_value_routes_take_no_trial_division(monkeypatch):
    def refuse(n):
        raise AssertionError("trial division on a value route")

    monkeypatch.setattr(surd, "squarefree_split", refuse)
    wigner._delta_surd.cache_clear()
    for tj1, tj2, tj3 in itertools.product(range(5), repeat=3):
        delta(tj1, tj2, tj3)
        if triangle(tj1, tj2, tj3):
            for tm1, tm2 in itertools.product(range(-tj1, tj1 + 1, 2), range(-tj2, tj2 + 1, 2)):
                if abs(tm1 + tm2) <= tj3:
                    cgc(tj1, tm1, tj2, tm2, tj3, tm1 + tm2)
    for tj in valid_sixj_tuples(4):
        sixj(*tj, cross_check=True)
        be_coefficients(*tj)
        assert be_recurrence_holds(*tj), tj
        q, k, p, a, b, c = tj  # the 6j {q k p; a b c} of the scalar theorem
        c_factor(a, b, c, p, q, k)
        assert verify_scalar_theorem(a, b, c, p, q, k).agrees, tj


def test_be_coefficients_match_fraction_formula():
    def reference(ti1, ti2, ti3, ti4, ti5, ti6):
        i1, i2, i3, i4, i5, i6 = (Fraction(t, 2) for t in (ti1, ti2, ti3, ti4, ti5, ti6))
        e_sq = (
            (i1 * i1 - (i2 - i3) ** 2)
            * ((i2 + i3 + 1) ** 2 - i1 * i1)
            * (i1 * i1 - (i5 - i6) ** 2)
            * ((i5 + i6 + 1) ** 2 - i1 * i1)
        )
        if e_sq < 0:
            raise ValueError
        c1 = i1 * (i1 + 1)
        c2 = i2 * (i2 + 1)
        c3 = i3 * (i3 + 1)
        c4 = i4 * (i4 + 1)
        c5 = i5 * (i5 + 1)
        c6 = i6 * (i6 + 1)
        f_val = (2 * i1 + 1) * (
            c1 * (-c1 + c2 + c3) + c5 * (c1 + c2 - c3) + c6 * (c1 - c2 + c3) - 2 * c1 * c4
        )
        return SqrtRational.sqrt_of(e_sq), f_val

    def agree(args):
        try:
            want = reference(*args)
        except ValueError:
            with pytest.raises(ValueError):
                be_coefficients(*args)
            return 1
        assert be_coefficients(*args) == want, args
        return 0

    # the recurrence's tuples, and every tuple of the box of the five entries
    # that E reads (t4 enters F alone), each at i1 and i1 + 2; the whole
    # six-entry box would take minutes with the Fraction formula
    for tj in sixj_tuples(6):
        agree(tj)
        agree((tj[0] + 2, *tj[1:]))
    raised = 0
    for t1, t2, t3, t5, t6 in itertools.product(range(7), repeat=5):
        raised += agree((t1, t2, t3, t1, t5, t6)) + agree((t1 + 2, t2, t3, t1, t5, t6))
    assert raised


def test_delta_surd_matches_sqrt_of_delta_sq():
    for tri in itertools.product(range(17), repeat=3):
        if triangle(*tri):
            t, d, s = wigner._delta_surd(*tri)
            assert t > 0 and d > 0 and gcd(t, d) == 1, tri
            assert SqrtRational(Fraction(t, d), s) == SqrtRational.sqrt_of(
                wigner._delta_sq(*tri)
            ), tri


_squarefree = st.integers(1, 300).filter(lambda n: surd.squarefree_split(n)[1] == 1)
_surds = st.tuples(st.integers(-60, 60), st.integers(1, 60), _squarefree)


@given(st.lists(_surds, max_size=5))
@settings(max_examples=300, deadline=None)
def test_surd_product_is_the_reduced_product_of_the_surds(surds):
    n, d, rad = surd._surd_product(surds)
    # the oracle: the rational parts multiplied as Fractions, the radicands
    # as one integer whose square part trial division takes out
    coeff, radicand = Fraction(1), 1
    for t, dt, s in surds:
        coeff *= Fraction(t, dt)
        radicand *= s
    squarefree, root = surd.squarefree_split(radicand)
    coeff *= root
    want = (coeff.numerator, coeff.denominator, squarefree if coeff else 1)
    assert d > 0 and gcd(n, d) == 1
    assert (n, d, rad) == want
    # SqrtRational multiplies through the same routine
    value = SqrtRational(Fraction(1))
    for t, dt, s in surds:
        value = value * SqrtRational(Fraction(t, dt), s)
    assert (n, d, rad) == (value.coeff.numerator, value.coeff.denominator, value.radicand)


def test_surd_product_of_zero_is_0_1_1():
    assert surd._surd_product([(0, 3, 5), (2, 1, 7)]) == (0, 1, 1)
    assert surd._surd_product([(4, 6, 15), (0, 1, 1)]) == (0, 1, 1)
    assert surd._surd_product([(4, 6, 15), (3, 1, 10)]) == (10, 1, 6)


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that counts its starts and maps in
    this process, so a sweep's pool decision is seen without forking."""

    started = 0

    def __init__(self, max_workers):
        type(self).started += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "costs, pool",
    [
        # after the first of three tasks the whole sweep projects to 0.18 s,
        # past the old bound of 2 * POOL_START_S, but a pool of two workers
        # could save only half of the 0.12 s left: less than its start-up
        ([0.06] * 3, False),
        # half of the 0.2 s left repays the start-up
        ([0.1] * 3, True),
    ],
)
def test_sweep_starts_a_pool_only_when_the_time_left_repays_it(monkeypatch, costs, pool):
    import concurrent.futures

    now = [0.0]

    def task(i):
        now[0] += costs[i]  # task i takes costs[i] on the fake clock
        return [i, -i]

    monkeypatch.setattr(wigner.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(wigner, "POOL_START_S", 0.07)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    started = _InlinePool.started
    tasks = list(range(len(costs)))
    assert wigner.sweep(task, tasks, 2) == [x for i in tasks for x in (i, -i)]
    assert _InlinePool.started == started + pool


def test_cross_check_catches_a_wrong_delta_radicand(monkeypatch, request):
    true_surd = wigner._delta_surd

    def wrong_radicand(ta, tb, tc):
        t, d, s = true_surd(ta, tb, tc)
        return t, d, s // 3 if s % 3 == 0 else s * 3

    tuples = [(2, 2, 2, 2, 2, 2), (4, 0, 4, 4, 6, 4), (3, 4, 5, 3, 4, 5), (3, 5, 6, 5, 3, 4)]
    right = [sixj(*tj) for tj in tuples]
    monkeypatch.setattr(wigner, "_delta_surd", wrong_radicand)
    # the class memo holds right values from earlier calls; no faulty value
    # may outlive the test either
    wigner._sixj_class.cache_clear()
    request.addfinalizer(wigner._sixj_class.cache_clear)
    for tj, value in zip(tuples, right):
        assert not value.is_zero
        assert sixj(*tj, cross_check=False) != value, tj
        with pytest.raises(FormulaDisagreement):
            sixj(*tj, cross_check=True)


def _class_key(tj):
    a, b = wigner._sums(*tj)
    return tuple(sorted(a)), tuple(sorted(b))


@given(st.lists(_sixj_args(cap=12), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_unchecked_sixj_is_memoised_once_per_regge_class(tuples):
    wigner._sixj_class.cache_clear()
    images = set()
    for tj in tuples:
        images |= wigner._regge_images(*wigner._sums(*tj))
    for image in sorted(images):
        assert sixj_triangles_hold(image), image
        assert sixj(*image, cross_check=False) == sixj(*image, cross_check=True), image
    info = wigner._sixj_class.cache_info()
    assert info.misses == len({_class_key(tj) for tj in tuples})
    assert info.hits == len(images) - info.misses
    # every image gets the memo's own object, built once per class
    for image in images:
        assert sixj(*image, cross_check=False) is wigner._sixj_class(*_class_key(image)), image


@pytest.mark.parametrize(
    "fault", [lambda n, d: (n + d, d), lambda n, d: (-n, d)], ids=["one_more", "sign"]
)
def test_cross_check_catches_a_wrong_r_sum_on_a_memoised_class(monkeypatch, fault):
    true_sum = wigner._def_sum
    tuples = [(3, 4, 5, 3, 4, 5), (4, 0, 4, 4, 6, 4), (3, 5, 6, 5, 3, 4)]
    for tj in tuples:
        images = sorted(wigner._regge_images(*wigner._sums(*tj)))
        values = [sixj(*image, cross_check=False) for image in images]
        hits = wigner._sixj_class.cache_info().hits
        monkeypatch.setattr(wigner, "_def_sum", lambda *t: fault(*true_sum(*t)))
        for image, value in zip(images, values):
            assert not value.is_zero
            assert sixj(*image, cross_check=False) == value, image
            with pytest.raises(FormulaDisagreement):
                sixj(*image, cross_check=True)
        assert wigner._sixj_class.cache_info().hits == hits + len(images)
        monkeypatch.undo()


def test_every_cache_is_bounded():
    # memory must stay flat however many inputs a sweep meets
    caches = {}
    for info in pkgutil.iter_modules(racahmod.__path__):
        module = importlib.import_module(f"racahmod.{info.name}")
        owners = [module] + [v for v in vars(module).values() if isinstance(v, type)]
        for owner in owners:
            for obj in vars(owner).values():
                obj = getattr(obj, "__func__", obj)
                if hasattr(obj, "cache_info"):
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
    assert {
        "racahmod.constructions.radical_blocks",
        "racahmod.wigner._delta_surd",
        "racahmod.wigner._sixj_class",
        "racahmod.sl2._f_power_images",
        "racahmod.sl2._iota_image",
    } <= set(caches)
    assert all(size is not None for size in caches.values()), caches


def test_sixj_column_permutation_symmetry():
    values = {tj: sixj(*tj, cross_check=False) for tj in valid_sixj_tuples(10)}
    for (t1, t2, t3, t4, t5, t6), val in values.items():
        assert values[(t2, t1, t3, t5, t4, t6)] == val
        assert values[(t3, t2, t1, t6, t5, t4)] == val
        assert values[(t1, t3, t2, t4, t6, t5)] == val


def test_sixj_upper_lower_interchange_symmetry():
    values = {tj: sixj(*tj, cross_check=False) for tj in valid_sixj_tuples(10)}
    for (t1, t2, t3, t4, t5, t6), val in values.items():
        assert values[(t4, t5, t3, t1, t2, t6)] == val  # swap columns 1 and 2
        assert values[(t4, t2, t6, t1, t5, t3)] == val  # swap columns 1 and 3
        assert values[(t1, t5, t6, t4, t2, t3)] == val  # swap columns 2 and 3


def _degenerate(ta, tb, tc):
    return tc == abs(ta - tb) or tc == ta + tb


def test_degenerate_triangle_nonvanishing():
    for tj in valid_sixj_tuples(12):
        t1, t2, t3, t4, t5, t6 = tj
        triples = ((t1, t2, t3), (t1, t5, t6), (t4, t2, t6), (t4, t5, t3))
        if any(_degenerate(*tri) for tri in triples):
            assert not sixj_is_zero(tj), tj


def test_cgc_sixj_bilinear_identity_sampled():
    # transition identity between coupled bases, checked on a deterministic
    # sample of (j, m) tuples with twice-values <= 6
    checked = 0
    for t1, t2, t4 in itertools.product(range(7), repeat=3):
        for t3 in range(abs(t1 - t2), min(t1 + t2, 6) + 1, 2):
            for t5 in range(abs(t3 - t4), min(t3 + t4, 6) + 1, 2):
                if t1 + t2 + t3 + t4 + t5 > 16:
                    continue
                for tm1 in range(-t1, t1 + 1, 4):
                    for tm2 in range(-t2, t2 + 1, 4):
                        tm3 = tm1 + tm2
                        if abs(tm3) > t3:
                            continue
                        for tm4 in range(-t4, t4 + 1, 4):
                            tm5 = tm3 + tm4
                            if abs(tm5) > t5:
                                continue
                            _check_bilinear(t1, t2, t3, t4, t5, tm1, tm2, tm4)
                            checked += 1
    assert checked > 300


def _check_bilinear(t1, t2, t3, t4, t5, tm1, tm2, tm4):
    tm3 = tm1 + tm2
    tm5 = tm3 + tm4
    tm6 = tm2 + tm4
    sign = -1 if ((t1 - t2 - t4 + t5) // 2) & 1 else 1
    lhs = (
        SqrtRational.sqrt_of(Fraction(1, t3 + 1))
        * cgc(t1, tm1, t2, tm2, t3, tm3)
        * cgc(t3, tm3, t4, tm4, t5, tm5)
        * sign
    )
    terms = [-lhs]
    for t6 in range(max(abs(t2 - t4), abs(tm6)), t2 + t4 + 1, 2):
        if abs(tm6) > t6 or not triangle(t1, t6, t5):
            continue
        term = (
            SqrtRational.sqrt_of(t6 + 1)
            * sixj(t1, t2, t3, t4, t5, t6, cross_check=False)
            * cgc(t2, tm2, t4, tm4, t6, tm6)
            * cgc(t1, tm1, t6, tm6, t5, tm5)
        )
        terms.append(term if t6 % 2 == 0 else -term)
    assert sqrtrat_sum_is_zero(terms), (t1, t2, t3, t4, t5, tm1, tm2, tm4)


def test_be_coefficient_zeros():
    # E vanishes at the window edges
    tj2, tj3, tj4, tj5, tj6 = 4, 4, 2, 2, 6
    at_top = 2 * ((tj2 + tj3) // 2 + 1)
    e_top, _ = be_coefficients(at_top, tj2, tj3, tj4, tj5, tj6)
    assert e_top == SqrtRational(Fraction(0))
    at_bottom = abs(tj5 - tj6)
    e_bot, _ = be_coefficients(at_bottom, tj2, tj3, tj4, tj5, tj6)
    assert e_bot == SqrtRational(Fraction(0))


def test_be_coefficient_imaginary_rejected():
    # i1 sits above one window and inside the other, so exactly one factor
    # under the root is negative
    with pytest.raises(ValueError):
        be_coefficients(8, 2, 2, 2, 10, 10)


def test_be_recurrence_example():
    # half-integer tuple (2, 2, 2, 2, 1, 3)
    assert be_recurrence_holds(4, 4, 4, 4, 2, 6)


def test_be_recurrence_small_box():
    for tj in valid_sixj_tuples(6):
        assert be_recurrence_holds(*tj), tj


def test_find_sixj_zeros_trivial_bounds():
    assert find_sixj_zeros(0) == []
    assert (4, 2, 4, 4, 6, 4) in find_sixj_zeros(6)


@pytest.mark.parametrize("bounds", [(3.9,) * 6, ("3",) * 6, True, 3.0, (3, 3, 3, 3, 3, False)])
def test_find_sixj_zeros_refuses_non_integer_bounds(bounds):
    with pytest.raises(ValueError, match="twice-values must be integers, got"):
        find_sixj_zeros(bounds)


@pytest.mark.parametrize("bounds", [-1, (3, 3, 3, 3, 3, -1), (3, 3), ()])
def test_find_sixj_zeros_refuses_negative_or_misshapen_bounds(bounds):
    # the bound is the side of the cube: a sequence is not an integer
    if bounds == -1:
        message = "the twice-value bound must be non-negative, got -1"
    else:
        message = "twice-values must be integers, got"
    with pytest.raises(ValueError, match=message):
        find_sixj_zeros(bounds)


@pytest.mark.parametrize(
    "check",
    [find_sixj_zeros, scalar_theorem_tuples, dual_formula_agreement],
    ids=lambda f: f.__name__,
)
def test_a_box_bound_is_checked_in_one_place(check):
    # the one message of twoj._check_bound, whichever sweep is given the bound
    with pytest.raises(ValueError, match="the twice-value bound must be non-negative, got -1$"):
        check(-1)
    with pytest.raises(ValueError, match="twice-values must be integers, got"):
        check((3,) * 6)


def test_dual_formula_agreement_refuses_a_negative_bound():
    # an empty box would agree vacuously
    for bad in (-1, True, 2.0):
        with pytest.raises(ValueError):
            dual_formula_agreement(bad)


def test_find_sixj_zeros_family_members():
    zeros = set(find_sixj_zeros(12))
    for a in range(2, 7):
        member = (2 * a, 2 * a - 2, 2 * a, 2 * a, 2 * a + 2, 4)
        if max(member) <= 12:
            assert member in zeros


def test_dual_formulas_agree_on_large_scatter():
    # deterministic scatter well beyond the exhaustive box
    import random

    rng = random.Random(20240817)
    checked = 0
    while checked < 300:
        t1, t2, t4, t5 = (rng.randrange(0, 31) for _ in range(4))
        t3s = list(range(abs(t1 - t2), t1 + t2 + 1, 2))
        t6s = [
            t6
            for t6 in range(max(abs(t1 - t5), abs(t4 - t2)), min(t1 + t5, t4 + t2) + 1, 2)
            if triangle(t1, t5, t6) and triangle(t4, t2, t6)
        ]
        if not t3s or not t6s:
            continue
        t3 = rng.choice([t for t in t3s if triangle(t4, t5, t)] or t3s)
        t6 = rng.choice(t6s)
        if sixj_triangles_hold((t1, t2, t3, t4, t5, t6)):
            sixj(t1, t2, t3, t4, t5, t6, cross_check=True)  # raises on mismatch
            checked += 1
    assert checked == 300


def test_sixj_tuples_match_filtered_box():
    box = itertools.product(range(5), repeat=6)
    want = [tj for tj in box if sixj_triangles_hold(tj)]
    assert list(sixj_tuples(4)) == want


def _tetrahedral_images(tj):
    """The 24 images of a 6j tuple, written out from the symmetry rules:
    permute the columns, then swap upper and lower in two columns or none."""
    cols = [(tj[0], tj[3]), (tj[1], tj[4]), (tj[2], tj[5])]
    out = []
    for perm in itertools.permutations(cols):
        for flipped in ((), (0, 1), (0, 2), (1, 2)):
            flip = [(lo, up) if c in flipped else (up, lo) for c, (up, lo) in enumerate(perm)]
            out.append(tuple(up for up, _ in flip) + tuple(lo for _, lo in flip))
    return out


def _full_scan(n):
    return [tj for tj in sixj_tuples(n) if sixj_is_zero(tj)]


def test_find_sixj_zeros_matches_full_scan_on_cubes():
    for n in range(11):
        assert find_sixj_zeros(n) == _full_scan(n), n


@given(st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_find_sixj_zeros_independent_of_jobs_and_closed(n):
    zeros = find_sixj_zeros(n, jobs=1)
    assert find_sixj_zeros(n, jobs=2) == zeros
    found = set(zeros)
    for tj in zeros:
        assert set(_tetrahedral_images(tj)) <= found, tj


def _regge_orbit(tj):
    """The images of tj under the group that the 24 tetrahedral maps and the
    Regge map (t1, s-t2, s-t3, t4, s-t5, s-t6) generate, by closure."""
    orbit, frontier = {tj}, [tj]
    while frontier:
        t1, t2, t3, t4, t5, t6 = frontier.pop()
        s = (t2 + t3 + t5 + t6) // 2
        regge = (t1, s - t2, s - t3, t4, s - t5, s - t6)
        for image in [regge, *_tetrahedral_images((t1, t2, t3, t4, t5, t6))]:
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def test_regge_group_has_144_elements():
    # distinct triangle sums and distinct column sums: every image differs
    images = wigner._regge_images((6, 7, 8, 9), (9, 10, 11))
    assert len(images) == 144
    assert _regge_orbit(min(images)) == images


@given(_sixj_args(cap=24))
@settings(max_examples=40, deadline=None)
def test_sixj_is_the_same_on_all_regge_images(tj):
    orbit = _regge_orbit(tj)
    assert orbit == wigner._regge_images(*wigner._alpha_sum(*tj)[:2])
    value = sixj(*tj, cross_check=True)
    for image in orbit:
        assert sixj_triangles_hold(image), (tj, image)
        assert sixj(*image, cross_check=True) == value, (tj, image)


def test_find_sixj_zeros_matches_full_scan_on_the_benchmark_box():
    assert find_sixj_zeros(16) == _full_scan(16)
