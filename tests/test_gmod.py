"""Unit tests for representations of sl(2) semidirect V(m)."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racahmod.constructions import (
    build_exceptional_len3,
    build_symmetric_power,
    build_z,
    build_z_dual,
    build_z_family,
)
from racahmod.exact import (
    QMatrix,
    RowSpace,
    assemble_blocks,
    kernel,
    quotient_matrix,
    rat_from_str,
)
from racahmod.gmod import (
    GRep,
    check_rep,
    dual_rep,
    grep_from_dict,
    grep_from_json,
    grep_to_dict,
    grep_to_json,
    is_uniserial,
    socle_series,
)
from racahmod.sl2 import (
    DIVIDED_POWER,
    PLAIN_F,
    Sl2Rep,
    decompose,
    diagonal_weights,
    irrep,
    tensor,
)


def zero_radical_rep(base, m):
    """A valid module where every radical generator acts by zero."""
    n = base.dim
    return GRep(
        m=m,
        dim=n,
        h=base.h,
        e=base.e,
        f=base.f,
        v=tuple(QMatrix.zero(n, n) for _ in range(m + 1)),
        convention=base.convention,
    )


def test_check_rep_main_family():
    assert check_rep(build_z(1, 2, 2)).ok
    assert check_rep(build_z(0, 3, 1)).ok
    assert check_rep(build_z(2, 1, 3)).ok


def test_check_rep_zero_radical():
    rep = zero_radical_rep(irrep(3, DIVIDED_POWER), 2)
    assert check_rep(rep).ok


def test_check_rep_detects_perturbation():
    rep = build_z(1, 2, 2)
    rows = [list(row) for row in rep.v[0].to_fractions()]
    rows[0][2] += 1
    broken = dataclasses.replace(rep, v=(QMatrix.from_rows(rows),) + rep.v[1:])
    verdict = check_rep(broken)
    assert not verdict.ok
    assert verdict.failure is not None and "v_0" in verdict.failure


def test_check_rep_detects_sl2_violation():
    rep = build_z(0, 1, 2)
    broken = dataclasses.replace(rep, e=2 * rep.e)
    verdict = check_rep(broken)
    assert not verdict.ok and verdict.failure == "[e,f] != h"


def test_check_rep_shape_errors():
    rep = build_z(0, 1, 1)
    bad = dataclasses.replace(rep, v=rep.v[:1])
    with pytest.raises(ValueError):
        check_rep(bad)


def test_socle_series_main_family():
    series = socle_series(build_z(1, 2, 2))
    assert series.factor_weights() == [1, 3, 5]
    dims = [len(step.basis) for step in series.steps]
    assert dims == [2, 6, 12]


def test_socle_series_zero_radical_single_step():
    base = tensor(irrep(1, DIVIDED_POWER), irrep(1, DIVIDED_POWER))
    rep = zero_radical_rep(base, 2)
    series = socle_series(rep)
    assert len(series.steps) == 1
    assert series.steps[0].factors == {2: 1, 0: 1}


def test_socle_series_dual_reverses():
    series = socle_series(dual_rep(build_z(1, 2, 2)))
    assert series.factor_weights() == [5, 3, 1]
    assert socle_series(build_z_dual(0, 1, 3)).factor_weights() == [3, 0]


def test_socle_invariance_of_steps():
    rep = build_z(0, 2, 3)
    series = socle_series(rep)
    mats = [mat for _, mat in rep.matrices()]
    for step in series.steps:
        space = RowSpace(rep.dim)
        for vec in step.basis:
            space.add(vec)
        assert len(space) == len(step.basis)
        for vec in step.basis:
            for mat in mats:
                assert mat.apply(vec) in space


def test_is_uniserial():
    assert is_uniserial(build_z(1, 2, 2))
    assert is_uniserial(build_z_family(4, 1))
    base = zero_radical_rep(irrep(0, DIVIDED_POWER), 2)
    two_copies = GRep(
        m=2,
        dim=2,
        h=QMatrix.zero(2, 2),
        e=QMatrix.zero(2, 2),
        f=QMatrix.zero(2, 2),
        v=tuple(QMatrix.zero(2, 2) for _ in range(3)),
        convention=DIVIDED_POWER,
    )
    assert not is_uniserial(two_copies)
    assert is_uniserial(base)


def test_uniserial_matches_dual():
    for rep in [build_z(1, 2, 2), build_z(0, 1, 3), build_z_family(4, Fraction(5, 7))]:
        assert is_uniserial(rep) == is_uniserial(dual_rep(rep))


def test_dual_involution_and_socle():
    rep = build_z(1, 2, 2)
    double = dual_rep(dual_rep(rep))
    assert socle_series(double).factor_weights() == [1, 3, 5]
    assert check_rep(dual_rep(rep)).ok


def test_dual_of_irreducible():
    rep = zero_radical_rep(irrep(4, DIVIDED_POWER), 2)
    dual = dual_rep(rep)
    assert check_rep(dual).ok
    assert socle_series(dual).factor_weights() == [4]


def test_json_round_trip():
    rep = build_z(1, 2, 2)
    text = grep_to_json(rep)
    back = grep_from_json(text)
    assert back.m == rep.m and back.dim == rep.dim
    assert back.h == rep.h and back.e == rep.e and back.f == rep.f
    assert back.v == rep.v and back.convention == rep.convention
    assert socle_series(back).factor_weights() == [1, 3, 5]


def test_json_schema_keys():
    data = grep_to_dict(build_z(0, 1, 2))
    assert sorted(data) == ["convention", "dim", "e", "f", "h", "m", "v"]
    assert isinstance(data["h"][0][0], str)
    assert len(data["v"]) == 3


@st.composite
def _interchange_modules(draw):
    """Small built modules, and arbitrary rational matrices in the schema's shape."""
    kind = draw(st.sampled_from(["z", "zdual", "len3", "zfam", "matrices"]))
    if kind in ("z", "zdual"):
        build = build_z if kind == "z" else build_z_dual
        return build(draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 3)))
    if kind == "len3":
        m = draw(st.integers(1, 3))
        return build_exceptional_len3(m, draw(st.sampled_from(range(2 * m % 4, 2 * m + 1, 4))))
    if kind == "zfam":
        return build_z_family(4, draw(st.fractions(max_denominator=10**6)))
    m, dim = draw(st.integers(0, 2)), draw(st.integers(0, 4))
    entry = st.fractions(max_denominator=10**6) | st.just(Fraction(0))
    rows = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    mats = [QMatrix.from_rows(draw(rows)) for _ in range(m + 4)]
    return GRep(m, dim, *mats[:3], tuple(mats[3:]), draw(st.sampled_from([PLAIN_F, DIVIDED_POWER])))


@given(_interchange_modules())
@settings(max_examples=60, deadline=None)
def test_json_round_trip_keeps_every_matrix(rep):
    back = grep_from_json(grep_to_json(rep))
    assert (back.m, back.dim, back.convention) == (rep.m, rep.dim, rep.convention)
    assert back.matrices() == rep.matrices()


def _breaks_schema(data):
    """Damaged copies of a valid module dict, each off the schema in one way."""
    yield [data]
    for key in data:
        yield {k: v for k, v in data.items() if k != key}
    for key, bad in [
        ("m", True), ("m", "1"), ("m", -1), ("m", 2), ("dim", 2.0), ("dim", False),
        ("dim", 4), ("convention", "Other"), ("convention", None), ("v", "x"),
        ("h", data["h"][:1]), ("e", [row[:1] for row in data["e"]]), ("f", "x"),
        ("v", data["v"][:1]),
    ]:
        yield {**data, key: bad}
    for entry in ("1/0", "x", "", 1, None):
        h = [list(row) for row in data["h"]]
        h[0][0] = entry
        yield {**data, "h": h}


def test_reading_parses_only_the_nonzero_entries(monkeypatch):
    from racahmod import gmod

    rep = build_z_family(4, Fraction(5, 7))
    text = grep_to_json(rep)
    parsed = []

    def counting(entry):
        parsed.append(entry)
        return rat_from_str(entry)

    monkeypatch.setattr(gmod, "rat_from_str", counting)
    assert grep_from_json(text) == rep
    nonzero = sum(len(row) for _, mat in rep.matrices() for row in mat.sparse_rows())
    assert len(parsed) == nonzero and "0" not in parsed


def test_grep_from_dict_rejects_schema_breaks():
    data = grep_to_dict(build_z(0, 1, 1))
    assert grep_from_dict(data).dim == data["dim"] == 3
    broken = list(_breaks_schema(data))
    assert len(broken) == 1 + 7 + 14 + 5
    for bad in broken:
        with pytest.raises(ValueError):
            grep_from_dict(bad)


def test_socle_steps_grow_strictly_and_exhaust():
    for rep in [build_z(1, 2, 2), build_z_dual(0, 2, 3), build_z_family(4, 1)]:
        series = socle_series(rep)
        dims = [len(step.basis) for step in series.steps]
        assert dims == sorted(set(dims))
        assert dims[-1] == rep.dim
        total = sum(
            (k + 1) * n for step in series.steps for k, n in step.factors.items()
        )
        assert total == rep.dim


def test_dual_builder_equals_dual_of_builder():
    for ell, b, m in [(1, 2, 2), (0, 1, 3), (2, 0, 4)]:
        assert build_z_dual(ell, b, m) == dual_rep(build_z(ell, b, m))


def test_socle_series_of_dim_81_module():
    rep = build_z(0, 5, 5)
    assert rep.dim == 81
    series = socle_series(rep)
    assert series.factor_weights() == [0, 5, 10, 15, 20, 25]
    assert [len(step.basis) for step in series.steps] == [1, 7, 18, 34, 55, 81]
    assert is_uniserial(rep)


def _layer_by_e_rank(rep, below):
    """sl(2) factors of the layer over the socle `below`, by the e-rank route.

    Restricts h, e and f to the joint radical kernel on the quotient by
    `below` and decomposes that sl(2)-module with sl2.decompose.
    """
    comp = below.free_columns()
    nc = len(comp)
    quot_v = {(i, 0): quotient_matrix(vm, below) for i, vm in enumerate(rep.v)}
    layer = RowSpace(nc)
    for kv in kernel(assemble_blocks([nc] * len(quot_v), [nc], quot_v)):
        layer.add(kv)
    rows, pivots = layer.echelon()
    weights = diagonal_weights(rep.h)
    # each echelon row is weight-homogeneous, so h is diagonal in their basis
    for row, p in zip(rows, pivots):
        assert {weights[comp[j]] for j, x in enumerate(row) if x} == {weights[comp[p]]}
    h_fac = QMatrix.diagonal([weights[comp[p]] for p in pivots])

    def restrict(mat):
        quotient = quotient_matrix(mat, below)
        return layer.coordinates([quotient.apply(row) for row in rows])

    sl2_layer = Sl2Rep(len(layer), h_fac, restrict(rep.e), restrict(rep.f), rep.convention)
    sl2_layer.validate()
    return decompose(sl2_layer), len(layer)


def test_socle_factors_match_sl2_decompose():
    sympow = build_symmetric_power(2, 2)
    modules = [
        build_z(1, 2, 2),
        build_z_dual(0, 2, 3),
        build_exceptional_len3(2, 4),
        build_z_family(4, Fraction(0)),
        build_z_family(4, Fraction(-3, 7)),
        sympow.big,
        sympow.sub,
        build_z(0, 5, 5),
    ]
    layers = 0
    several = 0
    for rep in modules:
        below = RowSpace(rep.dim)
        for step in socle_series(rep).steps:
            factors, size = _layer_by_e_rank(rep, below)
            # equal as dicts and in order, highest weight first
            assert list(factors.items()) == list(step.factors.items())
            assert len(below) + size == len(step.basis)
            layers += 1
            several += len(factors) > 1
            below = RowSpace(rep.dim)
            for vec in step.basis:
                below.add(vec)
    assert layers == 3 + 3 + 3 + 4 + 4 + 3 + 3 + 6
    # the sympow big module is not uniserial: V(4) + V(0) in its third layer
    assert several == 1
    assert socle_series(sympow.big).steps[2].factors == {4: 1, 0: 1}
