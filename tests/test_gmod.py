"""Unit tests for representations of sl(2) semidirect V(m)."""

import io
import json
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racahmod.constructions import (
    _assemble,
    _chain,
    build_exceptional_len3,
    build_symmetric_power,
    build_z,
    build_z_dual,
    build_z_family,
)
from racahmod.exact import (
    QMatrix,
    RowSpace,
    commutator,
    kernel,
    quotient_matrix,
    rat_from_str,
)
from racahmod.gmod import (
    GRep,
    RepCheck,
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
    Sl2Rep,
    broken_relation,
    decompose,
    diagonal_weights,
    irrep,
    tensor,
)


def socle_dims(series):
    """dim soc^i for each step: the running sum of the layer sizes."""
    return list(accumulate(len(step.layer) for step in series.steps))


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
    )


def test_check_rep_main_family():
    assert check_rep(build_z(1, 2, 2)).ok
    assert check_rep(build_z(0, 3, 1)).ok
    assert check_rep(build_z(2, 1, 3)).ok


def test_check_rep_zero_radical():
    rep = zero_radical_rep(irrep(3), 2)
    assert check_rep(rep).ok


def test_check_rep_detects_perturbation():
    rep = build_z(1, 2, 2)
    rows = [list(row) for row in rep.v[0].to_fractions()]
    rows[0][2] += 1
    broken = rep._replace(v=(QMatrix.from_rows(rows),) + rep.v[1:])
    verdict = check_rep(broken)
    assert not verdict.ok
    assert verdict.failure is not None and "v_0" in verdict.failure


def test_check_rep_detects_sl2_violation():
    rep = build_z(0, 1, 2)
    broken = rep._replace(e=2 * rep.e)
    verdict = check_rep(broken)
    assert not verdict.ok and verdict.failure == "[e,f] != h"


def test_check_rep_names_the_defining_relation_of_v_0():
    # a matrix unit of weight m = 2 added to v_0 keeps [h,v_0] = m v_0 but
    # breaks [e,v_0] = 0, which has no (m-i+1) v_{i-1} term
    rep = build_z(0, 2, 2)
    weights = diagonal_weights(rep.h)
    assert weights[0] - weights[7] == rep.m
    unit = QMatrix.from_sparse_rows(rep.dim, [{7: 1} if i == 0 else {} for i in range(rep.dim)])
    broken = rep._replace(v=(rep.v[0] + unit, *rep.v[1:]))
    assert check_rep(broken) == RepCheck(False, "[e,v_0] != 0")


def test_check_rep_shape_errors():
    rep = build_z(0, 1, 1)
    bad = rep._replace(v=rep.v[:1])
    with pytest.raises(ValueError):
        check_rep(bad)


def check_every_relation(rep: GRep) -> RepCheck:
    """The reference for check_rep: every defining relation, each v_i through
    h, e and f in turn and then every pair [v_i, v_j], row i = 0 first,
    where check_rep checks the generators only."""
    h, e, f, m, n = rep.h, rep.e, rep.f, rep.m, rep.dim
    failure = broken_relation(h, e, f)
    if failure:
        return RepCheck(False, failure)
    zero = QMatrix.zero(n, n)
    for i, vi in enumerate(rep.v):
        if commutator(h, vi) != (m - 2 * i) * vi:
            return RepCheck(False, f"[h,v_{i}] != (m-2i) v_{i}")
        if commutator(e, vi) != ((m - i + 1) * rep.v[i - 1] if i else zero):
            return RepCheck(False, f"[e,v_{i}] != " + (f"(m-i+1) v_{i - 1}" if i else "0"))
        if commutator(f, vi) != ((i + 1) * rep.v[i + 1] if i < m else zero):
            return RepCheck(False, f"[f,v_{i}] != " + (f"(i+1) v_{i + 1}" if i < m else "0"))
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            if commutator(rep.v[i], rep.v[j]) != zero:
                return RepCheck(False, f"[v_{i},v_{j}] != 0")
    return RepCheck(True)


def _chain_module(seq, m):
    """The module of a factor sequence with its canonical superdiagonal,
    obstructed or not."""
    return _assemble(seq, m, _chain(seq, m))


_PERTURBATION_BASES = (
    lambda: build_z(1, 2, 2),
    lambda: build_z(0, 2, 3),
    lambda: build_z_dual(0, 2, 2),
    lambda: build_exceptional_len3(2, 0),
    lambda: build_z_family(4, Fraction(2, 3)),
    lambda: _chain_module([0, 2, 2], 2),
    lambda: _chain_module([2, 1, 2, 3], 1),
)


@st.composite
def _perturbed_modules(draw):
    """A module, valid or from an obstructed chain, with one or two entries of
    h, e, f or a v_i changed; a change to v_i may keep its weight m - 2i, so
    that [h,v_i] still holds and a later relation has to catch it."""
    rep = draw(st.sampled_from(_PERTURBATION_BASES))()
    mats = dict(rep.matrices())
    weights = diagonal_weights(rep.h)
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(mats)))
        r = draw(st.integers(0, rep.dim - 1))
        cols = range(rep.dim)
        if name.startswith("v_") and draw(st.booleans()):
            shift = rep.m - 2 * int(name[2:])
            cols = [c for c, w in enumerate(weights) if weights[r] - w == shift] or cols
        c = draw(st.sampled_from(cols))
        rows = mats[name].sparse_rows()
        rows[r][c] = rows[r].get(c, 0) + draw(st.sampled_from([1, -1, 3, Fraction(1, 2)]))
        mats[name] = QMatrix.from_sparse_rows(rep.dim, rows)
    v = tuple(mats[f"v_{i}"] for i in range(rep.m + 1))
    return GRep(rep.m, rep.dim, mats["h"], mats["e"], mats["f"], v)


@given(_perturbed_modules())
@settings(max_examples=300, deadline=None)
def test_check_rep_names_the_first_relation_of_the_full_list(rep):
    assert check_rep(rep) == check_every_relation(rep)


@st.composite
def _chains(draw):
    """A factor sequence of length 3 or 4 whose neighbours pass the triangle with m."""
    m = draw(st.integers(1, 4))
    seq = [draw(st.integers(0, 6))]
    for _ in range(draw(st.integers(2, 3))):
        seq.append(draw(st.sampled_from(range(abs(seq[-1] - m), seq[-1] + m + 1, 2))))
    return seq, m


@given(_chains())
@settings(max_examples=150, deadline=None)
def test_check_rep_names_the_first_relation_of_the_full_list_on_chains(chain):
    rep = _chain_module(*chain)
    assert check_rep(rep) == check_every_relation(rep)


def test_check_rep_on_an_obstructed_chain():
    # h, e and f hold on the chain [0, 2, 2]; only the radical brackets fail
    rep = _chain_module([0, 2, 2], 2)
    assert broken_relation(rep.h, rep.e, rep.f) is None
    expected = RepCheck(False, "[v_0,v_1] != 0")
    assert check_rep(rep) == check_every_relation(rep) == expected


def test_socle_series_main_family():
    series = socle_series(build_z(1, 2, 2))
    assert series.factor_weights() == [1, 3, 5]
    assert socle_dims(series) == [2, 6, 12]


def test_socle_series_zero_radical_single_step():
    base = tensor(irrep(1), irrep(1))
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
    mats = [mat for _, mat in rep.matrices()]
    space = RowSpace(rep.dim)
    spanning = []
    for step in socle_series(rep).steps:
        assert [space.add(vec) for vec in step.layer] == [True] * len(step.layer)
        spanning += [[vec.get(j, 0) for j in range(rep.dim)] for vec in step.layer]
        for vec in spanning:
            for mat in mats:
                assert mat.apply(vec) in space


def test_is_uniserial():
    assert is_uniserial(build_z(1, 2, 2))
    assert is_uniserial(build_z_family(4, 1))
    base = zero_radical_rep(irrep(0), 2)
    two_copies = GRep(
        m=2,
        dim=2,
        h=QMatrix.zero(2, 2),
        e=QMatrix.zero(2, 2),
        f=QMatrix.zero(2, 2),
        v=tuple(QMatrix.zero(2, 2) for _ in range(3)),
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
    rep = zero_radical_rep(irrep(4), 2)
    dual = dual_rep(rep)
    assert check_rep(dual).ok
    assert socle_series(dual).factor_weights() == [4]


def test_json_round_trip():
    rep = build_z(1, 2, 2)
    text = grep_to_json(rep)
    back = grep_from_json(text)
    assert back.m == rep.m and back.dim == rep.dim
    assert back.h == rep.h and back.e == rep.e and back.f == rep.f
    assert back.v == rep.v
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
    return GRep(m, dim, *mats[:3], tuple(mats[3:]))


@given(_interchange_modules())
@settings(max_examples=60, deadline=None)
def test_json_round_trip_keeps_every_matrix(rep):
    back = grep_from_json(grep_to_json(rep))
    assert (back.m, back.dim) == (rep.m, rep.dim)
    assert back.matrices() == rep.matrices()


class _Writes(io.StringIO):
    """A text stream that keeps each write."""

    def __init__(self):
        super().__init__()
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


def _assert_written_as_json_module(rep):
    written, expected = grep_to_json(rep), json.dumps(grep_to_dict(rep), indent=1)
    if written != expected:  # a plain assert would diff megabytes of text
        at = next(i for i, (x, y) in enumerate(zip(written + "\0", expected + "\1")) if x != y)
        pytest.fail(f"grep_to_json departs at {at}: {written[at - 20 : at + 20]!r}")
    # to a stream, the same text goes out with each matrix a write of its own
    stream = _Writes()
    assert grep_to_json(rep, stream) is None and stream.getvalue() == written
    data = grep_to_dict(rep)
    nested = [(data[key], 1) for key in ("h", "e", "f")] + [(vi, 2) for vi in data["v"]]
    for mat, level in nested:
        assert json.dumps(mat, indent=1).replace("\n", "\n" + " " * level) in stream.pieces


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_z(2, 2, 4),
        lambda: build_z_dual(0, 2, 2),
        lambda: build_exceptional_len3(6, 8),
        lambda: build_z_family(8, Fraction(5, 7)),
        lambda: build_symmetric_power(2, 2).big,
        lambda: build_symmetric_power(2, 3).sub,
        lambda: build_z(0, 9, 9),
    ],
    ids=["z", "zdual", "len3", "zfam", "sympow-big", "sympow-sub", "z099"],
)
def test_json_writer_matches_the_json_module(build):
    _assert_written_as_json_module(build())


@given(_interchange_modules())
@settings(max_examples=60, deadline=None)
def test_json_writer_matches_the_json_module_on_any_matrices(rep):
    _assert_written_as_json_module(rep)


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
        dims = socle_dims(series)
        assert all(step.layer for step in series.steps)
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
    assert socle_dims(series) == [1, 7, 18, 34, 55, 81]
    assert is_uniserial(rep)


def _layer_by_e_rank(rep, below):
    """sl(2) factors of the layer over the socle `below`, by the e-rank route.

    Restricts h, e and f to the joint radical kernel on the quotient by
    `below` and decomposes that sl(2)-module with sl2.decompose.
    """
    comp = below.free_columns()
    layer = RowSpace(len(comp))
    for kv in kernel(*[quotient_matrix(vm, below) for vm in rep.v]):
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

    sl2_layer = Sl2Rep(len(layer), h_fac, restrict(rep.e), restrict(rep.f))
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
            assert size == len(step.layer)
            layers += 1
            several += len(factors) > 1
            for vec in step.layer:
                below.add(vec)
    assert layers == 3 + 3 + 3 + 4 + 4 + 3 + 3 + 6
    # the sympow big module is not uniserial: V(4) + V(0) in its third layer
    assert several == 1
    assert socle_series(sympow.big).steps[2].factors == {4: 1, 0: 1}
