"""Unit tests for the sl(2) representation layer."""

import re
from fractions import Fraction
from math import comb

import pytest

from racahmod.constructions import radical_blocks
from racahmod.exact import QMatrix
from racahmod.sl2 import (
    Sl2Rep,
    broken_relation,
    decompose,
    diagonal_weights,
    exterior_square_components,
    hom_embedding,
    iota,
    irrep,
    symmetric_power_components,
    tensor,
)
from racahmod.wigner import triangle


def triples(cap):
    for a in range(cap + 1):
        for b in range(cap + 1):
            for k in range(abs(a - b), a + b + 1, 2):
                yield a, b, k


def test_irrep_zero():
    r = irrep(0)
    assert r.dim == 1
    assert r.h.is_zero() and r.e.is_zero() and r.f.is_zero()


def test_irrep_divided_power_matrices():
    r = irrep(2)
    assert [r.h.entry(i, i) for i in range(3)] == [2, 0, -2]
    assert [r.e.entry(i, i + 1) for i in range(2)] == [2, 1]
    assert [r.f.entry(i + 1, i) for i in range(2)] == [1, 2]


def test_irrep_relations_hold():
    for k in range(0, 9):
        irrep(k).validate()


def test_broken_relation_names_the_first_failure():
    r = irrep(2)
    assert broken_relation(r.h, r.e, r.f) is None
    assert broken_relation(r.h, r.f, r.f) == "[h,e] != 2e"
    assert broken_relation(r.h, r.e, r.e) == "[h,f] != -2f"
    assert broken_relation(r.h, 2 * r.e, r.f) == "[e,f] != h"
    with pytest.raises(ValueError, match=re.escape("[e,f] != h")):
        Sl2Rep(3, r.h, 2 * r.e, r.f).validate()


def test_tensor_examples():
    k3 = irrep(3)
    t = tensor(irrep(0), k3)
    assert (t.h, t.e, t.f) == (k3.h, k3.e, k3.f)
    t11 = tensor(irrep(1), irrep(1))
    assert [t11.h.entry(i, i) for i in range(4)] == [2, 0, 0, -2]
    tensor(irrep(2), irrep(3)).validate()


def test_iota_examples():
    top = iota(3, 1, 2)  # k = a + b: single term 1/C(a+b, a)
    assert top.coeffs == {(0, 0): Fraction(1, 3)}
    assert iota(0, 1, 1).coeffs == {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    assert iota(2, 1, 1).coeffs == {(0, 0): Fraction(1, 2)}
    with pytest.raises(ValueError):
        iota(1, 1, 1)


def test_iota_highest_weight_sweep():
    for a, b, k in triples(12):
        v = iota(k, a, b)
        assert v.apply_e().is_zero(), (a, b, k)
        assert v.weight() == k


def test_hom_embedding_schur():
    mats = hom_embedding(0, 3, 3)
    off_diag = mats[0] - mats[0].entry(0, 0) * QMatrix.identity(4)
    assert off_diag.is_zero()
    assert mats[0].entry(0, 0) != 0


def _shifted_identity_family(a, m):
    """The closed form of the main family's radical blocks: v_i maps V(a + m)
    into V(a) by (-1)^i C(m, i) times the shifted identity (r, m - i + r)."""
    family = []
    for i in range(m + 1):
        rows = [[0] * (a + m + 1) for _ in range(a + 1)]
        for r in range(a + 1):
            rows[r][m - i + r] = (-1) ** i * comb(m, i)
        family.append(QMatrix.from_rows(rows))
    return tuple(family)


def test_hom_embedding_block_family_comparison():
    # target = source + m: the image must be the canonical shifted-identity
    # family up to one global scalar
    for m, a in [(1, 0), (1, 2), (2, 0), (2, 1), (3, 2), (4, 1)]:
        mats = hom_embedding(m, a + m, a)
        expected = _shifted_identity_family(a, m)
        scale = None
        for r in range(a + 1):
            for c in range(a + m + 1):
                if expected[0].entry(r, c):
                    scale = mats[0].entry(r, c) / expected[0].entry(r, c)
                    break
            if scale is not None:
                break
        assert scale
        assert all(mats[i] == scale * expected[i] for i in range(m + 1))


def test_radical_blocks_are_the_shifted_identity_closed_form():
    for m in range(1, 9):
        for a in range(13):
            assert radical_blocks(m, a + m, a) == _shifted_identity_family(a, m), (m, a)


def test_hom_embedding_equivariance():
    for m in range(0, 9):
        for a in range(0, 9):
            for b in range(0, 9):
                if not triangle(a, b, m):
                    continue
                mats = hom_embedding(m, b, a)
                ra, rb = irrep(a), irrep(b)
                zero = QMatrix.zero(a + 1, b + 1)
                for i in range(m + 1):
                    assert ra.h * mats[i] - mats[i] * rb.h == (m - 2 * i) * mats[i]
                    want_e = (m - i + 1) * mats[i - 1] if i > 0 else zero
                    assert ra.e * mats[i] - mats[i] * rb.e == want_e
                    want_f = (i + 1) * mats[i + 1] if i < m else zero
                    assert ra.f * mats[i] - mats[i] * rb.f == want_f


def test_decompose_examples():
    assert decompose(tensor(irrep(1), irrep(1))) == {2: 1, 0: 1}
    assert decompose(tensor(irrep(4), irrep(4))) == {
        8: 1,
        6: 1,
        4: 1,
        2: 1,
        0: 1,
    }
    assert decompose(irrep(5)) == {5: 1}


def test_decompose_clebsch_gordan_sweep():
    for a in range(9):
        for b in range(9):
            got = decompose(tensor(irrep(a), irrep(b)))
            assert got == {k: 1 for k in range(abs(a - b), a + b + 1, 2)}


def test_decompose_requires_diagonal_h():
    bad = Sl2Rep(
        2,
        QMatrix.from_rows([[0, 1], [0, 0]]),
        QMatrix.zero(2, 2),
        QMatrix.zero(2, 2),
    )
    with pytest.raises(ValueError):
        decompose(bad)


def test_exterior_square_components():
    assert exterior_square_components(1) == {0}
    assert exterior_square_components(4) == {6, 2}
    assert exterior_square_components(0) == set()
    assert exterior_square_components(5) == {8, 4, 0}


def test_exterior_square_matches_tensor_decomposition():
    for m in range(7):
        full = decompose(tensor(irrep(m), irrep(m)))
        sym = symmetric_power_components(m, 2)
        alt = exterior_square_components(m)
        assert set(full) == set(sym) | alt
        assert not set(sym) & alt


def test_symmetric_power_components_small():
    assert symmetric_power_components(2, 0) == {0: 1}
    assert symmetric_power_components(2, 1) == {2: 1}
    assert symmetric_power_components(2, 2) == {4: 1, 0: 1}
    assert symmetric_power_components(1, 3) == {3: 1}


def test_diagonal_weights_refuses_a_non_diagonal_or_half_integer_h():
    assert diagonal_weights(QMatrix.diagonal([2, 0, -2])) == [2, 0, -2]
    with pytest.raises(ValueError, match="not diagonal"):
        diagonal_weights(QMatrix.from_rows([[1, 1], [0, -1]]))
    with pytest.raises(ValueError, match="non-integer weight"):
        diagonal_weights(QMatrix.diagonal([Fraction(1, 2), Fraction(-1, 2)]))
