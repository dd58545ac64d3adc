"""Unit tests for the explicit uniserial module builders."""

import itertools
from fractions import Fraction
from math import comb, gcd

import pytest

from racahmod import constructions
from racahmod.constructions import (
    GRep,
    SequenceObstruction,
    build_exceptional_len3,
    build_from_sequence,
    build_symmetric_power,
    build_z,
    build_z_dual,
    build_z_family,
    check_z_characterization,
    _layout,
    grep_to_latex,
    radical_blocks,
)
from racahmod.exact import QMatrix, primitive_family, span_closure, triangle
from racahmod.gmod import check_rep, is_uniserial, socle_series
from racahmod.sl2 import hom_embedding, symmetric_power_components


def expected_z122_radical(gen: int) -> QMatrix:
    """The 12x12 radical matrices of the standard realization with factors
    V(1), V(3), V(5) over m = 2, frozen from the explicit block recipe."""
    g = [[0] * 12 for _ in range(12)]

    def put(row0, col0, a, m):
        for r in range(a + 1):
            g[row0 + r][col0 + (m - gen + r)] = (-1) ** gen * comb(m, gen)

    put(0, 2, 1, 2)
    put(2, 6, 3, 2)
    return QMatrix.from_rows(g)


def test_build_z_m2_twelve_dim_regression():
    rep = build_z(1, 2, 2)
    assert rep.dim == 12 and _layout(rep) == [2, 4, 6]
    assert [int(rep.h.entry(i, i)) for i in range(12)] == [
        1, -1, 3, 1, -1, -3, 5, 3, 1, -1, -3, -5,
    ]
    # e and f act block-diagonally in the divided-power pattern
    assert [rep.e.entry(2 + i, 3 + i) for i in range(3)] == [3, 2, 1]
    assert [rep.e.entry(6 + i, 7 + i) for i in range(5)] == [5, 4, 3, 2, 1]
    assert [rep.f.entry(3 + i, 2 + i) for i in range(3)] == [1, 2, 3]
    for gen in range(3):
        assert rep.v[gen] == expected_z122_radical(gen)


def test_build_z_b0_is_irreducible():
    rep = build_z(4, 0, 2)
    assert rep.dim == 5
    assert all(vi.is_zero() for vi in rep.v)
    assert socle_series(rep).factor_weights() == [4]


def test_build_z_dimension_and_socle():
    rep = build_z(0, 1, 3)
    assert rep.dim == 5
    assert socle_series(rep).factor_weights() == [0, 3]


def test_build_z_relation_suite():
    for ell, b, m in [(0, 2, 1), (1, 1, 4), (2, 2, 2), (3, 1, 5), (0, 4, 1)]:
        rep = build_z(ell, b, m)
        assert check_rep(rep).ok
        assert is_uniserial(rep)
        assert socle_series(rep).factor_weights() == [ell + j * m for j in range(b + 1)]


def test_build_z_dual():
    rep = build_z_dual(1, 2, 2)
    assert socle_series(rep).factor_weights() == [5, 3, 1]
    assert check_rep(build_z_dual(0, 2, 3)).ok
    assert socle_series(build_z_dual(2, 0, 3)).factor_weights() == [2]


def test_build_z_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_z(0, 1, 0)
    with pytest.raises(ValueError):
        build_z(-1, 1, 2)


def test_len3_displayed_example_up_to_block_scaling():
    rep = build_exceptional_len3(3, 2)
    assert _layout(rep) == [1, 4, 3]
    # frozen from the displayed 8x8 realization with socle factors
    # V(0), V(3), V(2)
    shown_12 = {
        0: {(0, 3): 1},
        1: {(0, 2): -3},
        2: {(0, 1): 3},
        3: {(0, 0): -1},
    }
    shown_23 = {
        0: {(0, 1): 3, (1, 2): 1},
        1: {(0, 0): -3, (1, 1): 1, (2, 2): 2},
        2: {(1, 0): -2, (2, 1): -1, (3, 2): 3},
        3: {(2, 0): -1, (3, 1): -3},
    }

    def block(mat, r0, c0, nr, nc):
        return [[mat.entry(r0 + r, c0 + c) for c in range(nc)] for r in range(nr)]

    scale_12 = scale_23 = None
    for gen in range(4):
        got12 = block(rep.v[gen], 0, 1, 1, 4)
        got23 = block(rep.v[gen], 1, 5, 4, 3)
        for (r, c), val in shown_12[gen].items():
            ratio = got12[r][c] / val
            scale_12 = scale_12 or ratio
            assert ratio == scale_12 != 0
        for (r, c), val in shown_23[gen].items():
            ratio = got23[r][c] / val
            scale_23 = scale_23 or ratio
            assert ratio == scale_23 != 0
        # nothing outside the shown support
        for r in range(1):
            for c in range(4):
                assert (got12[r][c] != 0) == ((r, c) in shown_12[gen])
        for r in range(4):
            for c in range(3):
                assert (got23[r][c] != 0) == ((r, c) in shown_23[gen])


def test_len3_even_c_zero_case():
    rep = build_exceptional_len3(2, 0)
    assert socle_series(rep).factor_weights() == [0, 2, 0]
    assert is_uniserial(rep)


def test_len3_relation_suite():
    for m in range(1, 7):
        for c in range(2 * m % 4, 2 * m + 1, 4):
            rep = build_exceptional_len3(m, c)
            assert check_rep(rep).ok, (m, c)
            assert is_uniserial(rep), (m, c)
            assert socle_series(rep).factor_weights() == [0, m, c]


def test_len3_parity_rejected():
    with pytest.raises(ValueError):
        build_exceptional_len3(3, 3)
    with pytest.raises(ValueError):
        build_exceptional_len3(3, 4)  # 2m - c = 2, not divisible by 4
    with pytest.raises(ValueError):
        build_exceptional_len3(2, 6)  # c > 2m


def test_z_family_displayed_example():
    z = Fraction(5, 7)
    rep = build_z_family(4, z)
    assert _layout(rep) == [1, 5, 5, 1]
    shown_23 = {
        0: {(0, 2): 6, (1, 3): 3, (2, 4): 1},
        1: {(0, 1): -12, (1, 2): -3, (2, 3): 2, (3, 4): 3},
        2: {(0, 0): 6, (1, 1): -3, (2, 2): -6, (3, 3): -3, (4, 4): 6},
        3: {(1, 0): 3, (2, 1): 2, (3, 2): -3, (4, 3): -12},
        4: {(2, 0): 1, (3, 1): 3, (4, 2): 6},
    }
    for gen in range(5):
        mat = rep.v[gen]
        assert mat.entry(0, 1 + 4 - gen) == (-1) ** gen * comb(4, gen)
        assert mat.entry(6 + gen, 11) == 1
        assert mat.entry(1 + gen, 11) == z
        for r in range(5):
            for c in range(5):
                assert mat.entry(1 + r, 6 + c) == shown_23[gen].get((r, c), 0)


def test_z_family_members_are_uniserial():
    for z in (0, 1, -1, Fraction(5, 7)):
        rep = build_z_family(4, z)
        assert check_rep(rep).ok
        assert is_uniserial(rep)
        assert socle_series(rep).factor_weights() == [0, 4, 4, 0]


def test_z_family_rejects_other_m():
    with pytest.raises(ValueError):
        build_z_family(6, 1)
    with pytest.raises(ValueError):
        build_z_family(2, 0)


@pytest.mark.parametrize("z", [0.1, 1.0, True, "5/7", None])
def test_z_family_takes_only_an_exact_parameter(z):
    # a float would enter the module as its binary expansion
    with pytest.raises(ValueError, match="z must be an int or a Fraction"):
        build_z_family(4, z)


def test_symmetric_power_whole_space_for_m1():
    pair = build_symmetric_power(1, 3)
    assert pair.big.dim == pair.sub.dim == comb(1 + 1 + 3, 3)


def test_symmetric_power_socle_factors():
    pair = build_symmetric_power(2, 1)
    assert [dict(s.factors) for s in socle_series(pair.big).steps] == [{0: 1}, {2: 1}]
    pair = build_symmetric_power(2, 2)
    assert pair.big.dim == comb(5, 2) == 10
    series = socle_series(pair.big)
    assert [dict(s.factors) for s in series.steps] == [
        symmetric_power_components(2, i) for i in range(3)
    ]
    assert socle_series(pair.sub).factor_weights() == [0, 2, 4]


def test_symmetric_power_closure_applies_each_matrix_once_per_vector(monkeypatch):
    inside, calls = [False], [0]
    apply = QMatrix.apply

    def counting_apply(self, vec):
        calls[0] += inside[0]
        return apply(self, vec)

    def closure(mats, vec):
        inside[0] = True
        try:
            return span_closure(mats, vec)
        finally:
            inside[0] = False

    monkeypatch.setattr(QMatrix, "apply", counting_apply)
    monkeypatch.setattr(constructions, "span_closure", closure)
    pair = build_symmetric_power(4, 5)
    assert (pair.big.dim, pair.sub.dim) == (252, 66)
    # e, f, h and v_0..v_4, each applied once to each of the 66 vectors that
    # join the span
    assert 0 < calls[0] <= 66 * 8


def test_symmetric_power_matches_main_family_socle():
    for m in range(1, 4):
        for b in range(0, 3):
            pair = build_symmetric_power(m, b)
            assert check_rep(pair.big).ok and check_rep(pair.sub).ok
            want = socle_series(build_z(0, b, m)).factor_weights()
            assert socle_series(pair.sub).factor_weights() == want


def test_characterization_of_generated_submodule():
    pair = build_symmetric_power(2, 2)
    report = check_z_characterization(pair.sub, pair.generator_sub, 0, 2)
    assert report.all_hold


def test_characterization_b0():
    rep = build_z(3, 0, 2)
    vec = [1, 0, 0, 0]
    report = check_z_characterization(rep, vec, 3, 0)
    assert report.all_hold


def test_characterization_rejects_non_maximal_vector():
    pair = build_symmetric_power(2, 2)
    vec = list(pair.generator_sub)
    bad = pair.sub.f.apply(vec)  # lower the weight: no longer maximal
    report = check_z_characterization(pair.sub, bad, 0, 2)
    assert not report.maximal_generator
    with pytest.raises(ValueError):
        check_z_characterization(pair.sub, [0] * pair.sub.dim, 0, 2)


def test_characterization_on_main_family():
    rep = build_z(1, 2, 2)
    vec = [Fraction(0)] * 12
    vec[6] = Fraction(1)  # head of the top factor V(5)
    assert check_z_characterization(rep, vec, 1, 2).all_hold
    socle_vec = [Fraction(0)] * 12
    socle_vec[0] = Fraction(1)  # socle vector: maximal but not generating
    report = check_z_characterization(rep, socle_vec, 1, 2)
    assert not report.maximal_generator and not report.nilpotency_window


def test_characterization_dual_family_sweep():
    for ell, b, m in [(1, 2, 2), (0, 2, 3), (2, 1, 4)]:
        rep = build_z_dual(ell, b, m)
        vec = [Fraction(0)] * rep.dim
        for i in range(rep.dim):
            cand = [Fraction(j == i) for j in range(rep.dim)]
            if rep.h.entry(i, i) == ell and not any(rep.e.apply(cand)):
                vec[i] = Fraction(1)
                break
        assert check_z_characterization(rep, vec, ell, b, dual=True).all_hold


def test_characterization_dual_orientation():
    rep = build_z_dual(1, 2, 2)
    # the generator is the maximal vector of the top factor V(1): weight 1,
    # located in the last block of the dual basis
    vec = [Fraction(0)] * rep.dim
    target_weight = 1
    for i in range(rep.dim):
        if rep.h.entry(i, i) == target_weight and not any(
            rep.e.apply([Fraction(j == i) for j in range(rep.dim)])
        ):
            vec[i] = Fraction(1)
            break
    report = check_z_characterization(rep, vec, 1, 2, dual=True)
    assert report.all_hold


def test_build_from_sequence_success_matches_main_family():
    rep = build_from_sequence([1, 3, 5], 2)
    assert isinstance(rep, GRep)
    assert socle_series(rep).factor_weights() == [1, 3, 5]
    # the builders and the generic assembly share one block recipe: equal exactly
    for m in range(1, 7):
        for ell in range(5):
            for b in range(4):
                seq = [ell + j * m for j in range(b + 1)]
                assert build_from_sequence(seq, m) == build_z(ell, b, m), (ell, b, m)
        for c in range(2 * m % 4, 2 * m + 1, 4):
            assert build_from_sequence([0, m, c], m) == build_exceptional_len3(m, c), (m, c)


def test_build_from_sequence_failure():
    result = build_from_sequence([4, 6, 4], 4)
    assert isinstance(result, SequenceObstruction)
    assert not result
    assert not result.block.is_zero()


@pytest.mark.parametrize(
    "seq, m, window, block",
    [
        ([2, 1, 2], 1, 0, [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]),
        ([2, 2, 2], 2, 0, [[0, 4, 0], [0, 0, 2], [0, 0, 0]]),
        ([0, 1, 2, 1], 1, 1, [[3, 0], [0, 3]]),
    ],
)
def test_build_from_sequence_obstruction_pinned(seq, m, window, block):
    result = build_from_sequence(seq, m)
    assert isinstance(result, SequenceObstruction)
    assert result.window == window
    assert result.pair == (0, 1)
    assert result.block == QMatrix.from_rows(block)


def every_pair_obstruction(seq, m):
    """The reference for build_from_sequence's scan: every pair (i, j) of
    each window, row i = 0 first, where the builder scans the pairs (0, j)
    only.  The first nonzero block as (window, pair, block), or None."""
    blocks = constructions._chain(seq, m)
    for w in range(len(seq) - 2):
        fam_a, fam_b = blocks[w, w + 1], blocks[w + 1, w + 2]
        for i in range(m + 1):
            for j in range(i + 1, m + 1):
                block = fam_a[i] * fam_b[j] - fam_a[j] * fam_b[i]
                if not block.is_zero():
                    return w, (i, j), block
    return None


def test_build_from_sequence_meets_the_first_obstruction_of_every_pair():
    # every sequence of length 3 and 4 with m <= 6, weights <= 12
    seen = {True: 0, False: 0}
    for m in range(1, 7):
        for length in (3, 4):
            for seq in itertools.product(range(13), repeat=length):
                if not all(triangle(a, b, m) for a, b in zip(seq, seq[1:])):
                    continue
                result = build_from_sequence(seq, m)
                expected = every_pair_obstruction(seq, m)
                if expected is None:
                    assert isinstance(result, GRep), (seq, m)
                else:
                    assert isinstance(result, SequenceObstruction), (seq, m)
                    assert tuple(result) == expected, (seq, m)
                seen[expected is None] += 1
    assert seen == {True: 132, False: 5256}


def test_build_from_sequence_exceptional():
    rep = build_from_sequence([0, 3, 2], 3)
    assert isinstance(rep, GRep)
    assert is_uniserial(rep)


def test_radical_blocks_memo_equals_the_unmemoised_family():
    for m in range(1, 5):
        for source in range(7):
            for target in range(abs(source - m), source + m + 1, 2):
                blocks = radical_blocks(m, target, source)
                assert type(blocks) is tuple  # shared by every caller, so immutable
                assert radical_blocks(m, target, source) is blocks
                assert blocks == tuple(primitive_family(hom_embedding(m, target, source)))


def test_radical_blocks_are_primitive_multiples_of_the_embedding():
    for m in range(7):
        for source in range(11):
            for target in range(abs(source - m), min(source + m, 10) + 1, 2):
                blocks = radical_blocks(m, target, source)
                entries = [x for mat in blocks for row in mat.to_fractions() for x in row]
                assert all(x.denominator == 1 for x in entries)
                assert gcd(*(x.numerator for x in entries)) == 1
                assert next(x for x in entries if x) > 0
                maps = hom_embedding(m, target, source)
                ref = [x for mat in maps for row in mat.to_fractions() for x in row]
                scale = next(x / y for x, y in zip(entries, ref) if y)
                assert list(blocks) == [scale * mat for mat in maps], (m, target, source)


def test_build_from_sequence_errors():
    with pytest.raises(ValueError):
        build_from_sequence([0, 1], 3)  # triangle violation


@pytest.mark.parametrize("seq, m", [([0, 3.7, 2], 3), ([0, 3, 2], 3.0), ([0, True, 2], 1)])
def test_build_from_sequence_refuses_non_integers(seq, m):
    # a float or bool is refused, not truncated into a module
    with pytest.raises(ValueError, match="integers"):
        build_from_sequence(seq, m)


def test_latex_rendering():
    text = grep_to_latex(build_z(1, 2, 2))
    assert text.startswith(r"\begin{array}{rr|rrrr|rrrrrr}")
    assert r"\hline" in text
    assert "-2v_1" in text and "3h" in text and "v_0" in text
    # the zero-parameter family renders its parameter exactly
    fam = grep_to_latex(build_z_family(4, Fraction(5, 7)))
    assert "5/7v_0" in fam


def test_latex_recovers_blocks_from_plain_json():
    from racahmod.gmod import grep_from_json, grep_to_json

    # one module of every realize kind, with its irreducible sl(2) blocks in
    # basis order; the layout is read off h, e and f, so JSON keeps it
    layouts = [
        (build_z(1, 2, 2), [2, 4, 6]),
        (build_z_dual(0, 2, 2), [1, 3, 5]),
        (build_z_dual(1, 3, 2), [2, 4, 6, 8]),
        (build_exceptional_len3(3, 2), [1, 4, 3]),
        (build_z_family(4, Fraction(5, 7)), [1, 5, 5, 1]),
        (build_symmetric_power(2, 2).big, [1, 3, 6]),
        (build_symmetric_power(2, 3).sub, [1, 3, 5, 7]),
    ]
    for built, layout in layouts:
        rep = grep_from_json(grep_to_json(built))
        assert _layout(rep) == _layout(built) == layout
        assert grep_to_latex(rep) == grep_to_latex(built)


def test_layout_splits_where_nothing_links_the_runs():
    # V(1) + V(1) splits into two runs; one entry of e linking them joins them
    n = 4
    h = QMatrix.diagonal([1, -1, 1, -1])
    e = QMatrix.from_rows([[0, 1, 0, 0], [0] * n, [0, 0, 0, 1], [0] * n])
    rep = GRep(m=0, dim=n, h=h, e=e, f=e.transpose(), v=(QMatrix.zero(n, n),))
    assert _layout(rep) == [2, 2]
    linked = QMatrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0] * n])
    assert _layout(GRep(m=0, dim=n, h=h, e=linked, f=e.transpose(), v=rep.v)) == [4]
