"""Unit tests for the exact arithmetic layer."""

import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racahmod.exact import (
    QMatrix,
    RowSpace,
    SqrtRational,
    assemble_blocks,
    binomial,
    factorial,
    factorial_surd,
    kernel,
    matrix_rank,
    primitive_family,
    rat_from_str,
    rref,
    span_closure,
    sqrtrat_sum_is_zero,
    squarefree_split,
)
from racahmod.gmod import GRep, grep_to_dict


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(20) == 2432902008176640000
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(3, -1) == 0
    assert binomial(3, 5) == 0
    assert binomial(10, 5) == 252


def test_binomial_pascal_oracle():
    rows = [[1]]
    for n in range(1, 13):
        prev = rows[-1]
        rows.append(
            [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        )
    for n in range(13):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]


def test_sqrtrat_mul_examples():
    root2 = SqrtRational.of(1, 2)
    assert root2 * root2 == SqrtRational(Fraction(2), 1)
    x = SqrtRational.of(Fraction(1, 2), 6)
    y = SqrtRational.of(Fraction(1, 3), 10)
    assert x * y == SqrtRational(Fraction(1, 3), 15)
    zero = SqrtRational(Fraction(0))
    assert zero * SqrtRational.of(5, 7) == zero


def test_sqrtrat_construction_normalizes():
    assert SqrtRational.of(1, 60) == SqrtRational(Fraction(2), 15)
    assert SqrtRational.of(0, 7) == SqrtRational(Fraction(0), 1)
    assert SqrtRational.sqrt_of(Fraction(1, 6)) == SqrtRational(Fraction(1, 6), 6)
    with pytest.raises(ValueError):
        SqrtRational(Fraction(1), 0)


def test_sqrtrat_strings():
    assert str(SqrtRational(Fraction(3, 2), 5)) == "3/2*sqrt(5)"
    assert str(SqrtRational(Fraction(-2), 1)) == "-2"


def test_sqrtrat_is_immutable():
    x = SqrtRational(Fraction(3, 2), 5)
    for name in ("coeff", "radicand", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert (x.coeff, x.radicand) == (Fraction(3, 2), 5)


def test_sqrtrat_equality_and_hash_follow_the_normalised_fields():
    assert SqrtRational(0, 5) == SqrtRational(0) == SqrtRational(Fraction(0), 1)
    assert hash(SqrtRational(0, 5)) == hash(SqrtRational(0))
    assert SqrtRational(Fraction(2, 4), 3) == SqrtRational(Fraction(1, 2), 3)
    assert len({SqrtRational(1, 2), SqrtRational(Fraction(1), 2), SqrtRational(1, 3)}) == 2
    assert SqrtRational(1, 2) != SqrtRational(1, 3)
    # a number, not a record: no tuple equality, ordering or length
    assert SqrtRational(3) != Fraction(3) and SqrtRational(3) != (Fraction(3), 1)
    assert not isinstance(SqrtRational(3), tuple)
    with pytest.raises(TypeError):
        SqrtRational(1) < SqrtRational(2)
    with pytest.raises(TypeError):
        len(SqrtRational(1))


def test_sqrtrat_pickles_and_prints_exactly():
    x = SqrtRational(Fraction(-7, 12), 15)
    back = pickle.loads(pickle.dumps(x))
    assert back == x and type(back.coeff) is Fraction and back.radicand == 15
    assert repr(x) == "SqrtRational(coeff=Fraction(-7, 12), radicand=15)"
    assert repr(SqrtRational(0, 7)) == "SqrtRational(coeff=Fraction(0, 1), radicand=1)"


def test_sqrtrat_division():
    x = SqrtRational.of(Fraction(3, 4), 10)
    assert x / x == SqrtRational(Fraction(1), 1)
    assert x * x.inverse() == SqrtRational(Fraction(1), 1)


def test_sqrtrat_sum_grouping():
    root2 = SqrtRational.of(1, 2)
    root3 = SqrtRational.of(1, 3)
    assert sqrtrat_sum_is_zero([root2, root3, -root2, -root3])
    assert not sqrtrat_sum_is_zero([root2, root3, -root2])


@given(
    st.fractions(max_denominator=50),
    st.integers(min_value=1, max_value=400),
    st.fractions(max_denominator=50),
    st.integers(min_value=1, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_sqrtrat_product_invariants(c1, r1, c2, r2):
    x = SqrtRational.of(c1, r1)
    y = SqrtRational.of(c2, r2)
    prod = x * y
    s, t = squarefree_split(prod.radicand)
    assert t == 1 and s == prod.radicand  # radicand stays squarefree
    square = x * x
    assert square.radicand == 1
    assert square.coeff == c1 * c1 * r1


def test_rational_serialization():
    half = QMatrix.from_rows([[Fraction(-3, 6)]])
    data = grep_to_dict(GRep(0, 1, half, half, half, (QMatrix.from_rows([[Fraction(4, 2)]]),)))
    assert data["h"] == [["-1/2"]]
    assert data["v"] == [[["2"]]]
    assert rat_from_str("-1/2") == Fraction(-1, 2)
    assert rat_from_str("7") == 7


def test_rat_from_str_grammar():
    for text, want in [("+3/4", Fraction(3, 4)), ("-0", 0), ("007/010", Fraction(7, 10))]:
        assert rat_from_str(text) == want
    bad = ["0.5", "1e5", "1e1000000", "1/0", "-3/000", " 1", "1 ", "1\n", "1_0", "\u0663"]
    bad += ["", "/2", "1/", "1/-2", "--1", "+", "1/2/3", "inf", "nan", 1, None, Fraction(1)]
    for text in bad:
        with pytest.raises(ValueError):
            rat_from_str(text)


@given(st.fractions())
def test_rat_from_str_reads_str_of_fraction(x):
    assert rat_from_str(str(x)) == x


def test_kernel_examples():
    assert kernel(QMatrix.identity(3)) == []
    z = kernel(QMatrix.zero(2, 2))
    assert z == [(1, 0), (0, 1)]
    k = kernel(QMatrix.from_rows([[1, 2], [2, 4]]))
    assert k == [(Fraction(-2), Fraction(1))]


def test_kernel_reproducible():
    m = QMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert kernel(m) == kernel(QMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_rank_nullity(rows):
    m = QMatrix.from_rows(rows)
    assert matrix_rank(m) + len(kernel(m)) == m.cols
    for vec in kernel(m):
        assert all(x == 0 for x in m.apply(vec))


def test_kernel_refuses_no_matrix_and_unequal_column_counts():
    with pytest.raises(ValueError, match="no matrix"):
        kernel()
    with pytest.raises(ValueError, match="column counts differ"):
        kernel(QMatrix.zero(2, 3), QMatrix.zero(2, 2))
    with pytest.raises(ValueError, match="column counts differ"):
        matrix_rank(QMatrix.identity(2), QMatrix.identity(3))


@st.composite
def _families(draw):
    """One to four matrices sharing a column count, each with its own row count."""
    c = draw(st.integers(min_value=0, max_value=5))
    return [draw(_matrices(cols=c))[0] for _ in range(draw(st.integers(1, 4)))]


@given(_families())
@settings(max_examples=200, deadline=None)
def test_joint_kernel_is_the_kernel_of_the_stack(mats):
    stack = assemble_blocks(
        [mat.rows for mat in mats], [mats[0].cols], {(i, 0): mat for i, mat in enumerate(mats)}
    )
    assert kernel(*mats) == kernel(stack)
    assert matrix_rank(*mats) == matrix_rank(stack)


def test_rref_determinism_and_pivots():
    rows = [[0, 2, 4], [1, 1, 1], [1, 3, 5]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1]
    assert reduced[0][0] == 1 and reduced[1][1] == 1
    assert reduced == rref(rows)[0]


def test_rref_refuses_rows_of_other_lengths():
    # every row is read at the length of the first, never padded or cut
    with pytest.raises(ValueError):
        rref([[0, 0, 1], [1, 0]])
    with pytest.raises(ValueError):
        rref([[1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        rref([[0, 0], [0, 0, 0]])
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([], [])


def test_qmatrix_arithmetic():
    a = QMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
    assert (a * a).to_fractions() == ((Fraction(1, 4), 0), (0, 1))
    b = QMatrix.from_rows([[0, 1], [1, 0]])
    assert (a * b - b * a).entry(0, 1) == Fraction(-1, 2)
    assert (-a + a).is_zero()
    assert a.transpose() == a
    assert 2 * a == QMatrix.from_rows([[1, 0], [0, 2]])


def test_primitive_family():
    # lcm of the denominators 9, gcd of the numerators 2, first nonzero -4/3 flips the sign
    fam = [
        QMatrix.from_rows([[0, Fraction(-4, 3)], [2, 0]]),
        QMatrix.from_rows([[Fraction(2, 9), 0], [0, 0]]),
    ]
    assert primitive_family(fam) == [
        QMatrix.from_rows([[0, 6], [-9, 0]]),
        QMatrix.from_rows([[-1, 0], [0, 0]]),
    ]
    # a product stores the row {1: -1, 0: 1}: the first nonzero is at column 0
    product = QMatrix.from_rows([[1, 1]]) * QMatrix.from_rows([[0, -1], [1, 0]])
    assert primitive_family([product]) == [QMatrix.from_rows([[1, -1]])]
    assert primitive_family([QMatrix.zero(2, 2)]) == [QMatrix.zero(2, 2)]


def test_qmatrix_shape_errors():
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 0]]) * QMatrix.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1]]) + QMatrix.from_rows([[1, 0]])


# -- differential tests: the sparse integer kernels against dense Fractions ------


def _ref_rref(rows):
    """Textbook Gauss-Jordan elimination on dense Fraction rows."""
    work = [[Fraction(x) for x in row] for row in rows if any(row)]
    pivots = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots


def _ref_kernel(grid, ncols):
    reduced, pivots = _ref_rref(grid)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [Fraction(0)] * ncols
            vec[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                vec[p] = -row[f]
            basis.append(tuple(vec))
    return basis


def _ref_reduce(reduced, pivots, vec):
    work = [Fraction(x) for x in vec]
    for row, p in zip(reduced, pivots):
        f = work[p]
        work = [x - f * y for x, y in zip(work, row)]
    return work


def _space(ncols, vectors):
    space = RowSpace(ncols)
    for vec in vectors:
        space.add(vec)
    return space


def _rebuilt(coords, rows, j, ncols):
    """Column j of coords read as a combination of the echelon rows."""
    return tuple(
        sum((coords.entry(i, j) * row[k] for i, row in enumerate(rows)), Fraction(0))
        for k in range(ncols)
    )


def _ref_apply(grid, vec):
    return tuple(sum((a * x for a, x in zip(row, vec)), Fraction(0)) for row in grid)


def _ref_closure(grids, vec):
    reduced, pivots = _ref_rref([vec])
    while True:
        images = [list(_ref_apply(g, row)) for g in grids for row in reduced]
        grown, grown_pivots = _ref_rref(reduced + images)
        if len(grown) == len(reduced):
            return reduced, pivots
        reduced, pivots = grown, grown_pivots


# numerators are zero half of the time, so the matrices are sparse
_numerators = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))


@st.composite
def _matrices(draw, rows=None, cols=None):
    """A QMatrix from its constructor on sparse integer rows, with its reference grid.

    The denominator may be negative, and some matrices are all zeros."""
    r = draw(st.integers(min_value=0, max_value=5)) if rows is None else rows
    c = draw(st.integers(min_value=0, max_value=5)) if cols is None else cols
    row = st.lists(_numerators, min_size=c, max_size=c)
    num = draw(st.lists(row, min_size=r, max_size=r))
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        num = [[0] * c for _ in range(r)]
    den = draw(st.integers(min_value=-12, max_value=12).filter(bool))
    sparse = [{j: x for j, x in enumerate(line) if x} for line in num]
    return QMatrix(r, c, sparse, den), [[Fraction(x, den) for x in line] for line in num]


def _vectors(n):
    entry = st.fractions(max_denominator=7).map(lambda x: x if abs(x) > 2 else 0)
    return st.lists(entry, min_size=n, max_size=n)


def _same(mat, grid):
    """mat holds exactly the entries of grid, in the canonical stored form."""
    assert mat.to_fractions() == tuple(tuple(row) for row in grid)
    sparse = mat.sparse_rows()
    assert sparse == [{j: x for j, x in enumerate(row) if x} for row in grid]
    twin = QMatrix.from_rows(grid) if grid else QMatrix.zero(0, mat.cols)
    assert mat == twin == QMatrix.from_sparse_rows(mat.cols, sparse)
    assert hash(mat) == hash(twin)


@st.composite
def _compatible(draw):
    r, k, c = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    return draw(_matrices(r, k)), draw(_matrices(k, c)), draw(_matrices(r, k))


@given(_compatible(), st.fractions(max_denominator=9))
@settings(max_examples=300, deadline=None)
def test_sparse_arithmetic_matches_dense(triple, scalar):
    (a, ga), (b, gb), (c, gc) = triple
    product = [
        [sum((x * gb[t][j] for t, x in enumerate(row)), Fraction(0)) for j in range(b.cols)]
        for row in ga
    ]
    _same(a * b, product)
    _same(a + c, [[x + y for x, y in zip(ra, rc)] for ra, rc in zip(ga, gc)])
    _same(a - c, [[x - y for x, y in zip(ra, rc)] for ra, rc in zip(ga, gc)])
    _same(scalar * a, [[scalar * x for x in row] for row in ga])
    _same(a * scalar, [[x * scalar for x in row] for row in ga])
    _same(a.transpose(), [[ga[i][j] for i in range(len(ga))] for j in range(a.cols)])
    assert (a - a).is_zero() and ((a + c) == (c + a))


@given(_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_sparse_apply_and_elimination_match_dense(pair, data):
    mat, grid = pair
    vec = data.draw(_vectors(mat.cols))
    assert mat.apply(vec) == _ref_apply(grid, vec)
    reduced, pivots = rref(grid)
    assert (reduced, pivots) == _ref_rref(grid)
    # the same row space, with the rows reordered and rescaled
    assert rref([[x * (i + 1) for x in row] for i, row in enumerate(reversed(grid))]) == (
        reduced,
        pivots,
    )
    assert kernel(mat) == _ref_kernel(grid, mat.cols)
    assert matrix_rank(mat) == len(pivots)
    space = _space(mat.cols, grid)
    assert space.echelon() == (reduced, pivots)
    assert (vec in space) == (not any(_ref_reduce(reduced, pivots, vec)))


@given(_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_coordinates_match_dense(pair, data):
    mat, grid = pair
    ker = kernel(mat)
    combination = st.lists(st.fractions(max_denominator=5), min_size=len(ker), max_size=len(ker))
    weights = data.draw(st.lists(combination, max_size=3))
    members = [
        tuple(sum((w * kv[j] for w, kv in zip(ws, ker)), Fraction(0)) for j in range(mat.cols))
        for ws in weights
    ]
    space = _space(mat.cols, ker)
    got = space.coordinates(members)
    assert (got.rows, got.cols) == (len(ker), len(members))
    rows, _ = space.echelon()
    for j, member in enumerate(members):
        assert _rebuilt(got, rows, j, mat.cols) == member
    reduced, pivots = rref(grid)
    span = _space(mat.cols, grid)
    outside = f"vector 1 lies outside the subspace of dimension {len(pivots)}"
    for vec in data.draw(st.lists(_vectors(mat.cols), max_size=3)):
        if not any(_ref_reduce(reduced, pivots, vec)):
            continue
        with pytest.raises(RuntimeError, match=outside):
            span.coordinates([[0] * mat.cols, vec])


@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda n: st.tuples(st.lists(_matrices(n, n), max_size=3), _vectors(n))
    )
)
@settings(max_examples=200, deadline=None)
def test_sparse_span_closure_matches_dense(args):
    pairs, vec = args
    got = span_closure([mat for mat, _ in pairs], vec)
    assert got.echelon() == _ref_closure([grid for _, grid in pairs], vec)


@st.composite
def _joining(draw):
    """Vectors of one length, and the same vectors in a random order."""
    n = draw(st.integers(min_value=0, max_value=5))
    vectors = draw(st.lists(_vectors(n), max_size=5))
    return n, vectors, draw(st.permutations(vectors))


@given(_joining())
@example((2, [[1, 1], [0, 1]], [[0, 1], [1, 1]]))
@settings(max_examples=200, deadline=None)
def test_row_space_reads_the_same_in_any_joining_order(args):
    n, vectors, shuffled = args
    members = [*vectors, [sum((vec[k] for vec in vectors), Fraction(0)) for k in range(n)]]
    rows, pivots = _ref_rref(vectors)
    for order in (vectors, shuffled):
        space = _space(n, order)
        assert space.echelon() == (rows, pivots)
        assert all(vec in space for vec in members)
        got = space.coordinates(members)
        for j, vec in enumerate(members):
            assert _rebuilt(got, rows, j, n) == tuple(map(Fraction, vec))


def test_row_space_coordinates_shape_and_failure():
    # [1, 2] = [1, 1] + [0, 1], although [1, 1] joined first
    space = _space(2, [[1, 1], [0, 1]])
    assert [1, 2] in space
    assert space.coordinates([[1, 2]]).to_fractions() == ((1,), (2,))
    zero = RowSpace(3)
    assert [0, 0, 0] in zero and [0, 1, 0] not in zero
    empty = zero.coordinates([[0, 0, 0], [0, 0, 0]])
    assert (empty.rows, empty.cols) == (0, 2)
    with pytest.raises(RuntimeError, match="vector 1 lies outside the subspace of dimension 0"):
        zero.coordinates([[0, 0, 0], [0, 1, 0]])
    line = _space(3, [[1, 1, 0]])
    with pytest.raises(RuntimeError, match="vector 0 lies outside the subspace of dimension 1"):
        line.coordinates([[1, 0, 0]])


def test_row_space_refuses_vectors_outside_its_columns():
    space = RowSpace(2)
    for vec in ([0, 0, 1], [1], {2: 1}, {-1: 1}):
        with pytest.raises(ValueError):
            space.add(vec)
        with pytest.raises(ValueError):
            vec in space
        with pytest.raises(ValueError):
            space.coordinates([vec])
    assert len(space) == 0 and space.free_columns() == [0, 1]
    assert space.add({1: 3}) and [0, 5] in space and {1: 1} in space
    assert space.coordinates([[0, 2]]).to_fractions() == ((2,),)


_factorial_args = st.lists(st.integers(min_value=0, max_value=40), max_size=6)


@given(_factorial_args, _factorial_args)
@settings(max_examples=300, deadline=None)
def test_factorial_surd_matches_trial_division(top, bottom):
    t, d, s = factorial_surd(top, bottom)
    assert t > 0 and d > 0 and math.gcd(t, d) == 1
    assert squarefree_split(s) == (s, 1)
    ratio = Fraction(math.prod(map(factorial, top)), math.prod(map(factorial, bottom)))
    assert SqrtRational(Fraction(t, d), s) == SqrtRational.sqrt_of(ratio)


def test_factorial_surd_rejects_negative_entries():
    with pytest.raises(ValueError):
        factorial_surd((3, -1))
    with pytest.raises(ValueError):
        factorial_surd((3,), (-1,))
