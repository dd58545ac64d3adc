"""Builders for the uniserial modules of sl(2) semidirect V(m).

Every block builder assembles a socle-factor sequence V(a_0), ..., V(a_n)
the same way: divided-power sl(2) blocks on the diagonal, and between
neighbouring factors the radical blocks radical_blocks(m, a_{j+1}, a_j), the
primitive integer normalization of the equivariant map from sl2.hom_embedding
(entries coprime integers, leading entry positive).  The main family Z(ell, b)
has socle factors V(ell), V(ell+m), ..., V(ell+bm); its blocks are
(-1)^i C(m, i) times a shifted identity, the closed form the tests compare
against.  Beyond it and its duals there are exceptional uniserial modules of
length 3 (socle factors V(0), V(m), V(c) with c <= 2m, c = 2m mod 4) and a
one-parameter length-4 family (V(0), V(m), V(m), V(0) for m divisible by 4),
whose members alone carry a block outside that chain, plus a polynomial-module
construction realizing Z(0, b) inside the b-th symmetric power of the
(m+2)-dimensional module.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple

from . import gmod, sl2
from .exact import (
    QMatrix,
    Vector,
    _check_twoj,
    assemble_blocks,
    commutator,
    primitive_family,
    span_closure,
    triangle,
)
from .gmod import GRep


@functools.lru_cache(maxsize=1024)
def radical_blocks(m: int, target: int, source: int) -> tuple[QMatrix, ...]:
    """Canonical superdiagonal blocks V(m) -> Hom(V(target), V(source)).

    hom_embedding fixes the maps projectively; the primitive normalization
    pins the scale and sign.  Memoised, so the result is a tuple that no
    caller can change.
    """
    return tuple(primitive_family(sl2.hom_embedding(m, target, source)))


def _chain(seq: list[int], m: int) -> dict[tuple[int, int], tuple[QMatrix, ...]]:
    """The canonical superdiagonal of a factor sequence: factor j + 1 maps
    into factor j by radical_blocks(m, seq[j + 1], seq[j])."""
    return {(j, j + 1): radical_blocks(m, seq[j + 1], seq[j]) for j in range(len(seq) - 1)}


def _assemble(
    weights: list[int], m: int, blocks: dict[tuple[int, int], tuple[QMatrix, ...]]
) -> GRep:
    """The module with socle-flag factors V(w), w in weights, on the diagonal.

    h, e and f act block-diagonally in the divided-power basis; v_i maps
    factor c into factor r by blocks[(r, c)][i], and by zero elsewhere.
    """
    dims = [w + 1 for w in weights]
    irreps = [sl2.irrep(w) for w in weights]

    def diagonal(name: str) -> QMatrix:
        on_diagonal = {(j, j): getattr(irrep, name) for j, irrep in enumerate(irreps)}
        return assemble_blocks(dims, dims, on_diagonal)

    v = tuple(
        assemble_blocks(dims, dims, {rc: fam[i] for rc, fam in blocks.items()})
        for i in range(m + 1)
    )
    return GRep(
        m=m,
        dim=sum(dims),
        h=diagonal("h"),
        e=diagonal("e"),
        f=diagonal("f"),
        v=v,
    )


# -- the main family -----------------------------------------------------------


def build_z(ell: int, b: int, m: int) -> GRep:
    """The uniserial module with socle factors V(ell), V(ell+m), ..., V(ell+bm)."""
    if m < 1:
        raise ValueError("the radical weight m must be positive")
    if ell < 0 or b < 0:
        raise ValueError("ell and b must be non-negative")
    seq = [ell + j * m for j in range(b + 1)]
    return _assemble(seq, m, _chain(seq, m))


def build_z_dual(ell: int, b: int, m: int) -> GRep:
    """Dual of build_z: socle factors V(ell+bm), ..., V(ell+m), V(ell)."""
    return gmod.dual_rep(build_z(ell, b, m))


# -- exceptional lengths 3 and 4 ------------------------------------------------


def build_exceptional_len3(m: int, c: int) -> GRep:
    """The unique uniserial module with socle factors V(0), V(m), V(c).

    Exists exactly when c <= 2m and c = 2m mod 4.  The block between the two
    outer factors is forced to zero (for c = m that is the canonical
    representative after conjugating the free block away).
    """
    if m < 1:
        raise ValueError("the radical weight m must be positive")
    if c < 0 or c > 2 * m or (2 * m - c) % 4 != 0:
        raise ValueError(f"socle factors [0, {m}, {c}] need c <= 2m and c = 2m mod 4")
    seq = [0, m, c]
    return _assemble(seq, m, _chain(seq, m))


def build_z_family(m: int, z) -> GRep:
    """The one-parameter family with socle factors V(0), V(m), V(m), V(0).

    Valid for m divisible by 4; the member is uniserial for every z, an int
    or a Fraction, and z times the (2, 3) blocks maps the top factor into the
    second one.
    """
    if m < 1 or m % 4 != 0:
        raise ValueError("the one-parameter family needs m = 0 mod 4")
    if type(z) is bool or not isinstance(z, (int, Fraction)):
        raise ValueError(f"the parameter z must be an int or a Fraction, got {z!r}")
    seq = [0, m, m, 0]
    blocks = _chain(seq, m)
    blocks[1, 3] = tuple(z * mat for mat in blocks[2, 3])
    return _assemble(seq, m, blocks)


# -- symmetric powers of the (m+2)-dimensional module ---------------------------


class SymmetricPowerModule(NamedTuple):
    """Degree-b polynomial module and the submodule its top monomial generates.

    `big` is the space of degree-b homogeneous polynomials in m+2 variables
    under the derivation action of the (m+2)-dimensional representation;
    `sub` is the submodule generated by x1^b (x1 = the highest weight variable
    of the V(m) block), which realizes the length-(b+1) main-family module
    with socle factors V(0), V(m), ..., V(bm).
    """

    big: GRep
    sub: GRep
    generator_sub: Vector


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        d = [0] * nvars
        for i in combo:
            d[i] += 1
        out.append(tuple(d))
    return sorted(out, reverse=True)


def _derivation_matrix(base: QMatrix, monos: list[tuple[int, ...]]) -> QMatrix:
    index = {d: i for i, d in enumerate(monos)}
    rows: list[dict[int, Fraction]] = [{} for _ in monos]
    entries = [(i, j, x) for i, row in enumerate(base.sparse_rows()) for j, x in row.items()]
    for col, d in enumerate(monos):
        for i, j, x in entries:
            if d[j]:
                shifted = list(d)
                shifted[j] -= 1
                shifted[i] += 1
                out = rows[index[tuple(shifted)]]
                out[col] = out.get(col, 0) + x * d[j]
    return QMatrix.from_sparse_rows(len(monos), rows)


def build_symmetric_power(m: int, b: int) -> SymmetricPowerModule:
    """Degree-b symmetric power construction over sl(2) semidirect V(m)."""
    if m < 1:
        raise ValueError("the radical weight m must be positive")
    if b < 0:
        raise ValueError("the degree b must be non-negative")
    base = build_z(0, 1, m)
    monos = _monomials(m + 2, b)
    n = len(monos)
    named = dict(base.matrices())
    big = GRep(
        m=m,
        dim=n,
        h=_derivation_matrix(named["h"], monos),
        e=_derivation_matrix(named["e"], monos),
        f=_derivation_matrix(named["f"], monos),
        v=tuple(_derivation_matrix(named[f"v_{i}"], monos) for i in range(m + 1)),
    )
    gen = [Fraction(0)] * n
    gen_exp = tuple(b if i == 1 else 0 for i in range(m + 2))
    gen[monos.index(gen_exp)] = Fraction(1)
    space = span_closure([big.e, big.f, big.h, *big.v], gen)
    rows, _ = space.echelon()

    def restrict(mat: QMatrix) -> QMatrix:
        return space.coordinates([mat.apply(row) for row in rows])

    sub = GRep(
        m=m,
        dim=len(space),
        h=restrict(big.h),
        e=restrict(big.e),
        f=restrict(big.f),
        v=tuple(restrict(vi) for vi in big.v),
    )
    gen_sub = space.coordinates([gen]).column(0)
    return SymmetricPowerModule(big, sub, gen_sub)


# -- axiomatic characterization --------------------------------------------------


class CharacterizationReport(NamedTuple):
    maximal_generator: bool  # (C1)
    nilpotency_window: bool  # (C2)
    radical_compatibility: bool  # (C3) or its dual version

    @property
    def all_hold(self) -> bool:
        return self.maximal_generator and self.nilpotency_window and self.radical_compatibility


def check_z_characterization(
    rep: GRep, vec, ell: int, b: int, dual: bool = False
) -> CharacterizationReport:
    """Check the cyclic-vector conditions that pin down the main family.

    For the plain orientation u = v_m and the three conditions are: vec is a
    maximal vector of weight ell + b m generating the module; u^b vec != 0
    while u^{b+1} vec = 0; and the matrix of [e, v_m] kills vec.  For the
    dual orientation u = v_0, the expected weight is ell, and the third
    condition asks that the radical image of u^i vec stays inside the
    sl(2)-span of u^{i+1} vec for 0 <= i <= b.
    """
    vec = tuple(Fraction(x) for x in vec)
    if not any(vec):
        raise ValueError("the candidate vector must be non-zero")
    weight = ell if dual else ell + b * rep.m
    u = rep.v[0] if dual else rep.v[rep.m]

    is_weight = rep.h.apply(vec) == tuple(weight * x for x in vec)
    killed = not any(rep.e.apply(vec))
    generates = len(span_closure([rep.h, rep.e, rep.f, *rep.v], vec)) == rep.dim
    c1 = is_weight and killed and generates

    powers = [vec]
    for _ in range(b + 1):
        powers.append(u.apply(powers[-1]))
    c2 = any(powers[b]) and not any(powers[b + 1])

    if not dual:
        bracket = commutator(rep.e, rep.v[rep.m])
        c3 = not any(bracket.apply(vec))
    else:
        spans = [span_closure([rep.h, rep.e, rep.f], p) for p in powers[1:]]
        c3 = all(vj.apply(p) in span for p, span in zip(powers, spans) for vj in rep.v)
    return CharacterizationReport(c1, c2, c3)


# -- generic sequence builder -----------------------------------------------------


class SequenceObstruction(NamedTuple):
    """First nonvanishing radical commutator met while assembling a sequence."""

    window: int  # index of the offending consecutive-factor window
    pair: tuple[int, int]  # radical generator indices (i, j)
    block: QMatrix  # the nonzero composite block

    def __bool__(self) -> bool:
        return False


def build_from_sequence(seq, m: int):
    """Assemble a module candidate with the given socle-factor sequence.

    Superdiagonal blocks are the canonical equivariant ones.  Returns the
    GRep when every radical commutator vanishes (then the module is
    uniserial with the given factors); otherwise returns a
    SequenceObstruction carrying the first nonvanishing commutator block.
    This is the brute-force admissibility oracle.

    [v_i, v_j] is nonzero only two steps down the flag, in window w by the
    block C_ij = A_i B_j - A_j B_i of the window's radical_blocks A and B.
    These satisfy [f,v_i] = (i+1) v_{i+1} blockwise, so the Jacobi identity
    takes C_{i-1,j} under f to i C_ij + (j+1) C_{i-1,j+1}: once the pairs
    (0, j) vanish, every pair does.  Scanning only those, j = 1..m, meets the
    block that a scan of every pair, row 0 first, meets first.
    """
    seq = list(seq)
    _check_twoj(*seq, m, signed=True)
    if not seq:
        raise ValueError("the factor sequence must be non-empty")
    if m < 1:
        raise ValueError("the radical weight m must be positive")
    for i in range(len(seq) - 1):
        if not triangle(seq[i], seq[i + 1], m):
            raise ValueError(
                f"triangle condition fails between factors {seq[i]} and {seq[i + 1]}"
            )
    blocks = _chain(seq, m)
    for w in range(len(seq) - 2):
        fam_a, fam_b = blocks[w, w + 1], blocks[w + 1, w + 2]
        for j in range(1, m + 1):
            block = fam_a[0] * fam_b[j] - fam_a[j] * fam_b[0]
            if not block.is_zero():
                return SequenceObstruction(w, (0, j), block)
    rep = _assemble(seq, m, blocks)
    verdict = gmod.check_rep(rep)
    if not verdict:
        raise RuntimeError(f"assembled module fails a relation: {verdict.failure}")
    return rep


# -- LaTeX rendering ---------------------------------------------------------------


def _term_string(coeff: Fraction, symbol: str) -> str:
    if coeff == 1:
        return symbol
    if coeff == -1:
        return f"-{symbol}"
    return f"{coeff}{symbol}"


def _layout(rep: GRep) -> list[int]:
    """Sizes of the finest runs of consecutive basis vectors that h, e and f
    map into themselves: no nonzero entry of theirs links two runs."""
    reach = list(range(rep.dim))  # reach[k]: the largest index an entry links with k
    for mat in (rep.h, rep.e, rep.f):
        for i, row in enumerate(mat.sparse_rows()):
            for j in row:
                reach[min(i, j)] = max(reach[min(i, j)], i, j)
    # a run ends at k when nothing below k + 1 reaches past k
    ends = [k + 1 for k, end in enumerate(itertools.accumulate(reach, max)) if end == k]
    return [b - a for a, b in zip([0, *ends], ends)]


def grep_to_latex(rep: GRep) -> str:
    """Render the generic element as a block-partitioned LaTeX array.

    The blocks are the runs of _layout.  Each entry shows the linear
    combination of h, e, f, v_0..v_m acting there; blocks that are
    identically zero render blank.
    """
    layout = _layout(rep)
    block = [b for b, d in enumerate(layout) for _ in range(d)]
    cells: dict[tuple[int, int], str] = {}
    for symbol, mat in rep.matrices():
        for i, row in enumerate(mat.sparse_rows()):
            for j, x in row.items():
                term = _term_string(x, symbol)
                if (i, j) in cells:
                    term = cells[i, j] + (term if term.startswith("-") else f"+{term}")
                cells[i, j] = term
    active = {(block[i], block[j]) for i, j in cells} | {(b, b) for b in range(len(layout))}
    colspec = "|".join("r" * d for d in layout)
    lines = [f"\\begin{{array}}{{{colspec}}}"]
    for i in range(rep.dim):
        row = [
            cells.get((i, j), "0") if (block[i], block[j]) in active else ""
            for j in range(rep.dim)
        ]
        lines.append(" & ".join(row) + r" \\")
        if i + 1 < rep.dim and block[i + 1] != block[i]:
            lines.append(r"\hline")
    lines.append(r"\end{array}")
    return "\n".join(lines)
