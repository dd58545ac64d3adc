"""Representations of the perfect Lie algebra g = sl(2) semidirect V(m).

g has basis e, h, f, v_0, ..., v_m with the sl(2) relations, an abelian
radical ([v_i, v_j] = 0) and the mixed relations

    [h, v_i] = (m - 2i) v_i,
    [e, v_i] = (m - i + 1) v_{i-1},
    [f, v_i] = (i + 1) v_{i+1},

with v_{-1} = v_{m+1} = 0.  Because the radical annihilates every irreducible
module, the socle series of any module is computed step by step as the joint
kernel of the v_i acting on successive quotients.  Each layer is an
sl(2)-module, hence semisimple, and its factors come from its weight
multiplicities.  Uniseriality is the statement that every socle factor is a
single irreducible.  The sl(2) facts these steps read (the sl(2) relations,
the diagonal weights, the constituents of a weight count) live here, so this
layer loads `exact` and `twoj` and no `sl2`; the JSON reader loads `json` on
its first call, and the writer lays out its text itself.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import QMatrix, RowSpace, commutator, kernel, quotient_matrix
from .twoj import rat_from_str


class GRep(NamedTuple):
    """Matrices of h, e, f, v_0..v_m acting on the module's basis."""

    m: int
    dim: int
    h: QMatrix
    e: QMatrix
    f: QMatrix
    v: tuple[QMatrix, ...]

    def matrices(self) -> list[tuple[str, QMatrix]]:
        named = [("h", self.h), ("e", self.e), ("f", self.f)]
        named += [(f"v_{i}", vi) for i, vi in enumerate(self.v)]
        return named

    def map(self, fn) -> "GRep":
        """The module with each generator matrix X replaced by fn(X), on the
        same m, its dimension read off the new h."""
        h = fn(self.h)
        return GRep(self.m, h.rows, h, fn(self.e), fn(self.f), tuple(fn(vi) for vi in self.v))


class RepCheck(NamedTuple):
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# -- sl(2)-module facts read off the generators and weights --------------------
#
# The socle series and check_rep run these; sl2's reference routes import them
# on call, so that this layer loads no sl2.


def broken_relation(h: QMatrix, e: QMatrix, f: QMatrix) -> str | None:
    """The first of [h,e] = 2e, [h,f] = -2f, [e,f] = h that the matrices
    break, by name; None when all three hold."""
    if commutator(h, e) != 2 * e:
        return "[h,e] != 2e"
    if commutator(h, f) != -2 * f:
        return "[h,f] != -2f"
    if commutator(e, f) != h:
        return "[e,f] != h"
    return None


def diagonal_weights(h: QMatrix) -> list[int]:
    """The weights on the diagonal of h; ValueError unless h is diagonal with
    integer entries."""
    weights = []
    for i, row in enumerate(h.sparse_rows()):
        if any(j != i for j in row):
            raise ValueError("h is not diagonal")
        w = row.get(i, 0)
        if w.denominator != 1:
            raise ValueError("h has a non-integer weight")
        weights.append(int(w))
    return weights


def constituents(weight_dims: dict[int, int]) -> dict[int, int]:
    """Multiplicities of the irreducible constituents of a module, keyed by
    highest weight (highest first), from the dimensions of its weight spaces."""
    out = {}
    for k in sorted((w for w in weight_dims if w >= 0), reverse=True):
        mult = weight_dims[k] - weight_dims.get(k + 2, 0)
        if mult:
            out[k] = mult
    return out


def check_rep(rep: GRep) -> RepCheck:
    """Verify the defining bracket relations exactly, on the generators.

    After the sl(2) triple it checks [h,v_0] = m v_0, [e,v_0] = 0,
    [f,v_i] = (i+1) v_{i+1} for i = 0..m and [v_0,v_j] = 0 for j = 1..m.
    The Jacobi identity gives the rest: [h,v_i] and [e,v_i] from the
    relations at i-1 and i-2 and [h,f] = -2f, [e,f] = h; [v_i,v_j] = 0 from
    row i-1, as [f,[v_{i-1},v_j]] = i [v_i,v_j] + (j+1) [v_{i-1},v_{j+1}].
    The first failure, returned by name, is that of the full relation list
    (each v_i through h, e, f, then all pairs, row 0 first), where a dropped
    relation always comes after those it follows from.
    """
    n = rep.dim
    for _, mat in rep.matrices():
        if mat.rows != n or mat.cols != n:
            raise ValueError("all generator matrices must be square of the module dimension")
    if len(rep.v) != rep.m + 1:
        raise ValueError(f"expected {rep.m + 1} radical generators, got {len(rep.v)}")
    h, e, f, v, m = rep.h, rep.e, rep.f, rep.v, rep.m
    failure = broken_relation(h, e, f)
    if failure:
        return RepCheck(False, failure)
    zero = QMatrix.zero(n, n)
    if commutator(h, v[0]) != m * v[0]:
        return RepCheck(False, "[h,v_0] != (m-2i) v_0")
    if commutator(e, v[0]) != zero:
        return RepCheck(False, "[e,v_0] != 0")
    for i, vi in enumerate(v):
        if commutator(f, vi) != ((i + 1) * v[i + 1] if i < m else zero):
            return RepCheck(False, f"[f,v_{i}] != " + (f"(i+1) v_{i + 1}" if i < m else "0"))
    for j in range(1, m + 1):
        if commutator(v[0], v[j]) != zero:
            return RepCheck(False, f"[v_0,v_{j}] != 0")
    return RepCheck(True)


class SocleStep(NamedTuple):
    """One step of the socle series: soc^i is the span of the layers of steps 1..i."""

    layer: tuple[dict[int, Fraction], ...]  # sparse {index: value} vectors that soc^i adds
    factors: dict[int, int]  # sl(2) decomposition of soc^i / soc^{i-1}

    @property
    def is_simple(self) -> bool:
        """Whether soc^i / soc^{i-1} is a single irreducible: one factor, multiplicity 1."""
        return list(self.factors.values()) == [1]


class SocleSeries(NamedTuple):
    steps: tuple[SocleStep, ...]

    def factor_weights(self) -> list[int]:
        """Socle factors when every factor is a single irreducible."""
        if not all(step.is_simple for step in self.steps):
            raise ValueError("a socle factor is not irreducible")
        return [next(iter(step.factors)) for step in self.steps]


def socle_series(rep: GRep) -> SocleSeries:
    """Socle series computed as joint kernels of the radical on quotients.

    Each layer soc^i / soc^{i-1} is the joint kernel of the radical on the
    quotient by soc^{i-1}, an sl(2)-submodule and so semisimple: the weight
    multiplicities of its kernel vectors fix its factors, and e and f are
    read only by check_rep.  Quotients keep h diagonal by choosing
    complements out of standard basis vectors (every subspace met here is
    spanned by weight-homogeneous vectors, and distinct weights occupy
    disjoint coordinate supports).  The socle grows as one RowSpace; each
    step keeps only the kernel vectors it adds, lifted to sparse vectors of
    the module.
    """
    verdict = check_rep(rep)
    if not verdict:
        raise ValueError(f"not a representation: {verdict.failure}")
    weights = diagonal_weights(rep.h)
    socle = RowSpace(rep.dim)
    steps: list[SocleStep] = []
    while len(socle) < rep.dim:
        comp = socle.free_columns()
        where = f"at socle step {len(steps) + 1}, on a quotient of dimension {len(comp)}"
        ker = kernel(*[quotient_matrix(vm, socle) for vm in rep.v])
        if not ker:
            # for m >= 1 the radical lies in [g, rad g] and acts nilpotently;
            # for m = 0 v_0 may act by a nonzero scalar, a fault of the input
            if rep.m == 0:
                raise ValueError("the radical v_0 does not act nilpotently: no socle series")
            raise RuntimeError(f"radical action has no common kernel {where}")

        layer = tuple({comp[j]: x for j, x in enumerate(kv) if x} for kv in ker)
        counts: dict[int, int] = {}
        for vec in layer:
            ws = {weights[c] for c in vec}
            if len(ws) != 1:
                raise RuntimeError(
                    f"socle basis vector is not weight-homogeneous {where}: "
                    f"weights {sorted(ws, reverse=True)}"
                )
            (w,) = ws
            counts[w] = counts.get(w, 0) + 1
            socle.add(vec)
        factors = constituents(counts)
        layer_dim = sum((k + 1) * c for k, c in factors.items())
        if min(factors.values(), default=0) < 0 or layer_dim != len(ker):
            raise RuntimeError(
                f"socle layer weights are not an sl(2)-character {where}: "
                f"weight multiplicities {counts}"
            )
        steps.append(SocleStep(layer, factors))
    return SocleSeries(tuple(steps))


def is_uniserial(rep: GRep) -> bool:
    """Whether every socle factor is a single irreducible sl(2)-module."""
    return all(step.is_simple for step in socle_series(rep).steps)


def dual_rep(rep: GRep) -> GRep:
    """Dual module: every generator matrix X goes to -X^T."""
    return rep.map(lambda mat: -mat.transpose())


# -- JSON interchange ----------------------------------------------------------


def _matrix_to_strings(mat: QMatrix) -> list[list[str]]:
    out = []
    for row in mat.sparse_rows():
        cells = ["0"] * mat.cols
        for j, x in row.items():
            cells[j] = str(x)
        out.append(cells)
    return out


def _matrix_from_strings(data, dim: int, name: str) -> QMatrix:
    if not isinstance(data, list) or len(data) != dim:
        raise ValueError(f"{name} must be a list of {dim} rows")
    if any(not isinstance(row, list) or len(row) != dim for row in data):
        raise ValueError(f"every row of {name} must have {dim} entries")
    try:  # "0" is in the grammar, so skipping it accepts exactly the same input
        rows = [{j: rat_from_str(x) for j, x in enumerate(row) if x != "0"} for row in data]
    except ValueError as exc:
        raise ValueError(f"{name} has an entry that is not a rational: {exc}") from None
    return QMatrix.from_sparse_rows(dim, rows)


def grep_to_dict(rep: GRep) -> dict:
    return {
        "m": rep.m,
        "dim": rep.dim,
        "h": _matrix_to_strings(rep.h),
        "e": _matrix_to_strings(rep.e),
        "f": _matrix_to_strings(rep.f),
        "v": [_matrix_to_strings(vi) for vi in rep.v],
        "convention": "DividedPower",
    }


def grep_from_dict(data) -> GRep:
    """Read the interchange schema; any departure from it raises ValueError.

    The "convention" label must be "PlainF" or "DividedPower" but changes
    nothing: the matrices are taken as they stand.
    """
    if not isinstance(data, dict):
        raise ValueError("a module must be a JSON object")
    missing = [key for key in ("m", "dim", "h", "e", "f", "v", "convention") if key not in data]
    if missing:
        raise ValueError(f"module JSON lacks {', '.join(missing)}")
    m, dim = data["m"], data["dim"]
    for name, val in (("m", m), ("dim", dim)):
        if type(val) is not int or val < 0:  # bool is an int subclass: refuse it too
            raise ValueError(f"{name} must be a non-negative integer, got {val!r}")
    if data["convention"] not in ("PlainF", "DividedPower"):
        raise ValueError(f"unknown convention {data['convention']!r}")
    if not isinstance(data["v"], list) or len(data["v"]) != m + 1:
        raise ValueError(f"v must be a list of m + 1 = {m + 1} matrices")
    return GRep(
        m=m,
        dim=dim,
        h=_matrix_from_strings(data["h"], dim, "h"),
        e=_matrix_from_strings(data["e"], dim, "e"),
        f=_matrix_from_strings(data["f"], dim, "f"),
        v=tuple(_matrix_from_strings(vi, dim, f"v_{i}") for i, vi in enumerate(data["v"])),
    )


def _json_list(items: list[str], level: int) -> str:
    # a list whose items are rendered already, laid out as json.dumps(...,
    # indent=1) lays out a list that opens at nesting depth `level`
    if not items:
        return "[]"
    pad = "\n" + " " * (level + 1)
    return f"[{pad}{(',' + pad).join(items)}\n{' ' * level}]"


def _json_matrix(mat: QMatrix, level: int) -> str:
    rows = []
    for row in mat.sparse_rows():
        cells = ['"0"'] * mat.cols
        for j, x in row.items():
            cells[j] = f'"{x}"'  # str(Fraction) needs no JSON escape
        rows.append(_json_list(cells, level + 1))
    return _json_list(rows, level)


def _json_pieces(rep: GRep):
    # grep_to_json's text, in pieces of at most one matrix
    yield f'{{\n "m": {rep.m},\n "dim": {rep.dim}'
    for key, mat in (("h", rep.h), ("e", rep.e), ("f", rep.f)):
        yield f',\n "{key}": '
        yield _json_matrix(mat, 1)
    # "v" holds m + 1 >= 1 matrices, so its list is never the empty "[]"
    for i, vi in enumerate(rep.v):
        yield ",\n  " if i else ',\n "v": [\n  '
        yield _json_matrix(vi, 2)
    yield '\n ],\n "convention": "DividedPower"\n}'


def grep_to_json(rep: GRep, out=None) -> str | None:
    """json.dumps(grep_to_dict(rep), indent=1), byte for byte, written
    directly: the json encoder runs in pure Python once it indents.

    With out, a text stream, writes the text there one matrix at a time and
    returns None, so that a large module's text is never held whole.
    """
    if out is None:
        return "".join(_json_pieces(rep))
    out.writelines(_json_pieces(rep))
    return None


def _object_once(pairs: list) -> dict:
    # json.loads would keep the last value of a repeated key without a word
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"module JSON has key {key!r:.40} twice")
    return obj


def grep_from_json(text: str) -> GRep:
    import json

    try:
        data = json.loads(text, object_pairs_hook=_object_once)
    except RecursionError as exc:  # a RuntimeError, but a fault of the input
        raise ValueError(f"module JSON is nested too deeply: {exc}") from None
    return grep_from_dict(data)
