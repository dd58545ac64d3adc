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
single irreducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from . import sl2
from .exact import (
    QMatrix,
    RowSpace,
    Vector,
    assemble_blocks,
    commutator,
    kernel,
    quotient_matrix,
    rat_from_str,
)


@dataclass(frozen=True)
class GRep:
    """Matrices of h, e, f, v_0..v_m in a declared basis convention."""

    m: int
    dim: int
    h: QMatrix
    e: QMatrix
    f: QMatrix
    v: tuple[QMatrix, ...]
    convention: str = sl2.DIVIDED_POWER

    def matrices(self) -> list[tuple[str, QMatrix]]:
        named = [("h", self.h), ("e", self.e), ("f", self.f)]
        named += [(f"v_{i}", vi) for i, vi in enumerate(self.v)]
        return named


@dataclass(frozen=True)
class RepCheck:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_rep(rep: GRep) -> RepCheck:
    """Verify every defining bracket relation exactly.

    Returns the first violated relation by name; all pairs [v_i, v_j] are
    checked even though the (v_0, v_j) pairs would suffice by equivariance.
    """
    n = rep.dim
    for _, mat in rep.matrices():
        if mat.rows != n or mat.cols != n:
            raise ValueError("all generator matrices must be square of the module dimension")
    if len(rep.v) != rep.m + 1:
        raise ValueError(f"expected {rep.m + 1} radical generators, got {len(rep.v)}")
    h, e, f = rep.h, rep.e, rep.f
    if commutator(h, e) != 2 * e:
        return RepCheck(False, "[h,e] != 2e")
    if commutator(h, f) != -2 * f:
        return RepCheck(False, "[h,f] != -2f")
    if commutator(e, f) != h:
        return RepCheck(False, "[e,f] != h")
    m = rep.m
    zero = QMatrix.zero(n, n)
    for i, vi in enumerate(rep.v):
        if commutator(h, vi) != (m - 2 * i) * vi:
            return RepCheck(False, f"[h,v_{i}] != (m-2i) v_{i}")
        expect_e = (m - i + 1) * rep.v[i - 1] if i > 0 else zero
        if commutator(e, vi) != expect_e:
            return RepCheck(False, f"[e,v_{i}] != (m-i+1) v_{i - 1 if i else 0}")
        expect_f = (i + 1) * rep.v[i + 1] if i < m else zero
        if commutator(f, vi) != expect_f:
            return RepCheck(False, f"[f,v_{i}] != (i+1) v_{min(i + 1, m)}")
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            if commutator(rep.v[i], rep.v[j]) != zero:
                return RepCheck(False, f"[v_{i},v_{j}] != 0")
    return RepCheck(True)


@dataclass(frozen=True)
class SocleStep:
    basis: tuple[Vector, ...]  # echelon basis of soc^i in the module's own basis
    factors: dict[int, int]  # sl(2) decomposition of soc^i / soc^{i-1}

    @property
    def is_simple(self) -> bool:
        """Whether soc^i / soc^{i-1} is a single irreducible: one factor, multiplicity 1."""
        return list(self.factors.values()) == [1]


@dataclass(frozen=True)
class SocleSeries:
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
    disjoint coordinate supports).
    """
    verdict = check_rep(rep)
    if not verdict:
        raise ValueError(f"not a representation: {verdict.failure}")
    weights = sl2.diagonal_weights(rep.h)
    n = rep.dim
    socle = RowSpace(n)
    steps: list[SocleStep] = []
    while len(socle) < n:
        comp = socle.free_columns()
        nc = len(comp)
        where = f"at socle step {len(steps) + 1}, on a quotient of dimension {nc}"
        # the joint kernel of the v_i on the quotient: stack them and take one kernel
        quot_v = {(i, 0): quotient_matrix(vm, socle) for i, vm in enumerate(rep.v)}
        ker = kernel(assemble_blocks([nc] * len(quot_v), [nc], quot_v))
        if not ker:
            # for m >= 1 the radical lies in [g, rad g] and acts nilpotently;
            # for m = 0 v_0 may act by a nonzero scalar, a fault of the input
            if rep.m == 0:
                raise ValueError("the radical v_0 does not act nilpotently: no socle series")
            raise RuntimeError(f"radical action has no common kernel {where}")

        counts: dict[int, int] = {}
        for kv in ker:
            ws = {weights[comp[j]] for j, x in enumerate(kv) if x}
            if len(ws) != 1:
                raise RuntimeError(
                    f"socle basis vector is not weight-homogeneous {where}: "
                    f"weights {sorted(ws, reverse=True)}"
                )
            (w,) = ws
            counts[w] = counts.get(w, 0) + 1
        factors = sl2.constituents(counts)
        layer_dim = sum((k + 1) * c for k, c in factors.items())
        if min(factors.values(), default=0) < 0 or layer_dim != len(ker):
            raise RuntimeError(
                f"socle layer weights are not an sl(2)-character {where}: "
                f"weight multiplicities {counts}"
            )
        for kv in ker:
            vec = [0] * n
            for j, x in enumerate(kv):
                vec[comp[j]] = x
            socle.add(vec)
        rows, _ = socle.echelon()
        steps.append(SocleStep(tuple(map(tuple, rows)), factors))
    return SocleSeries(tuple(steps))


def is_uniserial(rep: GRep) -> bool:
    """Whether every socle factor is a single irreducible sl(2)-module."""
    return all(step.is_simple for step in socle_series(rep).steps)


def dual_rep(rep: GRep) -> GRep:
    """Dual module: every generator matrix X goes to -X^T."""
    return replace(
        rep,
        h=-rep.h.transpose(),
        e=-rep.e.transpose(),
        f=-rep.f.transpose(),
        v=tuple(-vi.transpose() for vi in rep.v),
    )


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
        "convention": rep.convention,
    }


def grep_from_dict(data) -> GRep:
    """Read the interchange schema; any departure from it raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a module must be a JSON object")
    missing = [key for key in ("m", "dim", "h", "e", "f", "v", "convention") if key not in data]
    if missing:
        raise ValueError(f"module JSON lacks {', '.join(missing)}")
    m, dim = data["m"], data["dim"]
    for name, val in (("m", m), ("dim", dim)):
        if type(val) is not int or val < 0:  # bool is an int subclass: refuse it too
            raise ValueError(f"{name} must be a non-negative integer, got {val!r}")
    if data["convention"] not in (sl2.PLAIN_F, sl2.DIVIDED_POWER):
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
        convention=data["convention"],
    )


def grep_to_json(rep: GRep) -> str:
    return json.dumps(grep_to_dict(rep), indent=1)


def grep_from_json(text: str) -> GRep:
    try:
        data = json.loads(text)
    except RecursionError as exc:  # a RuntimeError, but a fault of the input
        raise ValueError(f"module JSON is nested too deeply: {exc}") from None
    return grep_from_dict(data)
