"""Output checks for the benchmark workloads.

Every checker compares a CLI output with an independent computation (sympy's
``wigner_6j``, an enumeration written here) or with a property the mathematics
must have.  None of them compares with a stored copy of an earlier output.  A
checker raises ``CheckFailure`` naming the first offending row; it returns
nothing when the output passes.  The checkers are plain functions of text, so
``selftest.py`` can feed them corrupted outputs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction


class CheckFailure(Exception):
    """An output contradicts an oracle or a mathematical property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# -- independent arithmetic ---------------------------------------------------------


def triangle(a: int, b: int, c: int) -> bool:
    """Triangle condition on integers of one kind (twice-values or weights)."""
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def sixj_triangles(t: tuple[int, ...]) -> bool:
    t1, t2, t3, t4, t5, t6 = t
    return (
        triangle(t1, t2, t3)
        and triangle(t1, t5, t6)
        and triangle(t4, t2, t6)
        and triangle(t4, t5, t3)
    )


def tetrahedral_images(t: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The 24 images of a 6j argument: column permutations, and swapping the
    upper and lower entries in two of the three columns."""
    cols = [(t[0], t[3]), (t[1], t[4]), (t[2], t[5])]
    out = set()
    for perm in itertools.permutations(cols):
        for flip in ((), (0, 1), (0, 2), (1, 2)):
            c = [(lo, up) if i in flip else (up, lo) for i, (up, lo) in enumerate(perm)]
            out.add((c[0][0], c[1][0], c[2][0], c[0][1], c[1][1], c[2][1]))
    return out


def count_sixj_box(n: int) -> int:
    """Tuples of twice-values <= n passing the four triangles of a 6j-symbol."""
    r = range(n + 1)
    third = {(x, y): {z for z in r if triangle(x, y, z)} for x in r for y in r}
    count = 0
    for t1, t2, t4, t5 in itertools.product(r, repeat=4):
        # t3 closes (t1, t2) and (t4, t5); t6 closes (t1, t5) and (t4, t2)
        n3 = len(third[t1, t2] & third[t4, t5])
        if n3:
            count += n3 * len(third[t1, t5] & third[t4, t2])
    return count


def scalar_box(n: int) -> set[tuple[int, ...]]:
    """(a, b, c, p, q, k) with entries <= n and the four triangles of the
    composed map V(k) -> V(p) x V(q) -> V(a) x V(b) x V(b) x V(c)."""
    out = set()
    r = range(n + 1)
    for a, b, c, p in itertools.product(r, repeat=4):
        if not triangle(p, a, b):
            continue
        for q in r:
            if not triangle(q, b, c):
                continue
            for k in r:
                if triangle(k, p, q) and triangle(k, a, c):
                    out.add((a, b, c, p, q, k))
    return out


def classify_box(max_m: int, max_weight: int) -> set[tuple[int, int, int, int]]:
    r = range(max_weight + 1)
    return {
        (m, a, b, c)
        for m in range(1, max_m + 1)
        for a, b, c in itertools.product(r, repeat=3)
        if triangle(a, b, m) and triangle(b, c, m)
    }


def length3_admissible(a: int, b: int, c: int, m: int) -> bool:
    """The paper's length-3 theorem: V(a), V(b), V(c) is admissible iff, up to
    reversal, c = 0, b = m, a <= 2m and a = 2m (mod 4), or b = c + m and
    a = c + 2m."""

    def oriented(x, y, z):
        if z == 0 and y == m and x <= 2 * m and (x - 2 * m) % 4 == 0:
            return True
        return y == z + m and x == z + 2 * m

    return oriented(a, b, c) or oriented(c, b, a)


def sym_power_constituents(m: int, i: int) -> dict[int, int]:
    """Constituents of Sym^i V(m), counted from the weights of the degree-i
    monomials in the m+1 weight vectors of V(m)."""
    weights: dict[int, int] = {}
    for combo in itertools.combinations_with_replacement(range(m + 1), i):
        w = sum(m - 2 * j for j in combo)
        weights[w] = weights.get(w, 0) + 1
    out = {}
    for k in sorted(w for w in weights if w >= 0):
        mult = weights[k] - weights.get(k + 2, 0)
        if mult:
            out[k] = mult
    return out


# -- parsing -------------------------------------------------------------------------


def parse_surd(text: str) -> tuple[Fraction, int]:
    """Parse the CLI form "p/q*sqrt(s)" (or "p/q") into (coefficient, radicand)."""
    if "*sqrt(" in text:
        coeff, rad = text.split("*sqrt(")
        require(rad.endswith(")"), f"malformed surd {text!r}")
        return Fraction(coeff), int(rad[:-1])
    return Fraction(text), 1


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    require(bool(lines) and lines[0] == header, f"CSV header is not {header!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        require(len(row) == width, f"CSV row has {len(row)} cells: {row}")
    return rows


def _bool_cell(cell: str) -> bool:
    require(cell in ("true", "false"), f"not a boolean cell: {cell!r}")
    return cell == "true"


# -- sympy oracle -------------------------------------------------------------------


def sympy_sixj(twoj: tuple[int, ...]):
    from sympy import Rational
    from sympy.physics.wigner import wigner_6j

    return wigner_6j(*(Rational(t, 2) for t in twoj))


def surd_equals_sympy(coeff: Fraction, radicand: int, value) -> bool:
    from sympy import Rational, sign

    if coeff == 0:
        return value == 0
    square = value**2
    return (
        square.is_Rational
        and Rational(coeff.numerator, coeff.denominator) ** 2 * radicand == square
        and int(sign(value)) == (1 if coeff > 0 else -1)
    )


# -- zeros-sweep ---------------------------------------------------------------------


def parse_zeros(text: str) -> list[tuple[int, ...]]:
    out = []
    for line in text.splitlines():
        cells = line.split()
        require(len(cells) == 6, f"zeros line is not six integers: {line!r}")
        out.append(tuple(int(x) for x in cells))
    return out


def check_zeros(text: str, box: int, rng: random.Random, samples: int) -> int:
    """Check `racahmod zeros --max box`; returns the number of zeros."""
    zeros = parse_zeros(text)
    found = set(zeros)
    require(zeros == sorted(zeros), "zeros are not sorted")
    require(len(found) == len(zeros), "zeros contain a duplicate")
    for t in zeros:
        require(max(t) <= box and min(t) >= 0, f"zero {t} lies outside the box")
        require(sixj_triangles(t), f"zero {t} fails a triangle")
    for t in zeros:
        for image in tetrahedral_images(t):
            require(image in found, f"zero {t} has the symmetric image {image} missing")
    # the two families of non-trivial zeros of the acceptance suite (criterion 7)
    for a in range(2, 7):
        member = (2 * a, 2 * a - 2, 2 * a, 2 * a, 2 * a + 2, 4)
        if max(member) <= box:
            require(member in found, f"family member {member} is missing")
    for j in range(4, 11):
        member = (j, 2 * j - 2, j, 3 * j - 8, 2 * j - 6, j)
        if max(member) <= box:
            require(member in found, f"family member {member} is missing")
    for t in rng.sample(zeros, min(samples, len(zeros))):
        require(sympy_sixj(t) == 0, f"reported zero {t} is non-zero under sympy")
    checked = 0
    while checked < samples:
        t = tuple(rng.randrange(box + 1) for _ in range(6))
        if t in found or not sixj_triangles(t):
            continue
        require(sympy_sixj(t) != 0, f"unreported tuple {t} is zero under sympy")
        checked += 1
    return len(zeros)


# -- scalar-sweep --------------------------------------------------------------------

SCALAR_HEADER = "a,b,c,p,q,k,lambda,c_factor,sixj,product,agrees"


def check_scalar(text: str, box: int, rng: random.Random, samples: int) -> int:
    """Check `racahmod verify-scalar --max box`; returns the number of rows."""
    rows = _csv_rows(text, SCALAR_HEADER)
    keys = [tuple(int(x) for x in row[:6]) for row in rows]
    expected = scalar_box(box)
    require(len(set(keys)) == len(keys), "verify-scalar repeats a tuple")
    require(
        set(keys) == expected,
        f"verify-scalar has {len(keys)} rows, the box has {len(expected)} tuples",
    )
    for key, row in zip(keys, rows):
        lam = Fraction(row[6])
        cf, cf_rad = parse_surd(row[7])
        sj, sj_rad = parse_surd(row[8])
        require(_bool_cell(row[10]), f"row {key} does not agree")
        require(row[9] == row[6], f"row {key}: product {row[9]} != lambda {row[6]}")
        # recompute C * 6j here: unless it is 0, the radicands pair into a square
        root = _isqrt_exact(cf_rad * sj_rad) if cf * sj else 1
        require(
            root is not None and cf * sj * root == lam,
            f"row {key}: C * 6j != lambda",
        )
    for i in rng.sample(range(len(rows)), min(samples, len(rows))):
        a, b, c, p, q, k = keys[i]
        coeff, rad = parse_surd(rows[i][8])
        require(
            surd_equals_sympy(coeff, rad, sympy_sixj((q, k, p, a, b, c))),
            f"row {keys[i]}: sixj {rows[i][8]} differs from sympy",
        )
    return len(rows)


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None


# -- classify-sweep ------------------------------------------------------------------

CLASSIFY_HEADER = (
    "m,a,b,c,closed_form,sixj_vanishing,alternating_image_empty,assembly_succeeds,consistent"
)


def check_classify(
    text: str, max_m: int, max_weight: int, rng: random.Random, samples: int
) -> tuple[int, int]:
    """Check `racahmod verify-classify`; returns (rows, rows whose assembly is
    obstructed)."""
    rows = _csv_rows(text, CLASSIFY_HEADER)
    keys = [tuple(int(x) for x in row[:4]) for row in rows]
    expected = classify_box(max_m, max_weight)
    require(len(set(keys)) == len(keys), "verify-classify repeats a row")
    require(
        set(keys) == expected,
        f"verify-classify has {len(keys)} rows, the enumeration has {len(expected)}",
    )
    flags = [[_bool_cell(x) for x in row[4:]] for row in rows]
    for i in rng.sample(range(len(rows)), min(samples, len(rows))):
        m, a, b, c = keys[i]
        vanishing = all(
            sympy_sixj((m, k, m, a, b, c)) == 0 for k in range((2 * m - 2) % 4, 2 * m + 1, 4)
        )
        require(
            vanishing == flags[i][1],
            f"row {keys[i]}: sixj_vanishing differs from sympy",
        )
    for (m, a, b, c), f in zip(keys, flags):
        require(f[4], f"row {(m, a, b, c)} is not consistent")
        require(len(set(f[:4])) == 1, f"row {(m, a, b, c)}: routes disagree yet consistent")
        require(
            f[0] == length3_admissible(a, b, c, m),
            f"row {(m, a, b, c)}: closed_form contradicts the length-3 theorem",
        )
    return len(rows), sum(1 for f in flags if not f[3])


# -- module-socle --------------------------------------------------------------------


def check_realize(text: str, m: int, dim: int) -> None:
    data = json.loads(text)
    require(data["m"] == m, f"realize gave m={data['m']}, expected {m}")
    require(data["dim"] == dim, f"realize gave dim={data['dim']}, expected {dim}")
    for key in ("h", "e", "f"):
        require(len(data[key]) == dim, f"realize: {key} has {len(data[key])} rows")
    require(len(data["v"]) == m + 1, "realize: wrong number of radical generators")


def check_socle(text: str, dim: int, factors: list[dict[int, int]]) -> int:
    """Check `socle --format json` against the known factors; returns the step count."""
    steps = json.loads(text)["steps"]
    got = [{int(k): n for k, n in step["factors"].items()} for step in steps]
    require(got == factors, f"socle factors {got} != expected {factors}")
    previous = 0
    for step, fac in zip(steps, got):
        grown = step["dimension"] - previous
        require(
            grown == sum((k + 1) * n for k, n in fac.items()),
            f"socle step of dimension {grown} does not match its factors {fac}",
        )
        previous = step["dimension"]
    require(previous == dim, f"socle series ends at dimension {previous}, not {dim}")
    return len(steps)


def check_uniserial(text: str, code: int, uniserial: bool) -> None:
    expected = ("true", 0) if uniserial else ("false", 1)
    require(
        (text.strip(), code) == expected,
        f"uniserial printed {text.strip()!r} with exit {code}, expected {expected}",
    )
