"""Feed every output checker a corrupted output and confirm that it rejects it.

    python3 perfbench/selftest.py

Run from anywhere; the package is imported from the checkout's src/.  Real
outputs come from small CLI runs in this process.  Each checker must accept
the real output, and must reject each corruption with the sub-check named
in the case.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailure  # noqa: E402

SAMPLES = 400  # above the row counts of the scalar and classify cases: sympy sees every row


def cli(*argv: str) -> tuple[str, int]:
    from racahmod import cli as racahmod_cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = racahmod_cli.main(list(argv))
    return buf.getvalue(), code


FAILURES: list[str] = []


def expect(label: str, check, text, *args, rejects: str | None = None) -> None:
    """Run one checker; `rejects` is the substring of the expected failure."""
    try:
        check(text, *args)
    except CheckFailure as exc:
        if rejects is None or rejects not in str(exc):
            FAILURES.append(f"{label}: unexpected failure {exc}")
        else:
            print(f"ok  {label}: rejected ({exc})")
        return
    if rejects is None:
        print(f"ok  {label}: accepted")
    else:
        FAILURES.append(f"{label}: corrupted output was accepted")


def rng() -> random.Random:
    return random.Random(0)


def zeros_cases() -> None:
    box = 10
    text, _ = cli("zeros", "--max", str(box), "--jobs", "1")
    lines = text.splitlines()
    zeros = checks.parse_zeros(text)

    def check(t):
        return checks.check_zeros(t, box, rng(), SAMPLES)

    expect("zeros as printed", check, text)
    expect("zeros: one removed", check, "\n".join(lines[1:]), rejects="symmetric image")
    expect("zeros: one repeated", check, "\n".join([lines[0], *lines]), rejects="duplicate")
    swapped = "\n".join([lines[1], lines[0], *lines[2:]])
    expect("zeros: two swapped", check, swapped, rejects="sorted")
    family = (4, 2, 4, 4, 6, 4)
    without = sorted(set(zeros) - checks.tetrahedral_images(family))
    expect(
        "zeros: a family member's class removed",
        check,
        "\n".join(" ".join(map(str, t)) for t in without),
        rejects="family member",
    )
    # a whole symmetry class of a non-zero tuple passes every property check;
    # only the sympy oracle can see it
    fake = checks.tetrahedral_images((2, 2, 2, 2, 2, 2))
    expect(
        "zeros: a non-zero class added",
        check,
        "\n".join(" ".join(map(str, t)) for t in sorted(set(zeros) | fake)),
        rejects="non-zero under sympy",
    )
    expect(
        "zeros: a triangle-failing tuple added",
        check,
        "\n".join(" ".join(map(str, t)) for t in sorted(set(zeros) | {(0, 0, 2, 0, 0, 0)})),
        rejects="fails a triangle",
    )
    families = {(2 * a, 2 * a - 2, 2 * a, 2 * a, 2 * a + 2, 4) for a in range(2, 7)}
    families |= {(j, 2 * j - 2, j, 3 * j - 8, 2 * j - 6, j) for j in range(4, 11)}
    plain = next(t for t in zeros if not checks.tetrahedral_images(t) & families)
    missing = sorted(set(zeros) - checks.tetrahedral_images(plain))
    expect(
        "zeros: a non-family class removed",
        lambda t: checks.check_zeros(t, box, ScriptedRandom(plain), SAMPLES),
        "\n".join(" ".join(map(str, t)) for t in missing),
        rejects="zero under sympy",
    )


class ScriptedRandom(random.Random):
    """A Random whose first randrange calls return the given values, so the
    check's sample of unreported tuples starts with a chosen tuple."""

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)

    def randrange(self, *args, **kwargs):
        if self.script:
            return self.script.pop(0)
        return super().randrange(*args, **kwargs)


def scalar_cases() -> None:
    box = 3
    text, _ = cli("verify-scalar", "--max", str(box), "--jobs", "1")
    lines = text.splitlines()

    def check(t):
        return checks.check_scalar(t, box, rng(), SAMPLES)

    def edit_row(pred, edits):
        """Apply {cell: fn} to the first row satisfying pred."""
        out = list(lines)
        for i, line in enumerate(out[1:], start=1):
            row = line.split(",")
            if pred(row):
                for cell, fn in edits.items():
                    row[cell] = fn(row[cell])
                out[i] = ",".join(row)
                return "\n".join(out)
        raise AssertionError("no row to corrupt")

    def negate(cell):
        return cell[1:] if cell.startswith("-") else "-" + cell

    def irrational(row):
        return "sqrt" in row[8]

    def nonzero(row):
        return row[6] != "0"

    expect("verify-scalar as printed", check, text)
    expect("verify-scalar: one row removed", check, "\n".join(lines[:-1]), rejects="tuples")
    expect(
        "verify-scalar: one 6j sign flipped",
        check,
        edit_row(irrational, {8: negate}),
        rejects="C * 6j != lambda",
    )
    # C * 6j is unchanged, so only the sympy comparison can see this one
    expect(
        "verify-scalar: signs of 6j and C flipped together",
        check,
        edit_row(irrational, {7: negate, 8: negate}),
        rejects="differs from sympy",
    )
    expect(
        "verify-scalar: lambda changed",
        check,
        edit_row(nonzero, {6: negate}),
        rejects="product",
    )
    expect(
        "verify-scalar: agrees false",
        check,
        edit_row(nonzero, {10: lambda cell: "false"}),
        rejects="does not agree",
    )


def classify_cases() -> None:
    max_m, max_weight = 2, 6
    text, _ = cli(
        "verify-classify", "--max-m", str(max_m), "--max-weight", str(max_weight), "--jobs", "1"
    )
    lines = text.splitlines()

    def check(t):
        return checks.check_classify(t, max_m, max_weight, rng(), SAMPLES)

    def flip(cells):
        return ",".join(
            c if i < 4 or i == 8 else ("false" if c == "true" else "true")
            for i, c in enumerate(cells)
        )

    expect("verify-classify as printed", check, text)
    expect("verify-classify: one row removed", check, "\n".join(lines[:-1]), rejects="enumeration")
    expect(
        "verify-classify: four routes flipped together",
        check,
        "\n".join([lines[0], flip(lines[1].split(",")), *lines[2:]]),
        rejects="differs from sympy",
    )
    expect(
        "verify-classify: four routes flipped, no sympy sample",
        lambda t: checks.check_classify(t, max_m, max_weight, rng(), 0),
        "\n".join([lines[0], flip(lines[1].split(",")), *lines[2:]]),
        rejects="length-3 theorem",
    )
    expect(
        "verify-classify: inconsistent row",
        check,
        "\n".join([lines[0], lines[1].rsplit(",", 1)[0] + ",false", *lines[2:]]),
        rejects="not consistent",
    )


def module_cases() -> None:
    sym = workloads.Module(
        "sympow",
        ("--kind", "sympow", "--m", "2", "--b", "2", "--part", "big"),
        2,
        10,
        [checks.sym_power_constituents(2, i) for i in range(3)],
    )
    mods = [
        workloads._z_module("z", "z", 1, 2, 2),
        workloads._z_module("zd", "zdual", 0, 2, 2),
        sym,
    ]
    for mod in mods:
        realized, _ = cli("realize", *mod.realize)
        path = HERE / "out" / f"selftest-{mod.key}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(realized, encoding="utf-8")
        socle, _ = cli("socle", "--in", str(path), "--format", "json")
        uni, code = cli("uniserial", "--in", str(path))
        path.unlink()
        expect(f"{mod.key}: realize as printed", checks.check_realize, realized, mod.m, mod.dim)
        expect(f"{mod.key}: socle as printed", checks.check_socle, socle, mod.dim, mod.factors)
        expect(f"{mod.key}: uniserial as printed", checks.check_uniserial, uni, code, mod.uniserial)
        data = json.loads(socle)
        first = data["steps"][-1]["factors"]
        key = next(iter(first))
        first[str(int(key) + 2)] = first.pop(key)
        expect(
            f"{mod.key}: one socle factor changed",
            checks.check_socle,
            json.dumps(data),
            mod.dim,
            mod.factors,
            rejects="socle factors",
        )
        expect(
            f"{mod.key}: uniserial exit code flipped",
            checks.check_uniserial,
            uni,
            1 - code,
            mod.uniserial,
            rejects="uniserial printed",
        )
        expect(
            f"{mod.key}: realize dimension changed",
            checks.check_realize,
            realized,
            mod.m,
            mod.dim + 1,
            rejects="dim",
        )
    data = json.loads(socle)
    data["steps"][0]["dimension"] += 1
    expect(
        "sympow: socle step dimension changed",
        checks.check_socle,
        json.dumps(data),
        sym.dim,
        sym.factors,
        rejects="does not match its factors",
    )


def completeness_cases() -> None:
    wl = workloads.WORKLOADS["classify-sweep"]
    facts = {"rows": 10, "obstructed": 4}
    trace = {
        "calls": {
            "classify.row": 10,
            "classify.compute_I_J": 10,
            "constructions.build_from_sequence": 10,
        },
        "counters": {"constructions.build_from_sequence.obstructed": 4},
    }
    ok = wl.completeness(trace, facts)
    trace["calls"]["classify.row"] = 9
    short = wl.completeness(trace, facts)
    if ok or not short:
        FAILURES.append(f"completeness: complete {ok}, one call missed {short}")
    else:
        print(f"ok  completeness: a missed classify.row call is reported ({short[0]})")


def main() -> int:
    zeros_cases()
    scalar_cases()
    classify_cases()
    module_cases()
    completeness_cases()
    for failure in FAILURES:
        print("FAIL", failure)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
