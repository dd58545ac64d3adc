"""End-to-end tests of the command-line surface."""

import concurrent.futures
import contextlib
import copy
import io
import json
import os
import re
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racahmod import classify, cli, wigner
from racahmod.classify import LambdaReport, scalar_theorem_tuples, verify_scalar_theorem
from racahmod.cli import main
from racahmod.constructions import build_z, build_z_family
from racahmod.exact import RowSpace, kernel
from racahmod.gmod import (
    constituents,
    diagonal_weights,
    grep_from_json,
    grep_to_dict,
    grep_to_json,
    is_uniserial,
    socle_series,
)
from racahmod.wigner import delta


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_sixj_reference_value(capsys):
    code, out = run(capsys, "sixj", "--twoj", "4", "0", "4", "4", "6", "4")
    assert code == 0 and out.strip() == "-1/5"


def test_sixj_json(capsys):
    code, out = run(capsys, "sixj", "--twoj", "4", "4", "4", "4", "6", "4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"twoj": [4, 4, 4, 4, 6, 4], "value": "4/35"}


def test_cgc_and_delta(capsys):
    code, out = run(capsys, "cgc", "--twoj", "1", "1", "1", "-1", "2", "0")
    assert code == 0 and out.strip() == "1/2*sqrt(2)"
    code, out = run(capsys, "delta", "--twoj", "1", "1", "2")
    assert code == 0 and out.strip() == "1/6*sqrt(6)"


def test_triangle_exit_codes(capsys):
    code, out = run(capsys, "triangle", "--twoj", "2", "2", "2")
    assert code == 0 and out.strip() == "true"
    code, out = run(capsys, "triangle", "--twoj", "1", "1", "1")
    assert code == 1 and out.strip() == "false"


def test_admissible(capsys):
    code, out = run(capsys, "admissible", "--m", "4", "--seq", "4,6,4")
    assert code == 1 and out.strip() == "NotAdmissible"
    code, out = run(capsys, "admissible", "--m", "3", "--seq", "0,3,2")
    assert code == 0 and out.startswith("UniqueModule")
    code, out = run(capsys, "admissible", "--m", "4", "--seq", "0,4,4,0")
    assert code == 0 and out.startswith("OneParameterFamily")


@pytest.mark.parametrize(
    "seq, message",
    [
        ("1,,2", "error: --seq entry 2 is not an integer: ''\n"),
        ("1.5", "error: --seq entry 1 is not an integer: '1.5'\n"),
    ],
    ids=["empty", "decimal"],
)
def test_admissible_names_the_entry_that_is_not_an_integer(capsys, seq, message):
    code = main(["admissible", "--m", "4", "--seq", seq])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == message and captured.out == ""


def test_realize_json_round_trip(tmp_path, capsys):
    code, out = run(capsys, "realize", "--kind", "z", "--m", "2", "--ell", "1", "--b", "2")
    assert code == 0
    rep = grep_from_json(out)
    assert socle_series(rep).factor_weights() == [1, 3, 5]
    path = tmp_path / "z.json"
    path.write_text(out)
    code, out = run(capsys, "socle", "--in", str(path))
    assert code == 0
    assert out.splitlines() == [
        "step 1: dim 2, factor V(1)",
        "step 2: dim 6, factor V(3)",
        "step 3: dim 12, factor V(5)",
    ]
    code, out = run(capsys, "uniserial", "--in", str(path))
    assert code == 0 and out.strip() == "true"
    assert is_uniserial(rep)


def test_basis_label_changes_no_output(tmp_path, capsys):
    # the reader accepts either label and takes the matrices as they stand
    code, out = run(capsys, "realize", "--kind", "z", "--m", "2", "--ell", "1", "--b", "2")
    assert code == 0
    data = json.loads(out)
    assert data["convention"] == "DividedPower"
    original, relabelled = tmp_path / "z.json", tmp_path / "z-plain.json"
    original.write_text(out)
    relabelled.write_text(json.dumps({**data, "convention": "PlainF"}))
    for argv in (["socle"], ["socle", "--format", "json"], ["uniserial"]):
        want = run(capsys, *argv, "--in", str(original))
        assert run(capsys, *argv, "--in", str(relabelled)) == want, argv
    rewritten = grep_to_json(grep_from_json(relabelled.read_text()))
    assert json.loads(rewritten)["convention"] == "DividedPower"


def test_realize_latex(capsys):
    code, out = run(
        capsys, "realize", "--kind", "z", "--m", "2", "--ell", "1", "--b", "2",
        "--format", "latex",
    )
    assert code == 0
    assert out.startswith(r"\begin{array}{rr|rrrr|rrrrrr}")
    assert "-2v_1" in out


@pytest.mark.parametrize(
    "argv, layout",
    [
        (["--kind", "z", "--ell", "1", "--b", "2", "--m", "2"], [2, 4, 6]),
        (["--kind", "zdual", "--ell", "0", "--b", "2", "--m", "2"], [1, 3, 5]),
        (["--kind", "len3", "--m", "3", "--c", "2"], [1, 4, 3]),
        (["--kind", "zfam", "--m", "4", "--z", "5/7"], [1, 5, 5, 1]),
        (["--kind", "sympow", "--m", "2", "--b", "2", "--part", "big"], [1, 3, 6]),
        (["--kind", "sympow", "--m", "2", "--b", "3"], [1, 3, 5, 7]),
    ],
)
def test_realize_latex_blocks_follow_the_basis(capsys, argv, layout):
    # the column cuts and the \hline rows sit between the irreducible
    # sl(2) blocks in the order the basis lists them
    code, out = run(capsys, "realize", *argv, "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\\begin{array}{" + "|".join("r" * d for d in layout) + "}"
    hlines = [i for i, line in enumerate(lines) if line == "\\hline"]
    assert hlines == [sum(layout[: k + 1]) + k + 1 for k in range(len(layout) - 1)]


@pytest.mark.parametrize(
    "argv, dims",
    [
        (["--kind", "z", "--ell", "1", "--b", "2", "--m", "2"], [2, 6, 12]),
        (["--kind", "zdual", "--ell", "0", "--b", "2", "--m", "2"], [5, 8, 9]),
        (["--kind", "len3", "--m", "3", "--c", "2"], [1, 5, 8]),
        (["--kind", "zfam", "--m", "4", "--z", "5/7"], [1, 6, 11, 12]),
        (["--kind", "sympow", "--m", "2", "--b", "3"], [1, 4, 9, 16]),
        (["--kind", "sympow", "--m", "3", "--b", "3", "--part", "big"], [1, 5, 15, 35]),
    ],
)
def test_socle_layers_span_the_series_that_socle_prints(tmp_path, capsys, argv, dims):
    code, out = run(capsys, "realize", *argv)
    assert code == 0
    rep = grep_from_json(out)
    path = tmp_path / "module.json"
    path.write_text(out)
    code, out = run(capsys, "socle", "--in", str(path), "--format", "json")
    assert code == 0
    printed = json.loads(out)["steps"]
    assert [shown["dimension"] for shown in printed] == dims
    weights = diagonal_weights(rep.h)
    mats = [mat for _, mat in rep.matrices()]
    socle = RowSpace(rep.dim)
    spanning = []
    steps = socle_series(rep).steps
    assert len(steps) == len(printed)
    for step, shown in zip(steps, printed):
        for vec in step.layer:
            assert len({weights[j] for j in vec}) == 1
            assert socle.add(vec)
            spanning.append([vec.get(j, 0) for j in range(rep.dim)])
        # soc^i is a submodule: h, e, f and every v_i map its span into itself
        assert all(mat.apply(vec) in socle for vec in spanning for mat in mats)
        assert shown == {
            "dimension": len(socle),
            "factors": {str(k): n for k, n in sorted(step.factors.items())},
        }
    assert len(socle) == rep.dim


def test_socle_of_a_module_with_reducible_layers(tmp_path, capsys):
    code, out = run(capsys, "realize", "--kind", "sympow", "--m", "3", "--b", "3", "--part", "big")
    assert code == 0
    path = tmp_path / "big.json"
    path.write_text(out)
    code, out = run(capsys, "socle", "--in", str(path))
    assert code == 0
    assert out.splitlines() == [
        "step 1: dim 1, factor V(0)",
        "step 2: dim 5, factor V(3)",
        "step 3: dim 15, factor V(6) + V(2)",
        "step 4: dim 35, factor V(9) + V(5) + V(3)",
    ]
    code, out = run(capsys, "uniserial", "--in", str(path))
    assert code == 1 and out.strip() == "false"


def test_realize_other_kinds(capsys):
    code, out = run(capsys, "realize", "--kind", "len3", "--m", "3", "--c", "2")
    assert code == 0 and grep_from_json(out).dim == 8
    code, out = run(capsys, "realize", "--kind", "zfam", "--m", "4", "--z", "5/7")
    assert code == 0 and grep_from_json(out).dim == 12
    code, out = run(capsys, "realize", "--kind", "sympow", "--m", "2", "--b", "2")
    assert code == 0 and grep_from_json(out).dim == 9
    code, out = run(
        capsys, "realize", "--kind", "sympow", "--m", "2", "--b", "2", "--part", "big"
    )
    assert code == 0 and grep_from_json(out).dim == 10
    code, out = run(capsys, "realize", "--kind", "zdual", "--m", "3", "--ell", "0", "--b", "1")
    assert code == 0
    assert socle_series(grep_from_json(out)).factor_weights() == [3, 0]


def test_realize_invalid_parameters(capsys):
    code = main(["realize", "--kind", "len3", "--m", "3", "--c", "3"])
    capsys.readouterr()
    assert code == 2


def test_zeros_formats(capsys):
    code, out = run(capsys, "zeros", "--max", "0", "--jobs", "1")
    assert code == 0 and out == ""
    code, out = run(capsys, "zeros", "--max", "8", "--jobs", "1")
    assert code == 0
    assert "4 2 4 4 6 4" in out.splitlines()
    code, out = run(capsys, "zeros", "--max", "6", "--jobs", "1", "--format", "csv")
    assert out.splitlines()[0] == "twoj1,twoj2,twoj3,twoj4,twoj5,twoj6"


@pytest.mark.parametrize("fmt, sep", [("text", " "), ("csv", ",")])
def test_zeros_lines_are_written_in_blocks(monkeypatch, fmt, sep):
    # --max 20 has 3,370 zeros: two blocks
    header = ["twoj1,twoj2,twoj3,twoj4,twoj5,twoj6"] if fmt == "csv" else []
    lines = header + [sep.join(map(str, z)) for z in wigner.find_sixj_zeros(20)]
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["zeros", "--max", "20", "--jobs", "1", "--format", fmt]) == 0
    assert stdout.getvalue() == "".join(line + "\n" for line in lines)
    assert stdout.writes == -(-len(lines) // cli.BLOCK_LINES) == 2


def test_verify_scalar_csv(capsys):
    code, out = run(capsys, "verify-scalar", "--max", "2", "--jobs", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "a,b,c,p,q,k,lambda,c_factor,sixj,product,agrees"
    assert all(line.endswith("true") for line in lines[1:])
    assert "0,0,0,0,0,0,1,1,1,1,true" in lines


def test_verify_classify_csv(capsys):
    code, out = run(capsys, "verify-classify", "--max-m", "1", "--max-weight", "4", "--jobs", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "m,a,b,c,closed_form,sixj_vanishing,alternating_image_empty,"
        "assembly_succeeds,consistent"
    )
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_classify_m_beyond_twice_the_weight_bound(capsys):
    # no m above 2 * max_weight has a tuple, so the sweep must not visit those m
    start = time.perf_counter()
    code, out = run(
        capsys, "verify-classify", "--max-m", "10000000", "--max-weight", "2", "--jobs", "1"
    )
    elapsed = time.perf_counter() - start
    assert (code, out) == run(
        capsys, "verify-classify", "--max-m", "4", "--max-weight", "2", "--jobs", "1"
    )
    assert len(out.splitlines()) == 16 and elapsed < 10


def test_verify_scalar_rows_are_the_reports_of_the_tuples(capsys):
    # the sweep writes its rows from ints, in this process or in the pool's
    # workers; each must read as the report made here, field by field
    reports = [verify_scalar_theorem(*t) for t in scalar_theorem_tuples(6)]
    for jobs in ("1", "2"):
        code, out = run(capsys, "verify-scalar", "--max", "6", "--jobs", jobs)
        header, *lines = out.splitlines()
        assert code == 0 and header == LambdaReport.CSV_HEADER
        assert lines == [r.csv() for r in reports]
    for line, r in zip(lines, reports):
        fields = (r.a, r.b, r.c, r.p, r.q, r.k, r.lam, r.c_factor, r.sixj, r.product)
        assert line.split(",") == [str(x) for x in fields] + ["true"]
    assert any(not r.c_factor.is_rational for r in reports)
    assert any(not r.sixj.is_rational for r in reports)


def test_a_flipped_c_factor_fails_the_sweep(capsys, monkeypatch):
    # the comparison is not vacuous: with C negated, every row whose lambda
    # is non-zero must read false, and the first of them is named
    original = classify.c_factor

    def flipped(*args, **kwargs):
        n, d, rad = original(*args, **kwargs)
        return -n, d, rad

    monkeypatch.setattr("racahmod.classify.c_factor", flipped)
    code = main(["verify-scalar", "--max", "3", "--jobs", "1"])
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert code == 1
    assert captured.err == "lambda != C * 6j at (a,b,c,p,q,k)=(0,0,0,0,0,0)\n"
    assert rows and all((row[-1] == "false") == (row[6] != "0") for row in rows)


def _fail_at(fn, bad, **change):
    def faulty(*args, **kwargs):
        result = fn(*args, **kwargs)
        return result._replace(**change) if args in bad else result

    return faulty


def test_false_verdict_names_the_first_failing_tuple(capsys, monkeypatch):
    _, good = run(capsys, "verify-scalar", "--max", "2", "--jobs", "1")
    bad = [(1, 1, 0, 2, 1, 1), (0, 0, 1, 0, 1, 1)]
    fault = _fail_at(classify._scalar_ints, bad, agrees=False)
    monkeypatch.setattr("racahmod.classify._scalar_ints", fault)
    code = main(["verify-scalar", "--max", "2", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "lambda != C * 6j at (a,b,c,p,q,k)=(0,0,1,0,1,1)\n"
    # stdout prints the two bad rows as false and every other byte as before
    before, after = good.splitlines(), captured.out.splitlines()
    changed = [(old, new) for old, new in zip(before, after) if old != new]
    assert len(after) == len(before) and len(changed) == 2
    assert all(new == old.removesuffix("true") + "false" for old, new in changed)


class _Writes(io.StringIO):
    """A stdout that counts its writes."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _sweep_as_printed(header, rows):
    # the output of the per-line print loop that the block writer replaced
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print(header)
        for text, _ in rows:
            print(text)
    return out.getvalue()


# 0 rows, exactly one block with the header, one block plus one row, and
# failing rows in the second and third blocks
@pytest.mark.parametrize(
    "count, bad",
    [
        (0, ()),
        (cli.BLOCK_LINES - 1, ()),
        (cli.BLOCK_LINES, ()),
        (2 * cli.BLOCK_LINES + 5, (2 * cli.BLOCK_LINES + 1, cli.BLOCK_LINES + 3)),
    ],
)
def test_sweep_lines_are_written_in_blocks(capsys, monkeypatch, count, bad):
    rows = [(f"{i},{i % 7},{i * i}", i not in bad) for i in range(count)]
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = cli._print_sweep("i,r,sq", rows, "rows fail", 2)
    assert stdout.getvalue() == _sweep_as_printed("i,r,sq", rows)
    assert stdout.writes == -(-(count + 1) // cli.BLOCK_LINES)
    err = capsys.readouterr().err
    if bad:
        i = min(bad)
        assert code == 1 and err == f"rows fail at (i,r)=({i},{i % 7})\n"
    else:
        assert code == 0 and err == ""


def test_inconsistent_routes_name_the_first_failing_tuple(capsys, monkeypatch):
    row = classify.classification_row(1, 1, 2, 3)
    fault = _fail_at(classify.classification_row, [(1, 1, 2, 3)], closed_form=not row.closed_form)
    monkeypatch.setattr("racahmod.classify.classification_row", fault)
    code = main(["verify-classify", "--max-m", "1", "--max-weight", "4", "--jobs", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out.count(",false\n") == 1
    assert captured.err == "routes disagree at (m,a,b,c)=(1,1,2,3)\n"


def test_recouple(capsys):
    code, out = run(capsys, "recouple", "--twoj", "2", "2", "2", "2")
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize(
    "argv, message",
    [
        # 0 = 0 mod 4: the family fails on the sign of m, not its residue
        (["realize", "--kind", "zfam", "--m", "0"], "the radical weight m must be positive"),
        (["realize", "--kind", "zfam", "--m", "-4"], "the radical weight m must be positive"),
        (["realize", "--kind", "zfam", "--m", "6"], "the one-parameter family needs m = 0 mod 4"),
        # a negative value in any slot, which would empty the coupling ranges
        *(
            (["recouple", "--twoj", *twoj], "twice-values must be non-negative integers, got -1")
            for twoj in (["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
                         ["0", "0", "-1", "0"], ["0", "0", "0", "-1"])
        ),
        (["recouple", "--twoj", "0", "1", "0", "0"], "V(0) does not occur in V(0) x V(1) x V(0)"),
    ],
)
def test_bad_parameters_name_what_is_wrong(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == f"error: {message}\n"


def test_sweep_output_independent_of_workers(capsys):
    _, serial = run(capsys, "zeros", "--max", "8", "--jobs", "1")
    _, parallel = run(capsys, "zeros", "--max", "8", "--jobs", "2")
    assert serial == parallel
    _, serial = run(capsys, "verify-scalar", "--max", "5", "--jobs", "1")
    _, parallel = run(capsys, "verify-scalar", "--max", "5", "--jobs", "2")
    assert serial == parallel
    argv = ("verify-classify", "--max-m", "2", "--max-weight", "6")
    _, serial = run(capsys, *argv, "--jobs", "1")
    _, parallel = run(capsys, *argv, "--jobs", "2")
    assert serial == parallel


class _CountingPool(concurrent.futures.ProcessPoolExecutor):
    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


def test_sweeps_handed_to_the_pool_match_one_job(monkeypatch, capsys):
    # a start-up cost of 0 sends every task after the first to the pool, on
    # two workers even where the machine has one core
    monkeypatch.setattr(wigner, "POOL_START_S", 0.0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _CountingPool)
    argvs = [
        ("zeros", "--max", "8"),
        ("verify-scalar", "--max", "5"),
        ("verify-classify", "--max-m", "2", "--max-weight", "6"),
    ]
    for argv in argvs:
        serial = run(capsys, *argv, "--jobs", "1")
        started = _CountingPool.started
        assert run(capsys, *argv, "--jobs", "2") == serial, argv
        assert _CountingPool.started == started + 1, argv


def test_small_sweep_starts_no_pool(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a sweep of almost no work started a process pool")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    serial = run(capsys, "zeros", "--max", "4", "--jobs", "1")
    assert run(capsys, "zeros", "--max", "4", "--jobs", "2") == serial


def test_uniserial_false_exit_code(tmp_path, capsys):
    from racahmod.exact import QMatrix
    from racahmod.gmod import GRep, grep_to_json

    decomposable = GRep(
        m=1,
        dim=2,
        h=QMatrix.zero(2, 2),
        e=QMatrix.zero(2, 2),
        f=QMatrix.zero(2, 2),
        v=(QMatrix.zero(2, 2), QMatrix.zero(2, 2)),
    )
    path = tmp_path / "sum.json"
    path.write_text(grep_to_json(decomposable))
    code, out = run(capsys, "uniserial", "--in", str(path))
    assert code == 1 and out.strip() == "false"


HUGE_ENTRY = (
    '{"m": 0, "dim": 1, "h": [["1e1000000"]], "e": [["0"]], "f": [["0"]], "v": [[["0"]]], '
    '"convention": "DividedPower"}'
)


# json.loads raises RecursionError, a RuntimeError, on the nested file: a fault
# of the input all the same
NESTED = pytest.param("[" * 100_000 + "]" * 100_000, id="nested")


@pytest.mark.parametrize("content", ['{"m": 1, "dim": 1}', "[]", None, HUGE_ENTRY, NESTED])
def test_malformed_module_input_exits_two(tmp_path, capsys, content):
    path = tmp_path / "module.json"
    if content is None:
        path.mkdir()  # a directory in place of a file
    else:
        path.write_text(content)
    for command in ("uniserial", "socle"):
        code = main([command, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and "error:" in captured.err and captured.out == ""


def test_module_file_that_is_not_json_is_named(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("a,b\n1,2\n")
    for command in ("socle", "uniserial"):
        code = main([command, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"error: {path} is not JSON: Expecting value: line 1 column 1 (char 0)\n"
        )


def test_module_file_off_the_schema_is_named(tmp_path, capsys):
    path = tmp_path / "off.json"
    path.write_text('{"m": 1, "dim": 1}')
    for command in ("socle", "uniserial"):
        code = main([command, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {path}: module JSON lacks h, e, f, v, convention\n"


@pytest.mark.parametrize("repeat, key", [('"v": "not a list", ', "v"), ('"m": 7, ', "m")])
def test_module_file_that_repeats_a_key_is_named(tmp_path, capsys, repeat, key):
    # the first value of the key is the wrong one, so keeping the last
    # value would read a valid module
    path = tmp_path / "twice.json"
    path.write_text("{" + repeat + grep_to_json(build_z(0, 1, 1))[1:])
    for command in ("socle", "uniserial"):
        code = main([command, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {path}: module JSON has key '{key}' twice\n"


SCALAR_RADICAL = (
    '{"m": 0, "dim": 1, "h": [["0"]], "e": [["0"]], "f": [["0"]], "v": [[["1"]]], '
    '"convention": "DividedPower"}'
)


def test_non_nilpotent_radical_exits_two(tmp_path, capsys):
    # a valid module: for m = 0, v_0 may act by a nonzero scalar, which is a
    # property of the input, not an internal error
    path = tmp_path / "scalar.json"
    path.write_text(SCALAR_RADICAL)
    for command in ("socle", "uniserial"):
        code = main([command, "--in", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "does not act nilpotently" in captured.err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["not-a-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["sixj", "--twoj", "1", "2"])
    assert err.value.code == 2


def _launch(argv):
    """stdout, stderr and exit code of main(argv), SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([name, "--help"] for name in cli._COMMANDS),
        # each command without its required options
        *([name] for name in cli._COMMANDS),
        # errors of the root parser, whose usage lists every command
        ["socle", "--in", "x", "extra"],
        ["realize", "--kind", "z", "--m", "4"],
        ["no-such-command"],
    ],
    ids=" ".join,
)
def test_one_command_parser_prints_as_the_full_parser(monkeypatch, argv):
    alone = _launch(argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert _launch(argv) == alone
    assert alone[2] == (0 if "--help" in argv else 2)


def test_a_launch_builds_the_parser_of_its_command_only():
    assert "{socle}" in cli.build_parser("socle").format_usage()
    full = cli.build_parser().format_usage()
    assert "{" + ",".join(cli._COMMANDS) + "}" in full
    assert cli.build_parser("no-such-command").format_usage() == full
    # an error of the root parser still prints the usage that lists every command
    for argv in (["socle", "--in", "x", "extra"], ["realize", "--kind", "z", "--m", "4"]):
        assert _launch(argv)[1].startswith(full)


def test_math_domain_error_exit_two(capsys):
    code = main(["cgc", "--twoj", "1", "3", "1", "-1", "2", "2"])
    captured = capsys.readouterr()
    assert code == 2 and "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--max", "-1"],
        ["verify-scalar", "--max", "-1"],
        ["verify-classify", "--max-m", "-1", "--max-weight", "3"],
        ["verify-classify", "--max-m", "0", "--max-weight", "3"],
        ["verify-classify", "--max-m", "2", "--max-weight", "-4"],
        ["verify-classify", "--max-m", "3", "--max-weight", "0"],
    ],
)
def test_negative_sweep_bound_exits_two(capsys, argv):
    # an empty box would make every row vacuously true
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error:") and captured.out == ""


def test_value_past_int_str_limit_prints(capsys):
    # the numerator and denominator of Delta(6000, 6000, 6000) have over 4300 digits
    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, "delta", "--twoj", "12000", "12000", "12000")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        expected = str(delta(12000, 12000, 12000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert out == expected + "\n" and len(out) > 2 * 4300
    # parsing keeps the limit: a 5,000-digit parameter is still bad input
    code = main(["realize", "--kind", "zfam", "--m", "4", f"--z={'7' * 5000}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--max", "1"],
        ["verify-scalar", "--max", "1"],
        ["verify-classify", "--max-m", "1", "--max-weight", "1"],
    ],
)
def test_jobs_below_one_exits_two(capsys, argv, jobs):
    with pytest.raises(SystemExit) as err:
        main([*argv, f"--jobs={jobs}"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and "--jobs" in captured.err and captured.out == ""


@pytest.mark.parametrize("z", ["1/0", "-3/0", "x/2", "1e20000000", "0.5", " 5/7", "5/7 ", "1_0"])
def test_bad_family_parameter_exits_two(capsys, z):
    code = main(["realize", "--kind", "zfam", "--m", "8", f"--z={z}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.err.startswith("error:") and captured.out == ""


def test_family_parameter_grammar(capsys):
    code, out = run(capsys, "realize", "--kind", "zfam", "--m", "4", "--z=-05/07")
    assert code == 0 and out == grep_to_json(build_z_family(4, Fraction(-5, 7))) + "\n"


# every entry that is not "[+-]p" or "[+-]p/q" with q != 0
_NOT_RATIONAL = st.one_of(
    st.text(max_size=6).filter(lambda t: not re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", t)),
    st.sampled_from(["1e1000000", "0.5", "1/0", " 1", "1_0", "\u0663"]),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
)
_NOT_A_LIST = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_VALID = grep_to_dict(build_z(0, 1, 1))  # m = 1, dim 3


@st.composite
def _off_schema(draw):
    """JSON text of a module that is off the interchange schema in one way."""
    data = copy.deepcopy(_VALID)
    kinds = ["missing", "type", "size", "shape", "row", "entry", "json", "duplicate"]
    kind = draw(st.sampled_from(kinds))
    key = draw(st.sampled_from(sorted(data)))
    mats = [data["h"], data["e"], data["f"], *data["v"]]
    mat = draw(st.sampled_from(mats))
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if kind == "missing":
        del data[key]
    elif kind == "type":  # no key takes these: no int, no list, no known convention
        data[key] = draw(_NOT_A_LIST)
    elif kind == "size":
        size = draw(st.sampled_from(["m", "dim"]))
        data[size] = draw(st.integers().filter(lambda x: x != _VALID[size]))
    elif kind == "shape":
        shape = draw(st.sampled_from(["rows-", "rows+", "cols-", "cols+", "v-", "v+"]))
        target = data["v"] if shape[0] == "v" else mat if shape[0] == "r" else mat[i]
        if shape[-1] == "-":
            target.pop()
        else:
            target.append(copy.deepcopy(target[0]))
    elif kind == "row":
        mat[i] = draw(_NOT_A_LIST)
    elif kind == "entry":
        mat[i][j] = draw(_NOT_RATIONAL)
    text = json.dumps(data)
    if kind == "json":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif kind == "duplicate":  # the key once more, ahead of its valid value
        text = "{" + json.dumps({key: draw(_NOT_A_LIST)})[1:-1] + ", " + text[1:]
    return text


@given(_off_schema())
@settings(max_examples=200, deadline=None)
def test_off_schema_module_exits_two(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "module.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["uniserial", "--in", path])
    assert code == 2 and err.getvalue().startswith("error:") and out.getvalue() == ""


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


def _fault_on_call(real, call, result):
    """`real`, except that its call number `call` returns `result`."""
    calls = []

    def faulty(*args):
        calls.append(args)
        return result if len(calls) == call else real(*args)

    return faulty


# build_z(1, 2, 2) has dim 12 and layers V(1), V(3), V(5)
WHERE_STEP_2 = "at socle step 2, on a quotient of dimension 10"
NOT_A_CHARACTER = (
    f"socle layer weights are not an sl(2)-character {WHERE_STEP_2}: "
    "weight multiplicities {3: 1, 1: 1, -1: 1, -3: 1}"
)


@pytest.mark.parametrize(
    "target, fault, argv, message",
    [
        # a wrong second formula: the real cross-check inside sixj fails
        (
            "racahmod.wigner._def_sum",
            lambda *tj: (0, 1),
            ["sixj", "--twoj", "4", "0", "4", "4", "6", "4"],
            "6j formulas disagree at (4, 0, 4, 4, 6, 4)",
        ),
        (
            "racahmod.gmod.socle_series",
            _raise(RuntimeError("socle basis vector is not weight-homogeneous")),
            ["socle", "--in", "MODULE"],
            "socle basis vector is not weight-homogeneous",
        ),
        (
            "racahmod.gmod.is_uniserial",
            _raise(AssertionError("composite image mismatch")),
            ["uniserial", "--in", "MODULE"],
            "composite image mismatch",
        ),
        # the real socle_series meets a fault and names the step it failed at
        (
            "racahmod.gmod.kernel",
            _fault_on_call(kernel, 2, []),
            ["socle", "--in", "MODULE"],
            f"radical action has no common kernel {WHERE_STEP_2}",
        ),
        (
            "racahmod.gmod.kernel",
            _fault_on_call(kernel, 1, [[1] * 12]),
            ["socle", "--in", "MODULE"],
            "socle basis vector is not weight-homogeneous at socle step 1, on a quotient "
            "of dimension 12: weights [5, 3, 1, -1, -3, -5]",
        ),
        # a wrong total, and a negative multiplicity with the right total
        (
            "racahmod.gmod.constituents",
            _fault_on_call(constituents, 2, {3: 2}),
            ["socle", "--in", "MODULE"],
            NOT_A_CHARACTER,
        ),
        (
            "racahmod.gmod.constituents",
            _fault_on_call(constituents, 2, {5: 1, 1: -1}),
            ["socle", "--in", "MODULE"],
            NOT_A_CHARACTER,
        ),
    ],
)
def test_internal_errors_exit_three(tmp_path, capsys, monkeypatch, target, fault, argv, message):
    path = tmp_path / "z.json"
    path.write_text(grep_to_json(build_z(1, 2, 2)))
    monkeypatch.setattr(target, fault)
    code = main([str(path) if arg == "MODULE" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"internal error: {message}\n"
