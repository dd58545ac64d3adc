"""End-to-end tests of the command-line surface."""

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

from racahmod.cli import main
from racahmod.constructions import build_z, build_z_family
from racahmod.exact import kernel
from racahmod.gmod import grep_from_json, grep_to_dict, grep_to_json, is_uniserial, socle_series
from racahmod.sl2 import constituents
from racahmod.wigner import delta, find_sixj_zeros


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


def test_recouple(capsys):
    code, out = run(capsys, "recouple", "--twoj", "2", "2", "2", "2")
    assert code == 0 and out.strip() == "true"


def test_sweep_output_independent_of_workers(capsys):
    _, serial = run(capsys, "zeros", "--max", "8", "--jobs", "1")
    _, parallel = run(capsys, "zeros", "--max", "8", "--jobs", "2")
    assert serial == parallel
    _, serial = run(capsys, "verify-scalar", "--max", "3", "--jobs", "1")
    _, parallel = run(capsys, "verify-scalar", "--max", "3", "--jobs", "2")
    assert serial == parallel
    argv = ("verify-classify", "--max-m", "2", "--max-weight", "6")
    _, serial = run(capsys, *argv, "--jobs", "1")
    _, parallel = run(capsys, *argv, "--jobs", "2")
    assert serial == parallel
    bounds = (6, 4, 8, 5, 7, 3)
    assert find_sixj_zeros(bounds, jobs=1) == find_sixj_zeros(bounds, jobs=2)


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
    kind = draw(st.sampled_from(["missing", "type", "size", "shape", "row", "entry", "json"]))
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
            "racahmod.sl2.constituents",
            _fault_on_call(constituents, 2, {3: 2}),
            ["socle", "--in", "MODULE"],
            NOT_A_CHARACTER,
        ),
        (
            "racahmod.sl2.constituents",
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
