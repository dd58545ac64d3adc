"""Command-line surface.

Every angular momentum is passed as a twice-value (flag --twoj), so all
inputs are plain integers.  Exit codes: 0 for success or a mathematically
true result, 1 for a mathematically false/failed result, 2 for usage errors
and malformed input, and 3 for an internal error: a failed self-check of the
library (the two 6j formulas disagree, a socle or closure invariant breaks,
an assertion fails), reported as "internal error: <message>" on stderr.

Each command imports the layers it runs inside its own function, so a
launch compiles and loads only those: `triangle` needs `twoj` alone (the
twice-value checks); `sixj`, `cgc`, `delta` and `zeros` add `surd` and
`wigner`, and none of the linear algebra in `exact`; `socle` and
`uniserial` load `exact` and `gmod`, and neither `sl2` nor `surd`; `realize`
adds `sl2` and `constructions`; `verify-scalar`, `admissible` and
`recouple` load `classify` on `exact`, `surd`, `wigner` and `sl2`; and
`verify-classify` loads every layer.  Only a command that reads or writes
JSON text through the encoder loads `json`.  A launch builds the argument
parser of its own command only (build_parser).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from itertools import accumulate, chain, islice
from typing import TYPE_CHECKING, Iterable

from .twoj import rat_from_str

if TYPE_CHECKING:
    from .gmod import GRep


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _verdict(ok: bool) -> int:
    print("true" if ok else "false")
    return 0 if ok else 1


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift Python's cap on int-to-str conversion (4300 digits by default).

    The cap guards the parsing of untrusted input; an exact value the library
    has computed must print whatever its size, so only formatting lifts it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Pythons without the cap
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _cmd_value(args) -> int:
    """sixj, cgc and delta: the wigner function of the command's name."""
    from . import wigner

    value = getattr(wigner, args.command)(*args.twoj)
    with _unlimited_int_str():
        text = str(value)
    if args.format == "json":
        import json

        print(json.dumps({"twoj": args.twoj, "value": text}))
    else:
        print(text)
    return 0


def _cmd_triangle(args) -> int:
    from .twoj import triangle

    return _verdict(triangle(*args.twoj))


def _need(args, *names) -> list[int]:
    vals = []
    for name in names:
        val = getattr(args, name)
        if val is None:
            # a usage error of the root parser: its usage lists every command
            build_parser().error(f"--kind {args.kind} requires --{name}")
        vals.append(val)
    return vals


def _cmd_realize(args) -> int:
    from . import constructions, gmod

    kind = args.kind
    if kind == "z":
        ell, b, m = _need(args, "ell", "b", "m")
        rep = constructions.build_z(ell, b, m)
    elif kind == "zdual":
        ell, b, m = _need(args, "ell", "b", "m")
        rep = constructions.build_z_dual(ell, b, m)
    elif kind == "len3":
        m, c = _need(args, "m", "c")
        rep = constructions.build_exceptional_len3(m, c)
    elif kind == "zfam":
        (m,) = _need(args, "m")
        rep = constructions.build_z_family(m, rat_from_str(args.z))
    else:  # argparse restricts --kind to the five choices
        m, b = _need(args, "m", "b")
        pair = constructions.build_symmetric_power(m, b)
        rep = pair.big if args.part == "big" else pair.sub
    if args.format == "latex":
        print(constructions.grep_to_latex(rep))
    else:
        gmod.grep_to_json(rep, sys.stdout)
        print()
    return 0


def _load_grep(path: str) -> GRep:
    import json

    from . import gmod

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return gmod.grep_from_json(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
    except ValueError as exc:  # off the module schema
        raise ValueError(f"{path}: {exc}") from None


def _cmd_socle(args) -> int:
    from . import gmod

    rep = _load_grep(getattr(args, "in"))
    steps = gmod.socle_series(rep).steps
    dims = accumulate(len(step.layer) for step in steps)
    if args.format == "json":
        import json

        print(
            json.dumps(
                {
                    "steps": [
                        {
                            "dimension": dim,
                            "factors": {str(k): n for k, n in sorted(step.factors.items())},
                        }
                        for step, dim in zip(steps, dims)
                    ]
                }
            )
        )
    else:
        for i, (step, dim) in enumerate(zip(steps, dims), start=1):
            factors = " + ".join(
                f"{n} x V({k})" if n > 1 else f"V({k})"
                for k, n in sorted(step.factors.items(), reverse=True)
            )
            print(f"step {i}: dim {dim}, factor {factors}")
    return 0


def _cmd_uniserial(args) -> int:
    from . import gmod

    return _verdict(gmod.is_uniserial(_load_grep(getattr(args, "in"))))


def _cmd_admissible(args) -> int:
    from . import classify

    seq = []
    for i, x in enumerate(args.seq.split(","), 1):
        try:
            seq.append(int(x))
        except ValueError:
            raise ValueError(f"--seq entry {i} is not an integer: {x!r:.40}") from None
    verdict = classify.is_admissible(seq, args.m)
    if verdict.witness:
        print(f"{verdict.status} ({verdict.witness})")
    else:
        print(verdict.status)
    return 0 if verdict.admissible else 1


def _cmd_zeros(args) -> int:
    from . import wigner

    zeros = wigner.find_sixj_zeros(args.max, jobs=args.jobs)
    if args.format == "json":
        import json

        print(json.dumps([list(z) for z in zeros]))
    elif args.format == "csv":
        header = ("twoj1,twoj2,twoj3,twoj4,twoj5,twoj6",)
        _write_lines(chain(header, (",".join(map(str, z)) for z in zeros)))
    else:
        _write_lines(" ".join(map(str, z)) for z in zeros)
    return 0


# Lines per write of a sweep's output.  Unbuffered, print costs two writes
# a line; a block costs one, and holds only a few hundred kB at a time.
BLOCK_LINES = 2048


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line to stdout as print(line) would, BLOCK_LINES lines to
    a write."""
    lines = iter(lines)
    while block := list(islice(lines, BLOCK_LINES)):
        block.append("")
        sys.stdout.write("\n".join(block))


def _print_sweep(header: str, rows, failure: str, keys: int) -> int:
    """Print a sweep's CSV: the header, then the line of each (text, ok) in
    the list rows.  Exit 1 if any verdict is false, naming on stderr the
    first failing row by its leading `keys` columns."""
    _write_lines(chain((header,), (text for text, _ in rows)))
    bad = next((text for text, ok in rows if not ok), None)
    if bad is None:
        return 0
    names = ",".join(header.split(",")[:keys])
    values = ",".join(bad.split(",")[:keys])
    print(f"{failure} at ({names})=({values})", file=sys.stderr)
    return 1


def _cmd_verify_scalar(args) -> int:
    from . import classify

    rows = classify.verify_scalar_sweep(args.max, jobs=args.jobs)
    return _print_sweep(classify.LambdaReport.CSV_HEADER, rows, "lambda != C * 6j", 6)


def _cmd_verify_classify(args) -> int:
    from . import classify

    rows = classify.classification_sweep(args.max_m, args.max_weight, jobs=args.jobs)
    return _print_sweep(classify.ClassificationRow.CSV_HEADER, rows, "routes disagree", 4)


def _cmd_recouple(args) -> int:
    from . import classify

    return _verdict(classify.verify_recoupling(*args.twoj))


def _twoj(names: str) -> dict:
    """The --twoj argument: one twice-value for each of the names."""
    meta = tuple(names.split())
    help_text = f"twice-values of {names}"
    return {"--twoj": dict(type=int, nargs=len(meta), required=True, metavar=meta, help=help_text)}


_TEXT_OR_JSON = {"--format": dict(choices=["text", "json"], default="text")}
_MODULE_FILE = {"--in": dict(required=True, metavar="FILE")}
_JOBS = {
    "--jobs": dict(
        type=_positive_int,
        default=None,  # one per core, resolved by wigner.sweep
        help="worker processes, capped at the cores and the tasks; output does not depend on it",
    )
}

# each command: its help line, its handler and its options, as
# {flag: keywords of add_argument}; the help lists them in this order
_COMMANDS = {
    "sixj": ("evaluate a 6j-symbol", _cmd_value, {**_twoj("j1 j2 j3 j4 j5 j6"), **_TEXT_OR_JSON}),
    "cgc": (
        "evaluate a Clebsch-Gordan coefficient",
        _cmd_value,
        {**_twoj("j1 m1 j2 m2 j3 m3"), **_TEXT_OR_JSON},
    ),
    "delta": (
        "evaluate a Delta triangle factor",
        _cmd_value,
        {**_twoj("j1 j2 j3"), **_TEXT_OR_JSON},
    ),
    "triangle": ("test the triangle condition", _cmd_triangle, _twoj("a b c")),
    "realize": (
        "build an explicit uniserial module",
        _cmd_realize,
        {
            "--kind": dict(choices=["z", "zdual", "len3", "zfam", "sympow"], required=True),
            "--m": dict(type=int),
            "--ell": dict(type=int),
            "--b": dict(type=int),
            "--c": dict(type=int),
            "--z": dict(
                default="0",
                help="family parameter, an exact rational [+-]p or [+-]p/q with q != 0, like 5/7",
            ),
            "--part": dict(choices=["big", "sub"], default="sub"),
            "--format": dict(choices=["json", "latex"], default="json"),
        },
    ),
    "socle": ("socle series of a module from JSON", _cmd_socle, {**_MODULE_FILE, **_TEXT_OR_JSON}),
    "uniserial": ("test uniseriality of a module from JSON", _cmd_uniserial, _MODULE_FILE),
    "admissible": (
        "decide admissibility of a factor sequence",
        _cmd_admissible,
        {
            "--m": dict(type=int, required=True),
            "--seq": dict(required=True, help="comma-separated highest weights"),
        },
    ),
    "zeros": (
        "search non-trivial 6j zeros",
        _cmd_zeros,
        {
            "--max": dict(type=int, required=True, help="twice-value bound per slot"),
            "--format": dict(choices=["text", "json", "csv"], default="text"),
            **_JOBS,
        },
    ),
    "verify-scalar": (
        "sweep the lambda = C * 6j identity",
        _cmd_verify_scalar,
        {"--max": dict(type=int, required=True), **_JOBS},
    ),
    "verify-classify": (
        "three-way length-3 classification sweep",
        _cmd_verify_classify,
        {
            "--max-m": dict(type=int, required=True),
            "--max-weight": dict(type=int, required=True),
            **_JOBS,
        },
    ),
    "recouple": ("verify 6j transition coefficients", _cmd_recouple, _twoj("a b c k")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone when it names one.

    main builds the parser of the command it runs, so a launch adds one
    subparser and not twelve.  A subparser's errors and help are its own,
    but an error of the root parser (such as an unrecognized argument)
    prints the root usage, which lists every command: a root parser built
    for one command hands its errors to the full parser, which prints them
    byte for byte as it always has.
    """
    parser = argparse.ArgumentParser(
        prog="racahmod",
        description=(
            "Exact 6j / Clebsch-Gordan values and uniserial module "
            "constructions for sl(2) semidirect V(m)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(_COMMANDS)
    if command in _COMMANDS:
        names = [command]
        parser.error = lambda message: build_parser().error(message)
    for name in names:
        help_text, func, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        # FormulaDisagreement is a RuntimeError
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
