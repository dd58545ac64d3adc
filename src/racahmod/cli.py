"""Command-line surface.

Every angular momentum is passed as a twice-value (flag --twoj), so all
inputs are plain integers.  Exit codes: 0 for success or a mathematically
true result, 1 for a mathematically false/failed result, 2 for usage errors
and malformed input, and 3 for an internal error: a failed self-check of the
library (the two 6j formulas disagree, a socle or closure invariant breaks,
an assertion fails), reported as "internal error: <message>" on stderr.

Each command imports the layers it runs inside its own function, so a
launch loads only those: `triangle` needs `exact` alone; `sixj`, `cgc`,
`delta` and `zeros` add `wigner`; `socle` and `uniserial` load `exact`,
`sl2` and `gmod`, and `realize` adds `constructions`; `verify-scalar`,
`admissible` and `recouple` load `classify` on `exact`, `wigner` and `sl2`;
and `verify-classify` loads every layer.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from itertools import accumulate, chain, islice
from typing import TYPE_CHECKING, Iterable

from .exact import rat_from_str

if TYPE_CHECKING:
    from .gmod import GRep


def _twoj_args(parser: argparse.ArgumentParser, names: str) -> None:
    parser.add_argument(
        "--twoj",
        type=int,
        nargs=len(names.split()),
        required=True,
        metavar=tuple(names.split()),
        help=f"twice-values of {names}",
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,  # one per core, resolved by wigner.sweep
        help="worker processes, capped at the cores and the tasks; output does not depend on it",
    )


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
        print(json.dumps({"twoj": args.twoj, "value": text}))
    else:
        print(text)
    return 0


def _cmd_triangle(args) -> int:
    from .exact import triangle

    return _verdict(triangle(*args.twoj))


def _need(args, error, *names) -> list[int]:
    vals = []
    for name in names:
        val = getattr(args, name)
        if val is None:
            error(f"--kind {args.kind} requires --{name}")
        vals.append(val)
    return vals


def _cmd_realize(args, error) -> int:
    from . import constructions, gmod

    kind = args.kind
    if kind == "z":
        ell, b, m = _need(args, error, "ell", "b", "m")
        rep = constructions.build_z(ell, b, m)
    elif kind == "zdual":
        ell, b, m = _need(args, error, "ell", "b", "m")
        rep = constructions.build_z_dual(ell, b, m)
    elif kind == "len3":
        m, c = _need(args, error, "m", "c")
        rep = constructions.build_exceptional_len3(m, c)
    elif kind == "zfam":
        (m,) = _need(args, error, "m")
        rep = constructions.build_z_family(m, rat_from_str(args.z))
    else:  # argparse restricts --kind to the five choices
        m, b = _need(args, error, "m", "b")
        pair = constructions.build_symmetric_power(m, b)
        rep = pair.big if args.part == "big" else pair.sub
    if args.format == "latex":
        print(constructions.grep_to_latex(rep))
    else:
        gmod.grep_to_json(rep, sys.stdout)
        print()
    return 0


def _load_grep(path: str) -> GRep:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racahmod",
        description=(
            "Exact 6j / Clebsch-Gordan values and uniserial module "
            "constructions for sl(2) semidirect V(m)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, names in (
        ("sixj", "evaluate a 6j-symbol", "j1 j2 j3 j4 j5 j6"),
        ("cgc", "evaluate a Clebsch-Gordan coefficient", "j1 m1 j2 m2 j3 m3"),
        ("delta", "evaluate a Delta triangle factor", "j1 j2 j3"),
    ):
        p = sub.add_parser(name, help=help_text)
        _twoj_args(p, names)
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.set_defaults(func=_cmd_value)

    p = sub.add_parser("triangle", help="test the triangle condition")
    _twoj_args(p, "a b c")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("realize", help="build an explicit uniserial module")
    p.add_argument("--kind", choices=["z", "zdual", "len3", "zfam", "sympow"], required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--c", type=int)
    p.add_argument(
        "--z",
        default="0",
        help="family parameter, an exact rational [+-]p or [+-]p/q with q != 0, like 5/7",
    )
    p.add_argument("--part", choices=["big", "sub"], default="sub")
    p.add_argument("--format", choices=["json", "latex"], default="json")
    p.set_defaults(func=functools.partial(_cmd_realize, error=parser.error))

    p = sub.add_parser("socle", help="socle series of a module from JSON")
    p.add_argument("--in", required=True, metavar="FILE")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_socle)

    p = sub.add_parser("uniserial", help="test uniseriality of a module from JSON")
    p.add_argument("--in", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_uniserial)

    p = sub.add_parser("admissible", help="decide admissibility of a factor sequence")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seq", required=True, help="comma-separated highest weights")
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("zeros", help="search non-trivial 6j zeros")
    p.add_argument("--max", type=int, required=True, help="twice-value bound per slot")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    _jobs_arg(p)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("verify-scalar", help="sweep the lambda = C * 6j identity")
    p.add_argument("--max", type=int, required=True)
    _jobs_arg(p)
    p.set_defaults(func=_cmd_verify_scalar)

    p = sub.add_parser("verify-classify", help="three-way length-3 classification sweep")
    p.add_argument("--max-m", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    _jobs_arg(p)
    p.set_defaults(func=_cmd_verify_classify)

    p = sub.add_parser("recouple", help="verify 6j transition coefficients")
    _twoj_args(p, "a b c k")
    p.set_defaults(func=_cmd_recouple)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
