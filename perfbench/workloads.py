"""The four workloads: the CLI commands of one round, and how to check them.

A round is a fixed list of ``racahmod`` commands run one after another.  The
seed fixes the order of the modules and the family parameter of the
module-socle workload, and the samples the checks draw; the sweep boxes are
fixed, because the work of a sweep grows steeply with its box and runs on
different seeds must do the same work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import checks

JOBS = 2  # workers per sweep: the number of cores of the reference machine
ORACLE_SAMPLES = 30  # outputs per check compared with sympy


@dataclass(frozen=True)
class Command:
    out: str  # file, in the run directory, that receives stdout
    argv: tuple[str, ...]  # arguments after `racahmod`

    def with_jobs(self, jobs: int) -> "Command":
        argv = list(self.argv)
        if "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = str(jobs)
        return Command(self.out, tuple(argv))


@dataclass
class Plan:
    """The commands of one round; the modules they build, where there are any."""

    commands: list[Command]
    modules: list["Module"] = field(default_factory=list)


class Workload:
    name: str
    why: str

    def plan(self, rng: random.Random) -> Plan:
        raise NotImplementedError

    def check(
        self, plan: Plan, outputs: dict[str, str], codes: dict[str, int], rng: random.Random
    ) -> dict[str, int]:
        """Check the outputs of one round; raises checks.CheckFailure.

        Returns counts read from the outputs, for the completeness check."""
        raise NotImplementedError

    def completeness(self, trace: dict, facts: dict[str, int]) -> list[str]:
        """Wrapper counts that contradict counts known from the output."""
        raise NotImplementedError


def _calls(trace: dict, name: str) -> int:
    return trace["calls"].get(name, 0)


def _expect(problems: list[str], label: str, got: int, want: int) -> None:
    if got != want:
        problems.append(f"{label}: traced {got}, output implies {want}")


def _require_zero_exit(codes: dict[str, int]) -> None:
    for out, code in codes.items():
        checks.require(code == 0, f"{out}: exit code {code}")


class ZerosSweep(Workload):
    name = "zeros-sweep"
    why = "integer 6j kernel and process pool; no Fraction or matrix"
    box = 16

    def plan(self, rng):
        return Plan([Command("zeros.txt", ("zeros", "--max", str(self.box), "--jobs", str(JOBS)))])

    def check(self, plan, outputs, codes, rng):
        _require_zero_exit(codes)
        found = checks.check_zeros(outputs["zeros.txt"], self.box, rng, ORACLE_SAMPLES)
        return {"zeros": found, "tuples": checks.count_sixj_box(self.box)}

    def completeness(self, trace, facts):
        problems: list[str] = []
        _expect(problems, "wigner.zero_scan calls", _calls(trace, "wigner.zero_scan"), 1)
        _expect(
            problems,
            "zeros returned by find_sixj_zeros",
            trace["counters"].get("wigner.zero_scan.found", 0),
            facts["zeros"],
        )
        return problems


class ScalarSweep(Workload):
    name = "scalar-sweep"
    why = "lambda = C * 6j per tuple: Fraction tensor expansion and surd 6j values, all distinct"
    box = 7

    def plan(self, rng):
        argv = ("verify-scalar", "--max", str(self.box), "--jobs", str(JOBS))
        return Plan([Command("scalar.csv", argv)])

    def check(self, plan, outputs, codes, rng):
        _require_zero_exit(codes)
        rows = checks.check_scalar(outputs["scalar.csv"], self.box, rng, ORACLE_SAMPLES)
        return {"rows": rows}

    def completeness(self, trace, facts):
        rows = facts["rows"]
        problems: list[str] = []
        _expect(problems, "classify.lambda_phi calls", _calls(trace, "classify.lambda_phi"), rows)
        _expect(problems, "classify.c_factor calls", _calls(trace, "classify.c_factor"), rows)
        if _calls(trace, "wigner.sixj") < rows:
            problems.append(f"wigner.sixj: traced {_calls(trace, 'wigner.sixj')} < {rows} rows")
        return problems


class ClassifySweep(Workload):
    name = "classify-sweep"
    why = "four classification routes per row: small QMatrix products, rref, repeated hom_embedding"
    max_m = 3
    max_weight = 8

    def plan(self, rng):
        argv = (
            "verify-classify",
            "--max-m",
            str(self.max_m),
            "--max-weight",
            str(self.max_weight),
            "--jobs",
            str(JOBS),
        )
        return Plan([Command("classify.csv", argv)])

    def check(self, plan, outputs, codes, rng):
        _require_zero_exit(codes)
        rows, obstructed = checks.check_classify(
            outputs["classify.csv"], self.max_m, self.max_weight, rng, ORACLE_SAMPLES
        )
        return {"rows": rows, "obstructed": obstructed}

    def completeness(self, trace, facts):
        rows = facts["rows"]
        problems: list[str] = []
        _expect(problems, "classify.row calls", _calls(trace, "classify.row"), rows)
        _expect(problems, "classify.compute_I_J calls", _calls(trace, "classify.compute_I_J"), rows)
        _expect(
            problems,
            "constructions.build_from_sequence calls",
            _calls(trace, "constructions.build_from_sequence"),
            rows,
        )
        _expect(
            problems,
            "constructions.build_from_sequence obstructed",
            trace["counters"].get("constructions.build_from_sequence.obstructed", 0),
            facts["obstructed"],
        )
        return problems


@dataclass(frozen=True)
class Module:
    """One module of the module-socle workload and what its socle must be."""

    key: str
    realize: tuple[str, ...]
    m: int
    dim: int
    factors: list[dict[int, int]]

    @property
    def uniserial(self) -> bool:
        return all(len(f) == 1 and sum(f.values()) == 1 for f in self.factors)


def _z_module(key: str, kind: str, ell: int, b: int, m: int) -> Module:
    weights = [ell + j * m for j in range(b + 1)]
    if kind == "zdual":
        weights.reverse()
    argv = ("--kind", kind, "--ell", str(ell), "--b", str(b), "--m", str(m))
    return Module(key, argv, m, sum(w + 1 for w in weights), [{w: 1} for w in weights])


def _modules(z: Fraction) -> list[Module]:
    sym_m, sym_b = 2, 3
    return [
        _z_module("z", "z", 2, 2, 4),
        _z_module("zdual", "zdual", 0, 3, 3),
        Module("len3", ("--kind", "len3", "--m", "6", "--c", "8"), 6, 17, [{0: 1}, {6: 1}, {8: 1}]),
        Module(
            "zfam",
            ("--kind", "zfam", "--m", "8", f"--z={z}"),
            8,
            20,
            [{0: 1}, {8: 1}, {8: 1}, {0: 1}],
        ),
        Module(
            "sympow",
            ("--kind", "sympow", "--m", str(sym_m), "--b", str(sym_b), "--part", "big"),
            sym_m,
            math.comb(sym_m + 1 + sym_b, sym_b),  # degree-b monomials in m+2 variables
            [checks.sym_power_constituents(sym_m, i) for i in range(sym_b + 1)],
        ),
    ]


class ModuleSocle(Workload):
    name = "module-socle"
    why = (
        "realize, JSON, socle and uniserial on modules of dim 17-22: "
        "socle series and closure, no 6j, no pool"
    )

    def plan(self, rng):
        z = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        mods = _modules(z)
        rng.shuffle(mods)
        out = []
        for mod in mods:
            path = f"{mod.key}.json"
            out.append(Command(path, ("realize", *mod.realize)))
            out.append(Command(f"{mod.key}.socle", ("socle", "--in", path, "--format", "json")))
            out.append(Command(f"{mod.key}.uniserial", ("uniserial", "--in", path)))
        return Plan(out, mods)

    def check(self, plan, outputs, codes, rng):
        steps = 0
        for mod in plan.modules:
            for suffix in (".json", ".socle"):
                checks.require(codes[mod.key + suffix] == 0, f"{mod.key}{suffix}: exit code")
            checks.check_realize(outputs[mod.key + ".json"], mod.m, mod.dim)
            steps += checks.check_socle(outputs[mod.key + ".socle"], mod.dim, mod.factors)
            checks.check_uniserial(
                outputs[mod.key + ".uniserial"], codes[mod.key + ".uniserial"], mod.uniserial
            )
        return {"modules": len(plan.modules), "steps": steps}

    def completeness(self, trace, facts):
        n = facts["modules"]
        problems: list[str] = []
        _expect(
            problems,
            "outermost constructions.build calls",
            trace["outer_calls"].get("constructions.build", 0),
            n,
        )
        _expect(problems, "gmod.socle_series calls", _calls(trace, "gmod.socle_series"), 2 * n)
        _expect(
            problems,
            "gmod.socle_series steps",
            trace["counters"].get("gmod.socle_series.steps", 0),
            2 * facts["steps"],
        )
        _expect(problems, "gmod.json calls", _calls(trace, "gmod.json"), 3 * n)
        return problems


WORKLOADS = {w.name: w for w in (ZerosSweep(), ScalarSweep(), ClassifySweep(), ModuleSocle())}
