"""Benchmark of the racahmod CLI: four workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload zeros-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from ./src,
so nothing needs to be installed.  Each run repeats whole rounds of the
workload's CLI commands while another round fits in --seconds, checks the
outputs of the first round outside the timed region, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

--trace 0 reports the end-to-end metrics, measured on `python3 -m
racahmod.cli` processes exactly as a user runs them, with every time rescaled
to a reference speed that probe.py measures around each round, since the
machine's own speed drifts by up to 2x within minutes.  --trace 1 reports the
per-layer metrics: each round runs the commands once in one traced
interpreter (sweeps with --jobs 1, so every span is recorded in-process) and
once more with only the process pool instrumented (sweeps with their real
--jobs).  See perfbench/README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS  # noqa: E402
from workloads import Command, Plan  # noqa: E402

SETUP_LAUNCHES = 21  # at least this many set-up launches per run
SETUP_FIRST = 5
SETUP_PER_ROUND = 2
SETUP_ARGV = ("triangle", "--twoj", "0", "0", "0")
PROBE_REFERENCE_S = 0.2  # probe.py's seconds at the reference speed: its median on a 2-vCPU VM


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Runner:
    """Launches CLI processes from a run directory with ./src importable."""

    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.run_dir = run_dir
        self.env = dict(os.environ)
        paths = [str(root / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.attempted = 0
        self.failed = 0

    def _run(self, argv: list[str], out: Path, cwd: Path) -> int:
        self.attempted += 1
        with open(out, "wb") as fh:
            proc = subprocess.run(
                argv, stdout=fh, stderr=subprocess.PIPE, cwd=cwd, env=self.env, check=False
            )
        if proc.returncode not in (0, 1):  # 1 is a mathematically false answer
            self.failed += 1
            sys.stderr.write(f"{' '.join(argv)} exited {proc.returncode}\n")
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
        return proc.returncode

    def cli(self, cmd: Command, cwd: Path) -> int:
        return self._run([sys.executable, "-m", "racahmod.cli", *cmd.argv], cwd / cmd.out, cwd)

    def traced(self, mode: str, commands: list[Command], cwd: Path) -> dict:
        """Run the commands in one tracer.py interpreter; returns its summary."""
        spec = cwd / f"commands-{mode}.json"
        spec.write_text(json.dumps([[c.out, list(c.argv)] for c in commands]), encoding="utf-8")
        summary_path = cwd / f"trace-{mode}.json"
        argv = [sys.executable, str(HERE / "tracer.py"), "--mode", mode]
        argv += ["--commands", str(spec), "--out", str(summary_path)]
        code = self._run(argv, cwd / f"tracer-{mode}.log", cwd)
        if code != 0:
            raise RuntimeError(f"tracer.py --mode {mode} exited {code}")
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        self.attempted += len(commands) - 1  # one tracer process ran every command
        for cmd, c in zip(commands, summary["codes"]):
            if c not in (0, 1):
                self.failed += 1
                sys.stderr.write(f"traced racahmod {' '.join(cmd.argv)} exited {c}\n")
        return summary


def read_outputs(plan: Plan, cwd: Path) -> dict[str, str]:
    return {c.out: (cwd / c.out).read_text(encoding="utf-8") for c in plan.commands}


def another_round_fits(begin: float, seconds: float, rounds: list[float]) -> bool:
    """Whether a round as long as the mean so far ends within `seconds`, so a
    run lasts --seconds and not up to a round more."""
    mean = statistics.fmean(rounds)
    return time.perf_counter() + mean <= begin + seconds


def probe_speed() -> float:
    """Seconds the speed probe takes, the mean over one probe per core, all
    started at once so that every core the sweeps use is sampled."""
    procs = [
        subprocess.Popen([sys.executable, str(HERE / "probe.py")], stdout=subprocess.PIPE)
        for _ in range(workloads.JOBS)
    ]
    try:
        outs = [proc.communicate()[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()  # does nothing to a probe that has ended
            proc.wait()
    return statistics.fmean(float(out) for out in outs)


def rescale(timeline: list[tuple[str, float]]) -> dict[str, list[float]]:
    """Each timed sample, rescaled to the reference speed.

    `timeline` holds ("probe", seconds) and (metric, seconds) in the order
    they were taken, with a probe first and last.  A sample is multiplied by
    PROBE_REFERENCE_S over the mean of the probes just before and after it."""
    probes = [i for i, (kind, _) in enumerate(timeline) if kind == "probe"]
    out: dict[str, list[float]] = {}
    for i, (kind, value) in enumerate(timeline):
        if kind == "probe":
            continue
        before = timeline[max(j for j in probes if j < i)][1]
        after = timeline[min(j for j in probes if j > i)][1]
        out.setdefault(kind, []).append(value * PROBE_REFERENCE_S / ((before + after) / 2))
    return out


def measure_end_to_end(plan: Plan, runner: Runner, seconds: float):
    """Timed rounds while they fit in `seconds`; returns the metrics and the
    first round's outputs and exit codes.

    Set-up launches are spread over the run (a few first, which also warm the
    page cache for the first round, and two after each round).  The machine's
    speed drifts by up to 2x, in stretches of seconds to several minutes, and
    moves CPU time as much as wall time; no choice of rounds within one run
    removes a drift that lasts longer than the run.  So every timed sample is
    bracketed by speed probes (probe.py) and rescaled to the reference speed,
    at which the probe takes PROBE_REFERENCE_S."""
    cwd = runner.run_dir
    timeline: list[tuple[str, float]] = []

    def launch_setup(count: int) -> None:
        for _ in range(count):
            start = time.perf_counter()
            code = runner.cli(Command("setup.out", SETUP_ARGV), cwd)
            timeline.append(("setup_s", time.perf_counter() - start))
            checks.require(
                code == 0 and (cwd / "setup.out").read_text() == "true\n",
                "triangle --twoj 0 0 0 did not print true",
            )

    begin = time.perf_counter()
    timeline.append(("probe", probe_speed()))
    launch_setup(SETUP_FIRST)
    first = None
    rounds: list[float] = []
    while not rounds or another_round_fits(begin, seconds, rounds):
        start = time.perf_counter()
        timeline.append(("probe", probe_speed()))
        cpu0 = children_cpu()
        round_start = time.perf_counter()
        codes = {c.out: runner.cli(c, cwd) for c in plan.commands}
        timeline.append(("wall_s", time.perf_counter() - round_start))
        timeline.append(("cpu_s", children_cpu() - cpu0))
        result = read_outputs(plan, cwd), codes
        first = first or result
        checks.require(result == first, "a later round printed other output")
        timeline.append(("probe", probe_speed()))
        launch_setup(SETUP_PER_ROUND)
        rounds.append(time.perf_counter() - start)
    launch_setup(max(0, SETUP_LAUNCHES - sum(kind == "setup_s" for kind, _ in timeline)))
    timeline.append(("probe", probe_speed()))
    samples = rescale(timeline)
    raw: dict[str, list[float]] = {"probe": [], "wall_s": [], "cpu_s": [], "setup_s": []}
    for kind, value in timeline:
        raw[kind].append(round(value, 4))
    print("raw " + json.dumps(raw), file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "wall_s": (statistics.fmean(samples["wall_s"]), "s"),
        "cpu_s": (statistics.fmean(samples["cpu_s"]), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return metrics, first


def layer_metrics(names: list[tuple[str, str]], layers: dict, pool: dict | None, tuples: int):
    """The per-layer metrics named in BENCHMARK.json, from one round's summaries.

    "<span>.calls", "<span>.self_s" and "<span>.distinct" come from the spans
    of the layer pass; other names are counters of the layer or pool pass."""
    counters = {**(pool["counters"] if pool else {}), **layers["counters"]}
    out = {}
    for name, unit in names:
        span, _, kind = name.rpartition(".")
        if name == "wigner.zero_scan.tuples":
            value = tuples
        elif name == "wigner.zero_scan.us_per_tuple":
            scan = layers["self_s"].get(span, 0.0)
            value = scan / tuples * 1e6 if tuples else 0.0
        elif kind in ("calls", "self_s", "distinct"):
            value = layers[kind].get(span, 0)
        else:
            value = counters.get(name, 0)
        out[name] = (value, unit)
    return out


def measure_layers(wl, plan: Plan, runner: Runner, seconds: float, check_rng):
    """Traced rounds; returns the per-layer metrics and the last layer-pass summary."""
    declared = json.loads((runner.root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [(m["name"], m["unit"]) for m in declared["per_layer"]]
    spans = {target[2] for target in TARGETS}
    for name, _ in names:
        span, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s", "distinct") and span not in spans:
            raise ValueError(f"BENCHMARK.json names {name}, but no span {span} is traced")
    serial = [c.with_jobs(1) for c in plan.commands]
    pooled = any("--jobs" in c.argv for c in plan.commands)
    pool_dir = runner.run_dir / "pool"
    pool_dir.mkdir(exist_ok=True)
    rounds, durations = [], []
    first = facts = None
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        layers = runner.traced("layers", serial, runner.run_dir)
        pool = runner.traced("pool", plan.commands, pool_dir) if pooled else None
        codes = dict(zip((c.out for c in plan.commands), layers["codes"]))
        outputs = read_outputs(plan, runner.run_dir)
        if pooled:
            checks.require(
                read_outputs(plan, pool_dir) == outputs,
                "output with --jobs 1 differs from output with the workload's --jobs",
            )
        if first is None:
            first = (outputs, codes)
            facts = wl.check(plan, outputs, codes, check_rng)
        else:
            checks.require((outputs, codes) == first, "a later round printed other output")
        problems = wl.completeness(layers, facts)
        cli_calls = layers["calls"].get("cli.main", 0)
        if cli_calls != len(serial):
            problems.append(f"cli.main calls: traced {cli_calls}, ran {len(serial)} commands")
        checks.require(not problems, "traced counts are incomplete: " + "; ".join(problems))
        rounds.append(layer_metrics(names, layers, pool, facts.get("tuples", 0)))
        durations.append(time.perf_counter() - start)
        if not another_round_fits(begin, seconds, durations):
            break
    metrics = {}
    for name, unit in names:
        values = [r[name][0] for r in rounds]
        # counts repeat exactly from round to round; times take the median
        value = statistics.median_low(values) if unit == "count" else statistics.median(values)
        metrics[name] = (value, unit)
    return metrics, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="racahmod CLI benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "racahmod" / "cli.py").is_file():
        print("error: no src/racahmod/cli.py; run from the root of a checkout", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    plan = wl.plan(random.Random(f"inputs-{args.seed}"))
    check_rng = random.Random(f"checks-{args.seed}")
    out_dir = HERE / "out"
    run_dir = out_dir / f"{wl.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    run_dir.mkdir(parents=True)
    runner = Runner(root, run_dir)
    correct = True
    try:
        if args.trace:
            metrics, layers = measure_layers(wl, plan, runner, args.seconds, check_rng)
            trace_file = out_dir / f"trace-{wl.name}-s{args.seed}.json"
            trace_file.write_text(json.dumps(layers, indent=1), encoding="utf-8")
        else:
            metrics, (outputs, codes) = measure_end_to_end(plan, runner, args.seconds)
            wl.check(plan, outputs, codes, check_rng)
    except checks.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        metrics = {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
