"""Run CLI commands in one interpreter with the library's layer boundaries traced.

    python3 perfbench/tracer.py --mode layers --commands cmds.json --out trace.json

The commands file holds a list of ``[stdout_file, argv]`` pairs; each argv is
run through ``racahmod.cli.main`` in order, from the current directory, with
stdout written to its file.  The modes:

* ``layers`` wraps the public functions of every layer (see ``TARGETS``).
  Each call records a span (name, start, end, parent) in memory; at the end
  the spans are reduced to per-name call counts and self times (duration
  minus the time covered by child spans).  Sweeps should be given
  ``--jobs 1`` so that every span is recorded in this process.
* ``pool`` wraps only ``concurrent.futures.ProcessPoolExecutor`` to count
  the tasks a sweep submits and the worker time left idle while its pool
  lives (workers x pool lifetime - CPU time of the workers).
* ``bare`` wraps nothing; comparing its wall time with ``layers`` gives the
  tracing overhead.

A wrapper replaces the wrapped object under every name that refers to it in
every ``racahmod`` module, so a function imported with ``from ... import``
is traced as well.  After installation no module may still refer to an
original; if one does the run stops, since counts would be short.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

MODULES = (
    "racahmod",
    "racahmod.exact",
    "racahmod.wigner",
    "racahmod.sl2",
    "racahmod.gmod",
    "racahmod.constructions",
    "racahmod.classify",
    "racahmod.cli",
)

# (module, attribute, span name, extra record).  An attribute "Cls.meth" is
# patched on the class.  The extras:
#   distinct  count distinct positional arguments
#   rows      count input rows (rref)
#   madds     multiply-adds of a matrix product; scalar products pass untraced
#   found     length of the result (the zero list)
#   steps     number of socle steps in the result
#   obstructed  results that are not modules (build_from_sequence)
TARGETS = (
    ("racahmod.exact", "QMatrix.__mul__", "exact.matmul", "madds"),
    ("racahmod.exact", "rref", "exact.rref", "rows"),
    ("racahmod.exact", "QMatrix.apply", "exact.apply", None),
    ("racahmod.exact", "SqrtRational.sqrt_of", "exact.sqrt_of", None),
    ("racahmod.wigner", "find_sixj_zeros", "wigner.zero_scan", "found"),
    ("racahmod.wigner", "sixj", "wigner.sixj", "distinct"),
    ("racahmod.wigner", "delta", "wigner.delta", None),
    ("racahmod.sl2", "hom_embedding", "sl2.hom_embedding", "distinct"),
    ("racahmod.sl2", "TensorVector.apply_f", "sl2.apply_f", None),
    ("racahmod.sl2", "decompose", "sl2.decompose", None),
    ("racahmod.gmod", "check_rep", "gmod.check_rep", None),
    ("racahmod.gmod", "socle_series", "gmod.socle_series", "steps"),
    ("racahmod.gmod", "grep_to_json", "gmod.json", None),
    ("racahmod.gmod", "grep_from_json", "gmod.json", None),
    (
        "racahmod.constructions",
        "build_from_sequence",
        "constructions.build_from_sequence",
        "obstructed",
    ),
    ("racahmod.constructions", "radical_blocks", "constructions.radical_blocks", "distinct"),
    ("racahmod.constructions", "build_z", "constructions.build", None),
    ("racahmod.constructions", "build_z_dual", "constructions.build", None),
    ("racahmod.constructions", "build_exceptional_len3", "constructions.build", None),
    ("racahmod.constructions", "build_z_family", "constructions.build", None),
    ("racahmod.constructions", "build_symmetric_power", "constructions.build", None),
    ("racahmod.classify", "lambda_phi", "classify.lambda_phi", None),
    ("racahmod.classify", "c_factor", "classify.c_factor", None),
    ("racahmod.classify", "compute_I_J", "classify.compute_I_J", None),
    ("racahmod.classify", "classification_row", "classify.row", None),
    ("racahmod.cli", "main", "cli.main", None),
)


class Tracer:
    """Spans in memory plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name index, start, end, parent span index or -1)
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}

    def add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, extra: str | None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        seen = self.distinct.setdefault(name, set()) if extra == "distinct" else None
        qmatrix = sys.modules["racahmod.exact"].QMatrix
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if extra == "madds":
                other = args[1]
                if not isinstance(other, qmatrix):
                    return fn(*args, **kwargs)
                tracer.add(name + ".madds", args[0].rows * args[0].cols * other.cols)
            elif extra == "rows":
                args = (list(args[0]), *args[1:])
                tracer.add(name + ".rows", len(args[0]))
            elif seen is not None:
                seen.add(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name_id, start, clock(), parent)
                stack.pop()
            if extra == "found":
                tracer.add(name + ".found", len(result))
            elif extra == "steps":
                tracer.add(name + ".steps", len(result.steps))
            elif extra == "obstructed":
                tracer.add(name + ".obstructed", int(not result))
            return result

        return traced

    def summary(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: dict[str, int] = {}
        outer: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
            if parent < 0 or self.spans[parent][0] != name_id:
                outer[name] = outer.get(name, 0) + 1
        return {
            "spans": len(self.spans),
            "calls": calls,
            "outer_calls": outer,
            "self_s": self_s,
            "counters": self.counters,
            "distinct": {name: len(s) for name, s in self.distinct.items()},
        }


def install_layers(tracer: Tracer) -> None:
    modules = [importlib.import_module(name) for name in MODULES]
    originals = []
    for module_name, attr, name, extra in TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = tracer.wrap(fn, name, extra)
            setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
            continue
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(fn, name, extra)
        originals.append(fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
    for module in modules:
        for key, value in vars(module).items():
            if any(value is fn for fn in originals):
                raise RuntimeError(f"{module.__name__}.{key} still refers to an untraced function")


def install_pool(tracer: Tracer) -> None:
    """Count pool tasks and the worker time a pool leaves idle."""
    pool_cls = concurrent.futures.ProcessPoolExecutor
    init, submit, shutdown = pool_cls.__init__, pool_cls.submit, pool_cls.shutdown
    lives = {}

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        lives[id(self)] = (time.perf_counter(), children_cpu())

    def traced_submit(self, *args, **kwargs):
        tracer.add("cli.sweep.tasks", 1)
        return submit(self, *args, **kwargs)

    def traced_shutdown(self, wait=True, **kwargs):
        shutdown(self, wait, **kwargs)
        life = lives.pop(id(self), None)
        if wait and life is not None:
            wall = time.perf_counter() - life[0]
            busy = children_cpu() - life[1]
            tracer.counters["cli.sweep.worker_idle_s"] = (
                tracer.counters.get("cli.sweep.worker_idle_s", 0.0)
                + self._max_workers * wall
                - busy
            )

    pool_cls.__init__ = traced_init
    pool_cls.submit = traced_submit
    pool_cls.shutdown = traced_shutdown


def run_commands(commands: list) -> list:
    """Run each CLI argv in order; returns the exit codes (None on a crash)."""
    cli = sys.modules["racahmod.cli"]
    codes = []
    for out_file, argv in commands:
        with open(out_file, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is reported as a failed operation
                traceback.print_exc()
                code = None
        codes.append(code)
    return codes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["layers", "pool", "bare"], required=True)
    parser.add_argument("--commands", required=True, help="JSON list of [stdout_file, argv]")
    parser.add_argument("--out", required=True, help="where to write the summary JSON")
    args = parser.parse_args(argv)
    commands = json.loads(Path(args.commands).read_text(encoding="utf-8"))
    tracer = Tracer()
    for name in MODULES:
        importlib.import_module(name)
    if args.mode == "layers":
        install_layers(tracer)
    elif args.mode == "pool":
        install_pool(tracer)
    start = time.perf_counter()
    codes = run_commands(commands)
    wall = time.perf_counter() - start
    summary = tracer.summary()
    summary.update(mode=args.mode, wall_s=wall, codes=codes)
    Path(args.out).write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
