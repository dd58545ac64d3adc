"""The package's lazy exports and the layers each CLI command loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import racahmod
from racahmod.constructions import build_z
from racahmod.gmod import grep_to_json

SRC = os.path.dirname(os.path.dirname(racahmod.__file__))

# each probe prints the racahmod submodules loaded when it ends
_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('racahmod.'))))"
_IMPORT_PROBE = f"import json, sys\nimport racahmod\n{_LOADED}"
_CLI_PROBE = f"""import contextlib, io, json, sys
from racahmod.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
{_LOADED}"""


def _loaded(probe: str, *argv: str, cwd=None) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
        check=True,
    )
    return {name.removeprefix("racahmod.") for name in json.loads(proc.stdout)}


def test_import_racahmod_loads_no_layer():
    assert _loaded(_IMPORT_PROBE) == set()


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["socle", "--in", "z.json"], {"classify", "constructions", "wigner"}),
        (["socle", "--in", "z.json", "--format", "json"], {"classify", "constructions", "wigner"}),
        (["uniserial", "--in", "z.json"], {"classify", "constructions", "wigner"}),
        (["realize", "--kind", "z", "--ell", "2", "--b", "2", "--m", "4"], {"classify", "wigner"}),
        (["triangle", "--twoj", "0", "0", "0"], {"sl2", "gmod", "constructions", "classify"}),
        # classify builds modules only for verify-classify
        (["verify-scalar", "--max", "1", "--jobs", "1"], {"gmod", "constructions"}),
        (["admissible", "--m", "2", "--seq", "0,2"], {"gmod", "constructions"}),
        (["recouple", "--twoj", "2", "2", "2", "2"], {"gmod", "constructions"}),
    ],
)
def test_each_command_loads_only_its_layers(tmp_path, argv, absent):
    (tmp_path / "z.json").write_text(grep_to_json(build_z(2, 2, 4)), encoding="utf-8")
    loaded = _loaded(_CLI_PROBE, *argv, cwd=tmp_path)
    assert "cli" in loaded and not loaded & absent


def test_classification_sweep_loads_its_layers_before_the_sweep_starts():
    # sweep decides on a pool from the rate of the first tasks, so an import
    # inside the first task would count as work
    probe = """import json, sys
from racahmod import classify
def sweep(fn, tasks, jobs):
    print(json.dumps(sorted(m for m in sys.modules if m.startswith('racahmod.'))))
    return []
classify.sweep = sweep
classify.classification_sweep(1, 2)"""
    assert {"gmod", "constructions"} <= _loaded(probe)


def test_no_layer_loads_dataclasses_or_inspect():
    # both cost a launch milliseconds; only what the layers add is counted,
    # so a module the bare interpreter loads already does not fail the test
    probe = """import json, sys
base = set(sys.modules)
import racahmod.cli, racahmod.classify, racahmod.constructions, racahmod.exact
import racahmod.gmod, racahmod.sl2, racahmod.wigner
print(json.dumps(sorted(set(sys.modules) - base)))"""
    added = _loaded(probe)
    assert "classify" in added and not added & {"dataclasses", "inspect"}


def test_exports_resolve_in_their_home_module_on_each_access(monkeypatch):
    for name in racahmod.__all__:
        home = importlib.import_module(f"racahmod.{racahmod._HOME[name]}")
        assert getattr(racahmod, name) is getattr(home, name), name
        assert name not in vars(racahmod), f"{name} was cached in the package"
    # a replaced attribute is seen through the package at once (the tracer relies on it)
    wigner = importlib.import_module("racahmod.wigner")
    monkeypatch.setattr(wigner, "sixj", len)
    assert racahmod.sixj is len


def test_exports_keep_their_names():
    assert set(racahmod.__all__) <= set(dir(racahmod))
    from racahmod import exact, sixj, triangle, wigner

    assert sixj is wigner.sixj
    assert triangle is exact.triangle is wigner.triangle


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        racahmod.no_such_name
    assert not hasattr(racahmod, "no_such_name")
    with pytest.raises(ImportError):
        from racahmod import no_such_name  # noqa: F401
