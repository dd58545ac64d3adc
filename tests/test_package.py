"""The package's lazy exports and the layers each CLI command loads."""

import importlib
import os
import subprocess
import sys

import pytest

import racahmod
from racahmod.constructions import build_z
from racahmod.gmod import grep_to_json

SRC = os.path.dirname(os.path.dirname(racahmod.__file__))

# each probe prints the racahmod submodules loaded when it ends, and json if
# it is loaded: the probes themselves import no json
_LOADED = "print(*(m for m in sys.modules if m.startswith('racahmod.') or m == 'json'))"
_IMPORT_PROBE = f"import sys\nimport racahmod\n{_LOADED}"
_CLI_PROBE = f"""import contextlib, io, sys
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
    return {name.removeprefix("racahmod.") for name in proc.stdout.split()}


def test_import_racahmod_loads_no_layer():
    assert _loaded(_IMPORT_PROBE) == set()


# every module of the package, and json
_ALL = {"twoj", "surd", "exact", "wigner", "sl2", "gmod", "constructions", "classify", "json"}
# the socle series needs the linear algebra and gmod only
_SOCLE_ABSENT = {"surd", "wigner", "sl2", "constructions", "classify"}
# the recoupling values need the surds and no linear algebra
_VALUE_ABSENT = {"exact", "sl2", "gmod", "constructions", "classify", "json"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["socle", "--in", "z.json"], _SOCLE_ABSENT),
        (["socle", "--in", "z.json", "--format", "json"], _SOCLE_ABSENT),
        (["uniserial", "--in", "z.json"], _SOCLE_ABSENT),
        # realize writes its JSON text without the encoder
        (
            ["realize", "--kind", "z", "--ell", "2", "--b", "2", "--m", "4"],
            {"surd", "wigner", "classify", "json"},
        ),
        (["triangle", "--twoj", "0", "0", "0"], _ALL - {"twoj"}),
        # classify builds modules only for verify-classify
        (["verify-scalar", "--max", "1", "--jobs", "1"], {"gmod", "constructions"}),
        (["admissible", "--m", "2", "--seq", "0,2"], {"gmod", "constructions"}),
        (["recouple", "--twoj", "2", "2", "2", "2"], {"gmod", "constructions"}),
        (["zeros", "--max", "4"], _VALUE_ABSENT),
        (["sixj", "--twoj", "4", "0", "4", "4", "6", "4"], _VALUE_ABSENT),
    ],
)
def test_each_command_loads_only_its_layers(tmp_path, argv, absent):
    (tmp_path / "z.json").write_text(grep_to_json(build_z(2, 2, 4)), encoding="utf-8")
    loaded = _loaded(_CLI_PROBE, *argv, cwd=tmp_path)
    assert "cli" in loaded and not loaded & absent


def test_classification_sweep_loads_its_layers_before_the_sweep_starts():
    # sweep decides on a pool from the rate of the first tasks, so an import
    # inside the first task would count as work
    probe = """import sys
from racahmod import classify
def sweep(fn, tasks, jobs):
    print(*(m for m in sys.modules if m.startswith('racahmod.')))
    return []
classify.sweep = sweep
classify.classification_sweep(1, 2)"""
    assert {"gmod", "constructions"} <= _loaded(probe)


def test_no_layer_loads_dataclasses_or_inspect():
    # both cost a launch milliseconds; only what the layers add is counted,
    # so a module the bare interpreter loads already does not fail the test
    probe = """import sys
base = set(sys.modules)
import racahmod.cli, racahmod.classify, racahmod.constructions, racahmod.exact
import racahmod.gmod, racahmod.sl2, racahmod.surd, racahmod.twoj, racahmod.wigner
print(*(set(sys.modules) - base))"""
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
    from racahmod import exact, sixj, surd, triangle, twoj, wigner

    assert sixj is wigner.sixj
    assert triangle is twoj.triangle is wigner.triangle
    # SqrtRational alone still resolves in exact, looked up in surd on each access
    assert exact._SURD_NAMES == {"SqrtRational"}
    for name in exact._SURD_NAMES:
        assert getattr(exact, name) is getattr(surd, name), name
        assert name not in vars(exact), f"{name} was cached in exact"
    # and no name that surd or twoj defines, nor the factorial twoj re-exports
    for home in (surd, twoj):
        own = [n for n, v in vars(home).items() if getattr(v, "__module__", None) == home.__name__]
        assert len(own) > 5, home
        for name in {*own, "factorial"} - exact._SURD_NAMES:
            assert not hasattr(exact, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        racahmod.no_such_name
    assert not hasattr(racahmod, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        importlib.import_module("racahmod.exact").no_such_name
    with pytest.raises(ImportError):
        from racahmod import no_such_name  # noqa: F401
