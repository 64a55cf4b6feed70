"""What a CLI call executes, and the package's lazily resolved names."""

import importlib
import json
import subprocess
import sys

import pytest

import hklat

# runs ``python -m hklat <argv>`` and then reports its exit code, the
# hklat modules that executed (those in sys.modules) and which of three
# standard modules that the lean paths avoid are in sys.modules
_PROBE = """
import json, runpy, sys
sys.argv = ["hklat", *json.loads(sys.argv[1])]
try:
    runpy.run_module("hklat", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.__stderr__.write("\\n" + json.dumps({
    "exit": code,
    "executed": sorted(name for name in sys.modules if name.split(".")[0] == "hklat"),
    "stdlib": sorted(name for name in ("dataclasses", "decimal", "fractions") if name in sys.modules),
}) + "\\n")
"""

_LEAN = ["hklat", "hklat.cli", "hklat.errors", "hklat.jsonio"]
_STDLIB = ("dataclasses", "decimal", "fractions")
_CONTEXT = {"lattice": {"gram": [[2, 1], [1, -4]]}, "h": [1, 0]}


def _adds(*names: str) -> list[str]:
    return sorted([*_LEAN, *(f"hklat.{name}" for name in names)])


# argv, stdin, exit code, executed hklat modules, standard modules not loaded
CALLS = {
    "schema": (["disc", "--schema"], None, 0, _LEAN, _STDLIB),
    "help": (["--help"], None, 0, _LEAN, _STDLIB),
    "usage-error": (["frobnicate"], None, 2, _LEAN, _STDLIB),
    "disc": (["disc", "-"], {"gram": [[-4]]}, 0, _adds("lattice", "linalg"), ("decimal", "fractions")),
    "dual": (["dual", "-"], {"gram": [[2, 1], [1, -4]], "x": [1, 2]}, 0, _adds("lattice", "linalg"),
             ("decimal", "fractions")),
    "bound": (["bound", "-"], {"n": 1, "cardA": 1, "rho": 2}, 0, _adds("bounds"), ()),
    "walls-predicate": (["walls", "-"], {"context": {**_CONTEXT, "walls": [[0, 1]]}, "divisor": [0, 1]}, 0,
                        _adds("cones", "lattice", "linalg"), ()),
    "zariski": (["zariski", "-"], {"context": {**_CONTEXT, "primes": [[0, 1]]}, "D": [1, 1], "cardA": 1}, 0,
                _adds("bounds", "cones", "lattice", "linalg", "zariski"), ()),
    "mld": (["mld", "-"], {"table": {"rows": [{"label": "E", "kE": "1/2", "dE": 0, "center": "p"}]},
                           "query": {"at": "p"}}, 0, _adds("lattice", "linalg", "mld"), ()),
    "mld-integer": (["mld", "-"], {"table": {"rows": [{"label": "E", "kE": 1, "dE": 0, "center": "p"}]},
                                   "query": {"at": "p"}}, 0, _adds("lattice", "linalg", "mld"),
                    ("decimal", "fractions")),
}


def _python(code: str, *args: str, stdin=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], input=stdin,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name", CALLS)
def test_cli_call_executes_only_the_modules_its_path_uses(name):
    argv, stdin, code, executed, absent = CALLS[name]
    proc = _python(_PROBE, json.dumps(argv), stdin=None if stdin is None else json.dumps(stdin))
    report = json.loads(proc.stderr.splitlines()[-1])
    assert report["exit"] == code, proc.stderr
    assert report["executed"] == executed
    assert not set(absent) & set(report["stdlib"]), report["stdlib"]


def test_every_public_name_is_the_object_of_its_home_module():
    constants = {"DEFAULT_EXACT_THRESHOLD": "hklat.bounds", "DEFAULT_ORBIT_BUDGET": "hklat.cones",
                 "NEG_INFINITY": "hklat.mld"}
    for name in hklat.__all__:
        obj = getattr(hklat, name)
        home = constants.get(name) or obj.__module__
        assert home.startswith("hklat."), name
        assert getattr(importlib.import_module(home), name) is obj, name


def test_dir_and_star_import_list_every_public_name():
    assert set(hklat.__all__) <= set(dir(hklat))
    namespace = {}
    exec("from hklat import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hklat.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'make_lattices'"):
        hklat.make_lattices


def test_first_public_name_executes_every_kernel_module():
    proc = _python(
        "import sys, hklat\n"
        "hklat.make_lattice\n"
        "print(sorted(n for n in sys.modules if n.startswith('hklat.')))\n")
    assert proc.stdout == str([f"hklat.{name}" for name in (
        "bounds", "cones", "errors", "lattice", "linalg", "mld", "zariski")]) + "\n", proc.stderr


def test_submodule_imported_after_the_cli_is_a_working_module():
    proc = _python(
        "import hklat.cli\n"
        "import hklat.lattice\n"
        "from hklat import cones\n"
        "print(hklat.lattice.make_lattice([[2, 1], [1, -4]]).det, cones.DEFAULT_ORBIT_BUDGET,\n"
        "      hklat.mld.NEG_INFINITY)\n")
    assert proc.stdout.split() == ["-9", "1000", "-inf"], proc.stderr
