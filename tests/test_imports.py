"""Which modules a process loads: numpy only where a Perron problem is
solved, and mpmath never.  Each case runs in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from thermoshift.cache import CACHE_ENV

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=SRC)
    env[CACHE_ENV] = "off"
    got = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert got.returncode == 0, got.stderr


def _loaded_after(argv) -> str:
    """Code that runs the CLI on argv and then names the heavy modules it loaded."""
    return ("import sys, thermoshift.cli\n"
            f"assert thermoshift.cli.main({argv!r}) == 0\n"
            "loaded = {'numpy', 'mpmath'} & set(sys.modules)\n")


def test_no_module_imports_mpmath():
    # every spectral solve runs in doubles: no module of the package names mpmath
    for path in sorted(Path(SRC, "thermoshift").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
        names |= {node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module}
        assert not {name for name in names if name.split(".")[0] == "mpmath"}, path.name


def test_import_loads_neither_numpy_nor_mpmath():
    _run("import sys, thermoshift\n"
         "assert not {'numpy', 'mpmath'} & set(sys.modules), sys.modules.keys()")


@pytest.mark.parametrize("argv", [
    ["orbits", "--shift", "golden", "--k", "3"],
    ["rotset", "--potential", "trivec"],
    ["cohom", "--potential", "gold0"],
], ids=lambda argv: argv[0])
def test_exact_commands_run_without_numpy(argv):
    code = _loaded_after(argv) + "assert not loaded, loaded\n"
    if argv[0] == "orbits":     # nor the potential and geometry layers
        code += ("extra = {'thermoshift.potential', 'thermoshift.rotation_geometry'}"
                 " & set(sys.modules)\n"
                 "assert not extra, extra")
    _run(code)


def test_point_face_curve_runs_without_numpy_or_the_engine():
    # kinkvec's face 0,-1 is three points: the fixed point 55 and the full
    # shifts on {0,1} and {2,3,4}, at their exact entropies log r
    _run(_loaded_after(["facecurve", "--potential", "kinkvec", "--alpha", "0,-1"])
         + "assert not loaded, loaded\n"
         "engine = {'thermoshift.spectral', 'thermoshift.thermodynamics'} & set(sys.modules)\n"
         "assert not engine, engine")


def test_sampled_face_curve_loads_numpy():
    _run(_loaded_after(["facecurve", "--potential", "trivec", "--alpha", "0,-1"])
         + "assert 'numpy' in loaded, loaded")


def test_tied_sweep_leaves_numpy_ma_unloaded():
    # the aggregation frame orders its states without numpy.ma
    _run(_loaded_after(["ztsweep", "--potential", "threefix_a"])
         + "assert 'numpy' in loaded and 'numpy.ma' not in sys.modules")


def test_classify_loads_numpy():
    _run(_loaded_after(["classify", "--potential", "gold0"])
         + "assert 'numpy' in loaded, loaded")


def test_public_names_resolve_and_are_listed():
    _run("import importlib, thermoshift\n"
         "names = set(dir(thermoshift))\n"
         "for name in thermoshift.__all__:\n"
         "    assert name in names, name\n"
         "    assert getattr(thermoshift, name) is not None, name\n"
         "    if name != '__version__':\n"
         "        owner = importlib.import_module(\n"
         "            'thermoshift.' + thermoshift._MODULE_OF[name])\n"
         "        obj = getattr(owner, name)\n"
         "        assert getattr(thermoshift, name) is obj, name\n"
         "        assert obj.__module__ == owner.__name__, name")


def test_star_import_binds_the_defining_objects():
    _run("import importlib, thermoshift\n"
         "ns = {}\n"
         "exec('from thermoshift import *', ns)\n"
         "assert set(thermoshift.__all__) <= set(ns)\n"
         "for name in thermoshift.__all__[1:]:\n"
         "    owner = importlib.import_module(\n"
         "        'thermoshift.' + thermoshift._MODULE_OF[name])\n"
         "    assert ns[name] is getattr(owner, name), name\n"
         "assert ns['__version__'] == thermoshift.__version__")


def test_unknown_names_raise_attribute_error():
    _run("import thermoshift\n"
         "try:\n"
         "    thermoshift.no_such_name\n"
         "except AttributeError:\n"
         "    pass\n"
         "else:\n"
         "    raise AssertionError('no AttributeError')")
