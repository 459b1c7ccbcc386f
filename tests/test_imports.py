"""Modules of lane3d import in one direction only, the demos import only
names that exist, only autodiff builds tape nodes, every public name
of the package has a caller outside the tests, and only one function
names scipy, whose assignment solver it loads without scipy.optimize.

Each module sits in a tier and may import only from lower tiers:
autodiff, geometry -> losses, heads, temporal -> synth, metrics ->
training, checks -> config -> cli.  Modules within a tier are
independent of each other.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lane3d"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

TIERS = (
    ("autodiff", "geometry"),
    ("losses", "heads", "temporal"),
    ("synth", "metrics"),
    ("training", "checks"),
    ("config",),
    ("cli",),
)
TIER = {name: rank for rank, names in enumerate(TIERS) for name in names}


def _package_imports(path):
    """(line, module) for every import of a lane3d module in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "lane3d" and len(parts) > 1:
                    found.append((node.lineno, parts[1]))
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "lane3d":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.append((node.lineno, parts[0]))
            else:  # from . import x, y
                found.extend((node.lineno, alias.name) for alias in node.names)
    return found


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_module_has_a_tier():
    assert sorted(p.stem for p in MODULES) == sorted(TIER)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_point_down_the_tiers(path):
    upward = [
        f"{path.name}:{line} imports {target}"
        for line, target in _package_imports(path)
        if TIER[target] >= TIER[path.stem]
    ]
    assert not upward, upward


def test_the_scanner_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy\n"
        "import lane3d.cli\n"
        "from lane3d.config import RunConfiguration\n"
        "from . import training as t, checks\n"
        "from .synth import SceneConfig\n"
        "from lane3d import geometry\n"
        "def late():\n"
        "    from .metrics import match_lanes\n"
    )
    assert sorted(target for _, target in _package_imports(probe)) == [
        "checks", "cli", "config", "geometry", "metrics", "synth", "training",
    ]


def _resolves(module, name):
    """True if ``from module import name`` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule not imported yet
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def _unresolved_imports(path):
    """``from lane3d... import name`` lines whose name does not exist."""
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lane3d":
            missing += [
                f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                for alias in node.names
                if not _resolves(node.module, alias.name)
            ]
    return missing


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    # parsed, not run: an API deletion that breaks a demo fails here cheaply
    assert not _unresolved_imports(path)


def test_the_demo_check_sees_a_missing_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from lane3d import autodiff, nonexistent_module\n"
        "from lane3d.training import AdamOptimizer, make_optimizer\n"
    )
    assert _unresolved_imports(probe) == [
        "probe.py:1 lane3d.nonexistent_module", "probe.py:2 lane3d.training.make_optimizer",
    ]


# autodiff alone decides which nodes are constant; a module that built a
# Var with parents or set a VJP itself would bypass that one decision
TAPE_HOOKS = {("checks", "corrupt_gradient")}  # test hooks allowed to wrap a VJP


def _tape_writes(path):
    """``Var(...)`` calls with parents and ``_vjp`` assignments in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and (path.stem, node.name) in TAPE_HOOKS]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "Var" and (len(node.args) > 1 or node.keywords):
                found.append((node.lineno, "builds a Var with parents"))
            if name == "setattr" and any(
                    isinstance(a, ast.Constant) and a.value == "_vjp" for a in node.args):
                found.append((node.lineno, "assigns _vjp"))
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(sub, ast.Attribute) and sub.attr == "_vjp"
               for target in targets for sub in ast.walk(target)):
            found.append((node.lineno, "assigns _vjp"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)
            if not any(line in scope for scope in exempt)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "autodiff"],
                         ids=[p.stem for p in MODULES if p.stem != "autodiff"])
def test_only_autodiff_builds_tape_nodes(path):
    assert not _tape_writes(path)


def test_the_tape_scanner_sees_every_form(tmp_path):
    probe = tmp_path / "checks.py"
    probe.write_text(
        "from lane3d import autodiff as ad\n"
        "from lane3d.autodiff import Var\n"
        "leaf = ad.Var(1.0)\n"
        "a = ad.Var(2.0, (leaf,))\n"
        "b = Var(2.0, _parents=(leaf,))\n"
        "a._vjp = None\n"
        "a._vjp, b = None, b\n"
        "setattr(b, '_vjp', None)\n"
        "def corrupt_gradient():\n"
        "    a._vjp = None\n"
    )
    assert _tape_writes(probe) == [
        "checks.py:4 builds a Var with parents", "checks.py:5 builds a Var with parents",
        "checks.py:6 assigns _vjp", "checks.py:7 assigns _vjp", "checks.py:8 assigns _vjp",
    ]


# Code whose only caller is its own test gets deleted: every public
# top-level name of the package must be read somewhere in the program
# (the package, the benchmark harness or the demos), outside its own
# definition.  Tests do not count.
PROGRAM = [*MODULES, *DEMOS,
           *sorted(p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parts)]


def _public_definitions(path):
    """(name, first line, last line) of each public top-level def, class and constant."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [sub.id for target in targets for sub in ast.walk(target)
                     if isinstance(sub, ast.Name)]
        else:
            continue
        found += [(name, node.lineno, node.end_lineno) for name in names
                  if not name.startswith("_")]
    return found


def _unreferenced(modules, program):
    """``module.name`` of every public definition in ``modules`` that no file
    of ``program`` reads as a name or an attribute; an import is not a read."""
    uses = {}
    for path in program:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses.setdefault(name, []).append((path, node.lineno))
    return [f"{path.stem}.{name}" for path in modules
            for name, first, last in _public_definitions(path)
            if not any(where != path or not first <= line <= last
                       for where, line in uses.get(name, ()))]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert len([d for path in MODULES for d in _public_definitions(path)]) > 100
    assert not _unreferenced(MODULES, PROGRAM)


def test_the_caller_check_sees_a_name_only_its_own_definition_reads(tmp_path):
    module, user = tmp_path / "alpha.py", tmp_path / "user.py"
    module.write_text(
        "LIMIT = 3\n"
        "UNUSED, ALSO = 1, 2\n"
        "def used():\n"
        "    return LIMIT\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def _private():\n"
        "    pass\n"
        "class Imported:\n"
        "    pass\n"
        "class ImportedOnly:\n"
        "    pass\n"
    )
    user.write_text("import alpha\nfrom alpha import Imported, ImportedOnly\n"
                    "alpha.used(Imported)\n")
    assert _unreferenced([module], [module, user]) == [
        "alpha.UNUSED", "alpha.ALSO", "alpha.recursive", "alpha.ImportedOnly"]


# The allocator policy has one home, lane3d/__init__.py: no other module of
# the package and no demo loads C code through ctypes, and no program file
# names mallopt (the benchmark harness may use ctypes to read OpenBLAS's
# thread count, never to set allocator options).
def _allocator_access(path):
    """``imports ctypes`` and ``names mallopt`` lines of the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "imports ctypes") for alias in node.names
                      if alias.name.split(".")[0] == "ctypes"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "ctypes":
                found.append((node.lineno, "imports ctypes"))
        elif isinstance(node, ast.Constant) and node.value == "ctypes":  # __import__("ctypes")
            found.append((node.lineno, "imports ctypes"))
        elif "mallopt" in (getattr(node, "id", None), getattr(node, "attr", None),
                           getattr(node, "value", None)):  # a name, an attribute or a string
            found.append((node.lineno, "names mallopt"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(set(found))]


def test_only_the_package_init_sets_the_allocator_policy():
    assert _allocator_access(PACKAGE / "__init__.py")  # the one home, seen by the scanner
    found = [hit for path in PROGRAM for hit in _allocator_access(path)
             if "mallopt" in hit or "perfbench" not in path.parts]
    assert not found, found


def test_the_allocator_scanner_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import ctypes\n"
        "import ctypes.util as cu\n"
        "from ctypes import CDLL\n"
        "libc = __import__('ctypes').CDLL(None)\n"
        "libc.mallopt(-3, 1)\n"
        "fn = getattr(libc, 'mallopt')\n"
        "from numpy import ctypeslib\n"
        "import mallopt_free\n"
    )
    assert _allocator_access(probe) == [
        "probe.py:1 imports ctypes", "probe.py:2 imports ctypes", "probe.py:3 imports ctypes",
        "probe.py:4 imports ctypes", "probe.py:5 names mallopt", "probe.py:6 names mallopt",
    ]


# scipy has one home, heads._linear_sum_assignment, which loads only the
# compiled extension of scipy's assignment solver, on the first assignment:
# importing the scipy.optimize package would cost a process about 0.5 s
# and 40 MB, and the gradient audit and the commands that exit before
# matching never solve an assignment
SOLVER_HOME = ("heads", "_linear_sum_assignment")


def _solver_access(path):
    """(line, enclosing function or None) of each place the file names scipy."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [(range(node.lineno, node.end_lineno + 1), node.name) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]

    def scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            lines += [node.lineno for alias in node.names if scipy(alias.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if scipy(node.module or ""):
                lines.append(node.lineno)
        elif isinstance(node, ast.Name):  # scipy.__file__
            if node.id == "scipy":
                lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if scipy(node.value):  # import_module, spec_from_file_location
                lines.append(node.lineno)
    # the innermost function wins: ast.walk meets outer functions first
    return [(line, next((name for scope, name in reversed(scopes) if line in scope), None))
            for line in sorted(set(lines))]


def test_only_the_solver_loader_names_scipy():
    found = [(path.stem, where) for path in sorted(PACKAGE.glob("*.py"))
             for _, where in _solver_access(path)]
    assert found and set(found) == {SOLVER_HOME}, found


def test_the_solver_scanner_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import scipy.optimize\n"
        "import scipy.optimize._lsap as lsap\n"
        "from scipy.optimize import linear_sum_assignment\n"
        "from scipy import sparse, optimize\n"
        "import numpy, scipy\n"
        "solve = scipy.optimize.linear_sum_assignment\n"
        "module = __import__('importlib').import_module('scipy.optimize')\n"
        "spec = spec_from_file_location('scipy.optimize._lsap', 'x.so')\n"
        "import scipyx\n"
        "from notscipy import optimize\n"
        "note = \"scipy's solver\"\n"
        "def solver():\n"
        "    import scipy as sp\n"
        "    return sp.__version__\n"
    )
    assert _solver_access(probe) == [
        (1, None), (2, None), (3, None), (4, None), (5, None), (6, None), (7, None),
        (8, None), (13, "solver"),
    ]


def test_an_assignment_loads_only_scipys_solver_extension():
    # a fresh process: the one running the tests has loaded scipy.optimize already
    code = (
        "import sys\n"
        "import lane3d.cli\n"
        "from lane3d import checks, heads, metrics\n"
        "from lane3d.geometry import Lane3D, build_default_anchors\n"
        "checks.run_gradient_checks(num_inputs=1)\n"
        "assert 'scipy' not in sys.modules, 'scipy loaded without an assignment'\n"
        "lane = Lane3D(stations=[5.0, 10.0], x=[0.1, 0.1], z=[0.0, 0.0],\n"
        "              visibility=[1.0, 1.0], category=1)\n"
        "anchors = build_default_anchors(3, (-1.0, 1.0), [5.0, 10.0])\n"
        "assigned = heads.assign_targets(anchors, [lane]).lane_for_anchor\n"
        "assert assigned.tolist() == [heads.BACKGROUND, 0, heads.IGNORE], assigned\n"
        "report = metrics.match_lanes([lane], [lane])\n"
        "assert report.tp == 1 and report.matches == ((0, 0, 0.0),), report\n"
        "assert 'scipy.optimize._lsap' in sys.modules, 'the solver was not loaded'\n"
        "loaded = [name for name in ('scipy.optimize', 'scipy.sparse', 'scipy.linalg')\n"
        "          if name in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# Run outputs are written only after every input is checked, and cli is
# where the checks end: outside cli only the format writers below touch
# the file system.  A library function that wrote a file itself (as
# train(log_path=...) once did) could write before cli had checked the
# rest of the inputs.
FILE_WRITERS = {("config", "save_run_configuration"), ("geometry", "write_lane_file"),
                ("metrics", "write_table"), ("training", "save_checkpoint")}
WRITE_CALLS = {"save", "savez", "savez_compressed", "savetxt", "tofile", "write_text",
               "write_bytes", "mkdir", "makedirs"}


def _file_writes(path):
    """(line, enclosing function or None) of each call in the file that writes
    to the file system: an ``open`` whose mode is not a read-only constant,
    or one of WRITE_CALLS."""
    tree = ast.parse(path.read_text(), filename=str(path))
    scopes = [(range(node.lineno, node.end_lineno + 1), node.name) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "open":  # open(file, mode) or Path.open(mode)
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or set(m.value) & set("wax+") for m in modes):
                lines.append(node.lineno)
        elif name in WRITE_CALLS:
            lines.append(node.lineno)
    # the innermost function wins: ast.walk meets outer functions first
    return [(line, next((name for scope, name in reversed(scopes) if line in scope), None))
            for line in sorted(set(lines))]


def test_only_cli_and_the_format_writers_write_files():
    found = {(path.stem, where) for path in MODULES if path.stem != "cli"
             for _, where in _file_writes(path)}
    assert found == FILE_WRITERS


def test_the_write_scanner_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from pathlib import Path\n"
        "open('a')\n"
        "open('a', 'rb')\n"
        "open('a', encoding='utf-8')\n"
        "Path('a').open()\n"
        "open('a', 'w')\n"
        "open('a', mode='ab')\n"
        "Path('a').open('r+')\n"
        "def table(path, mode):\n"
        "    with open(path, mode) as fh:\n"
        "        fh.write('x')\n"
        "np.save('a', np.zeros(1))\n"
        "Path('a').write_text('x')\n"
        "def make():\n"
        "    Path('d').mkdir()\n"
    )
    assert _file_writes(probe) == [
        (7, None), (8, None), (9, None), (11, "table"), (13, None), (14, None), (16, "make"),
    ]


# Text files are UTF-8 whatever the locale: every open in the package is
# binary or names encoding="utf-8".  A reader that decoded in the locale's
# encoding would reject, under LC_ALL=C, a file it reads elsewhere.
TEXT_CALLS = {"open", "read_text", "write_text"}


def _locale_opens(path):
    """Lines of ``open``, ``read_text`` and ``write_text`` calls in the file
    that are neither binary nor pass ``encoding="utf-8"``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name not in TEXT_CALLS:
            continue
        # open(file, mode) or Path.open(mode); a mode that is not a constant is not binary
        modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
        modes += [k.value for k in node.keywords if k.arg == "mode"]
        binary = name == "open" and any(
            isinstance(m, ast.Constant) and isinstance(m.value, str) and "b" in m.value
            for m in modes)
        utf8 = any(k.arg == "encoding" and isinstance(k.value, ast.Constant)
                   and k.value.value == "utf-8" for k in node.keywords)
        if not (binary or utf8):
            lines.append(node.lineno)
    return lines


def test_every_text_file_of_the_package_is_utf8():
    assert [p.stem for p in MODULES if _locale_opens(p)] == []


def test_the_encoding_scanner_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from pathlib import Path\n"
        "open('a')\n"
        "open('a', 'w')\n"
        "open('a', 'rb')\n"
        "open('a', mode='wb')\n"
        "open('a', 'w', encoding='utf-8')\n"
        "open('a', encoding='latin-1')\n"
        "open('a', 'r', encoding=None)\n"
        "Path('a').open()\n"
        "Path('a').open('rb')\n"
        "Path('a').read_text()\n"
        "Path('a').write_text('x', encoding='utf-8')\n"
        "Path('a').read_bytes()\n"
        "def table(path, mode):\n"
        "    return open(path, mode)\n"
    )
    assert _locale_opens(probe) == [2, 3, 7, 8, 9, 11, 15]
