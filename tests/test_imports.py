"""Modules of lane3d import in one direction only, and the demos import
only names that exist.

Each module sits in a tier and may import only from lower tiers:
autodiff, geometry -> losses, heads, temporal -> synth, metrics ->
training, checks -> config -> cli.  Modules within a tier are
independent of each other.
"""

import ast
import importlib
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
