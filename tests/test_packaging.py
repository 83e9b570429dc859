"""pyproject.toml covers every bundled fixture and every module the tests import,
no hexreact module imports anything but the standard library, numpy and
hexreact, and none reaches for another one's private names."""

import ast
import importlib
import sys
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hexreact"


def _pyproject() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_every_fixture_matches_a_package_data_glob():
    globs = _pyproject()["tool"]["setuptools"]["package-data"]["hexreact"]
    fixtures = [p for p in (PACKAGE / "fixtures").rglob("*") if p.is_file()]
    assert fixtures
    missing = [
        p.relative_to(PACKAGE).as_posix()
        for p in fixtures
        if not any(fnmatchcase(p.relative_to(PACKAGE).as_posix(), g) for g in globs)
    ]
    assert missing == []


def test_every_console_script_target_imports_and_is_callable():
    scripts = _pyproject()["project"]["scripts"]
    assert "hexreact" in scripts  # the name CI runs
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def test_every_module_the_tests_import_is_declared():
    project = _pyproject()["project"]
    declared = {
        req.split(">")[0].split("=")[0].strip()
        for req in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    imported, local = set(), {"hexreact"}
    for path in (ROOT / "tests").glob("*.py"):
        local.add(path.stem)
        imported.update(name.split(".")[0] for name in imports(path.read_text()))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party and third_party <= declared


def imports(source: str) -> list[str]:
    """Modules a source imports, anywhere in it, by full name; relative imports are skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
    return found


def test_the_import_reader_skips_docstrings_and_strings():
    source = (
        '"""Shapes, one per component,\n'
        "from each component's sorted cells.\n"
        '"""\n'
        "import numpy as np\n"
        "SOURCE = 'import scipy'\n"
        "from hypothesis import given\n"
    )
    assert imports(source) == ["numpy", "hypothesis"]


def foreign_imports(source: str) -> list[str]:
    """Modules a source imports, anywhere in it, that are not stdlib, numpy or hexreact."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "hexreact"}
    # a relative import (from . import detector) is hexreact
    return [name for name in imports(source) if name.split(".")[0] not in allowed]


def test_every_module_imports_only_the_stdlib_numpy_and_hexreact():
    # pyproject.toml declares numpy alone, so any other import breaks a clean install
    assert [req.split(">")[0] for req in _pyproject()["project"]["dependencies"]] == ["numpy"]
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := foreign_imports(path.read_text()))
    }
    assert found == {}


def test_the_import_check_sees_every_import_form():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np, scipy.ndimage\n"
        "from . import detector\n"
        "from hexreact.engine import run\n"
        "from collections import Counter\n"
        "def f():\n"
        "    from numba import njit\n"
    )
    assert foreign_imports(source) == ["scipy.ndimage", "numba"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_cross_module_uses(source: str) -> list[str]:
    """``_``-prefixed names a module imports from, or reads off, another hexreact module."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hexreact")):
            package = node.module in (None, "hexreact")  # from . import analysis
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                elif package:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("hexreact"):
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):  # hexreact.analysis._x
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return found


def test_no_module_uses_another_modules_private_names():
    found = {
        path.name: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if (uses := private_cross_module_uses(path.read_text()))
    }
    assert found == {}


def test_the_private_name_check_sees_imports_and_attribute_reads():
    source = (
        "from . import analysis, __version__\n"
        "from .detector import _ends, track\n"
        "import hexreact.engine as eng\n"
        "analysis._x()\n"
        "eng._pack\n"
        "analysis.find_glider\n"
        "self._cache\n"
    )
    assert sorted(private_cross_module_uses(source)) == [
        "analysis._x (line 4)", "eng._pack (line 5)", "from .detector import _ends",
    ]
