"""pyproject.toml covers every bundled fixture and every module the tests import."""

import sys
from fnmatch import fnmatchcase
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hexreact"


def test_every_fixture_matches_a_package_data_glob():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["hexreact"]
    fixtures = [p for p in (PACKAGE / "fixtures").rglob("*") if p.is_file()]
    assert fixtures
    missing = [
        p.relative_to(PACKAGE).as_posix()
        for p in fixtures
        if not any(fnmatchcase(p.relative_to(PACKAGE).as_posix(), g) for g in globs)
    ]
    assert missing == []


def test_every_module_the_tests_import_is_declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {
        req.split(">")[0].split("=")[0].strip()
        for req in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    imported, local = set(), {"hexreact"}
    for path in (ROOT / "tests").glob("*.py"):
        local.add(path.stem)
        for line in path.read_text().splitlines():
            words = line.split()
            if words[:1] in (["import"], ["from"]) and len(words) > 1:
                imported.add(words[1].split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party and third_party <= declared
