"""The package data globs in pyproject.toml cover every bundled fixture."""

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
