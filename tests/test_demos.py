"""The demos run to the end with warnings as errors.

Demo 03 is a long EA search (over 15 s), so it is only compiled.
"""

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = DEMOS.parent / "src"


@pytest.mark.parametrize(
    "name",
    [
        "01_first_steps.py",
        "02_glider_safari.py",
        "04_likelihoods_to_reduction.py",
        "05_stirred_reactor.py",
    ],
)
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / name)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_long_demo_compiles(tmp_path):
    py_compile.compile(
        str(DEMOS / "03_evolve_rules.py"), cfile=str(tmp_path / "demo.pyc"), doraise=True
    )
