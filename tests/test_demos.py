"""The demos run to the end with warnings as errors.

Demo 03 is an EA search that takes over 15 s at its defaults, so it runs one
generation of four genomes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = DEMOS.parent / "src"
ARGS = {"03_evolve_rules.py": ["--generations", "1", "--population", "4", "--out", "best.txt"]}


@pytest.mark.parametrize(
    "name",
    [
        "01_first_steps.py",
        "02_glider_safari.py",
        "03_evolve_rules.py",
        "04_likelihoods_to_reduction.py",
        "05_stirred_reactor.py",
    ],
)
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / name), *ARGS.get(name, [])],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

