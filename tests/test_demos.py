"""The demos run to the end with warnings as errors, and the README's Quick
tour prints what it says it prints.

Demo 03 is an EA search that takes over 15 s at its defaults, so it runs one
generation of four genomes.
"""

import os
import re
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


def test_readme_quick_tour_prints_what_it_claims(capsys):
    readme = (DEMOS.parent / "README.md").read_text()
    tour = readme.split("## Quick tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", tour, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # one namespace: the second block reads the first's rule
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out == "Glider 2 (2, -2)\n"
    assert namespace["score"] > 0
