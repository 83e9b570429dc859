"""Smoke test for the benchmark itself: python3 perfbench/smoke.py

Checks BENCHMARK.json against the benchmark contract, runs every workload once
untraced and once traced at its golden seed and checks the result line, then
checks that the benchmark refuses to run without the hexreact source.
Takes a few minutes; exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg: str) -> None:
    sys.exit(f"smoke: FAIL {msg}")


def check_spec(bench: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(bench) != keys:
        fail(f"BENCHMARK.json keys {sorted(bench)}")
    if not 1 <= len(bench["paths"]) <= 16 or not all(
        re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and not p.startswith("/") and ".." not in p
        for p in bench["paths"]
    ):
        fail("paths")
    if not isinstance(bench["run_seconds"], int) or not 1 <= bench["run_seconds"] <= 60:
        fail("run_seconds")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("number of workloads")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w}")
    setup = None
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end metric {m}")
        if m["name"] == "setup_s":
            setup = m
    if not setup or setup["unit"] != "s" or setup["better"] != "lower":
        fail("setup_s metric")
    if setup["bound"] < max(m["bound"] for m in bench["end_to_end"]):
        fail("setup_s must have the largest bound")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer metric {m}")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"metric {m}")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [w["name"] for w in bench["workloads"]]
    if len(names) != len(set(names)):
        fail("a name is used twice")


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(proc, declared: list[dict], label: str) -> dict:
    if proc.returncode != 0:
        fail(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"{label}: {res['correct']=} {res['failed']=} {res['attempted']=}\n{proc.stderr}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"{label}: metrics {sorted(got)} differ from BENCHMARK.json")
    return res


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(bench)
    print("smoke: BENCHMARK.json ok")

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    for w in bench["workloads"]:
        seed = workloads.WORKLOADS[w["name"]].default_seed
        res = check_result(run(ROOT, w["name"], seed, 0), bench["end_to_end"], f"{w['name']} untraced")
        if any(v["value"] <= 0 for v in res["metrics"].values()):
            fail(f"{w['name']}: an end-to-end metric is not positive")
        check_result(run(ROOT, w["name"], seed, 1), bench["per_layer"], f"{w['name']} traced")
        print(f"smoke: {w['name']} ok")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, bench["workloads"][0]["name"], 0, 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the hexreact source")
    print("smoke: refuses to run without src ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
