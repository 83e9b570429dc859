"""hexreact benchmark: EA search, class sweep and reactor workloads.

    python3 perfbench/run.py --workload ea-search --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py                  # every workload, one process each

Run from the root of a checkout; the benchmark imports hexreact from the
checkout's ``src`` and nothing else.  With ``--trace 0`` it repeats the
workload's operation for ``--seconds`` and prints the end-to-end metrics; with
``--trace 1`` it runs the operation once untraced and once replayed under a
tracer, and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Times in the metrics are scaled to a reference host speed (see
speed.py); the raw figures are printed on the ``info:`` line.  Spans, work
counters and the full result with host facts are written under
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4  # fresh interpreters timed for set-up, besides this process


def _use_checkout_source() -> None:
    """Import hexreact from this checkout's ``src`` or fail."""
    if not (SRC / "hexreact" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hexreact source under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _setup(name: str, seed: int):
    """Import, load fixtures and warm up; returns (workload, raw s, scaled s)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    raw = time.perf_counter() - t0
    if not Path(workloads.hexreact.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported hexreact from {workloads.hexreact.__file__}, not {SRC}")
    import speed

    return wl, raw, raw * speed.REFERENCE_S / speed.reference_s()


def _probe_setup(name: str) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


def _write_json(path: Path, obj) -> None:
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def eval_ms_p50(wl, units: dict) -> float:
    """Median time of one evaluation: a fitness call, a rule's census or an SSA run."""
    return 1000.0 * statistics.median(t for u, t in units.items() if wl.evaluations(u))


def measure(wl, seconds: float):
    """Repeat the operation for ``seconds``; returns (metrics, info, attempted, failed, errors).

    Every repeat does the same work, split into units (a fitness call, a
    rule's census, an SSA run), and each unit counts at its median over the
    repeats, in seconds at the reference host speed.
    """
    from speed import UnitClock

    errors: list[str] = []
    failed = 0
    walls: list[float] = []
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    first = None
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        clock = UnitClock()
        t0 = time.perf_counter()
        out = wl.op(clock)
        walls.append(time.perf_counter() - t0)
        errs = wl.check(out)
        sig = wl.signature(out)
        if first is None:
            first = sig
        elif sig != first:
            errs.append("repeating the operation changed its output")
        if raw and set(clock.units) != set(raw):
            errs.append("repeating the operation changed its units of work")
        for u, (r, sc) in clock.units.items():
            raw.setdefault(u, []).append(r)
            scaled.setdefault(u, []).append(sc)
        if errs:
            failed += 1
            errors += [f"repeat {len(walls)}: {e}" for e in errs]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    typical = {u: statistics.median(ts) for u, ts in scaled.items()}
    typical_raw = {u: statistics.median(ts) for u, ts in raw.items()}
    metrics = {
        "work_per_s": (wl.work(out) / sum(typical.values()), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "repeats": len(walls),
        "repeat_wall_s": [round(w, 3) for w in walls],
        "raw_work_per_s": wl.work(out) / sum(typical_raw.values()),
        "eval_ms_p50": eval_ms_p50(wl, typical),
        "raw_eval_ms_p50": eval_ms_p50(wl, typical_raw),
        "failed_ops_frac": failed / len(walls),
    }
    return metrics, info, len(walls), failed, errors


def trace(wl):
    """One untraced run and one traced replay; returns (metrics, info, attempted, failed, errors, tracer)."""
    import workloads
    from spans import Tracer
    from speed import REFERENCE_S, UnitClock, reference_s

    clock = UnitClock()
    out = wl.op(clock)
    untraced_s = sum(r for r, _ in clock.units.values())
    errors = wl.check(out)
    failed = int(bool(errors))

    tr = Tracer()
    stats = workloads.Stats()
    ref = reference_s()
    t0 = time.perf_counter()
    replay = wl.traced(tr, stats)
    traced_s = time.perf_counter() - t0
    ref = (ref + reference_s()) / 2
    errs = wl.check(replay)
    if wl.signature(replay) != wl.signature(out):
        errs.append("traced replay output differs from the untraced output")
    workloads.probe_front_end(tr, stats)
    errs += check_counters(wl.name, wl.seed, stats.counters())
    failed += int(bool(errs))
    overhead = traced_s * REFERENCE_S / ref / sum(sc for _, sc in clock.units.values()) - 1.0
    metrics = workloads.layer_metrics(tr, stats, overhead)
    raw = {u: r for u, (r, _) in clock.units.items()}
    metrics["evolve.eval_ms_p50"] = (eval_ms_p50(wl, raw) if wl.name == "ea-search" else 0.0, "ms")
    info = {"untraced_s": untraced_s, "traced_s": traced_s}
    return metrics, info, 2, failed, errors + errs, tr


def check_counters(name: str, seed: int, counters: dict) -> list[str]:
    """Work counters must repeat exactly across runs of the same seed."""
    path = OUT / f"counters-{name}-seed{seed}.json"
    if path.exists():
        before = json.loads(path.read_text())
        diff = sorted(k for k in counters if before.get(k) != counters[k])
        if diff:
            return [f"work counters differ from an earlier run of this seed: {diff}"]
        return []
    _write_json(path, counters)
    return []


def run_one(args) -> int:
    _use_checkout_source()
    wl, setup_raw, setup_scaled = _setup(args.workload, args.seed)
    if args.setup_probe:
        print(f"{setup_raw!r} {setup_scaled!r}")
        return 0
    import workloads

    host = workloads.host_facts()
    print("host: " + json.dumps(host, sort_keys=True))
    if args.trace:
        metrics, info, attempted, failed, errors, tr = trace(wl)
        OUT.mkdir(exist_ok=True)
        tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        setups = [(setup_raw, setup_scaled)] + [_probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        metrics, info, attempted, failed, errors = measure(wl, args.seconds)
        metrics["setup_s"] = (statistics.median(sc for _, sc in setups), "s")
        info["raw_setup_s"] = statistics.median(r for r, _ in setups)
    print("info: " + json.dumps(info))
    for e in errors:
        print(f"FAILED {args.workload}: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    _write_json(
        OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "info": info, "host": host, "errors": errors},
    )
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload at its default seed, in a process of its own."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    metrics_key = "per_layer" if args.trace else "end_to_end"
    _use_checkout_source()
    import workloads

    status = 0
    for w in bench["workloads"]:
        seed = workloads.WORKLOADS[w["name"]].default_seed if args.seed is None else args.seed
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{w['name']}: exit code {proc.returncode}")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        print(f"{w['name']} (seed {seed}): correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']} failed_ops_frac={res['failed'] / res['attempted']:g}")
        for m in bench[metrics_key]:
            v = res["metrics"][m["name"]]
            print(f"  {m['name']:<34} {v['value']:>16.6g} {v['unit']}")
        print("  " + next(ln for ln in lines if ln.startswith("info: ")))
        status |= 0 if res["correct"] else 1
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="run one workload (default: all, one process each)")
    p.add_argument("--seed", type=int, help="workload seed (default: the workload's golden seed)")
    p.add_argument("--seconds", type=float, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if args.setup_probe:
        args.seed = args.seed or 0
    elif args.seed is None or args.seconds is None:
        p.error("--workload needs --seed and --seconds")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
