"""Command-line workbench wiring the library modules together.

Every subcommand is deterministic given its full flag set (seed included)
and drops a ``<out>.meta.json`` next to its primary output recording the
resolved configuration and tool version, so any artifact can be reproduced
from its metadata alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from collections import Counter
from dataclasses import asdict, fields

import numpy as np

from . import __version__, analysis, reactor
from .detector import REPORT_HEADER, FitnessConfig, report_rows, track
from .engine import frames_to_text, grid_to_pgm, run
from .evolve import EAConfig, ea_run
from .hexgrid import Grid
from .rules import load_rule, load_rules, save_rules


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_meta(out_path: str, args: argparse.Namespace, **extra) -> None:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k != "func" and not callable(v)
    }
    meta = {
        "tool": "hexreact",
        "version": __version__,
        "command": args.command,
        "config": config,
    }
    meta.update(extra)
    _write(out_path + ".meta.json", json.dumps(meta, indent=2, default=str) + "\n")


# FitnessConfig's fields are the soup-run flags, all but count_puffers
_FITNESS_FLAGS = tuple(f.name for f in fields(FitnessConfig) if f.name != "count_puffers")
_FITNESS_HELP = {
    "p_a": "per-cell probability of seeding state A",
    "p_b": "per-cell probability of seeding state B",
    "window": "trailing frames kept for detection",
    "p_max": "largest period the tracker will certify",
    "trials": "random soups per rule (likelihood stops at a rule's first verified glider)",
}


def _add_fitness_args(p: argparse.ArgumentParser, names=_FITNESS_FLAGS) -> None:
    """Flags for the ``names`` fields of FitnessConfig, typed and defaulted by it."""
    g = p.add_argument_group("soup runs")
    for f in fields(FitnessConfig):
        if f.name in names:
            g.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                           default=f.default, help=_FITNESS_HELP.get(f.name))


def _fitness_config(args: argparse.Namespace) -> FitnessConfig:
    return FitnessConfig(**{name: getattr(args, name) for name in _FITNESS_FLAGS})


def _load(table, source: str):
    """A ``table`` read from the CSV at ``source``, or the bundled one for 'reference'."""
    if source == "reference":
        return {analysis.LikelihoodMatrices: analysis.reference_likelihoods,
                analysis.ReducedRuleSet: analysis.reference_reduced_set}[table]()
    with open(source, "r", encoding="utf-8") as fh:
        return table.from_csv(fh.read())


def _read_grid(path: str) -> Grid:
    with open(path, encoding="utf-8") as fh:
        return Grid.from_text(fh.read())


# -- subcommands ------------------------------------------------------------


def cmd_simulate(args) -> int:
    rule = load_rule(args.rule)
    grid = _read_grid(args.grid)
    traj = run(grid, rule, args.steps, keep_last=args.keep_last)
    _write(args.dump, frames_to_text(traj.frames))
    if args.pgm_dir:
        os.makedirs(args.pgm_dir, exist_ok=True)
        for k, frame in enumerate(traj.frames):
            path = os.path.join(args.pgm_dir, f"frame_{traj.t0 + k:05d}.pgm")
            with open(path, "wb") as fh:
                fh.write(grid_to_pgm(frame))
    _write_meta(args.dump, args)
    print(f"wrote {len(traj.frames)} frames to {args.dump}")
    return 0


def cmd_detect(args) -> int:
    rule = load_rule(args.rule)
    grid = _read_grid(args.grid)
    # the soup-run checks, the tracker's among them, made before the run
    FitnessConfig(width=grid.width, height=grid.height, patch_width=0, patch_height=0,
                  steps=args.steps, window=args.window, p_max=args.p_max)
    traj = run(grid, rule, args.steps, keep_last=args.window)
    locs = track(traj, p_max=args.p_max)
    lines = [REPORT_HEADER] + report_rows(locs)
    _write(args.out, "\n".join(lines) + "\n")
    _write_meta(args.out, args)
    census = Counter(loc.loc_class for loc in locs)
    print(f"{len(locs)} localizations: " + (
        ", ".join(f"{k}={v}" for k, v in sorted(census.items())) or "none"))
    return 0


def cmd_evolve(args) -> int:
    cfg = EAConfig(
        population=args.population,
        tournament=args.tournament,
        crossover_prob=args.crossover_prob,
        elitism=args.elitism,
        stall_generations=args.stall,
        max_generations=args.max_generations,
        fitness=_fitness_config(args),
    )
    result = ea_run(cfg, seed=args.seed)
    save_rules(
        args.out,
        [result.best_rule],
        header=(
            f"best of ea_run(seed={args.seed}): fitness {result.best_fitness!r} "
            f"after {result.generations} generations ({result.evaluations} evaluations)"
        ),
    )
    if args.history_out:
        rows = ["generation,best,mean"] + [
            f"{g},{b!r},{m!r}" for g, b, m in result.history
        ]
        _write(args.history_out, "\n".join(rows) + "\n")
    if args.append_corpus:
        with open(args.append_corpus, "a", encoding="utf-8") as fh:
            fh.write(result.best_genome + "\n")
    _write_meta(args.out, args, best_fitness=result.best_fitness,
                generations=result.generations)
    print(
        f"best fitness {result.best_fitness:.6f} after {result.generations} "
        f"generations; rule written to {args.out}"
    )
    return 0


def cmd_likelihood(args) -> int:
    rules = load_rules(args.corpus)
    if not rules:
        raise ValueError(f"{args.corpus}: no rules found")
    cfg = _fitness_config(args)
    rng = np.random.default_rng(args.seed)
    matrices, used, skipped = analysis.corpus_likelihoods(rules, cfg, rng)
    _write(args.out, matrices.to_csv())
    if args.heatmap_dir:
        os.makedirs(args.heatmap_dir, exist_ok=True)
        for which, stem in (("S", "fs"), ("A", "fa"), ("B", "fb"), ("#", "fhash")):
            with open(os.path.join(args.heatmap_dir, stem + ".pgm"), "wb") as fh:
                fh.write(analysis.heatmap_pgm(matrices, which))
    _write_meta(args.out, args, corpus_size=len(rules),
                used=len(used), skipped=[r.to_genome() for r in skipped])
    print(f"likelihoods over {len(used)}/{len(rules)} rules written to {args.out}")
    return 0


def cmd_reduce(args) -> int:
    matrices = _load(analysis.LikelihoodMatrices, args.likelihoods)
    reduced = analysis.reduce_likelihoods(matrices, theta=args.theta, eps=args.eps)
    _write(args.out, reduced.to_csv())
    extra = {"class_size": reduced.count()}
    if args.diff_against:
        other = _load(analysis.ReducedRuleSet, args.diff_against)
        diff = analysis.diff_reduced_sets(reduced, other)
        diff_path = args.diff_out or args.out + ".diff.csv"
        rows = ["i,j,ours,other"] + [f"{i},{j},{a},{b}" for i, j, a, b in diff]
        _write(diff_path, "\n".join(rows) + "\n")
        extra["diff_entries"] = len(diff)
        print(f"reduced set ({reduced.count()} rules) written to {args.out}; "
              f"{len(diff)} entries differ from {args.diff_against}")
    else:
        print(f"reduced set ({reduced.count()} rules) written to {args.out}")
    _write_meta(args.out, args, **extra)
    return 0


def cmd_react(args) -> int:
    if args.ensemble < 1:
        raise ValueError("--ensemble must be at least 1")
    if args.system:
        with open(args.system, encoding="utf-8") as fh:
            system = reactor.parse_system(fh.read())
    else:
        system = reactor.standard_system()
    init = {"A": args.init_a, "B": args.init_b, "S": args.init_s}
    outputs, fired = [], []
    for k in range(args.ensemble):
        res = reactor.ssa_run(
            system,
            init,
            args.tmax,
            np.random.default_rng(args.seed + k),
            sample_dt=args.sample_dt,
            max_events=args.max_events,
            omega=args.omega,
        )
        if args.ensemble == 1:
            path = args.out
        else:
            stem, ext = os.path.splitext(args.out)
            path = f"{stem}.{k}{ext or '.csv'}"
        _write(path, res.to_csv())
        outputs.append(path)
        fired.append(list(res.fired))
        print(
            f"run {k}: {res.events} events, reason={res.reason}, "
            f"final={res.final_counts()} -> {path}"
        )
    _write_meta(args.out, args, outputs=outputs, omega_used=res.omega,
                reactions=[reactor.format_reaction(rx) for rx in system.reactions],
                fired=fired)
    return 0


def cmd_sweep(args) -> int:
    reduced = _load(analysis.ReducedRuleSet, args.reduced)
    cfg = _fitness_config(args)
    rng = np.random.default_rng(args.seed)
    report = analysis.stationarity_sweep(reduced, cfg, rng, n_rules=args.rules)
    _write(args.out, report.to_csv())
    _write_meta(args.out, args, histogram=report.total_histogram(),
                mobile=report.mobile_count())
    total = report.total_histogram()
    print(
        f"swept {args.rules} rules x {cfg.trials} soups: "
        + (", ".join(f"{k}={v}" for k, v in sorted(total.items())) or "nothing tracked")
    )
    return 0


def cmd_census(args) -> int:
    reduced = _load(analysis.ReducedRuleSet, args.reduced)
    cfg = _fitness_config(args)
    rows = analysis.class_census(reduced, cfg)
    defaults = asdict(FitnessConfig(**analysis.CLASS_SWEEP_PROTOCOL))
    flags = [f"--reduced {shlex.quote(args.reduced)}"] + [
        f"--{name.replace('_', '-')} {shlex.quote(str(getattr(args, name)))}"
        for name in _FITNESS_FLAGS
        if getattr(args, name) != defaults[name]
    ] + [f"--out {shlex.quote(args.out)}"]
    command = "PYTHONPATH=src python -m hexreact.cli census " + " ".join(flags)
    _write(args.out, analysis.census_to_csv(rows, cfg, command))
    _write_meta(args.out, args, mobile_rules=len(rows))
    verified = sum(row.shape is not None for row in rows)
    print(
        f"censused {reduced.count()} rules x {cfg.trials} soups: {len(rows)} mobile,"
        f" {verified} with a replant-verified glider -> {args.out}"
    )
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hexreact",
        description="Hexagonal three-state automata: simulate, detect, evolve, "
        "distil rule statistics, and run the derived reaction scheme.",
    )
    parser.add_argument("--version", action="version", version=f"hexreact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a rule on a grid and dump frames")
    p.add_argument("--rule", required=True, help="rule file (one 36-letter genome)")
    p.add_argument("--grid", required=True, help="grid text file")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--keep-last", type=int, default=None,
                   help="keep only this many trailing frames")
    p.add_argument("--dump", required=True, help="output frame-dump path")
    p.add_argument("--pgm-dir", default=None, help="also write one PGM per frame")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="track and classify localizations")
    p.add_argument("--rule", required=True)
    p.add_argument("--grid", required=True)
    _add_fitness_args(p, ("steps", "window", "p_max"))
    p.add_argument("--out", default="detect.csv")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evolve", help="evolve rules for mobile localizations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--population", type=int, default=40)
    p.add_argument("--tournament", type=int, default=2)
    p.add_argument("--crossover-prob", type=float, default=0.6)
    p.add_argument("--elitism", type=int, default=1)
    p.add_argument("--stall", type=int, default=10,
                   help="stop after this many generations without improvement")
    p.add_argument("--max-generations", type=int, default=None)
    p.add_argument("--out", default="best_rule.txt")
    p.add_argument("--history-out", default=None)
    p.add_argument("--append-corpus", default=None,
                   help="also append the best genome to this rule file")
    _add_fitness_args(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("likelihood", help="necessary-transition statistics of a corpus")
    p.add_argument("--corpus", required=True, help="rule file, one genome per line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="likelihoods.csv")
    p.add_argument("--heatmap-dir", default=None)
    _add_fitness_args(p)
    p.set_defaults(func=cmd_likelihood, trials=20)

    p = sub.add_parser("reduce", help="distil likelihoods to a set-valued rule table")
    p.add_argument("--likelihoods", default="reference",
                   help="CSV path, or 'reference' for the bundled tables")
    p.add_argument("--theta", type=float, default=0.2)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--out", default="reduced.csv")
    p.add_argument("--diff-against", default=None,
                   help="CSV path or 'reference': also write an entry diff")
    p.add_argument("--diff-out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("react", help="stochastic run of the reaction scheme")
    p.add_argument("--tmax", type=float, default=40.0)
    p.add_argument("--sample-dt", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-a", type=int, default=33333)
    p.add_argument("--init-b", type=int, default=33333)
    p.add_argument("--init-s", type=int, default=33333)
    p.add_argument("--omega", type=float, default=None,
                   help="volume scale (default: initial particle total)")
    p.add_argument("--max-events", type=int, default=None)
    p.add_argument("--ensemble", type=int, default=1,
                   help="number of seeded runs (seed, seed+1, ...)")
    p.add_argument("--system", default=None,
                   help="reaction file overriding the standard scheme")
    p.add_argument("--out", default="react.csv")
    p.set_defaults(func=cmd_react)

    p = sub.add_parser("sweep", help="census soups under rules from a reduced set")
    p.add_argument("--reduced", default="reference",
                   help="CSV path, or 'reference' for the bundled table")
    p.add_argument("--rules", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="sweep.csv")
    _add_fitness_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "census", help="census every rule of a reduced set; list the mobile ones"
    )
    p.add_argument("--reduced", default="reference",
                   help="CSV path, or 'reference' for the bundled table")
    p.add_argument("--out", default="census.csv")
    _add_fitness_args(p)
    p.set_defaults(func=cmd_census, **analysis.CLASS_SWEEP_PROTOCOL)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"hexreact: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
