"""The benchmark's three workloads, written against hexreact's public API.

Each workload builds its inputs from a seed, runs one operation (``op``), checks
the output (``check``) and can replay the operation from its public parts
under a tracer (``traced``).  Importing this module imports numpy and hexreact,
so the caller times the import as part of set-up.

Workload sizes are fixed here, not by flags, so that every run of a workload
does the same work for a given seed and the golden outputs stay valid.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

import hexreact
from hexreact import (
    EAConfig,
    FitnessConfig,
    RuleMatrix,
    bundled_glider_rule,
    count_mobile,
    ea_run,
    extract_components,
    fitness,
    mutate,
    random_patch_grid,
    reference_reduced_set,
    run,
    sample_rules,
    ssa_run,
    standard_system,
    stationarity_sweep,
    track,
)
from hexreact.analysis import SweepEntry, SweepReport
from hexreact.detector import canonical_shape
from hexreact.evolve import default_fitness_fn
from spans import NullTracer
from speed import NullClock

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())

LOC_CLASSES = ("StillLife", "Oscillator", "Glider", "PufferTrain", "Unresolved")


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class Stats:
    """Work counters gathered during a traced replay."""

    def __init__(self):
        self.cell_updates = 0
        self.frames = 0
        self.components = 0
        self.nonzero_cells = 0
        self.localizations = {c: 0 for c in LOC_CLASSES}
        self.evaluations = 0
        self.lookups = 0
        self.events = 0
        self.windows: list = []  # tracked trajectories, re-scanned by probe_front_end

    def counters(self) -> dict:
        """The counts that must repeat exactly for the same seed."""
        return {
            "engine.cell_updates": self.cell_updates,
            "detector.frames": self.frames,
            "detector.components": self.components,
            "detector.nonzero_cells": self.nonzero_cells,
            "detector.localizations": sum(self.localizations.values()),
            **{f"detector.localizations.{c}": n for c, n in self.localizations.items()},
            "evolve.evaluations": self.evaluations,
            "reactor.events": self.events,
        }


def census(tr, stats: Stats | None, rule: RuleMatrix, cfg: FitnessConfig, seed: int):
    """One soup: random_patch_grid -> run -> track -> count_mobile, each in a span.

    With ``stats`` None nothing is counted or kept.
    """
    with tr.span("detector.random_patch_grid"):
        grid = random_patch_grid(cfg, np.random.default_rng(seed))
    with tr.span("engine.run"):
        traj = run(grid, rule, cfg.steps, keep_last=cfg.window)
    with tr.span("detector.track"):
        locs = track(traj, p_max=cfg.p_max)
    with tr.span("detector.count_mobile"):
        mobile = count_mobile(locs, cfg.count_puffers)
    if stats is None:
        return locs, mobile
    stats.cell_updates += cfg.steps * cfg.width * cfg.height
    stats.frames += len(traj)
    for loc in locs:
        stats.localizations[loc.loc_class] += 1
    stats.windows.append(traj)
    return locs, mobile


def probe_front_end(tr, stats: Stats) -> None:
    """Time the tracker's front end on the frames ``track`` scanned.

    ``track`` labels components and computes canonical shapes internally;
    calling the same public functions on the same frames, outside the track
    spans, splits the tracker's time into front end and linking.
    """
    with tr.span("probe"):
        for traj in stats.windows:
            h, w = traj[0].shape
            for g in traj.frames:
                with tr.span("detector.extract_components"):
                    comps = extract_components(g)
                with tr.span("detector.canonical_shape"):
                    for c in comps:
                        canonical_shape(c, h, w)
                stats.components += len(comps)
                stats.nonzero_cells += g.population()
    stats.windows = []


class EASearch:
    """The paper's search: ea_run from the bundled rule and its one-letter mutants.

    One operation is ``PATHS`` searches, each with its own fitness master seed
    from the workload seed's block of seeds; the master seed draws every soup.
    The genome path (initial mutants, tournaments, crossover, mutation)
    follows the fixed seed ``default_seed``.  One-letter mutants of the
    bundled rule differ twenty-fold in census cost, so a seed-dependent
    genome path would make soups/s a property of the seed rather than of the
    code, and selection still lets the soups steer the path: several searches
    per operation average that out.  At seed 0 the first search is exactly
    ``ea_run(cfg, 0, init=...)``.
    """

    name = "ea-search"
    default_seed = 0  # also the seed of the genome path
    PATHS = 3
    POPULATION = 8
    GENERATIONS = 2
    TRIALS = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.masters = [self.PATHS * seed + k for k in range(self.PATHS)]

    def setup(self) -> None:
        self.fit_cfg = FitnessConfig(trials=self.TRIALS)
        self.cfg = EAConfig(
            population=self.POPULATION,
            stall_generations=10**9,
            max_generations=self.GENERATIONS,
            fitness=self.fit_cfg,
        )
        rule = bundled_glider_rule().to_genome()
        rng = np.random.default_rng(self.default_seed)
        self.init = [rule] + [mutate(rule, rng) for _ in range(self.POPULATION - 1)]
        # warm-up: neighbour table for the 64x64 torus and every census call once
        fitness(
            bundled_glider_rule(),
            FitnessConfig(steps=20, window=8, trials=1),
            np.random.default_rng(0),
        )

    def work(self, out) -> int:
        return self.PATHS * self.POPULATION * self.GENERATIONS * self.TRIALS

    def op(self, clock):
        """The searches; each fresh fitness call is a unit on ``clock``, and each EA's own work another."""
        self.fresh: list[dict[str, float]] = []
        runs = []
        for k, master in enumerate(self.masters):
            inner = default_fitness_fn(self.fit_cfg, master)
            fresh: dict[str, float] = {}

            def timed(genome: str, inner=inner, fresh=fresh, k=k) -> float:
                fresh[genome] = clock.time(f"{k}:{genome}", inner, genome)
                return fresh[genome]

            t0 = time.perf_counter()
            ref0 = clock.reference_total
            runs.append(ea_run(self.cfg, self.default_seed, fitness_fn=timed, init=self.init))
            own = time.perf_counter() - t0 - (clock.reference_total - ref0)
            own -= sum(clock.units[f"{k}:{g}"][0] for g in fresh)
            clock.units[f"{k}:evolve"] = (own, own * clock.scale())
            self.fresh.append(fresh)
        return runs

    @staticmethod
    def evaluations(unit: str) -> int:
        return 0 if unit.endswith(":evolve") else 1

    @staticmethod
    def signature(out) -> list:
        return [
            {
                "history": [[g, repr(b), repr(m)] for g, b, m in run.history],
                "best_genome": run.best_genome,
                "best_fitness": repr(run.best_fitness),
                "generations": run.generations,
                "evaluations": run.evaluations,
            }
            for run in out
        ]

    def check(self, out) -> list[str]:
        errors = []
        if self.seed == self.default_seed and self.signature(out) != GOLDEN[self.name]:
            errors.append("EA histories or best genomes differ from the golden run")
        scale = self.fit_cfg.width * self.fit_cfg.height * self.fit_cfg.trials
        for run, fresh in zip(out, self.fresh):
            if run.generations != self.GENERATIONS or len(run.history) != self.GENERATIONS:
                errors.append("EA stopped before its generation cap")
            bests = [b for _, b, _ in run.history]
            if any(b1 < b0 for b0, b1 in zip(bests, bests[1:])):
                errors.append("best fitness fell although elitism keeps the best genome")
            if run.best_fitness != max(bests) or fresh.get(run.best_genome) != run.best_fitness:
                errors.append("best genome and its fitness disagree with the evaluations")
            if run.evaluations != len(fresh):
                errors.append("evaluation count differs from the fresh fitness calls")
            if any(v < 0 or (v * scale) != round(v * scale) for v in fresh.values()):
                errors.append("a fitness value is not a whole number of mobile localizations")
        return errors

    def traced(self, tr, stats: Stats):
        """The searches, with fitness replayed from its public parts."""
        cfg = self.fit_cfg
        self.fresh = []
        runs = []
        for master in self.masters:
            fresh: dict[str, float] = {}

            def replayed_fitness(genome: str, master=master, fresh=fresh) -> float:
                with tr.span("evolve.fitness"):
                    rule = RuleMatrix.from_genome(genome)
                    rng = np.random.default_rng([master, rule.genome_int()])
                    total = 0
                    for seed in rng.integers(0, 2**63, size=cfg.trials):
                        total += census(tr, stats, rule, cfg, int(seed))[1]
                    fresh[genome] = total / (cfg.width * cfg.height * cfg.trials)
                stats.evaluations += 1
                return fresh[genome]

            with tr.span("evolve.ea_run"):
                runs.append(ea_run(self.cfg, self.default_seed, fitness_fn=replayed_fitness, init=self.init))
            stats.lookups += self.POPULATION * runs[-1].generations
            self.fresh.append(fresh)
        return runs


class ClassSweep:
    """stationarity_sweep of the bundled reduced rule class, as its parts.

    The acceptance-test protocol: the 20 rules ``sample_rules`` draws at seed 7,
    five 30x30 soups per rule, 300 steps, trailing window 60.  The 20 rules
    are fixed and the workload seed draws the soups.  Class members differ
    several-fold in census cost (one protocol rule leaves over 7000 tracks,
    most leave none), so a seed-dependent rule sample would make soups/s a
    property of the seed.  At seed 7 the soups come from the generator that
    drew the rules, exactly as in ``stationarity_sweep``, and the report must
    equal the golden ``stationarity_sweep`` report.
    """

    name = "class-sweep"
    default_seed = 7  # the protocol seed
    N_RULES = 20

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.rset = reference_reduced_set()
        self.cfg = FitnessConfig(
            width=30, height=30, patch_width=30, patch_height=30,
            steps=300, window=60, p_max=12, trials=5,
        )
        # warm-up: neighbour table for the 30x30 torus and one short sweep
        stationarity_sweep(
            self.rset,
            FitnessConfig(width=30, height=30, patch_width=30, patch_height=30,
                          steps=20, window=8, trials=1),
            np.random.default_rng(0),
            n_rules=1,
        )

    def work(self, out) -> int:
        return self.N_RULES * self.cfg.trials

    def op(self, clock):
        """The sweep; sampling the rules is a unit on ``clock``, and so is each rule's census."""
        return self.sweep(NullTracer(), None, clock)

    @staticmethod
    def evaluations(unit: str) -> int:
        return 0 if unit == "sample_rules" else 1

    def sweep(self, tr, stats, clock):
        """The body of stationarity_sweep from its public parts, one span per call."""
        with tr.span("analysis.stationarity_sweep"):
            rng = np.random.default_rng(self.default_seed)
            with tr.span("analysis.sample_rules"):
                rules = clock.time("sample_rules", sample_rules, self.rset, self.N_RULES, rng)
            soups = rng if self.seed == self.default_seed else np.random.default_rng(self.seed)
            self.mobile = 0
            entries = [
                SweepEntry(rule, clock.time(rule.to_genome(), self._rule_census, tr, stats, rule, soups))
                for rule in rules
            ]
            return SweepReport(entries)

    def _rule_census(self, tr, stats, rule, soups) -> dict:
        hist: dict[str, int] = {}
        for seed in soups.integers(0, 2**63, size=self.cfg.trials):
            locs, mobile = census(tr, stats, rule, self.cfg, int(seed))
            self.mobile += mobile
            for loc in locs:
                hist[loc.loc_class] = hist.get(loc.loc_class, 0) + 1
        return hist

    @staticmethod
    def signature(out) -> dict:
        return {"csv": out.to_csv(), "histogram": out.total_histogram()}

    def check(self, out) -> list[str]:
        errors = []
        if self.seed == self.default_seed and self.signature(out) != GOLDEN[self.name]:
            errors.append("sweep CSV or histogram differs from the golden stationarity_sweep")
        genomes = [e.rule.to_genome() for e in out.entries]
        if len(genomes) != self.N_RULES or len(set(genomes)) != self.N_RULES:
            errors.append("sweep did not census the requested number of distinct rules")
        allowed = self.rset.allowed
        if any(e.rule.lookup(*pair) not in allowed[pair] for e in out.entries for pair in allowed):
            errors.append("a swept rule lies outside the reduced class")
        if any(c not in LOC_CLASSES or n < 1 for e in out.entries for c, n in e.histogram.items()):
            errors.append("a rule histogram holds an unknown class or an empty count")
        if self.mobile != out.mobile_count():
            errors.append("count_mobile disagrees with the sweep's mobile count")
        return errors

    def traced(self, tr, stats: Stats):
        return self.sweep(tr, stats, NullClock())


class Reactor:
    """ssa_run of the standard scheme at the ``hexreact react`` defaults."""

    name = "reactor"
    default_seed = 0
    INIT = {"A": 33333, "B": 33333, "S": 33333}
    T_MAX = 40.0
    SAMPLE_DT = 0.25

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.system = standard_system()
        # warm-up: one short run through the same code path
        ssa_run(self.system, self.INIT, 1e-3, np.random.default_rng(0), sample_dt=self.SAMPLE_DT)

    def work(self, out) -> int:
        return out.events

    def op(self, clock):
        """The SSA run, as one unit on ``clock``."""
        return clock.time("ssa_run", ssa_run, self.system, self.INIT, self.T_MAX,
                          np.random.default_rng(self.seed), self.SAMPLE_DT)

    @staticmethod
    def evaluations(unit: str) -> int:
        return 1

    @staticmethod
    def signature(out) -> dict:
        return {
            "events": out.events,
            "reason": out.reason,
            "t_end": repr(out.t_end),
            "counts_sha256": digest(out.counts.astype("<i8")),
            "times_sha256": digest(out.times.astype("<f8")),
        }

    def check(self, out) -> list[str]:
        errors = []
        if self.seed == self.default_seed and self.signature(out) != GOLDEN[self.name]:
            errors.append("SSA events, reason or counts differ from the golden run")
        if out.reason != "t_max" or out.events < 1:
            errors.append(f"SSA run ended with reason {out.reason!r} after {out.events} events")
        lattice = np.arange(int(self.T_MAX / self.SAMPLE_DT) + 1) * self.SAMPLE_DT
        if not np.array_equal(out.times, lattice):
            errors.append("SSA samples are off the requested lattice")
        if not np.all(out.totals() == sum(self.INIT.values())) or out.counts.min() < 0:
            errors.append("SSA particle total is not conserved")
        return errors

    def traced(self, tr, stats: Stats):
        with tr.span("reactor.ssa_run"):
            res = self.op(NullClock())
        stats.events += res.events
        return res


WORKLOADS = {w.name: w for w in (EASearch, ClassSweep, Reactor)}


def layer_metrics(tr, stats: Stats, trace_overhead: float) -> dict:
    """Every per-layer metric; a layer the workload does not call reads 0."""
    def ratio(a, b):
        return a / b if b else 0.0

    run_s = tr.total("engine.run")
    track_s = tr.total("detector.track")
    extract_s = tr.total("detector.extract_components")
    shape_s = tr.total("detector.canonical_shape")
    ssa_s = tr.total("reactor.ssa_run")
    locs = sum(stats.localizations.values())
    metrics = {name: (n, "count") for name, n in stats.counters().items()}
    metrics.update({
        "engine.run_s": (run_s, "s"),
        "engine.cell_updates_per_s": (ratio(stats.cell_updates, run_s), "1/s"),
        "detector.track_s": (track_s, "s"),
        "detector.frames_per_s": (ratio(stats.frames, track_s), "1/s"),
        "detector.extract_components_s": (extract_s, "s"),
        "detector.canonical_shape_s": (shape_s, "s"),
        "detector.link_classify_s": (track_s - extract_s - shape_s, "s"),
        "detector.resolved_frac": (ratio(locs - stats.localizations["Unresolved"], locs), "fraction"),
        "evolve.memo_hit_frac": (ratio(stats.lookups - stats.evaluations, stats.lookups), "fraction"),
        "evolve.self_s": (tr.self_time("evolve.ea_run"), "s"),
        "analysis.sample_rules_s": (tr.total("analysis.sample_rules"), "s"),
        "analysis.self_s": (tr.self_time("analysis.stationarity_sweep"), "s"),
        "reactor.ssa_run_s": (ssa_s, "s"),
        "reactor.us_per_event": (1e6 * ratio(ssa_s, stats.events), "us"),
        "trace_overhead_frac": (trace_overhead, "fraction"),
    })
    return metrics


def host_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hexreact": hexreact.__version__,
    }
