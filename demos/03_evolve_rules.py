"""
Evolving rules toward mobility
==============================

A small evolutionary run: tournament selection over 36-letter genomes,
single-point crossover, one-letter mutation, elitism, and a fitness that
counts mobile localizations in random soups.  The budget here is kept light
(small torus, short runs) so the demo finishes in about a minute; real
searches simply raise the FitnessConfig numbers.
"""

import argparse

import numpy as np

from hexreact import EAConfig, FitnessConfig, ea_run, guided_rule, reference_likelihoods
from hexreact.rules import save_rules


def main():
    ap = argparse.ArgumentParser(description="small evolutionary search demo")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--generations", type=int, default=12, help="generation cap")
    ap.add_argument("--population", type=int, default=20)
    ap.add_argument("--blind", action="store_true",
                    help="start from uniform random genomes instead of "
                         "likelihood-guided ones (expect zeros)")
    ap.add_argument("--out", default=None, help="save the best genome here")
    args = ap.parse_args()

    cfg = EAConfig(
        population=args.population,
        max_generations=args.generations,
        fitness=FitnessConfig(
            width=32, height=32, patch_width=12, patch_height=12,
            steps=120, window=30, trials=2,
        ),
    )
    print(f"population {cfg.population}, cap {cfg.max_generations} generations,"
          f" {cfg.fitness.trials} soups per genome on a"
          f" {cfg.fitness.width}x{cfg.fitness.height} torus")

    # Uniform random 36-letter genomes almost never support mobile
    # localizations, so a blind run tends to flatline at zero.  Drawing the
    # initial population from the bundled likelihood tables stacks the deck:
    # entries that matter to known gliders get glider-friendly letters.
    init = None
    if not args.blind:
        tables = reference_likelihoods()
        g = np.random.default_rng(args.seed)
        init = [guided_rule(tables, g).to_genome() for _ in range(cfg.population)]
        print("initial population drawn from the bundled likelihood tables")

    result = ea_run(cfg, seed=args.seed, init=init)

    print("\n gen    best        mean")
    for gen, best, mean in result.history:
        bar = "#" * int(round(best / 0.0002)) if best else ""
        print(f"{gen:4d}  {best:.5f}  {mean:.6f}  {bar}")

    print(f"\nstopped after {result.generations} generations,"
          f" {result.evaluations} fitness evaluations")
    print("best genome:", result.best_genome)
    print("best fitness:", f"{result.best_fitness:.5f}")

    if args.out:
        save_rules(args.out, [result.best_rule],
                   header=f"best of demo run, seed {args.seed},"
                          f" fitness {result.best_fitness:.5f}")
        print("saved to", args.out)


if __name__ == "__main__":
    main()
