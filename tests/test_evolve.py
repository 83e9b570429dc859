"""EA operator contracts and loop behaviour."""

import numpy as np
import pytest

from hexreact.detector import FitnessConfig
from hexreact.evolve import EAConfig, crossover, default_fitness_fn, ea_run, mutate
from hexreact.rules import RuleMatrix, random_rule


def small_cfg(**kw):
    fit = FitnessConfig(
        width=16,
        height=16,
        patch_width=8,
        patch_height=8,
        steps=20,
        window=8,
        trials=1,
        p_max=4,
    )
    args = dict(population=8, stall_generations=3, fitness=fit)
    args.update(kw)
    return EAConfig(**args)


def test_mutate_changes_exactly_one_position():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = random_rule(rng).to_genome()
        m = mutate(g, rng)
        diffs = [k for k in range(36) if g[k] != m[k]]
        assert len(diffs) == 1
        k = diffs[0]
        assert k != 0  # (0, 0) stays pinned
        assert m[k] != g[k]
        RuleMatrix.from_genome(m)  # still a valid rule


def test_mutate_reaches_every_free_position_and_letter():
    rng = np.random.default_rng(1)
    g = "S" * 36
    seen_pos = set()
    seen_letters = set()
    for _ in range(2000):
        m = mutate(g, rng)
        k = next(i for i in range(36) if m[i] != g[i])
        seen_pos.add(k)
        seen_letters.add(m[k])
    assert seen_pos == set(range(1, 36))
    assert seen_letters == {"A", "B"}


def test_crossover_prefix_suffix():
    rng = np.random.default_rng(2)
    a = "S" + "A" * 35
    b = "S" + "B" * 35
    for _ in range(100):
        child, other = crossover(a, b, rng)
        assert len(child) == len(other) == 36
        assert child[0] == other[0] == "S"
        # some A-prefix then all B: exactly one switch point
        switched = child.index("B")
        assert set(child[1:switched]) <= {"A"}
        assert set(child[switched:]) == {"B"}
        assert 1 <= switched <= 35
        # the sibling is the complementary splice at the same cut
        assert other == b[:switched] + a[switched:]


def test_crossover_of_identical_parents_is_identity():
    rng = np.random.default_rng(3)
    g = random_rule(rng).to_genome()
    assert crossover(g, g, rng) == (g, g)


def test_crossover_children_conserve_positional_symbols():
    # at every position the two children hold exactly the two parent symbols
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = random_rule(rng).to_genome()
        b = random_rule(rng).to_genome()
        c, d = crossover(a, b, rng)
        for k in range(36):
            assert sorted((c[k], d[k])) == sorted((a[k], b[k]))


def test_zero_fitness_stub_runs_stall_plus_one_generations():
    cfg = small_cfg(stall_generations=5)
    run = ea_run(cfg, seed=11, fitness_fn=lambda g: 0.0)
    assert run.generations == 6  # one improving generation + 5 stalled
    assert run.best_fitness == 0.0
    assert len(run.history) == run.generations


def test_best_fitness_is_monotone_in_history():
    cfg = small_cfg(stall_generations=4, population=10)

    # count of A letters: smooth landscape the EA must climb
    run = ea_run(cfg, seed=5, fitness_fn=lambda g: g.count("A"))
    best_seen = -1.0
    for gen, best, mean in run.history:
        assert best <= run.best_fitness
        best_seen = max(best_seen, best)
        assert mean <= best
    assert best_seen == run.best_fitness
    assert run.best_fitness > 10  # actually climbed


def test_elitism_never_loses_the_best():
    cfg = small_cfg(stall_generations=6, population=6)
    run = ea_run(cfg, seed=7, fitness_fn=lambda g: g.count("B"))
    bests = [row[1] for row in run.history]
    assert bests == sorted(bests)


def test_run_is_deterministic():
    cfg = small_cfg(stall_generations=3)
    fn = lambda g: (g.count("A") * 7 + g.count("B")) % 13
    a = ea_run(cfg, seed=42, fitness_fn=fn)
    b = ea_run(cfg, seed=42, fitness_fn=fn)
    assert a.best_genome == b.best_genome
    assert a.history == b.history
    c = ea_run(cfg, seed=43, fitness_fn=fn)
    assert c.history != a.history


def test_all_genomes_keep_pinned_quiescence():
    cfg = small_cfg(stall_generations=2, population=12)
    seen = []
    run = ea_run(cfg, seed=9, fitness_fn=lambda g: seen.append(g) or 0.0)
    assert run.generations == 3
    assert seen  # stub actually saw the population
    assert all(g[0] == "S" for g in seen)


def test_memoization_skips_repeat_genomes():
    calls = []
    cfg = small_cfg(stall_generations=2)
    ea_run(cfg, seed=13, fitness_fn=lambda g: calls.append(g) or 1.0)
    assert len(calls) == len(set(calls))


def test_max_generations_caps_run():
    cfg = small_cfg(stall_generations=50, max_generations=4)
    run = ea_run(cfg, seed=3, fitness_fn=lambda g: g.count("A"))
    assert run.generations == 4


def test_init_population_is_used():
    cfg = small_cfg(stall_generations=2, population=4)
    special = "S" + "A" * 35
    run = ea_run(cfg, seed=1, fitness_fn=lambda g: g.count("A"), init=[special])
    assert run.best_fitness >= 35
    assert run.history[0][1] == 35  # present from generation zero


def test_default_fitness_fn_is_seed_and_genome_pure():
    cfg = FitnessConfig(
        width=16, height=16, patch_width=8, patch_height=8,
        steps=15, window=8, trials=1, p_max=4,
    )
    fn = default_fitness_fn(cfg, master_seed=77)
    g = random_rule(np.random.default_rng(4)).to_genome()
    assert fn(g) == fn(g)
    fn2 = default_fitness_fn(cfg, master_seed=78)
    # different master seed may give a different draw; just must not crash
    fn2(g)


def test_config_validation():
    with pytest.raises(ValueError):
        EAConfig(population=1)
    with pytest.raises(ValueError):
        EAConfig(tournament=0)
    with pytest.raises(ValueError):
        EAConfig(crossover_prob=1.5)
    with pytest.raises(ValueError):
        EAConfig(elitism=40)
    with pytest.raises(ValueError):
        EAConfig(stall_generations=0)
    # fractional counts used to fail inside the run or run a rounded count
    for name, value in [("population", 2.5), ("tournament", 1.5), ("elitism", 0.5),
                        ("stall_generations", 1.5), ("max_generations", 1.5)]:
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            EAConfig(**{name: value})
    EAConfig(population=np.int64(4), max_generations=None)  # numpy integers are integers
