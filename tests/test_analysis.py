"""Likelihood tables, symmetrization, reduction, and the bundled references."""

import re
from dataclasses import replace

import numpy as np
import pytest

from hexreact import analysis as an
from hexreact.detector import GLIDER, FitnessConfig, track
from hexreact.engine import Trajectory, run, signature_index, step
from hexreact.hexgrid import Grid, count_states
from hexreact.rules import PAIRS, RuleMatrix

# -- hand corpus ----------------------------------------------------------------

R1 = RuleMatrix.from_entries({(1, 1): 1, (2, 0): 2})
R2 = RuleMatrix.from_entries({(1, 1): 2})
R3 = RuleMatrix.from_entries({(1, 1): 1})
R4 = RuleMatrix.from_entries({})

HAND_CORPUS = [
    (R1, {(0, 0), (1, 1), (2, 0)}),
    (R2, {(0, 0), (1, 1)}),
    (R3, {(0, 0), (2, 0)}),
    (R4, {(0, 0)}),
]


def test_hand_corpus_fractions_exact():
    m = an.compute_likelihoods(HAND_CORPUS)
    # (1, 1): needed by R1 (maps to A) and R2 (maps to B); redundant for R3, R4
    assert m.get("S", 1, 1) == 0.0
    assert m.get("A", 1, 1) == 0.25
    assert m.get("B", 1, 1) == 0.25
    assert m.get("#", 1, 1) == 0.5
    # (2, 0): needed by R1 (maps to B) and R3 (maps to S)
    assert m.get("S", 2, 0) == 0.25
    assert m.get("A", 2, 0) == 0.0
    assert m.get("B", 2, 0) == 0.25
    assert m.get("#", 2, 0) == 0.5
    # (0, 0): exercised by everyone, pinned to S
    assert m.get("S", 0, 0) == 1.0
    assert m.get("#", 0, 0) == 0.0
    # untouched signature
    assert m.get("#", 5, 2) == 1.0


def test_hand_corpus_partition_identity_everywhere():
    m = an.compute_likelihoods(HAND_CORPUS)
    total = m.fs + m.fa + m.fb + m.fhash
    assert np.all(total == 1.0)  # quarters are exact in binary


def test_single_rule_corpus():
    m = an.compute_likelihoods([(R3, {(0, 0), (1, 1)})])
    assert m.get("A", 1, 1) == 1.0
    assert m.get("S", 1, 1) == 0.0
    assert m.get("B", 1, 1) == 0.0
    assert m.get("#", 1, 1) == 0.0


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        an.compute_likelihoods([])


def test_likelihood_csv_round_trip():
    m = an.compute_likelihoods(HAND_CORPUS)
    again = an.LikelihoodMatrices.from_csv(m.to_csv())
    for a, b in zip((m.fs, m.fa, m.fb, m.fhash), (again.fs, again.fa, again.fb, again.fhash)):
        assert np.array_equal(a, b)


def test_likelihood_csv_requires_full_cover():
    m = an.compute_likelihoods(HAND_CORPUS)
    text = "\n".join(m.to_csv().splitlines()[:-1])  # drop the last entry
    with pytest.raises(ValueError):
        an.LikelihoodMatrices.from_csv(text)


def test_likelihood_csv_skips_blank_lines():
    m = an.reference_likelihoods()
    again = an.LikelihoodMatrices.from_csv(m.to_csv().replace("\n", "\n\n"))
    for a, b in zip((m.fs, m.fa, m.fb, m.fhash), (again.fs, again.fa, again.fb, again.fhash)):
        assert np.array_equal(a, b)


def _with_line(text, n, row):
    """``text`` with its line ``n`` (1-based) set to ``row``, or dropped for None."""
    lines = text.splitlines()
    lines[n - 1 : n] = [] if row is None else [row]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "n, row, message",
    [
        (6, "9,9,0.34,0.0,0.0,0.66", "line 6: 9,9 is not an (i, j) pair"),
        (6, "0,4,0.34", "line 6: expected 6 fields, found 3"),
        (38, "0,2,0.46,0.14,0.16,0.24", "line 38: pair (0, 2) repeats line 4"),
        (3, "0,1,x,0,0,1", "line 3: likelihoods must be numbers"),
        (3, "0,1,nan,0,0,1", "line 3: likelihood nan is outside [0, 1]"),
        (9, "0,7,-3,0.0,7,-3", "line 9: likelihood -3.0 is outside [0, 1]"),
        (9, "0,7,0.06,0.0,0.0,0.93", "line 9: likelihoods sum to 0.99, not 1"),
    ],
    ids=["unknown-pair", "three-fields", "repeated-pair", "not-a-number", "nan", "out-of-range",
         "bad-sum"],
)
def test_likelihood_csv_names_the_bad_line(n, row, message):
    text = _with_line(an.reference_likelihoods().to_csv(), n, row)
    with pytest.raises(ValueError, match=re.escape(message)):
        an.LikelihoodMatrices.from_csv(text)


@pytest.mark.parametrize(
    "n, row, message",
    [
        (6, "4,4,S", "line 6: 4,4 is not an (i, j) pair"),
        (6, None, "covers 35 of 36 pairs; no row for [(0, 4)]"),
        (6, "0,4,SX", "line 6: 'SX' is not a set of SAB letters"),
        (38, "0,2,S", "line 38: pair (0, 2) repeats line 4"),
    ],
    ids=["unknown-pair", "missing-row", "bad-letter", "repeated-pair"],
)
def test_reduced_set_csv_names_the_bad_line(n, row, message):
    text = _with_line(an.reference_reduced_set().to_csv(), n, row)
    with pytest.raises(ValueError, match=re.escape(message)):
        an.ReducedRuleSet.from_csv(text)


def test_as_grid_masks_unreachable():
    m = an.compute_likelihoods(HAND_CORPUS)
    g = m.as_grid("S")
    assert np.isnan(g[7, 1])
    assert g[0, 0] == 1.0


def test_heatmap_pgm_layout():
    m = an.compute_likelihoods(HAND_CORPUS)
    raw = an.heatmap_pgm(m, "S")
    assert raw.startswith(b"P5\n8 8\n255\n")
    pixels = raw[len(b"P5\n8 8\n255\n"):]
    assert len(pixels) == 64
    assert pixels[0] == 255  # FS(0,0) = 1
    assert pixels[7 * 8 + 1] == 0  # unreachable renders dark


# -- symmetrize -------------------------------------------------------------------


def tables_with(pairs_a, pairs_b):
    fa = np.zeros(36)
    fb = np.zeros(36)
    for (i, j), v in pairs_a.items():
        fa[PAIRS.index((i, j))] = v
    for (i, j), v in pairs_b.items():
        fb[PAIRS.index((i, j))] = v
    return fa, fb


def test_symmetrize_means_close_pairs():
    fa, fb = tables_with({(1, 2): 0.25}, {(2, 1): 0.27})
    sa, sb = an.symmetrize(fa, fb, eps=0.1)
    assert sa[PAIRS.index((1, 2))] == pytest.approx(0.26)
    assert sb[PAIRS.index((2, 1))] == pytest.approx(0.26)


def test_symmetrize_leaves_distant_pairs():
    fa, fb = tables_with({(1, 2): 0.9}, {(2, 1): 0.1})
    sa, sb = an.symmetrize(fa, fb, eps=0.1)
    assert sa[PAIRS.index((1, 2))] == 0.9
    assert sb[PAIRS.index((2, 1))] == 0.1


def test_symmetrize_is_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        fa = rng.random(36)
        fb = rng.random(36)
        sa, sb = an.symmetrize(fa, fb, eps=0.15)
        ta, tb = an.symmetrize(sa, sb, eps=0.15)
        assert np.allclose(sa, ta)
        assert np.allclose(sb, tb)


def test_symmetrize_input_validation():
    fa, fb = tables_with({}, {})
    with pytest.raises(ValueError):
        an.symmetrize(fa, fb, eps=0)


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0, -0.1])
def test_symmetrize_rejects_a_non_finite_or_non_positive_eps(eps):
    fa, fb = tables_with({}, {})
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        an.symmetrize(fa, fb, eps=eps)
    # reduce_likelihoods symmetrizes first: NaN would pass every `v >= eps` as False
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        an.reduce_likelihoods(an.reference_likelihoods(), eps=eps)


# -- bundled reference tables --------------------------------------------------------


def test_reference_partition_sums_near_one():
    m = an.reference_likelihoods()
    total = m.fs + m.fa + m.fb + m.fhash
    assert np.all(np.abs(total - 1) <= 0.02)  # stored at 2-decimal precision


def test_reference_spot_check():
    m = an.reference_likelihoods()
    assert m.get("S", 1, 1) == 0.23
    assert m.get("A", 1, 1) == 0.43
    assert m.get("B", 1, 1) == 0.25
    assert m.get("#", 1, 1) == 0.09
    assert m.get("S", 0, 0) == 1.0
    assert m.get("#", 7, 0) == 0.96


def test_reference_reduced_set_size():
    r = an.reference_reduced_set()
    assert r.count() == 648
    assert r.get(0, 0) == {0}
    assert r.get(1, 1) == {1}
    assert r.get(0, 3) == {0, 1, 2}


def test_reduce_matches_reference_closely():
    mine = an.reduce_likelihoods(an.reference_likelihoods())
    ref = an.reference_reduced_set()
    diff = an.diff_reduced_sets(mine, ref)
    assert len(diff) <= 6  # 36 - 30
    # the known disagreement: (1, 1) keeps B within theta of A
    assert (1, 1, "AB", "A") in diff
    assert len(diff) == 1


def test_reduce_threshold_edge_is_exact():
    # gap of exactly theta must exclude: S at (1,1) sits 0.20 below A
    mine = an.reduce_likelihoods(an.reference_likelihoods())
    assert 0 not in mine.get(1, 1)


def test_reduce_all_zero_tables():
    zeros = an.LikelihoodMatrices(
        np.zeros(36), np.zeros(36), np.zeros(36), np.ones(36)
    )
    r = an.reduce_likelihoods(zeros)
    assert all(r.get(i, j) == {0} for i, j in PAIRS)
    assert r.count() == 1


def test_reduce_parameter_validation():
    m = an.reference_likelihoods()
    with pytest.raises(ValueError):
        an.reduce_likelihoods(m, theta=0)
    with pytest.raises(ValueError):
        an.reduce_likelihoods(m, theta=1.0)


def test_reduced_set_csv_round_trip():
    r = an.reference_reduced_set()
    again = an.ReducedRuleSet.from_csv(r.to_csv())
    assert again.allowed == r.allowed
    assert an.diff_reduced_sets(r, again) == []


def test_reduced_set_validation():
    with pytest.raises(ValueError):
        an.ReducedRuleSet({(0, 0): {1}})
    with pytest.raises(ValueError):
        an.ReducedRuleSet({(1, 1): {3}})


def test_reduced_set_rejects_an_empty_allowed_set():
    with pytest.raises(ValueError, match=re.escape("empty allowed set at (1, 2)")):
        an.ReducedRuleSet({(1, 2): ()})


def test_nontrivial_lists_the_entries_that_allow_more_than_s():
    r = an.ReducedRuleSet({(1, 1): {0, 1}, (2, 0): {2}, (0, 3): {0}})
    assert r.nontrivial() == {(1, 1): frozenset({0, 1}), (2, 0): frozenset({2})}


@pytest.mark.parametrize("key", [(9, 9), (4, 4), (-1, 1), "1,1"])
def test_reduced_set_rejects_keys_off_the_pair_table(key):
    # such a key was once dropped in silence: {(9, 9): {1}} made the all-S class
    with pytest.raises(ValueError, match="not among the 36") as err:
        an.ReducedRuleSet({(1, 1): {0, 1}, key: {1}})
    assert repr(key) in str(err.value)


# -- enumeration and sampling ----------------------------------------------------------


def test_enumerate_counts_match():
    r = an.ReducedRuleSet({(1, 1): {0, 1}, (2, 0): {0, 1, 2}})
    rules = list(an.enumerate_rules(r))
    assert len(rules) == r.count() == 6
    genomes = {rule.to_genome() for rule in rules}
    assert len(genomes) == 6
    for rule in rules:
        assert rule.lookup(1, 1) in (0, 1)
        assert rule.lookup(2, 0) in (0, 1, 2)
        assert rule.lookup(0, 0) == 0
        assert rule.lookup(3, 3) == 0


def test_enumerate_all_s_set_is_the_single_extinction_rule():
    r = an.ReducedRuleSet({})
    rules = list(an.enumerate_rules(r))
    assert r.count() == len(rules) == 1
    assert rules[0].to_genome() == "S" * 36


def test_enumerate_reference_class():
    ref = an.reference_reduced_set()
    n = sum(1 for _ in an.enumerate_rules(ref))
    assert n == 648


def test_enumerate_is_mixed_radix_with_the_last_entry_fastest():
    # sorted choices, last entry fastest: the genomes come out strictly ascending
    rules = an.enumerate_rules(an.reference_reduced_set())
    genomes = [tuple(rule.genome.tolist()) for rule in rules]
    assert len(genomes) == 648
    assert all(a < b for a, b in zip(genomes, genomes[1:]))


def test_sample_rules_distinct_and_in_class():
    r = an.reference_reduced_set()
    rng = np.random.default_rng(10)
    rules = an.sample_rules(r, 25, rng)
    assert len({rule.to_genome() for rule in rules}) == 25
    for rule in rules:
        for i, j in PAIRS:
            assert rule.lookup(i, j) in r.get(i, j)


def test_sample_more_than_class_size_rejected():
    r = an.ReducedRuleSet({(1, 1): {0, 1}})
    with pytest.raises(ValueError):
        an.sample_rules(r, 3, np.random.default_rng(0))


@pytest.mark.parametrize("n", [0, -2, 1.5])
def test_sample_rules_rejects_a_count_that_is_not_a_positive_integer(n):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="rule count must be a positive integer"):
        an.sample_rules(an.reference_reduced_set(), n, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # drew nothing


def test_guided_rule_respects_hard_statistics():
    m = an.reference_likelihoods()
    rng = np.random.default_rng(11)
    seen_11 = set()
    for _ in range(300):
        rule = an.guided_rule(m, rng)
        assert rule.lookup(0, 0) == 0
        seen_11.add(rule.lookup(1, 1))
    assert seen_11 == {0, 1, 2}  # all three states carry weight at (1, 1)
    # no redundant mass: every entry but (0, 0) follows the corpus exactly
    all_a = an.LikelihoodMatrices(np.zeros(36), np.ones(36), np.zeros(36), np.zeros(36))
    assert an.guided_rule(all_a, rng).to_genome() == "S" + "A" * 35


def test_guided_rule_on_the_reference_tables_is_pinned():
    rule = an.guided_rule(an.reference_likelihoods(), np.random.default_rng(0))
    assert rule.to_genome() == "SSSSSSASAABSSSSASASSSSSSSSSBBSSSSSSS"


# -- the bundled glider rule ---------------------------------------------------------


def lone_glider_run():
    rule = an.bundled_glider_rule()
    seed = an.bundled_glider_seed()
    traj = run(seed, rule, 30)
    locs = track(traj, p_max=12)
    return rule, traj, locs


def test_bundled_glider_rule_needs_exactly_one_rule(monkeypatch):
    monkeypatch.setattr(an, "_fixture_text", lambda name: "S" * 36 + "\n" + "S" * 36 + "\n")
    with pytest.raises(ValueError, match="glider_rule.txt must hold exactly one rule"):
        an.bundled_glider_rule()


def test_bundled_seed_travels_as_clean_glider():
    rule, traj, locs = lone_glider_run()
    assert len(locs) == 1
    loc = locs[0]
    assert loc.loc_class == GLIDER
    assert loc.first_frame == 0
    assert loc.period is not None
    assert loc.displacement != (0, 0)


def test_necessary_transitions_of_bundled_glider():
    _, traj, locs = lone_glider_run()
    needed = an.necessary_transitions(locs[0], traj)
    assert (0, 0) in needed
    assert 1 < len(needed) < 36
    for i, j in needed:
        assert 0 <= i and 0 <= j and i + j <= 7
    # the engine's i + 8j index against cell-by-cell hand counts
    h, w = traj[0].shape
    by_hand = set()
    for t in range(locs[0].period):
        counts = [[count_states(traj[t], (r, c)) for c in range(w)] for r in range(h)]
        assert np.array_equal(signature_index(traj[t]), [[i + 8 * j for i, j in row] for row in counts])
        by_hand.update(ij for row in counts for ij in row)
    assert needed == by_hand


def test_necessary_transitions_stable_across_period_phases():
    # starting the lone run one step into the period must exercise the same
    # signature set: the glider has no preferred phase
    rule, _, _ = lone_glider_run()
    sets = []
    grid = an.bundled_glider_seed()
    for phase in range(2):
        traj = run(grid, rule, 30)
        loc = track(traj, p_max=12)[0]
        sets.append(an.necessary_transitions(loc, traj))
        grid = step(grid, rule)
    assert sets[0] == sets[1]


def test_necessary_transitions_of_a_lone_still_cell():
    # hand enumeration: a static A cell held for one frame contributes (1, 0)
    # at itself and at each of its six neighbours; everywhere else is far
    # field (0, 0)
    grid = Grid.filled(6, 6)
    grid[2, 2] = 1
    traj = Trajectory([grid, grid, grid])
    loc = track(traj, p_max=2)[0]
    assert loc.loc_class == "StillLife"
    assert an.necessary_transitions(loc, traj) == {(0, 0), (1, 0)}


def test_flipping_redundant_entries_preserves_the_glider():
    rule, traj, locs = lone_glider_run()
    loc = locs[0]
    needed = an.necessary_transitions(loc, traj)
    p = loc.period
    redundant = [pair for pair in PAIRS if pair not in needed]
    seed = an.bundled_glider_seed()
    for pair in redundant[::5]:  # a sample is plenty
        entries = list(rule.genome)
        k = PAIRS.index(pair)
        entries[k] = (entries[k] + 1) % 3
        if pair == (0, 0):
            continue
        changed = RuleMatrix(entries)
        alt = run(seed, changed, p)
        for t in range(p + 1):
            assert alt.frames[t] == traj.frames[t], (pair, t)


def test_flipping_necessary_entries_disturbs_the_glider():
    rule, traj, locs = lone_glider_run()
    loc = locs[0]
    needed = an.necessary_transitions(loc, traj)
    p = loc.period
    seed = an.bundled_glider_seed()
    for pair in sorted(needed - {(0, 0)}):
        entries = list(rule.genome)
        k = PAIRS.index(pair)
        entries[k] = (entries[k] + 1) % 3
        changed = RuleMatrix(entries)
        alt = run(seed, changed, p)
        assert any(
            alt.frames[t] != traj.frames[t] for t in range(1, p + 1)
        ), pair


def test_necessary_transitions_rejects_short_trajectory():
    _, traj, locs = lone_glider_run()
    short = Trajectory(traj.frames[:1])
    with pytest.raises(ValueError):
        an.necessary_transitions(locs[0], short)


def test_necessary_transitions_rejects_seam_contact():
    _, traj, locs = lone_glider_run()
    loc = locs[0]
    cells = traj.frames[0].cells
    rows = np.nonzero(cells.any(axis=1))[0]
    shifted = Grid(np.roll(cells, -int(rows.min()), axis=0))
    bad = Trajectory([shifted] * (loc.period + 1))
    with pytest.raises(ValueError):
        an.necessary_transitions(loc, bad)


def test_necessary_transitions_rejects_debris():
    _, traj, locs = lone_glider_run()
    loc = locs[0]
    messy = traj.frames[0].copy()
    messy[40, 40] = 1  # far-away second component
    bad = Trajectory([messy] * (loc.period + 1))
    with pytest.raises(ValueError):
        an.necessary_transitions(loc, bad)


def test_necessary_transitions_requires_period():
    rule = an.bundled_glider_rule()
    seed = an.bundled_glider_seed()
    traj = run(seed, rule, 2)
    locs = track(traj, p_max=12)  # 3 frames: too short to classify
    assert locs[0].period is None
    with pytest.raises(ValueError):
        an.necessary_transitions(locs[0], traj)


def test_find_glider_recovers_bundled_rule():
    rule = an.bundled_glider_rule()
    cfg = FitnessConfig(
        width=32, height=32, patch_width=16, patch_height=16,
        steps=120, window=32, trials=10, p_max=12,
    )
    trace = an.find_glider(rule, cfg, np.random.default_rng(99))
    assert trace is not None
    assert trace.loc.loc_class == GLIDER
    needed = trace.necessary()
    assert (0, 0) in needed


@pytest.mark.parametrize(
    "shape",
    [((0, 0, 1),), ((0, 0, 1), (0, 6, 2))],
    ids=["one-unresolved-track", "two-tracks"],
)
def test_replant_glider_rejects_what_does_not_glide_alone(shape):
    # under the all-S rule every cell dies at once: a lone cell tracks as one
    # Unresolved track, two cells six columns apart as two tracks
    dead = RuleMatrix([0] * 36)
    assert len(track(run(an._materialize_shape(shape), dead, 52))) == len(shape)
    assert an.replant_glider(dead, shape) is None


def test_corpus_likelihoods_skips_gliderless_rules():
    glider_rule = an.bundled_glider_rule()
    dead = RuleMatrix.from_entries({})  # everything dies instantly
    cfg = FitnessConfig(
        width=32, height=32, patch_width=16, patch_height=16,
        steps=120, window=32, trials=4, p_max=12,
    )
    m, used, skipped = an.corpus_likelihoods(
        [glider_rule, dead], cfg, np.random.default_rng(99)
    )
    assert used == [glider_rule]
    assert skipped == [dead]
    assert m.get("#", 0, 0) == 0.0
    total = m.fs + m.fa + m.fb + m.fhash
    assert np.allclose(total, 1.0)


def test_corpus_likelihoods_rejects_a_corpus_with_no_glider():
    cfg = FitnessConfig(width=16, height=16, patch_width=8, patch_height=8, steps=10, window=8)
    with pytest.raises(ValueError, match="no rule in the corpus produced a verifiable glider"):
        an.corpus_likelihoods([RuleMatrix.from_entries({})], cfg, np.random.default_rng(0))


# -- sweep ------------------------------------------------------------------------


def test_stationarity_sweep_structure():
    ref = an.reference_reduced_set()
    cfg = FitnessConfig(
        width=24, height=24, patch_width=24, patch_height=24,
        steps=60, window=20, trials=2, p_max=6,
    )
    report = an.stationarity_sweep(ref, cfg, np.random.default_rng(5), n_rules=3)
    assert len(report.entries) == 3
    total = report.total_histogram()
    allowed_classes = {"StillLife", "Oscillator", "Glider", "PufferTrain", "Unresolved"}
    assert set(total) <= allowed_classes
    csv = report.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "rule,StillLife,Oscillator,Glider,PufferTrain,Unresolved"
    assert len(lines) == 4
    assert report.mobile_count() >= 0


def test_reference_class_contains_a_verified_glider_rule():
    # Known limitation, pinned as a regression: the bundled reduced table's
    # class is not universally stationary.  This member is one of the mobile
    # rules listed by the class census (fixtures/reference_class_mobile.csv)
    # and supports a genuine glider -- planted alone on an empty torus the
    # shape travels cleanly forever.
    genome = "SSSSSSSSSAASSSSSBASSSBASSSSSSSSSSSSS"
    rset = an.reference_reduced_set()
    assert all(genome[k] in rset.letters(i, j) for k, (i, j) in enumerate(PAIRS))
    assert genome in {row.genome for row in an.reference_class_mobile()}

    shape = ((0, 0, 1), (1, 0, 1), (2, 0, 2), (3, -1, 1), (4, -2, 1))
    lone = run(an._materialize_shape(shape), RuleMatrix.from_genome(genome), 60)
    locs = track(lone, p_max=12)
    assert [l.loc_class for l in locs] == [GLIDER]
    assert locs[0].first_frame == 0 and locs[0].frames == 61
    assert locs[0].period == 2
    assert locs[0].displacement == (0, 1)


# -- class census ------------------------------------------------------------------

CENSUS_CFG = FitnessConfig(**an.CLASS_SWEEP_PROTOCOL)
# fixtures/reference_class_mobile.csv: the census at 60 soups per rule, and
# how many of its rows had moved within 5, 20, 40 and 60 soups
FIXTURE_CFG = replace(CENSUS_CFG, trials=60)
MOBILE_WITHIN = {5: 32, 20: 59, 40: 68, 60: 73}


def test_reference_class_mobile_fixture_is_replant_verified():
    rows = an.reference_class_mobile()
    # the list still grows with the soup count, so it is a lower bound
    within = {n: sum(row.first_soup < n for row in rows) for n in MOBILE_WITHIN}
    assert within == MOBILE_WITHIN
    assert "; 60 soups per rule," in an._fixture_text("reference_class_mobile.csv")
    rset = an.reference_reduced_set()
    rules = list(an.enumerate_rules(rset))
    assert [row.index for row in rows] == sorted({row.index for row in rows})
    # every listed rule maps both (1, 2) and (2, 1) to a reactant; 288 class rules do
    k12, k21 = PAIRS.index((1, 2)), PAIRS.index((2, 1))
    genomes = [rule.to_genome() for rule in rules]
    both = {g for g in genomes if g[k12] != "S" and g[k21] != "S"}
    assert len(both) == 288 and {row.genome for row in rows} <= both
    for row in rows:
        assert all(row.genome[k] in rset.letters(i, j) for k, (i, j) in enumerate(PAIRS))
        assert rules[row.index].to_genome() == row.genome
        assert row.gliders + row.puffers > 0 and 0 <= row.first_soup < FIXTURE_CFG.trials
        assert 1 <= row.verified <= row.gliders and row.shape is not None
        trace = an.replant_glider(RuleMatrix.from_genome(row.genome), row.shape, 12)
        assert trace is not None, f"{row.genome}: stored shape does not glide alone"
        assert trace.loc.loc_class == GLIDER
        assert trace.loc.period == row.period
        assert trace.loc.displacement == row.displacement


def test_class_census_reproduces_fixture_rows():
    # listed and unlisted indices, including the pinned glider rule's: the
    # census of any subset gives exactly the fixture's rows for that subset
    rows = {row.index: row for row in an.reference_class_mobile()}
    rules = list(an.enumerate_rules(an.reference_reduced_set()))
    pinned = [r.to_genome() for r in rules].index("SSSSSSSSSAASSSSSBASSSBASSSSSSSSSSSSS")
    listed = sorted(rows)
    unlisted = [i for i in range(len(rules)) if i not in rows]
    indices = sorted({pinned, listed[-1], unlisted[0]})
    got = an.class_census(an.reference_reduced_set(), FIXTURE_CFG, indices=indices)
    assert got == [rows[i] for i in indices if i in rows]


def test_class_census_rows_do_not_depend_on_the_split():
    # soups are seeded by enumeration index, so censusing disjoint index sets
    # separately and concatenating gives the census of their union
    rset = an.reference_reduced_set()
    cfg = replace(CENSUS_CFG, trials=2)
    union = an.class_census(rset, cfg, indices=[0, 122, 142])
    parts = an.class_census(rset, cfg, indices=[142, 0]) + an.class_census(rset, cfg, [122])
    assert sorted(parts, key=lambda row: row.index) == union
    assert [row.index for row in union] == [122, 142]


def test_census_row_csv_round_trip():
    verified = an.CensusRow(3, "S" * 36, 0, 2, 1, 1, 2, (0, 1), ((0, 0, 1), (1, -1, 2)))
    unverified = an.CensusRow(4, "S" * 36, 7, 0, 3, 0, None, None, None)
    text = an.census_to_csv([verified, unverified], CENSUS_CFG, "hexreact census")
    assert text.startswith("#")
    assert an.census_from_csv(text) == [verified, unverified]
    with pytest.raises(ValueError):
        an.census_from_csv("genome\n")


BAD_CENSUS_ROWS = {
    "3,SSS,0,1,0,0,,,,": "genome 'SSS' is not 36 letters of SAB",
    "3,SSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSSX,0,1,0,0,,,,": "is not 36 letters of SAB",
    "3,{g},0,1,0,0,,,": "expected 10 fields, found 9",
    "3,{g},0,1,0,0,2,0,1,0:0:1,extra": "expected 10 fields, found 11",
    "3,{g},x,1,0,0,,,,": "first_soup 'x' is not an integer",
    "3,{g},0,1.5,0,0,,,,": "gliders '1.5' is not an integer",
    ",{g},0,1,0,0,,,,": "index '' is not an integer",
    "3,{g},0,1,0,1,two,0,1,0:0:1": "period 'two' is not an integer",
    "3,{g},0,1,0,1,2,0,,0:0:1": "must be all set or all empty",
    "3,{g},0,1,0,1,2,0,1,": "must be all set or all empty",
    "3,{g},0,1,0,1,2,0,1,0:0:1;1:-1": "shape cell '1:-1' is not r:q:state",
    "3,{g},0,1,0,1,2,0,1,0:0:1;a:b:c": "shape cell 'a:b:c' is not r:q:state",
    "3,{g},0,1,0,1,2,0,1,0:0:3": "has state 3, not A",
}


@pytest.mark.parametrize("row", sorted(BAD_CENSUS_ROWS))
def test_census_from_csv_names_the_line_of_a_bad_row(row):
    good = an.CensusRow(4, "S" * 36, 7, 0, 3, 0, None, None, None).to_csv()
    text = "# comment\n" + an.CENSUS_HEADER + "\n" + good + "\n\n" + row.format(g="S" * 36) + "\n"
    with pytest.raises(ValueError) as err:
        an.census_from_csv(text)
    assert str(err.value).startswith("line 5: ")
    assert BAD_CENSUS_ROWS[row] in str(err.value)


def test_census_to_csv_writes_the_fixture_byte_for_byte():
    # the header's protocol text, the replant torus size included, comes from
    # the config and analysis.LONE_SIZE; the fixture's bytes must not move
    text = an._fixture_text("reference_class_mobile.csv")
    command = next(l for l in text.splitlines() if l.startswith("# Regenerate: "))
    rows = an.census_from_csv(text)
    assert an.census_to_csv(rows, FIXTURE_CFG, command[len("# Regenerate: "):]) == text


def test_class_census_rejects_zero_trials():
    with pytest.raises(ValueError):
        an.class_census(an.reference_reduced_set(), replace(CENSUS_CFG, trials=0), [0])
