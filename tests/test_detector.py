"""Localization tracking oracles: hand-built trajectories with known answers."""

import copy
import pickle
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexreact import detector
from hexreact.analysis import CLASS_SWEEP_PROTOCOL, bundled_glider_rule, bundled_glider_seed
from hexreact.detector import (
    GLIDER,
    MOBILE_CLASSES,
    OSCILLATOR,
    PUFFER_TRAIN,
    STILL_LIFE,
    UNRESOLVED,
    FitnessConfig,
    Localization,
    canonical_shape,
    classify,
    count_mobile,
    extract_components,
    fitness,
    mobile_localizations,
    random_patch_grid,
    report_rows,
    soup_localizations,
    track,
)
from hexreact.engine import Trajectory, run
from hexreact.hexgrid import CellState, Grid, neighbor_table, neighborhood
from hexreact.rules import PAIRS, RuleMatrix, random_rule
from test_tracker_golden import PUFFER_RULE, localizations_digest


def grid_with(h, w, cells):
    """Build a grid from {(r, c): state}."""
    g = Grid.filled(h, w)
    for rc, state in cells.items():
        g[rc] = state
    return g


def place_axial(h, w, axial_cells, r0, q0):
    """Materialize axial-coordinate cells at an axial offset (geometric move)."""
    g = Grid.filled(h, w)
    for ar, aq, state in axial_cells:
        r = (ar + r0) % h
        c = (aq + q0 + ((ar + r0) - ((ar + r0) & 1)) // 2) % w
        g[r, c] = state
    return g


# three mutually adjacent cells (rows 4/5 around column 6)
TRIPLE = {(5, 5): 1, (5, 6): 1, (4, 6): 1}


# -- components ---------------------------------------------------------------


def test_empty_grid_has_no_components():
    assert extract_components(Grid.filled(6, 6)) == []


def test_adjacent_pair_is_one_component():
    g = grid_with(6, 6, {(2, 2): 1, (2, 3): 2})
    comps = extract_components(g)
    assert len(comps) == 1
    assert comps[0].size == 2
    assert sorted(comps[0].states) == [1, 2]


def test_components_partition_the_nonquiescent_cells():
    rng = np.random.default_rng(42)
    for _ in range(20):
        cells = np.where(rng.random((10, 12)) < 0.15, rng.integers(1, 3, (10, 12)), 0)
        g = Grid(cells)
        comps = extract_components(g)
        seen = np.concatenate([c.cells for c in comps]) if comps else np.array([])
        assert sorted(seen.tolist()) == np.flatnonzero(cells.ravel()).tolist()
        assert len(set(seen.tolist())) == len(seen)
        # internally connected: flood from one cell must reach the whole set
        for comp in comps:
            member = set(comp.cells.tolist())
            frontier = {int(comp.cells[0])}
            reached = set(frontier)
            while frontier:
                nxt = set()
                for cell in frontier:
                    for rc in neighborhood(g, divmod(cell, 12))[1:]:
                        flat = rc[0] * 12 + rc[1]
                        if flat in member and flat not in reached:
                            reached.add(flat)
                            nxt.add(flat)
                frontier = nxt
            assert reached == member


def test_front_end_rejects_an_odd_height():
    # on odd heights the neighbour table is not symmetric, so "connected"
    # would depend on which way the adjacency is read
    with pytest.raises(ValueError, match="even grid height"):
        extract_components(grid_with(5, 6, {(0, 0): 1, (4, 5): 1}))
    comp = extract_components(grid_with(6, 6, {(2, 2): 1}))[0]
    with pytest.raises(ValueError, match="even grid height"):
        canonical_shape(comp, 5, 6)


def test_distinct_components_are_never_adjacent():
    g = grid_with(8, 8, {(1, 1): 1, (1, 2): 1, (5, 5): 2})
    comps = extract_components(g)
    assert [c.size for c in comps] == [2, 1]


def component_minima(edges, n):
    """Smallest member of each node's component, from a plain union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    smallest = {}
    for x in range(n):
        smallest.setdefault(find(x), x)
    return [smallest[find(x)] for x in range(n)]


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80),
        )
    )
)
def test_roots_are_the_component_minima_of_a_plain_union_find(graph):
    # duplicate edges, self-loops and both orientations of an edge: the
    # reversed copies of every other edge guarantee the last two
    n, drawn = graph
    edges = drawn + [(b, a) for a, b in drawn[::2]]
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int32)  # _scan's ends are int32 labels
    assert detector._roots(u, v, n).tolist() == component_minima(edges, n)


# the half radius-2 ring's steps, as neighbor_table columns: E=1, SE=2, SW=3, W=4,
# NW=5, NE=6; the reverse of column d is (d + 2) % 6 + 1
HALF_RING = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4))


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(2, 10), st.integers(3, 20))
def test_step_table_is_the_neighbor_table_and_the_half_ring(half_h, w):
    h = 2 * half_h
    steps, table = detector._steps(h, w), neighbor_table(h, w)
    assert steps.shape == (13, h * w) and steps.dtype == np.int32
    assert not steps.flags.writeable
    assert np.array_equal(steps[:7], table.T)
    for row, (a, b) in enumerate(HALF_RING, start=7):
        assert np.array_equal(steps[row], table[table[:, a], b])
    if min(h, w) >= 5:
        # with the six reversed steps: every cell two steps away, each once
        back = [table[table[:, (a + 2) % 6 + 1], (b + 2) % 6 + 1] for a, b in HALF_RING]
        ring = np.concatenate([steps[7:].T, np.stack(back, axis=1)], axis=1)
        for cell in range(h * w):
            near = set(table[cell].tolist())
            two = set(table[table[cell]].ravel().tolist()) - near
            assert len(set(ring[cell].tolist())) == 12 and set(ring[cell].tolist()) == two


# -- canonical shapes ----------------------------------------------------------


def test_canonical_shape_ignores_placement_and_row_parity():
    axial = [(0, 0, 1), (0, 1, 2), (1, 0, 1)]
    shapes = set()
    for r0, q0 in [(2, 2), (3, 2), (4, 7), (5, 1), (0, 0)]:
        g = place_axial(12, 12, axial, r0, q0)
        comps = extract_components(g)
        assert len(comps) == 1
        shapes.add(canonical_shape(comps[0], 12, 12)[0])
    assert len(shapes) == 1


def test_canonical_shape_consistent_across_wrap_seam():
    axial = [(0, 0, 1), (0, 1, 1), (1, 1, 2)]
    reference = None
    for r0, q0 in [(5, 5), (11, 5), (5, 11), (11, 11)]:  # straddles both seams
        g = place_axial(12, 12, axial, r0, q0)
        comps = extract_components(g)
        assert len(comps) == 1
        shape = canonical_shape(comps[0], 12, 12)[0]
        reference = reference or shape
        assert shape == reference


def test_canonical_shape_distinguishes_states():
    a = extract_components(grid_with(6, 6, {(2, 2): 1, (2, 3): 1}))[0]
    b = extract_components(grid_with(6, 6, {(2, 2): 1, (2, 3): 2}))[0]
    assert canonical_shape(a, 6, 6)[0] != canonical_shape(b, 6, 6)[0]


# -- classification oracles ------------------------------------------------------


def make_trajectory(frames):
    return Trajectory(frames)


def east_glider_frames(h, w, row, col0, steps, state0=1, state1=2):
    """Two-cell pattern: states swap and the pair moves one column East per
    step, so the shape recurs every 2 frames with net displacement (0, 2)."""
    frames = []
    for t in range(steps):
        a, b = (state0, state1) if t % 2 == 0 else (state1, state0)
        frames.append(
            grid_with(h, w, {(row, (col0 + t) % w): a, (row, (col0 + t + 1) % w): b})
        )
    return frames


def test_static_triple_is_a_still_life():
    frames = [grid_with(12, 12, TRIPLE) for _ in range(8)]
    locs = track(make_trajectory(frames))
    assert len(locs) == 1
    loc = locs[0]
    assert loc.loc_class == STILL_LIFE
    assert loc.period == 1
    assert loc.displacement == (0, 0)
    assert loc.size == 3
    assert loc.frames == 8


def test_two_phase_blinker_is_an_oscillator():
    pair = {(5, 5): 1, (5, 6): 1}
    frames = []
    for t in range(10):
        frames.append(grid_with(12, 12, TRIPLE if t % 2 == 0 else pair))
    locs = track(make_trajectory(frames))
    assert len(locs) == 1
    assert locs[0].loc_class == OSCILLATOR
    assert locs[0].period == 2
    assert locs[0].displacement == (0, 0)


def test_translating_pattern_is_a_glider():
    frames = east_glider_frames(12, 24, row=5, col0=4, steps=10)
    locs = track(make_trajectory(frames))
    assert len(locs) == 1
    loc = locs[0]
    assert loc.loc_class == GLIDER
    assert loc.period == 2
    assert loc.displacement == (0, 2)


def test_glider_tracked_across_the_torus_seam():
    frames = east_glider_frames(12, 10, row=5, col0=7, steps=8)
    locs = track(make_trajectory(frames))
    assert len(locs) == 1
    assert locs[0].loc_class == GLIDER
    assert locs[0].period == 2
    assert locs[0].displacement == (0, 2)


def test_glider_moving_between_row_parities():
    # a single cell sliding one axial row South-East each frame: period 1,
    # displacement (1, 0); exercises the odd/even row bookkeeping
    frames = [place_axial(12, 12, [(0, 0, 1)], r0=2 + t, q0=4) for t in range(8)]
    locs = track(make_trajectory(frames))
    assert len(locs) == 1
    assert locs[0].loc_class == GLIDER
    assert locs[0].period == 1
    assert locs[0].displacement == (1, 0)


def test_classification_is_translation_invariant():
    frames = east_glider_frames(12, 24, row=5, col0=4, steps=10)
    moved = [g.translate(4, 9) for g in frames]
    a = track(make_trajectory(frames))[0]
    b = track(make_trajectory(moved))[0]
    assert (a.loc_class, a.period, a.displacement) == (
        b.loc_class,
        b.period,
        b.displacement,
    )


def test_puffer_train_head_with_persistent_trail():
    # glider head marching East; a static line of debris grows behind it,
    # always at least four columns back
    frames = []
    for t in range(10):
        cells = {(5, 6 + t): 1 if t % 2 == 0 else 2, (5, 7 + t): 2 if t % 2 == 0 else 1}
        for c in range(2, t + 3):
            cells[(5, c)] = 1
        frames.append(grid_with(12, 30, cells))
    locs = track(make_trajectory(frames))
    by_class = {loc.loc_class: loc for loc in locs}
    assert PUFFER_TRAIN in by_class
    head = by_class[PUFFER_TRAIN]
    assert head.period == 2
    assert head.displacement == (0, 2)
    assert head.has_trail and head.trail_size > 0
    # the growing trail itself never settles into a periodic shape
    assert UNRESOLVED in by_class


def test_merge_terminates_both_tracks():
    left = {(4, 3): 1, (4, 4): 1}
    right = {(4, 8): 1, (4, 9): 1}
    apart = {**left, **right}
    bridged = {**apart, **{(4, c): 1 for c in range(5, 8)}}
    frames = [grid_with(10, 14, apart)] * 3 + [grid_with(10, 14, bridged)] * 3
    locs = track(make_trajectory(frames))
    merged = [l for l in locs if l.terminated == "merge"]
    assert len(merged) == 2
    assert all(l.loc_class == UNRESOLVED for l in merged)
    # the fused blob then stands still long enough to classify on its own
    assert any(l.loc_class == STILL_LIFE and l.size == 7 for l in locs)


def test_split_terminates_the_parent():
    frames = [
        grid_with(10, 12, {(5, 5): 1, (5, 6): 1}),
        grid_with(10, 12, {(5, 4): 1, (5, 7): 1}),
        grid_with(10, 12, {(5, 4): 1, (5, 7): 1}),
    ]
    locs = track(make_trajectory(frames))
    assert sum(1 for l in locs if l.terminated == "split") == 1
    assert all(l.loc_class == UNRESOLVED for l in locs if l.terminated == "split")


def test_near_collision_terminates_by_proximity():
    # two cells closing to a one-cell gap: close enough to interact, so
    # identity becomes unreliable and both tracks must end
    frames = [
        grid_with(10, 14, {(5, 3): 1, (5, 10): 2}),
        grid_with(10, 14, {(5, 4): 1, (5, 9): 2}),
        grid_with(10, 14, {(5, 5): 1, (5, 8): 2}),
        grid_with(10, 14, {(5, 5): 1, (5, 7): 2}),
    ]
    locs = track(make_trajectory(frames))
    prox = [l for l in locs if l.terminated == "proximity"]
    assert len(prox) >= 2
    assert all(l.loc_class == UNRESOLVED for l in prox)


def test_proximity_clash_in_the_first_frame_ends_both_tracks_there():
    # two cells two apart from the start: both tracks end by proximity at
    # frame 0, before any linking has happened
    frames = [grid_with(10, 14, {(5, 5): 1, (5, 7): 2}) for _ in range(4)]
    locs = track(Trajectory(frames, t0=40))
    first = [l for l in locs if l.first_frame == 40]
    assert len(first) == 2
    for loc in first:
        assert loc.terminated == "proximity"
        assert loc.frames == 1
        assert loc.loc_class == UNRESOLVED


def test_track_rejects_odd_height():
    with pytest.raises(ValueError):
        track(make_trajectory([Grid.filled(5, 6)]))


def test_track_windows_the_trailing_frames():
    # a run trimmed by keep_last tracks the whole run's tail, and first_frame
    # counts from the trimmed trajectory's t0
    seed, rule = bundled_glider_seed(), bundled_glider_rule()
    tail = track(run(seed, rule, 30, keep_last=7))
    whole = track(run(seed, rule, 30))
    assert [l.loc_class for l in tail] == [l.loc_class for l in whole] == [GLIDER]
    assert (tail[0].first_frame, tail[0].frames) == (24, 7)
    assert tail[0].shapes == whole[0].shapes[-7:]
    assert track(Trajectory([grid_with(12, 12, TRIPLE)] * 3, t0=100))[0].first_frame == 100


def test_classify_requires_two_full_periods():
    frames = east_glider_frames(12, 24, row=5, col0=4, steps=3)
    locs = track(make_trajectory(frames))
    # three frames cannot establish a period-2 recurrence twice over
    assert [l.loc_class for l in locs] == [UNRESOLVED]


def test_classify_is_idempotent_and_pure_on_caches():
    frames = [grid_with(12, 12, TRIPLE) for _ in range(6)]
    loc = track(make_trajectory(frames))[0]
    first = classify(loc)
    assert classify(loc) == first == loc.loc_class


def test_classify_skips_a_period_whose_anchor_steps_differ():
    # the shape recurs every frame, but the anchor steps alternate (0, 1), (0, 2):
    # period 1 fails on the steps, period 2 moves (0, 3) each time
    shape = ((0, 0, 1),)
    anchors = [(0, 0), (0, 1), (0, 3), (0, 4), (0, 6), (0, 7)]
    loc = Localization(first_frame=0, shapes=[shape] * 6, anchors=anchors)
    assert classify(loc) == GLIDER
    assert (loc.period, loc.displacement) == (2, (0, 3))


def test_track_rejects_a_p_max_below_one():
    with pytest.raises(ValueError, match="p_max must be >= 1"):
        track(make_trajectory([grid_with(12, 12, TRIPLE)] * 3), p_max=0)


@pytest.mark.parametrize("p_max", [2.5, "12", None])
def test_track_rejects_a_non_integer_p_max_before_scanning(p_max, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a frame was scanned")

    monkeypatch.setattr(detector, "_scan", no_scan)
    tr = make_trajectory([grid_with(12, 12, TRIPLE)] * 3)
    for tracker in (track, detector._mobile_tracks):
        with pytest.raises(ValueError, match="p_max must be an integer"):
            tracker(tr, p_max)


def _three_frames(h, still):
    """Three frames of an ``h`` x 6 torus: an A cell, and a B cell that stays or moves."""
    frames = [grid_with(h, 6, {(1, 1): 1, (3, 0 if still else k): 2}) for k in range(3)]
    return make_trajectory(frames)


@pytest.mark.parametrize("still", [True, False], ids=["still", "moving"])
@pytest.mark.parametrize(
    "h, p_max, match",
    [(5, 12, "even grid height"), (6, 0, "p_max must be >= 1"), (6, 2.5, "must be an integer")],
    ids=["odd-height", "p_max-0", "p_max-2.5"],
)
def test_boundary_errors_come_before_any_track(still, h, p_max, match):
    tr = _three_frames(h, still)
    assert len({grid.cells.tobytes() for grid in tr.frames}) == (1 if still else 3)
    for tracker in (track, detector._mobile_tracks):
        with pytest.raises(ValueError, match=match):
            tracker(tr, p_max)
    for shaped in ("all", "unflagged"):
        with pytest.raises(ValueError, match=match):
            next(detector._ends(tr, p_max, shaped))


# -- fitness --------------------------------------------------------------------


def test_fitness_of_the_extinction_rule_is_zero():
    rule = RuleMatrix.from_genome("S" * 36)
    cfg = FitnessConfig(width=32, height=32, steps=40, window=16, trials=2)
    assert fitness(rule, cfg, np.random.default_rng(0)) == 0.0


def test_fitness_is_deterministic_per_seed():
    rng = np.random.default_rng(3)
    rule = random_rule(rng)
    cfg = FitnessConfig(width=24, height=24, patch_width=8, patch_height=8,
                        steps=30, window=12, trials=2)
    a = fitness(rule, cfg, np.random.default_rng(11))
    b = fitness(rule, cfg, np.random.default_rng(11))
    assert a == b


# rule 135 of enumerate_rules(reference_reduced_set()): its class-sweep soups
# settle and leave gliders and puffer trains (first_soup 0 in the census fixture)
SETTLING_MOBILE_RULE = "SSSSSSSSSAASSSSSBASSSSASSSASSSSSSSSS"

# a 6-column torus, where the dense rule's soups hold components that occupy every
# column with no other component within two cells, so the mobile path shapes them
NARROW_TORUS = FitnessConfig(width=6, height=24, patch_width=6, patch_height=6, steps=40, window=24)

MOBILE_PATH_CASES = {
    "bundled": lambda: (bundled_glider_rule(), FitnessConfig(), [0, 1, 3]),
    "puffer": lambda: (RuleMatrix.from_genome(PUFFER_RULE), FitnessConfig(), [1, 2]),
    "dense": lambda: (random_rule(np.random.default_rng(5)), FitnessConfig(), [0, 1, 2, 3, 4]),
    "class-settling": lambda: (
        RuleMatrix.from_genome(SETTLING_MOBILE_RULE),
        FitnessConfig(**CLASS_SWEEP_PROTOCOL),
        [[135, 0], [135, 1], [135, 6], [135, 7]],  # census seeds; soup 1 leaves none
    ),
    "dense-narrow-torus": lambda: (random_rule(np.random.default_rng(5)), NARROW_TORUS, [0, 1, 2]),
}


@pytest.mark.parametrize("name", sorted(MOBILE_PATH_CASES))
def test_mobile_localizations_are_the_mobile_tracks_of_the_soup(name):
    rule, cfg, seeds = MOBILE_PATH_CASES[name]()
    found = Counter()
    for seed in seeds:
        got = mobile_localizations(rule, cfg, seed)
        want = [l for l in soup_localizations(rule, cfg, seed) if l.loc_class in MOBILE_CLASSES]
        assert len(got) == len(want)
        assert localizations_digest(got) == localizations_digest(want)
        found.update(l.loc_class for l in got)
    if name.startswith("dense"):
        assert not found  # thousands of tracks, all Unresolved
    else:
        assert found[GLIDER] and found[PUFFER_TRAIN]


def test_the_mobile_path_lifts_unflagged_components_that_span_the_torus(monkeypatch):
    rule, cfg, seeds = MOBILE_PATH_CASES["dense-narrow-torus"]()
    unwrap, lifted = detector._unwrap, []

    def spy(cells, *args):
        lifted.append(len(cells))
        return unwrap(cells, *args)

    monkeypatch.setattr(detector, "_unwrap", spy)
    for seed in seeds:
        lifted.clear()
        mobile_localizations(rule, cfg, seed)
        assert lifted  # only unflagged components reach _unwrap on this path


@pytest.mark.parametrize("name", ["bundled", "dense"])
def test_the_mobile_path_extends_no_track_onto_a_flagged_component(name, monkeypatch):
    rule, cfg, seeds = MOBILE_PATH_CASES[name]()
    extend, onto_flagged = detector._Track.extend, []

    def spy(self, frame, k, *args):
        onto_flagged.append(bool(frame.clash[k]))
        return extend(self, frame, k, *args)

    monkeypatch.setattr(detector._Track, "extend", spy)
    for seed in seeds:
        mobile_localizations(rule, cfg, seed)
    assert not any(onto_flagged)
    # the bundled soups leave gliders, whose tracks extend; no dense one lives past a frame
    assert bool(onto_flagged) == (name == "bundled")


def _components(tr):
    """All components and unflagged ones, over the distinct grids of ``tr``."""
    grids = {grid.cells.tobytes(): grid.cells for grid in tr.frames}.values()
    frames = [detector._scan(cells[None], "none")[0] for cells in grids]
    return sum(len(f) for f in frames), sum(int(np.count_nonzero(~f.clash)) for f in frames)


@pytest.mark.parametrize("name", ["bundled", "dense", "class-settling", "dense-narrow-torus"])
def test_only_track_shapes_the_flagged_components(name, monkeypatch):
    rule, cfg, seeds = MOBILE_PATH_CASES[name]()
    shapes, shaped = detector._shapes, []

    def spy(cells, states, bounds, *args):
        shaped.append(len(bounds) - 1)
        return shapes(cells, states, bounds, *args)

    monkeypatch.setattr(detector, "_shapes", spy)
    skipped = 0
    for seed in seeds[:2]:
        every, unflagged = _components(detector._soup(rule, cfg, seed))
        shaped.clear()
        mobile_localizations(rule, cfg, seed)
        assert sum(shaped) == unflagged
        shaped.clear()
        soup_localizations(rule, cfg, seed)
        assert sum(shaped) == every
        skipped += every - unflagged
    # the settling soups flag no component; the others flag some
    assert (skipped == 0) == (name == "class-settling")


@pytest.mark.parametrize("count_puffers", [True, False])
@pytest.mark.parametrize("name", ["bundled", "puffer"])
def test_fitness_counts_the_mobile_tracks_of_its_soups(name, count_puffers):
    rule, _, _ = MOBILE_PATH_CASES[name]()
    cfg = FitnessConfig(trials=3, count_puffers=count_puffers)
    seeds = np.random.default_rng(4).integers(0, 2**63, size=cfg.trials)
    total = sum(count_mobile(soup_localizations(rule, cfg, int(s)), count_puffers) for s in seeds)
    assert total > 0
    assert fitness(rule, cfg, np.random.default_rng(4)) == total / (cfg.width * cfg.height * cfg.trials)


def test_random_patch_grid_confines_seeding_to_the_patch():
    cfg = FitnessConfig(width=32, height=32, patch_width=8, patch_height=8)
    g = random_patch_grid(cfg, np.random.default_rng(5))
    assert g.shape == (32, 32)
    outside = g.cells.copy()
    outside[12:20, 12:20] = 0
    assert outside.sum() == 0


def test_a_patch_with_no_substrate_draws_none():
    # 1.0 - 0.07 - 0.93 rounds to -1.1e-16, which numpy rejects as a probability;
    # every two-decimal pair that sums to one must give a patch without S
    drawn = 0
    for i in range(101):
        p_a, p_b = i / 100, (100 - i) / 100
        if p_a + p_b > 1:
            continue  # FitnessConfig rejects the pair
        cfg = FitnessConfig(width=8, height=8, patch_width=4, patch_height=4, p_a=p_a, p_b=p_b)
        patch = random_patch_grid(cfg, np.random.default_rng(i)).cells[2:6, 2:6]
        assert patch.all(), (p_a, p_b)
        drawn += 1
    assert drawn > 80


def test_count_mobile_respects_the_puffer_flag():
    a = Localization(first_frame=0)
    a.loc_class = GLIDER
    b = Localization(first_frame=0)
    b.loc_class = PUFFER_TRAIN
    c = Localization(first_frame=0)
    c.loc_class = STILL_LIFE
    assert count_mobile([a, b, c]) == 2
    assert count_mobile([a, b, c], count_puffers=False) == 1


def test_localization_is_slotted():
    loc = Localization(first_frame=0)
    assert not hasattr(loc, "__dict__")
    with pytest.raises(AttributeError):
        loc.note = "ad hoc"


def test_localizations_round_trip_through_pickle_and_deepcopy():
    locs = soup_localizations(RuleMatrix.from_genome(PUFFER_RULE), FitnessConfig(), 3)
    assert {loc.loc_class for loc in locs} >= {PUFFER_TRAIN, UNRESOLVED}
    assert {loc.terminated for loc in locs} >= {None, "proximity"}
    for loc in locs:
        for twin in (pickle.loads(pickle.dumps(loc)), copy.deepcopy(loc)):
            assert type(twin) is Localization
            for f in fields(Localization):
                a, b = getattr(loc, f.name), getattr(twin, f.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), f.name
                else:
                    assert a == b, f.name


def test_report_rows_format():
    frames = east_glider_frames(12, 24, row=5, col0=4, steps=10)
    locs = track(make_trajectory(frames))
    rows = report_rows(locs, trial=3)
    assert rows == ["3,Glider,2,0,2,2,0"]


def test_fitness_config_validation():
    with pytest.raises(ValueError):
        FitnessConfig(width=8, patch_width=16)
    with pytest.raises(ValueError):
        FitnessConfig(p_a=0.7, p_b=0.7)
    with pytest.raises(ValueError):
        FitnessConfig(steps=10, window=20)
    with pytest.raises(ValueError, match="even grid height"):
        FitnessConfig(height=63, patch_height=15)
    with pytest.raises(ValueError, match="trials"):
        FitnessConfig(trials=0)
    with pytest.raises(ValueError, match="non-negative"):
        FitnessConfig(p_a=-0.1, p_b=0.5)
    with pytest.raises(ValueError, match="non-negative"):
        FitnessConfig(p_a=0.5, p_b=-0.1)
    with pytest.raises(ValueError, match="window"):
        FitnessConfig(window=0)
    with pytest.raises(ValueError, match="p_max"):
        FitnessConfig(p_max=0)
    with pytest.raises(ValueError, match="at least 3x3"):
        FitnessConfig(width=2, height=2, patch_width=1, patch_height=1)
    with pytest.raises(ValueError, match="at least 3x3"):
        FitnessConfig(width=2, patch_width=2)
    with pytest.raises(ValueError, match="non-negative"):
        FitnessConfig(patch_width=-1)
    with pytest.raises(ValueError, match="non-negative"):
        FitnessConfig(patch_height=-2)
    with pytest.raises(ValueError, match="p_a"):
        FitnessConfig(p_a=float("nan"))
    with pytest.raises(ValueError, match="p_b"):
        FitnessConfig(p_b=float("nan"))
    with pytest.raises(ValueError, match="trials"):
        FitnessConfig(trials=1.5)
    with pytest.raises(ValueError, match="steps"):
        FitnessConfig(steps=2.5)
    with pytest.raises(ValueError, match="patch_width"):
        FitnessConfig(patch_width=8.0)
    FitnessConfig(patch_height=0)  # an empty soup is a valid run
    FitnessConfig(steps=np.int64(100), trials=np.int32(2))  # numpy integers are integers


@pytest.mark.parametrize("flag", ["no", "", 0, 1, None])
def test_fitness_config_requires_a_bool_count_puffers(flag):
    with pytest.raises(ValueError, match="count_puffers must be True or False"):
        FitnessConfig(count_puffers=flag)
    assert not FitnessConfig(count_puffers=np.bool_(False)).count_puffers


# -- metamorphic: classes do not depend on placement, the A/B labels or reflections --


def _census(tr):
    return Counter(
        (l.loc_class, l.period, l.displacement, l.terminated, l.first_frame, l.frames, l.size)
        for l in track(tr)
    )


def _swap_ab(cells):
    return np.array([0, 2, 1], dtype=np.uint8)[cells]


def _conjugate(rule):
    """The rule that runs A<->B-swapped grids: M'[i, j] = swap(M[j, i])."""
    return RuleMatrix.from_entries(
        {(i, j): int(_swap_ab(rule.table[j, i])) for i, j in PAIRS}
    )


# a one-letter mutant of the bundled rule whose soups explode: 1660 of the
# 4096 cells are non-S after 200 steps of soup-0
EXPLOSIVE_RULE = "SSSSSSSSABASSSSBSSSSSSASSSSSSSSSSSSS"


def _soup(seed):
    return random_patch_grid(FitnessConfig(), np.random.default_rng(seed))


METAMORPHIC_CASES = {
    "soup-0": lambda: (bundled_glider_rule(), _soup(0)),
    "soup-1": lambda: (bundled_glider_rule(), _soup(1)),
    "lone-glider": lambda: (bundled_glider_rule(), bundled_glider_seed()),
    "explosive-mutant-soup": lambda: (RuleMatrix.from_genome(EXPLOSIVE_RULE), _soup(0)),
    "dense-rule-soup": lambda: (random_rule(np.random.default_rng(5)), _soup(0)),
}


@pytest.mark.parametrize("name", sorted(METAMORPHIC_CASES))
def test_census_is_invariant_under_translation(name):
    rule, grid = METAMORPHIC_CASES[name]()
    base = _census(run(grid, rule, 200, keep_last=48))
    if name == "lone-glider":
        assert base == Counter({(GLIDER, 2, (2, -2), None, 153, 48, 4): 1})
    for dr, dc in [(10, 23), (32, 7), (-6, 1)]:
        assert _census(run(grid.translate(dr, dc), rule, 200, keep_last=48)) == base


@pytest.mark.parametrize("name", sorted(METAMORPHIC_CASES))
def test_census_is_invariant_under_the_ab_swap(name):
    rule, grid = METAMORPHIC_CASES[name]()
    base = _census(run(grid, rule, 200, keep_last=48))
    tr = run(Grid(_swap_ab(grid.cells)), _conjugate(rule), 200, keep_last=48)
    assert np.array_equal(tr[-1].cells, _swap_ab(run(grid, rule, 200)[-1].cells))
    assert _census(tr) == base


def _point_reflection(cells):
    """Axial (q, r) -> (-q, -r): offset (row, col) -> (-row, -col - row % 2)."""
    h, w = cells.shape
    rows, cols = np.indices(cells.shape)
    out = np.empty_like(cells)
    out[-rows % h, (-cols - (rows & 1)) % w] = cells
    return out


def _mirror(cells):
    """Axial (q, r) -> (-q - r, r): offset (row, col) -> (row, -col - row % 2)."""
    w = cells.shape[1]
    rows, cols = np.indices(cells.shape)
    out = np.empty_like(cells)
    out[rows, (-cols - (rows & 1)) % w] = cells
    return out


# each reflection of the grid, and where it takes a displacement (dr, dq)
REFLECTIONS = {
    "point": (_point_reflection, lambda dr, dq: (-dr, -dq)),
    "mirror": (_mirror, lambda dr, dq: (dr, -dq - dr)),
}


@pytest.mark.parametrize("reflection", sorted(REFLECTIONS))
@pytest.mark.parametrize("name", sorted(METAMORPHIC_CASES))
def test_census_maps_through_the_reflections(name, reflection):
    # a reflection swaps the half ring the clash gather reads with its reverse
    reflect, move = REFLECTIONS[reflection]
    rule, grid = METAMORPHIC_CASES[name]()
    base = run(grid, rule, 200, keep_last=48)
    tr = run(Grid(reflect(grid.cells)), rule, 200, keep_last=48)
    assert all(np.array_equal(a.cells, reflect(b.cells)) for a, b in zip(tr.frames, base.frames))
    want = Counter()
    for (cls, period, disp, *rest), count in _census(base).items():
        want[(cls, period, None if disp is None else move(*disp), *rest)] += count
    assert _census(tr) == want
