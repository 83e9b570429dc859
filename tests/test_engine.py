"""Stepping: fast kernel vs reference, invariances, trajectories, dumps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hexreact import engine, hexgrid
from hexreact.engine import (
    Trajectory,
    frames_to_text,
    grid_to_pgm,
    parse_frames,
    run,
    signature_index,
    step,
    step_reference,
)
from hexreact.hexgrid import CellState, Grid, neighbor_table, neighborhood
from hexreact.rules import RuleMatrix, random_rule


def random_grid(rng, h, w):
    return Grid(rng.integers(0, 3, size=(h, w)))


def test_quiescent_grid_is_a_fixed_point():
    rng = np.random.default_rng(0)
    g = Grid.filled(8, 8)
    for _ in range(50):
        rule = random_rule(rng)
        assert step(g, rule) == g


def test_lone_reactant_dies_under_the_all_s_rule():
    g = Grid.filled(6, 6)
    g[3, 3] = CellState.A
    rule = RuleMatrix.from_genome("S" * 36)
    assert step(g, rule) == Grid.filled(6, 6)


def test_fast_kernel_matches_reference_on_random_cases():
    rng = np.random.default_rng(101)
    for _ in range(25):
        h, w = (int(v) for v in rng.integers(3, 12, size=2))
        h += h & 1  # even heights: the geometry the package guarantees
        g = random_grid(rng, h, w)
        rule = random_rule(rng)
        assert step(g, rule) == step_reference(g, rule)


def test_neighbor_visit_order_cannot_matter():
    # The rule only sees counts, so a reference stepper that shuffles the
    # order in which it visits the six neighbours must agree exactly.
    rng = np.random.default_rng(55)
    for _ in range(10):
        g = random_grid(rng, 8, 8)
        rule = random_rule(rng)
        assert step(g, rule) == step_reference(g, rule, rng=rng)


def test_step_is_translation_equivariant():
    rng = np.random.default_rng(77)
    for _ in range(20):
        g = random_grid(rng, 8, 10)
        rule = random_rule(rng)
        dr = 2 * int(rng.integers(0, 4))
        dc = int(rng.integers(0, 10))
        assert step(g.translate(dr, dc), rule) == step(g, rule).translate(dr, dc)


def test_step_leaves_input_untouched():
    rng = np.random.default_rng(4)
    g = random_grid(rng, 6, 6)
    before = g.cells.copy()
    step(g, random_rule(rng))
    assert np.array_equal(g.cells, before)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.tuples(st.integers(3, 9), st.integers(3, 9)).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 2))
    )
)
@example(np.array([[1, 2, 0], [0, 1, 2], [2, 0, 1]], dtype=np.uint8))  # odd height, width 3
@example(np.arange(28, dtype=np.uint8).reshape(4, 7) % 3)
def test_signature_index_counts_each_neighborhood(cells):
    # the pair sums run over both wrap columns, so width 3 and odd heights
    # reach every border case
    g = Grid(cells)
    h, w = g.shape
    expected = np.empty((h, w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            states = [int(g.cells[rc]) for rc in neighborhood(g, (r, c))]
            expected[r, c] = states.count(1) + 8 * states.count(2)
    got = signature_index(g)
    assert got.dtype == np.uint8 and got.shape == (h, w)
    assert np.array_equal(got, expected)


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(3, 40), st.integers(3, 40))
@example(3, 3)
@example(5, 3)  # odd height, width 3
@example(40, 40)
def test_layout_ghosts_hold_the_torus_neighbours(h, w):
    # label every cell by its flat index and every other position with junk,
    # then refresh as the kernel does: each of the six fixed offsets of every
    # cell must hold the neighbour neighbor_table names, and no position the
    # kernel reads may keep its junk
    lay = engine._layout(h, w)
    s, lo, hi = lay.stride, lay.lo, lay.hi
    assert s == w + 4 and lo % 2 == 0 and (hi - lo) % 2 == 0 and lay.size == hi + s
    r = np.arange(h)[:, None]
    assert np.array_equal(lay.cells, lo + r * s + np.arange(w) - r // 2)
    assert lay.cells.min() >= lo and lay.cells.max() < hi
    assert lo - s >= 1  # position 0, the source of ghosts no cell reads, is never read
    cells = lay.cells.ravel()
    buf = np.full(lay.size, -2, dtype=np.int64)
    buf[0] = -1
    buf[cells] = np.arange(h * w)
    buf[lay.ghosts] = buf[lay.sources]
    offsets = np.array([1, s, s - 1, -1, -s, 1 - s])  # E, SE, SW, W, NW, NE
    assert np.array_equal(buf[cells[:, None] + offsets], neighbor_table(h, w)[:, 1:])
    # the adds read positions lo - s .. hi + s - 1, the buffer past position 0
    read = set(range(lo - s, lay.size))
    assert read - set(cells.tolist()) <= set(lay.ghosts.tolist())
    assert not set(lay.ghosts.tolist()) & set(cells.tolist())
    assert (buf[lo - s :] >= -1).all()


# -- run/trajectory ------------------------------------------------------------


def test_run_zero_steps_returns_just_the_start():
    g = Grid.filled(4, 4)
    tr = run(g, RuleMatrix.from_genome("S" * 36), 0, keep_last=1)
    assert len(tr) == 1
    assert tr[0] == g
    assert tr.t0 == 0


def test_run_rejects_negative_steps_and_an_empty_window():
    g, rule = Grid.filled(4, 4), RuleMatrix.from_genome("S" * 36)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        run(g, rule, -1)
    with pytest.raises(ValueError, match="keep_last must keep at least one frame"):
        run(g, rule, 3, keep_last=0)


@pytest.mark.parametrize("steps, keep_last, name", [(2.5, None, "steps"), ("3", None, "steps"),
                                                    (None, 2, "steps"), (3, 1.5, "keep_last"),
                                                    (3, 2.0, "keep_last")])
def test_run_rejects_a_non_integer_count_by_name(steps, keep_last, name):
    g, rule = Grid.filled(4, 4), RuleMatrix.from_genome("S" * 36)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        run(g, rule, steps, keep_last=keep_last)


def test_run_takes_numpy_integers():
    g, rule = Grid.filled(4, 4), RuleMatrix.from_genome("S" * 36)
    assert len(run(g, rule, np.int64(3), keep_last=np.int32(2))) == 2


def test_run_returns_all_frames_by_default():
    rng = np.random.default_rng(31)
    g = random_grid(rng, 6, 6)
    rule = random_rule(rng)
    tr = run(g, rule, 10)
    assert len(tr) == 11
    for t in range(10):
        assert tr[t + 1] == step(tr[t], rule)


def test_run_keep_last_matches_independent_composition():
    rng = np.random.default_rng(32)
    g = random_grid(rng, 6, 6)
    rule = random_rule(rng)
    tr = run(g, rule, 10, keep_last=1)
    assert len(tr) == 1
    assert tr.t0 == 10
    expected = g
    for _ in range(10):
        expected = step(expected, rule)
    assert tr[0] == expected

    window = run(g, rule, 10, keep_last=4)
    assert window.t0 == 7
    assert window[-1] == expected


def test_run_matches_iterated_reference_stepper():
    # run's frames and t0 against step_reference iterated by hand, on odd
    # and even sizes, including odd heights, for every kind of keep_last
    rng = np.random.default_rng(61)
    for _ in range(24):
        h, w = (int(v) for v in rng.integers(3, 14, size=2))
        g = random_grid(rng, h, w)
        rule = random_rule(rng)
        steps = int(rng.integers(0, 61))
        expected = [g]
        for _ in range(steps):
            expected.append(step_reference(expected[-1], rule))
        for keep_last in (None, 1, steps // 2 + 1, steps + 2 + int(rng.integers(0, 5))):
            tr = run(g, rule, steps, keep_last=keep_last)
            kept = expected if keep_last is None else expected[-keep_last:]
            assert tr.t0 == steps + 1 - len(kept), (h, w, steps, keep_last)
            assert tr.frames == kept, (h, w, steps, keep_last)
            arrays = [g.cells] + [f.cells for f in tr.frames]
            for a in range(len(arrays)):
                for b in range(a + 1, len(arrays)):
                    assert not np.shares_memory(arrays[a], arrays[b])


# -- run against a plain step loop --------------------------------------------------
#
# ``run`` stops stepping once the soup repeats a state and replays the cycle.
# These tests hold it to the loop that steps every frame, kept here as the
# oracle, on soups that settle before, inside and after the kept window.

# Reference-class soups (12x12, 30% reactant) and when they settle: the
# first frame that repeats an earlier one, and the cycle period.
SETTLING_SOUPS = {
    "fixed point": ("SSSSSSSSSASSSSSSSSSSSAASSSASSSSSSSSS", [7, 0]),  # frame 12, period 1
    "period 2": ("SSSASSSSSASSSSSSSSSSSBSSSSSSSSSSSSSS", [224, 1]),  # frame 9, period 2
}


def settling_soup(name):
    genome, seed = SETTLING_SOUPS[name]
    rng = np.random.default_rng(seed)
    cells = np.where(rng.random((12, 12)) < 0.3, rng.integers(1, 3, size=(12, 12)), 0)
    return RuleMatrix.from_genome(genome), Grid(cells)


def assert_run_matches_step_loop(grid, rule, steps, keep_last, stepper=step):
    expected = [grid]
    for _ in range(steps):
        expected.append(stepper(expected[-1], rule))
    kept = expected if keep_last is None else expected[-keep_last:]
    tr = run(grid, rule, steps, keep_last=keep_last)
    assert tr.t0 == steps + 1 - len(kept)
    assert tr.frames == kept
    # every kept frame is its own Grid: changing one leaves the rest alone
    for k, frame in enumerate(tr.frames):
        frame.cells[0, 0] ^= 3
        assert all(other == kept[m] for m, other in enumerate(tr.frames) if m != k)
        frame.cells[0, 0] ^= 3
    assert grid == expected[0]


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.tuples(st.integers(3, 8), st.integers(3, 8)).flatmap(
        lambda shape: arrays(np.uint8, shape, elements=st.integers(0, 2))
    ),
    # mostly-S rules, so that small soups often settle within the run
    st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=35, max_size=35),
    st.integers(0, 60),
    st.one_of(st.none(), st.just(1), st.integers(1, 64)),
)
def test_run_equals_the_step_loop(cells, entries, steps, keep_last):
    assert_run_matches_step_loop(Grid(cells), RuleMatrix([0] + entries), steps, keep_last)


@pytest.mark.parametrize("name", sorted(SETTLING_SOUPS))
@pytest.mark.parametrize("keep_last", [None, 1, 5, 35])
def test_run_replays_a_settled_soup(name, keep_last):
    # 40 steps: a window of 5 starts after the soup settles, one of 35 before
    rule, grid = settling_soup(name)
    assert_run_matches_step_loop(grid, rule, 40, keep_last, stepper=step_reference)


def test_run_checks_a_replayed_state_once(monkeypatch):
    # the soup settles by frame 12, so a window of 5 after 40 steps is all
    # replay: one cycle state is checked into a Grid, and its copies are not
    rule, grid = settling_soup("fixed point")
    checks = []
    check = hexgrid.as_states

    def spy(*args):
        checks.append(1)
        return check(*args)

    monkeypatch.setattr(hexgrid, "as_states", spy)
    run(grid, rule, 40, keep_last=5)
    assert len(checks) == 1


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 10, 11])
@pytest.mark.parametrize("keep_last", [None, 1, 4])
def test_run_replays_a_period_two_cycle_from_the_start(steps, keep_last):
    # all A turns all B, which turns all A again
    rule = RuleMatrix.from_entries({(7, 0): 2, (0, 7): 1})
    grid = Grid.filled(4, 4, CellState.A)
    assert_run_matches_step_loop(grid, rule, steps, keep_last, stepper=step_reference)
    expected = [Grid.filled(4, 4, CellState.A + t % 2) for t in range(steps + 1)]
    assert run(grid, rule, steps).frames == expected


def brent_passes(states, total):
    """Kernel passes of a run of ``total`` frames under Brent's documented schedule.

    ``states[t]`` is state ``t``.  The key of step ``t`` stands for the state
    it reads, ``t - 1``; the saved key moves to step ``t`` when the steps
    since the save reach a power of two.  At the first match, ``p`` steps after
    the save, ``p - 1`` more passes (fewer if the run ends) collect the cycle.
    """
    saved, saved_t, power = None, 0, 1
    for t in range(1, total):
        key = states[t - 1].cells.tobytes()
        if key == saved:
            p = t - saved_t
            return t + min(p, total - t) - 1
        if t - saved_t == power:
            saved, saved_t, power = key, t, 2 * power
    return total - 1


def count_passes(monkeypatch, grid, rule, steps, keep_last):
    passes = []
    kernel = engine._signatures

    def spy(*args):
        passes.append(1)
        return kernel(*args)

    monkeypatch.setattr(engine, "_signatures", spy)
    run(grid, rule, steps, keep_last=keep_last)
    return len(passes)


@pytest.mark.parametrize("name", sorted(SETTLING_SOUPS))
@pytest.mark.parametrize("steps, keep_last", [(40, None), (40, 1), (13, 5), (200, 60)])
def test_run_stops_stepping_where_brents_schedule_says(name, steps, keep_last, monkeypatch):
    # a position the kernel reads but does not refresh would make the key
    # depend on more than the state, and equal states could then miss the
    # match: every frame would still be right, only the early exit would go
    rule, grid = settling_soup(name)
    states = [grid]
    for _ in range(steps):
        states.append(step_reference(states[-1], rule))
    expected = brent_passes(states, steps + 1)
    assert count_passes(monkeypatch, grid, rule, steps, keep_last) == expected
    if steps >= 40:  # both soups settle by frame 12, so the run stops early
        assert expected < steps


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 4, 10, 11])
def test_run_stops_stepping_a_period_two_cycle_at_once(steps, monkeypatch):
    # the key of step 3 matches the one saved at step 1, and one more pass
    # collects the cycle: four passes however long the run
    rule = RuleMatrix.from_entries({(7, 0): 2, (0, 7): 1})
    grid = Grid.filled(4, 4, CellState.A)
    states = [Grid.filled(4, 4, CellState.A + t % 2) for t in range(steps + 1)]
    expected = brent_passes(states, steps + 1)
    assert expected == min(steps, 4)
    assert count_passes(monkeypatch, grid, rule, steps, 1) == expected


def test_trajectory_needs_frames():
    with pytest.raises(ValueError):
        Trajectory([])


@pytest.mark.parametrize("other", [(8, 16), (16, 8)])
def test_trajectory_rejects_frames_of_mixed_shapes(other):
    # the tracker reads every frame's flat indices against frame 0's size:
    # these alternations once came out as a Glider and a StillLife
    frames = []
    for shape in [(8, 8), other] * 2:
        grid = Grid.filled(*shape)
        grid[2, 2] = grid[2, 3] = 1
        frames.append(grid)
    with pytest.raises(ValueError, match="one shape"):
        Trajectory(frames)


def test_some_rule_supports_a_small_oscillator():
    # Search seeded sparse rules (mostly-S entries keep dynamics local) for a
    # two-frame cycle reachable from a single reactant.  Uniformly random
    # rules almost always explode or die, so the draw is biased toward S.
    rng = np.random.default_rng(2024)
    found = None
    for _ in range(800):
        entries = np.where(rng.random(36) < 0.75, 0, rng.integers(1, 3, size=36))
        entries[0] = 0
        rule = RuleMatrix(entries)
        g = Grid.filled(10, 10)
        g[4, 4] = CellState.A
        tr = run(g, rule, 8)
        for t in range(5):
            if tr[t].population() and tr[t + 2] == tr[t] != tr[t + 1]:
                found = (rule, tr[t])
                break
        if found:
            break
    assert found is not None, "no period-2 seed found in the sample budget"
    rule, g = found
    tr = run(g, rule, 6)
    for t in range(0, 5, 2):
        assert tr[t] == g
        assert tr[t + 1] != g


# -- exports --------------------------------------------------------------------


def test_frame_dump_round_trip():
    rng = np.random.default_rng(9)
    g = random_grid(rng, 5, 4)
    rule = random_rule(rng)
    tr = run(g, rule, 3)
    text = frames_to_text(tr)
    frames = parse_frames(text)
    assert len(frames) == 4
    assert all(frames[t] == tr[t] for t in range(4))


def test_pgm_export_layout():
    g = Grid.filled(4, 5)
    g[0, 1] = CellState.A
    g[2, 3] = CellState.B
    raw = grid_to_pgm(g)
    assert raw.startswith(b"P5\n5 4\n255\n")
    pixels = raw.split(b"255\n", 1)[1]
    assert len(pixels) == 20
    assert pixels[1] == 128
    assert pixels[2 * 5 + 3] == 255
    assert pixels[0] == 0
