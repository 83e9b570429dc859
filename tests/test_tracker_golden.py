"""Golden tracker outputs, and the tracker front end against a BFS oracle.

Each golden case rebuilds a trajectory from a fixed seed with ``engine.run``
and tracks it; the sha256 over every field of every returned Localization, in
order, must match the stored digest.  The cases cover a bundled-rule soup, a
soup of the dense rule ``random_rule(default_rng(5))``, a lone glider that
crosses both seams, a soup that emits puffer trains, a soup whose patch
straddles both seams, and a small dense torus whose components wrap all the
way around it.  Four more are class-sweep soups (``CLASS_SWEEP_PROTOCOL``) of
reduced-class rules whose windows repeat frames: a fixed point that holds a
still pair two cells apart, a period-2 and a period-8 cycle, and a soup
stopped at step 60, whose period-10 cycle begins partway through its window.
The lone glider's window repeats too: the glider laps the torus, so its
frames recur, though never adjacent ones.  Regenerate the digests (only when
tracking is meant to change) with

    PYTHONPATH=src python tests/test_tracker_golden.py

The digests must not depend on how ``track`` cuts the frames into blocks
for its array pass: the cases are also tracked one frame per block and with
the whole window in one block.  A property test checks every per-frame field
of the pass, for every cut of a few random frames into blocks, against the
pass over that frame alone; the pass that shapes only the components not
flagged for proximity must differ from it only by None shapes and anchors at
the flagged ones.  Another checks ``_links`` on consecutive random frames
against the successor sets of each unflagged component's dilation.

The second half checks ``extract_components`` and ``canonical_shape`` (the
one-frame pass) on random small tori against an oracle that lives only here:
a torus BFS over ``hexgrid.neighborhood`` for components and dilations, the
dilations' shared cells for proximity flags and the ``reach`` map, a BFS
lift from each component's smallest cell for shapes and anchors, and the
shapes of translated copies.

Canonical shapes share one tuple per distinct triple (``detector._Triples``).
A property test checks ``_shapes`` on random blocks with seam and spanning
components against a fresh tuple per cell, from the shared table and from an
empty one, and the golden digests are checked from an empty table, with
grid sizes interleaved.

Still windows, one grid held over the whole window and built directly as a
``Trajectory`` at ``t0`` 5, have digests of their own, for ``track`` and for
``_mobile_tracks``, over window lengths 1, 2, 3 and 60 and ``p_max`` 1, 2 and
12.  Their grids are empty, a row around the torus, hand-placed flagged pairs,
a seeded sparse grid and the still-pair soup's settled frame.  An empty
still window is not scanned.
"""

import gc
import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hexreact import detector
from hexreact.analysis import CLASS_SWEEP_PROTOCOL, bundled_glider_rule, bundled_glider_seed
from hexreact.detector import (
    MOBILE_CLASSES,
    PUFFER_TRAIN,
    STILL_LIFE,
    UNRESOLVED,
    FitnessConfig,
    canonical_shape,
    extract_components,
    random_patch_grid,
    track,
)
from hexreact.engine import Trajectory, run
from hexreact.hexgrid import (
    EVEN_ROW_NEIGHBORS,
    ODD_ROW_NEIGHBORS,
    Grid,
    neighbor_table,
    neighborhood,
)
from hexreact.rules import RuleMatrix, random_rule

# a one-letter mutant of the bundled rule whose soups leave puffer trains
PUFFER_RULE = "SSSSSSSSABSSSSSBSSSSSAASSSSSSSSSSSSS"


def _soup(rule, seed, shift=(0, 0)):
    cfg = FitnessConfig()
    grid = random_patch_grid(cfg, np.random.default_rng(seed)).translate(*shift)
    return run(grid, rule, cfg.steps, keep_last=cfg.window)


def _class_soup(genome, seed, steps=CLASS_SWEEP_PROTOCOL["steps"]):
    cfg = FitnessConfig(**CLASS_SWEEP_PROTOCOL)
    grid = random_patch_grid(cfg, np.random.default_rng(seed))
    return run(grid, RuleMatrix.from_genome(genome), steps, keep_last=cfg.window)


def _dense_torus():
    rng = np.random.default_rng(1)
    grid = Grid(rng.choice(3, size=(16, 16), p=[0.7, 0.15, 0.15]))
    return run(grid, random_rule(np.random.default_rng(5)), 30, keep_last=24)


CASES = {
    "bundled-soup": lambda: _soup(bundled_glider_rule(), 2),
    "dense-soup": lambda: _soup(random_rule(np.random.default_rng(5)), 2),
    "lone-glider": lambda: run(bundled_glider_seed(), bundled_glider_rule(), 120),
    "puffer-soup": lambda: _soup(RuleMatrix.from_genome(PUFFER_RULE), 3),
    "seam-soup": lambda: _soup(bundled_glider_rule(), 2, shift=(32, 32)),
    "spanning-torus": _dense_torus,
    # rules of sample_rules(reference_reduced_set(), 40, default_rng(3))
    "still-pair": lambda: _class_soup("SSSASSSSSABSSSSSASSSSAASSSASSSSSSSSS", 0),
    "period-2": lambda: _class_soup("SSSSSSSSSASSSSSSASSSSBASSSASSSSSSSSS", 1),
    "period-8": lambda: _class_soup("SSSBSSSSSASSSSSSBSSSSSASSSASSSSSSSSS", 1),
    # stopped at step 60, so the window holds the steps before its period-10 cycle
    "settles-in-window": lambda: _class_soup("SSSSSSSSSAASSSSSASSSSBSSSSASSSSSSSSS", 1, steps=60),
}

# cases whose windows repeat frames: (distinct frames, first repeat, its period)
REPEATING = {
    "lone-glider": (96, 96, 96),
    "still-pair": (1, 1, 1),
    "period-2": (2, 2, 2),
    "period-8": (8, 8, 8),
    "settles-in-window": (36, 36, 10),
}

GOLDEN = {
    "bundled-soup": "87830af37391de162fffe1efac01cb28a5413c8759935a6770dc19367505cd4d",
    "dense-soup": "6f67ccd235754347257c486301eda39618b1b623b4bfe01b00297451c11a19e7",
    "lone-glider": "166387095a05c0ac49fb2b49e995435bdae9da4922e4e3b0bcb8d838c03368b5",
    "puffer-soup": "9ee29a20d59f9dc8de93affc9fcb46ceb3070fa3e3bd353d52841505b82e5252",
    "seam-soup": "09963cdc4f4fbaeb5fa525d3212f1990f02ee4cba44d77baa7bfe66412ae22c5",
    "spanning-torus": "7fb2ffaf9231575039b32049a38bfbfdd50dc185fb52bface5e74b0e67f866b2",
    "still-pair": "6295541676000a3607ca9f8fe108e3253e4cf99463940e6fcf6b8a0e6e08924a",
    "period-2": "2176ed888571d0ae7459aabe2efeb288763560568556fcbb6eeae1044fbc18dd",
    "period-8": "aab29c7cd7c222b6ded7cda633772c1a0177f083b2232993b06718511fbdda91",
    "settles-in-window": "37becbc0dbb5347888cee193e27c36249b39446081d7c2984eac7a9a5bf3cb5a",
}


def _array_bytes(arr) -> bytes:
    return b"None" if arr is None else arr.dtype.str.encode() + arr.tobytes()


def localizations_digest(locs) -> str:
    """sha256 over every field of every Localization, in list order."""
    h = hashlib.sha256()
    for loc in locs:
        for value in (
            loc.first_frame,
            loc.shapes,
            loc.anchors,
            loc.terminated,
            loc.has_trail,
            loc.trail_size,
            loc.period,
            loc.displacement,
            loc.loc_class,
        ):
            h.update(repr(value).encode() + b"|")
        h.update(_array_bytes(loc.cells_last) + b"|")
        h.update(_array_bytes(loc.states_last) + b";")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_tracker_outputs(name):
    locs = track(CASES[name]())
    assert localizations_digest(locs) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_proximity_kills_come_in_component_order(name):
    # components are numbered by their smallest cell, so tracks killed together
    # come in ascending first cell
    groups = {}
    for loc in track(CASES[name]()):
        if loc.terminated == "proximity":
            end = loc.first_frame + loc.frames - 1
            groups.setdefault((loc.first_frame, end), []).append(int(loc.cells_last[0]))
    assert all(firsts == sorted(firsts) for firsts in groups.values())


@pytest.mark.parametrize("budget", [0, 10**9], ids=["frame-per-block", "one-block"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_tracker_outputs_do_not_depend_on_blocks(name, budget, monkeypatch):
    scan, blocks = detector._scan, []

    def spy(block, *args):
        blocks.append([frame.tobytes() for frame in block])
        return scan(block, *args)

    monkeypatch.setattr(detector, "_BLOCK_CELLS", budget)
    monkeypatch.setattr(detector, "_scan", spy)
    tr = CASES[name]()
    locs = track(tr)
    assert localizations_digest(locs) == GOLDEN[name]
    # each distinct grid is scanned once, at its first occurrence
    distinct = list(dict.fromkeys(grid.cells.tobytes() for grid in tr.frames))
    cut = [[key] for key in distinct] if budget == 0 else [distinct]
    assert blocks == cut
    # the mobile path, which shapes only unflagged components, cuts alike and keeps
    # exactly track's mobile tracks; a still window holds none, and it scans nothing
    blocks.clear()
    mobile = [loc for loc in locs if loc.loc_class in MOBILE_CLASSES]
    assert localizations_digest(detector._mobile_tracks(tr, 12)) == localizations_digest(mobile)
    assert blocks == (cut if len(distinct) > 1 else [])


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(detector, name)

        def spy(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(detector, name, spy)
    return calls


# scans and _links calls per window (60 frames each; the lone glider's 121 frames
# hold 96 distinct grids, and 96 distinct pairs of consecutive grids); a still
# window's tracks come from its one scan, with no link
SETTLED_CALLS = {
    "still-pair": (1, 0),
    "period-2": (1, 1),
    "period-8": (1, 6),
    "lone-glider": (1, 96),
}


@pytest.mark.parametrize("name", sorted(SETTLED_CALLS))
def test_settled_windows_scan_link_and_check_proximity_once_per_repeat(name, monkeypatch):
    calls = _count_calls(monkeypatch, "_scan", "_links")
    assert localizations_digest(track(CASES[name]())) == GOLDEN[name]
    assert tuple(calls.values()) == SETTLED_CALLS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_proximity_ends_one_track_per_flagged_component(name):
    tr = CASES[name]()
    flagged = Counter({
        t: int(detector._scan(grid.cells[None])[0].clash.sum())
        for t, grid in enumerate(tr.frames, start=tr.t0)
    })
    ends = Counter(
        loc.first_frame + loc.frames - 1 for loc in track(tr) if loc.terminated == "proximity"
    )
    assert ends == flagged  # a Counter reads a missing key as zero


@pytest.mark.parametrize("name", sorted(CASES))
def test_ends_yields_finished_classified_localizations(name):
    ends = list(detector._ends(CASES[name](), 12, "all"))
    assert ends and all(type(loc) is detector.Localization for loc in ends)
    assert all(loc.loc_class and loc.cells_last is not None for loc in ends)


def test_a_track_holds_no_copy_of_the_step_table():
    # _ends holds the window's _steps table and hands it to _measure_trail,
    # which reads the cell and neighbour rows 0-6 of it
    assert detector._Track.__slots__ == ("loc", "places")


def _live_frames():
    return sum(type(obj) is detector._Frame for obj in gc.get_objects())


# most _Frames alive at once: the frame in hand and those kept for a later repeat
@pytest.mark.parametrize("name, most", [("bundled-soup", 1), ("still-pair", 1), ("period-8", 8)])
def test_frames_keep_a_scanned_frame_only_while_its_grid_recurs(name, most, monkeypatch):
    # one frame per block, so the block in hand holds just the frame in hand
    monkeypatch.setattr(detector, "_BLOCK_CELLS", 0)
    tr = CASES[name]()
    gc.collect()
    before = _live_frames()
    frames = detector._frames(tr, detector._first_ids(tr), "all")
    assert max(_live_frames() - before for _ in frames) == most


# -- the block pass ------------------------------------------------------------

FRAME_FIELDS = ("cells", "states", "bounds", "labels", "reach", "shapes", "anchors", "clash")


def test_a_frame_holds_only_what_the_block_pass_computes():
    # every field a frame carries is one the block-pass property compares
    assert detector._Frame.__slots__ == FRAME_FIELDS


# empty, full, sparse or dense frames
_KINDS = [st.just(0), st.integers(1, 2), st.sampled_from([0, 0, 0, 1, 2]), st.integers(0, 2)]


@st.composite
def frame_stacks(draw):
    """A few frames of one even-height torus, each of one of ``_KINDS``."""
    h, w = 2 * draw(st.integers(1, 5)), draw(st.integers(1, 10))
    states = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=5))
    return np.stack([draw(arrays(np.uint8, (h, w), elements=s, fill=st.nothing())) for s in states])


@st.composite
def grids(draw):
    """A ``Grid`` of at least 4x3 cells, of one of ``_KINDS``."""
    h, w = 2 * draw(st.integers(2, 5)), draw(st.integers(3, 10))
    kind = draw(st.sampled_from(_KINDS))
    return Grid(draw(arrays(np.uint8, (h, w), elements=kind, fill=st.nothing())))


def _same_frame(got, want, shaped="all") -> None:
    """``got``, scanned shaping the ``shaped`` components, against ``want``, scanned
    shaping all of them."""
    for name in FRAME_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, list):
            if shaped == "unflagged":
                b = [None if flagged else x for flagged, x in zip(want.clash.tolist(), b)]
            assert a == b, name
        else:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


_RING = np.zeros((4, 6), dtype=np.uint8)
_RING[1] = 2  # one row all the way around the torus


@settings(max_examples=150, deadline=None, database=None)
@given(frame_stacks())
@example(np.stack([np.zeros_like(_RING), np.ones_like(_RING), _RING, np.zeros_like(_RING)]))
def test_block_pass_matches_the_one_frame_pass_for_every_cut(stack):
    alone = [detector._scan(frame[None])[0] for frame in stack]
    for shaped, cuts in itertools.product(
        ["all", "unflagged"], itertools.product([False, True], repeat=len(stack) - 1)
    ):
        edges = [0] + [t + 1 for t, cut in enumerate(cuts) if cut] + [len(stack)]
        frames = [f for a, b in zip(edges, edges[1:]) for f in detector._scan(stack[a:b], shaped)]
        assert len(frames) == len(stack)
        for got, want in zip(frames, alone):
            _same_frame(got, want, shaped)



@settings(max_examples=150, deadline=None, database=None)
@given(frame_stacks())
def test_links_match_a_dilation_set_reference(stack):
    frames = detector._scan(stack)
    table = neighbor_table(*stack.shape[1:])
    for prev, frame in zip(frames, frames[1:]):
        owner = {cell: k for k in range(len(frame)) for cell in _run(frame, k)}
        dilations = [set(table[_run(prev, k)].ravel().tolist()) for k in range(len(prev))]
        # a flagged component links to nothing, any other to each component its dilation meets
        succs = [
            set() if flagged else {owner[c] for c in dilated if c in owner}
            for flagged, dilated in zip(prev.clash.tolist(), dilations)
        ]
        nsucc, succ, nclaim = detector._links(prev, frame)
        assert nsucc.tolist() == [len(s) for s in succs]
        assert [succ[k] for k, s in enumerate(succs) if len(s) == 1] == [
            min(s) for s in succs if len(s) == 1
        ]
        assert nclaim.tolist() == [sum(k in s for s in succs) for k in range(len(frame))]


def _run(frame, k):
    return frame.cells[frame.bounds[k] : frame.bounds[k + 1]].tolist()


# -- oracle ----------------------------------------------------------------------


def oracle_components(grid: Grid):
    """(cells, states, dilated) per component, by smallest cell, via torus BFS."""
    h, w = grid.shape
    flat = grid.cells.ravel()
    seen = set()
    comps = []
    for start in np.flatnonzero(flat).tolist():
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        frontier = [start]
        while frontier:
            nxt = []
            for cell in frontier:
                for r, c in neighborhood(grid, divmod(cell, w))[1:]:
                    nb = r * w + c
                    if flat[nb] and nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            members += nxt
            frontier = nxt
        cells = sorted(members)
        ring = {r * w + c for cell in cells for r, c in neighborhood(grid, divmod(cell, w))}
        comps.append((cells, [int(flat[c]) for c in cells], sorted(ring)))
    return comps


def oracle_shape(cells, states, h, w):
    """Shape and anchor from a BFS lift that starts at the smallest cell."""
    member = set(cells)
    lift = {cells[0]: divmod(cells[0], w)}
    frontier = [cells[0]]
    while frontier:
        nxt = []
        for cell in frontier:
            ur, uc = lift[cell]
            for dr, dc in ODD_ROW_NEIGHBORS if ur & 1 else EVEN_ROW_NEIGHBORS:
                nb = ((ur + dr) % h) * w + (uc + dc) % w
                if nb in member and nb not in lift:
                    lift[nb] = (ur + dr, uc + dc)
                    nxt.append(nb)
        frontier = nxt
    axial = {cell: (ur, uc - (ur - (ur & 1)) // 2) for cell, (ur, uc) in lift.items()}
    anchor = min(axial, key=axial.get)
    r0, q0 = axial[anchor]
    state = dict(zip(cells, states))
    return tuple(sorted((r - r0, q - q0, state[c]) for c, (r, q) in axial.items())), anchor


def _spans(cells, h, w):
    rows, cols = np.divmod(np.asarray(cells), w)
    return len(set(rows.tolist())) == h or len(set(cols.tolist())) == w


def _crosses(cells, h, w):
    rows, cols = np.divmod(np.asarray(cells), w)
    row_seam = rows.min() == 0 and rows.max() == h - 1
    col_seam = cols.min() == 0 and cols.max() == w - 1
    return row_seam, col_seam


def test_front_end_matches_the_bfs_oracle_on_random_tori():
    rng = np.random.default_rng(20)
    crossed_rows = crossed_cols = spanning = clashes = apart = 0
    for trial in range(120):
        h, w = (10, 12) if trial % 2 else (12, 12)
        density = rng.uniform(0.15, 0.5)
        cells = np.where(rng.random((h, w)) < density, rng.integers(1, 3, (h, w)), 0)
        grid = Grid(cells)
        comps = extract_components(grid)
        expected = oracle_components(grid)
        assert len(comps) == len(expected)
        owners = Counter(cell for _, _, odilated in expected for cell in odilated)
        frame = detector._scan(grid.cells[None])[0]
        clash = frame.clash
        assert len(clash) == len(expected)
        # reach names the unflagged component whose dilation holds a cell, else -1
        reach = np.full(h * w, -1)
        for k, (_, _, odilated) in enumerate(expected):
            if all(owners[cell] == 1 for cell in odilated):
                reach[odilated] = k
        assert frame.reach.tolist() == reach.tolist()
        for comp, flag, (ocells, ostates, odilated) in zip(comps, clash, expected):
            assert comp.cells.tolist() == ocells
            assert comp.states.tolist() == ostates
            # in a clash exactly when another component's dilation shares a cell
            assert flag == any(owners[cell] > 1 for cell in odilated)
            clashes += flag
            apart += not flag
            shape, anchor = canonical_shape(comp, h, w)
            assert (shape, anchor) == oracle_shape(ocells, ostates, h, w)
            rows, cols = _crosses(ocells, h, w)
            crossed_rows += rows
            crossed_cols += cols
            spanning += _spans(ocells, h, w)
    assert crossed_rows > 20 and crossed_cols > 20 and spanning > 20
    assert clashes > 20 and apart > 20


def test_shapes_survive_translation_across_the_seams():
    rng = np.random.default_rng(21)
    checked = 0
    for trial in range(60):
        h, w = (10, 12) if trial % 2 else (12, 12)
        cells = np.where(rng.random((h, w)) < 0.2, rng.integers(1, 3, (h, w)), 0)
        grid = Grid(cells)
        dr, dc = 2 * int(rng.integers(0, h // 2)), int(rng.integers(0, w))
        moved = {
            int(comp.cells[0]): canonical_shape(comp, h, w)
            for comp in extract_components(grid.translate(dr, dc))
        }
        for comp in extract_components(grid):
            if _spans(comp.cells, h, w):
                continue  # a wrapped-around lift depends on the smallest cell
            shape, anchor = canonical_shape(comp, h, w)
            r, c = divmod(int(anchor), w)
            to = ((r + dr) % h) * w + (c + dc) % w
            twin = [v for v in moved.values() if v[1] == to]
            assert twin and twin[0][0] == shape
            checked += 1
    assert checked > 300


def test_golden_cases_cover_puffers_seams_and_spanning_components():
    locs = track(CASES["puffer-soup"]())
    assert any(loc.loc_class == PUFFER_TRAIN for loc in locs)
    for name in ("seam-soup", "lone-glider"):
        tr = CASES[name]()
        h, w = tr[0].shape
        seams = [
            _crosses(cells, h, w) for frame in tr.frames for cells, _, _ in oracle_components(frame)
        ]
        assert any(rows for rows, _ in seams) and any(cols for _, cols in seams), name
    tr = CASES["spanning-torus"]()
    h, w = tr[0].shape
    assert any(
        _spans(cells, h, w) for frame in tr.frames for cells, _, _ in oracle_components(frame)
    )


def _repeats(tr):
    """(distinct frames, first frame equal to an earlier one, their distance) of a window."""
    seen = {}
    for t, frame in enumerate(tr.frames):
        t0 = seen.setdefault(frame.cells.tobytes(), t)
        if t0 != t:
            return len({f.cells.tobytes() for f in tr.frames}), t, t - t0
    return len(seen), None, None


@pytest.mark.parametrize("name", sorted(REPEATING))
def test_repeating_cases_repeat_as_described(name):
    assert _repeats(CASES[name]()) == REPEATING[name]


def test_still_pair_case_kills_two_tracks_on_every_frame():
    locs = track(CASES["still-pair"]())
    killed = [loc for loc in locs if loc.terminated == "proximity"]
    assert all(loc.frames == 1 for loc in killed)
    assert Counter(loc.first_frame for loc in killed) == dict.fromkeys(range(241, 301), 2)
    assert Counter(loc.loc_class for loc in locs) == {UNRESOLVED: 120, STILL_LIFE: 9}


# -- shared triples ----------------------------------------------------------------


class _NaiveTriples:
    """A fresh tuple per shaped cell, as ``_shapes`` built them before ``_Triples``."""

    @staticmethod
    def take(dr, dq, states):
        return list(zip(dr.tolist(), dq.tolist(), states.tolist()))


def _block_runs(stack):
    """Every component of ``stack``'s frames as ``_shapes`` takes them: cells, states, bounds."""
    frames = detector._scan(stack, "none")
    sizes = np.concatenate([np.diff(f.bounds) for f in frames])
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    cells = np.concatenate([f.cells for f in frames])
    return cells, np.concatenate([f.states for f in frames]), bounds


@st.composite
def two_state_stacks(draw):
    """``frame_stacks`` with its first two cells set to A and B, so both states occur."""
    stack = draw(frame_stacks())
    stack.flat[:2] = 1, 2
    return stack


_SEAMS = np.zeros((4, 6), dtype=np.uint8)
_SEAMS[0, 2], _SEAMS[3, 2] = 1, 2  # joined across the row seam
_SEAMS[1, 0], _SEAMS[1, 5] = 2, 1  # joined across the column seam


@settings(max_examples=150, deadline=None, database=None)
@given(two_state_stacks(), st.booleans())
@example(np.stack([_SEAMS, _RING, np.ones_like(_RING)]), True)
@example(np.stack([_SEAMS, _RING, np.ones_like(_RING)]), False)
def test_shapes_share_triples_of_python_ints(stack, cold):
    _, h, w = stack.shape
    runs = _block_runs(stack)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "_TRIPLES", _NaiveTriples)
        want = detector._shapes(*runs, h, w)
    with pytest.MonkeyPatch.context() as mp:
        if cold:  # an empty table: every triple is filled, after the extents grow
            mp.setattr(detector, "_TRIPLES", detector._Triples())
        got = detector._shapes(*runs, h, w)
        assert detector._shapes(*runs, h, w) == want  # and again, from the filled table
    assert got == want
    triples = [t for shape in got[0] for t in shape]
    assert all(type(t) is tuple and len(t) == 3 for t in triples)
    assert all(type(x) is int for t in triples for x in t)  # not numpy scalars: repr is stable
    assert len({id(t) for t in triples}) == len(set(triples))  # equal triples are one tuple


_TRIPLE = st.tuples(st.integers(0, 6), st.integers(-7, 7), st.integers(1, 2))


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.lists(_TRIPLE, min_size=1, max_size=12), min_size=1, max_size=6))
# from extents dr < 2, -2 <= dq < 2: one past the lowest dq, one past the highest, one
# past the last row, and then blocks that fit the grown extents exactly
@example([[(1, 1, 1)], [(1, -3, 2)], [(1, 3, 1)], [(2, 0, 1)], [(2, -4, 2), (0, 3, 1)]])
def test_triples_table_grows_to_each_block(blocks):
    # one table over blocks of random extents, so each edge of the extents is crossed
    triples = detector._Triples()
    for block in blocks:
        dr, dq, states = (np.array(column) for column in zip(*block))
        got = triples.take(dr, dq, states.astype(np.uint8))
        assert got == block
        assert all(type(x) is int for t in got for x in t)


def test_shared_triples_examples_cover_seams_and_spanning_components():
    frame_seams, frame_ring = detector._scan(np.stack([_SEAMS, _RING]), "none")
    h, w = _SEAMS.shape
    crossings = [_crosses(_run(frame_seams, k), h, w) for k in range(len(frame_seams))]
    assert crossings == [(True, False), (False, True)]  # the row seam, then the column seam
    assert _spans(_run(frame_ring, 0), h, w)


def test_golden_digests_do_not_depend_on_the_triples_table(monkeypatch):
    # each case from an empty table, then 64x64, 30x30 and a 16x16 spanning torus
    # interleaved, from an empty table and again warm
    for name in sorted(CASES):
        monkeypatch.setattr(detector, "_TRIPLES", detector._Triples())
        assert localizations_digest(track(CASES[name]())) == GOLDEN[name], name
    monkeypatch.setattr(detector, "_TRIPLES", detector._Triples())
    for name in ("bundled-soup", "still-pair", "spanning-torus") * 2:
        assert localizations_digest(track(CASES[name]())) == GOLDEN[name], name


# -- still windows ---------------------------------------------------------------


def _ring_grid():
    cells = np.zeros((8, 10), dtype=np.uint8)
    cells[3] = 2  # one row all the way around the torus
    cells[6, 4:6] = 1  # and a domino well away from it
    return Grid(cells)


def _pairs_grid():
    cells = np.zeros((12, 12), dtype=np.uint8)
    cells[2, 2] = cells[2, 4] = 1  # two cells two apart: a flagged pair
    cells[7, 3:5], cells[7, 6] = 2, 1  # a domino and a cell two apart: another pair
    cells[10, 9] = 2  # a lone cell, unflagged
    return Grid(cells)


# one grid each, repeated over the whole window
STILL_GRIDS = {
    "empty": lambda: Grid.filled(10, 10),
    "ring": _ring_grid,
    "pairs": _pairs_grid,
    "seeded": lambda: Grid(np.random.default_rng(3).choice(3, (12, 14), p=[0.9, 0.05, 0.05])),
    "settled-soup": lambda: CASES["still-pair"]().frames[-1],
}
STILL_LENGTHS, STILL_P_MAXES, STILL_T0 = (1, 2, 3, 60), (1, 2, 12), 5

# track's and _mobile_tracks' digests over every length and p_max, in that order
STILL_GOLDEN = {
    "empty": (
        "9bc440220797d71666b6dd029f87e2bf0550d6d0c40b348a6ab4067a346ad32b",
        "9bc440220797d71666b6dd029f87e2bf0550d6d0c40b348a6ab4067a346ad32b",
    ),
    "pairs": (
        "3ef15618480c86e690e232def75b07b79264be46adae33a082434b4d8184f4fe",
        "9bc440220797d71666b6dd029f87e2bf0550d6d0c40b348a6ab4067a346ad32b",
    ),
    "ring": (
        "01257f02d1375232d38bff84ab352b899f9cf8ef9b3d009a9827e7794739eca4",
        "9bc440220797d71666b6dd029f87e2bf0550d6d0c40b348a6ab4067a346ad32b",
    ),
    "seeded": (
        "046919e05428116dff7298535359169143c1bbfe8ac35458acbacfd7733f5861",
        "9bc440220797d71666b6dd029f87e2bf0550d6d0c40b348a6ab4067a346ad32b",
    ),
    "settled-soup": (
        "3cf62795fffe38aa815ad68203fa542b9f0adb47f1ccae2f5d37f272f4b6cbab",
        "9bc440220797d71666b6dd029f87e2bf0550d6d0c40b348a6ab4067a346ad32b",
    ),
}


def still_digest(tracker, grid) -> str:
    """sha256 over ``tracker``'s output on ``grid`` held still, for every length and p_max."""
    h = hashlib.sha256()
    for n, p_max in itertools.product(STILL_LENGTHS, STILL_P_MAXES):
        locs = tracker(Trajectory([grid.copy() for _ in range(n)], STILL_T0), p_max)
        h.update(f"{n},{p_max}:{localizations_digest(locs)};".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(STILL_GRIDS))
def test_golden_still_windows(name):
    grid = STILL_GRIDS[name]()
    digests = still_digest(track, grid), still_digest(detector._mobile_tracks, grid)
    assert digests == STILL_GOLDEN[name]


@settings(max_examples=150, deadline=None, database=None)
@given(grids(), st.integers(1, 7), st.integers(0, 400), st.integers(1, 12))
def test_still_windows_match_the_general_loop(grid, n, t0, p_max):
    def no_links(*args):
        raise AssertionError("a still window was linked")

    tr = Trajectory([grid.copy() for _ in range(n)], t0)
    trackers = (track, detector._mobile_tracks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "_links", no_links)
        closed = [localizations_digest(tracker(tr, p_max)) for tracker in trackers]
    # every frame counted as a grid of its own takes the general loop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector, "_first_ids", lambda tr: list(range(len(tr))))
        general = [localizations_digest(tracker(tr, p_max)) for tracker in trackers]
    assert closed == general


@pytest.mark.parametrize("n", [1, 60])
def test_empty_still_windows_scan_nothing(n, monkeypatch):
    calls = _count_calls(monkeypatch, "_scan")
    tr = Trajectory([Grid.filled(10, 10) for _ in range(n)], STILL_T0)
    assert track(tr) == [] and detector._mobile_tracks(tr, 12) == []
    assert calls == {"_scan": 0}


def test_still_grids_cover_empty_spanning_flagged_and_lone_components():
    frames = {name: detector._scan(make().cells[None])[0] for name, make in STILL_GRIDS.items()}
    h, w = _ring_grid().shape
    assert len(frames["empty"]) == 0
    assert _spans(_run(frames["ring"], 0), h, w) and not frames["ring"].clash.any()
    for name in ("pairs", "seeded", "settled-soup"):
        assert 0 < frames[name].clash.sum() < len(frames[name]), name


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{localizations_digest(track(CASES[name]()))}",')
    for name in sorted(STILL_GRIDS):
        grid = STILL_GRIDS[name]()
        print(f'    "{name}": (')
        for tracker in (track, detector._mobile_tracks):
            print(f'        "{still_digest(tracker, grid)}",')
        print("    ),")
