"""Golden tracker outputs, and the tracker front end against a BFS oracle.

Each golden case rebuilds a trajectory from a fixed seed with ``engine.run``
and tracks it; the sha256 over every field of every returned Localization, in
order, must match the stored digest.  The cases cover a bundled-rule soup, a
soup of the dense rule ``random_rule(default_rng(5))``, a lone glider that
crosses both seams, a soup that emits puffer trains, a soup whose patch
straddles both seams, and a small dense torus whose components wrap all the
way around it.  Regenerate the digests (only when tracking is meant to change)
with

    PYTHONPATH=src python tests/test_tracker_golden.py

The digests must not depend on how ``track`` cuts the frames into blocks
for its array pass: the cases are also tracked one frame per block and with
the whole window in one block.  A property test checks every per-frame field
of the pass, for every cut of a few random frames into blocks, against the
pass over that frame alone.

The second half checks ``extract_components`` and ``canonical_shape`` (the
one-frame pass) on random small tori against an oracle that lives only here:
a torus BFS over ``hexgrid.neighborhood`` for components and dilations, a BFS
lift from each component's smallest cell for shapes and anchors, and the
shapes of translated copies.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hexreact import detector
from hexreact.analysis import bundled_glider_rule, bundled_glider_seed
from hexreact.detector import (
    PUFFER_TRAIN,
    FitnessConfig,
    canonical_shape,
    extract_components,
    random_patch_grid,
    track,
)
from hexreact.engine import run
from hexreact.hexgrid import EVEN_ROW_NEIGHBORS, ODD_ROW_NEIGHBORS, Grid, neighborhood
from hexreact.rules import RuleMatrix, random_rule

# a one-letter mutant of the bundled rule whose soups leave puffer trains
PUFFER_RULE = "SSSSSSSSABSSSSSBSSSSSAASSSSSSSSSSSSS"


def _soup(rule, seed, shift=(0, 0)):
    cfg = FitnessConfig()
    grid = random_patch_grid(cfg, np.random.default_rng(seed)).translate(*shift)
    return run(grid, rule, cfg.steps, keep_last=cfg.window)


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
}

GOLDEN = {
    "bundled-soup": "f75e0674925556bcea2e9441ab0f5b0749a445cf7aae31f94d343769d9f047c6",
    "dense-soup": "6f67ccd235754347257c486301eda39618b1b623b4bfe01b00297451c11a19e7",
    "lone-glider": "166387095a05c0ac49fb2b49e995435bdae9da4922e4e3b0bcb8d838c03368b5",
    "puffer-soup": "6d60cf186f21d63c86c3bd3d9f50cb0b17e42eaac0f76af0d9e1c1c1b70e0fa1",
    "seam-soup": "8bb37de75936380f653fe60d355f3885155da50ff4d417e463fc02c66a161211",
    "spanning-torus": "7fb2ffaf9231575039b32049a38bfbfdd50dc185fb52bface5e74b0e67f866b2",
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


@pytest.mark.parametrize("budget", [0, 10**9], ids=["frame-per-block", "one-block"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_tracker_outputs_do_not_depend_on_blocks(name, budget, monkeypatch):
    scan, blocks = detector._scan, []

    def spy(block):
        blocks.append(len(block))
        return scan(block)

    monkeypatch.setattr(detector, "_BLOCK_CELLS", budget)
    monkeypatch.setattr(detector, "_scan", spy)
    tr = CASES[name]()
    assert localizations_digest(track(tr)) == GOLDEN[name]
    assert blocks == ([1] * len(tr) if budget == 0 else [len(tr)])


# -- the block pass ------------------------------------------------------------

FRAME_FIELDS = (
    "cells", "states", "bounds", "dilated", "dil_bounds", "dil_comp", "labels", "shapes", "anchors"
)


@st.composite
def frame_stacks(draw):
    """A few frames of one even-height torus: empty, full, sparse or dense ones."""
    h, w = 2 * draw(st.integers(1, 5)), draw(st.integers(1, 10))
    kinds = [st.just(0), st.integers(1, 2), st.sampled_from([0, 0, 0, 1, 2]), st.integers(0, 2)]
    states = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
    return np.stack([draw(arrays(np.uint8, (h, w), elements=s, fill=st.nothing())) for s in states])


def _same_frame(got, want) -> None:
    for name in FRAME_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, list):
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
    for cuts in itertools.product([False, True], repeat=len(stack) - 1):
        edges = [0] + [t + 1 for t, cut in enumerate(cuts) if cut] + [len(stack)]
        frames = [f for a, b in zip(edges, edges[1:]) for f in detector._scan(stack[a:b])]
        assert len(frames) == len(stack)
        for got, want in zip(frames, alone):
            _same_frame(got, want)



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
    crossed_rows = crossed_cols = spanning = 0
    for trial in range(120):
        h, w = (10, 12) if trial % 2 else (12, 12)
        density = rng.uniform(0.15, 0.5)
        cells = np.where(rng.random((h, w)) < density, rng.integers(1, 3, (h, w)), 0)
        grid = Grid(cells)
        comps = extract_components(grid)
        expected = oracle_components(grid)
        assert len(comps) == len(expected)
        for comp, (ocells, ostates, odilated) in zip(comps, expected):
            assert comp.cells.tolist() == ocells
            assert comp.states.tolist() == ostates
            assert comp.dilated.tolist() == odilated
            shape, anchor = canonical_shape(comp, h, w)
            assert (shape, anchor) == oracle_shape(ocells, ostates, h, w)
            rows, cols = _crosses(ocells, h, w)
            crossed_rows += rows
            crossed_cols += cols
            spanning += _spans(ocells, h, w)
    assert crossed_rows > 20 and crossed_cols > 20 and spanning > 20


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


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{localizations_digest(track(CASES[name]()))}",')
