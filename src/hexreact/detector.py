"""Localization detection: find, track, and classify patterns.

A localization is a connected clump of non-substrate cells that keeps its
identity over time: a still life (fixed point), an oscillator/breather
(periodic in place), a glider (periodic with net displacement), or a puffer
train (a glider-like head leaving persistent debris behind).  Everything else
-- colliding, splitting, or aperiodic patterns -- is reported as Unresolved.

Shape bookkeeping happens in axial hex coordinates.  Axial coordinates make
every translation uniform (the odd-r offset layout shifts odd rows, so naive
row/column normalization would treat the same pattern differently depending
on which row parity it happens to occupy).  Canonical shapes are therefore
placement-independent, and displacements come out as exact integer vectors
``(dr, dc)`` where ``dc`` counts axial columns.

``track`` cuts the window's distinct grids into blocks of up to
``_BLOCK_CELLS`` non-S cells and runs one array pass per block (``_scan``).
Cells are keyed ``t * h * w + cell``, so no component crosses frames.  The
pass labels components by root hooking over the neighbour table, takes every
component's sorted cells, states and one-ring dilation from sorts of
(component, cell) keys, and every canonical shape and anchor from one sort of
(component, row, axial column) keys, on coordinates ``_lift`` frees from the
torus wrap.  ``track`` links and checks proximity frame to frame with array
operations over each frame's views of its block, and a component that lives
one frame gets its Localization without a ``_Track``.  ``extract_components``
is the pass over a one-frame block, and ``canonical_shape`` runs ``_shapes``
on one component.

A settled soup's window repeats a few grids over and over, so ``track`` does
each grid's work once.  ``_frames`` keys every frame by its bytes and scans
only first occurrences; a repeated frame gets the ``_Frame`` scanned at its
first occurrence.  On repeated frames ``track`` also reuses the ``_links``
and ``_clashes`` results stored under the first-occurrence ids of the frames
involved and the tracked order, the only inputs those functions read.  Both
are exact: equal grids scan to equal frames, whatever block they fall in, and
a reused proximity-kill set iterates in its stored order.  A window with no
repeated grid keeps no frame for reuse and stores no result.

Tracking requires an even grid height: the torus seam on an odd-height grid
breaks neighbour symmetry (see hexgrid), and anchor displacement arithmetic
relies on row wraps preserving parity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .engine import Trajectory, run
from .hexgrid import (
    EVEN_ROW_NEIGHBORS,
    ODD_ROW_NEIGHBORS,
    Grid,
    neighbor_table,
    offset_to_axial,
)
from .rules import RuleMatrix

# Localization classes, in report order.
STILL_LIFE = "StillLife"
OSCILLATOR = "Oscillator"
GLIDER = "Glider"
PUFFER_TRAIN = "PufferTrain"
UNRESOLVED = "Unresolved"
CLASSES = (STILL_LIFE, OSCILLATOR, GLIDER, PUFFER_TRAIN, UNRESOLVED)
MOBILE_CLASSES = (GLIDER, PUFFER_TRAIN)

# non-S cells per block of frames ``track`` scans at once; one block per window peaks higher
_BLOCK_CELLS = 8192


def _require_even_height(h: int) -> None:
    if h % 2:
        raise ValueError("tracking requires an even grid height (torus parity)")


@dataclass(frozen=True)
class Component:
    """A maximal connected set of non-S cells in one frame.

    ``cells`` holds sorted flat indices (row * width + col); ``states`` is
    aligned with it.  ``dilated`` additionally includes the one-cell ring
    around the component, which is what linking and proximity tests need.
    """

    cells: np.ndarray
    states: np.ndarray
    dilated: np.ndarray

    @property
    def size(self) -> int:
        return len(self.cells)


class _Frame:
    """One frame's components, stored as concatenated per-component runs.

    Component ``k`` (components ordered by smallest flat index) owns
    ``cells[bounds[k]:bounds[k + 1]]`` (sorted) with ``states`` aligned, and
    ``dilated[dil_bounds[k]:dil_bounds[k + 1]]`` (sorted), and ``dil_comp``
    names the component of each dilated entry.  ``labels`` maps every flat
    cell to its component, or -1 on substrate.  ``shapes`` and ``anchors``
    hold each component's canonical shape and torus anchor (see ``_shapes``).
    """

    __slots__ = ("cells", "states", "bounds", "dilated", "dil_bounds", "dil_comp", "labels",
                 "shapes", "anchors")

    def __len__(self) -> int:
        return len(self.bounds) - 1


def _roots(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Smallest member of each node's connected component, edges ``u``-``v``.

    Shiloach-Vishkin style: every round hooks each root that has an edge into
    a smaller root onto the smallest such root, then compresses every path to
    its root; edges whose ends already share a root drop out.  A parent never
    exceeds its child, so the final roots are the component minima.
    """
    parent = np.arange(n)
    while len(u):
        pu, pv = parent[u], parent[v]
        cross = pu != pv
        u, v, pu, pv = u[cross], v[cross], pu[cross], pv[cross]
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return parent


def _unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, by sort and mask.

    numpy 2's hash-based ``np.unique`` is over ten times slower than this
    on the few-thousand-entry arrays a frame produces.
    """
    keys = np.sort(keys, axis=None)
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _scan(block: np.ndarray, with_shapes: bool = True) -> list[_Frame]:
    """Every frame of ``block``, shape ``(frames, h, w)``, from one array pass.

    Cells are keyed ``t * h * w + cell``, so no component crosses frames.
    Each frame gets views of the block's arrays, its components counted from 0.
    Without ``with_shapes`` every shape and anchor is None.
    """
    nf, h, w = block.shape
    _require_even_height(h)
    size = h * w
    flat = block.ravel()
    table = neighbor_table(h, w)
    nz = np.flatnonzero(flat)
    n = len(nz)
    labels = np.full(nf * size, -1, dtype=np.int64)
    labels[nz] = np.arange(n)
    base = nz - nz % size
    around = labels[base[:, None] + table[nz - base, 1:]]
    edge = around > np.arange(n)[:, None]  # symmetric table: one direction suffices
    root = _roots(np.nonzero(edge)[0], around[edge], n)

    is_root = root == np.arange(n)
    comp = (np.cumsum(is_root) - 1)[root]
    count = int(is_root.sum())
    first = np.searchsorted(nz[is_root], np.arange(nf + 1) * size)  # each frame's first component
    labels[nz] = comp - first[nz // size]
    comp, key = np.divmod(np.sort(comp * (nf * size) + nz), nf * size)
    cells, states = key % size, flat[key]
    bounds = np.searchsorted(comp, np.arange(count + 1))
    dil_comp, dilated = np.divmod(_unique(comp[:, None] * size + table[cells]), size)
    dil_bounds = np.searchsorted(dil_comp, np.arange(count + 1))
    shapes = anchors = [None] * count
    if with_shapes:
        shapes, anchors = _shapes(cells, states, bounds, h, w)
    frames = [_Frame() for _ in range(nf)]
    for t, (frame, c0, c1) in enumerate(zip(frames, first.tolist(), first[1:].tolist())):
        lo, hi, dlo, dhi = bounds[c0], bounds[c1], dil_bounds[c0], dil_bounds[c1]
        frame.cells, frame.states = cells[lo:hi], states[lo:hi]
        frame.bounds, frame.dil_bounds = bounds[c0 : c1 + 1] - lo, dil_bounds[c0 : c1 + 1] - dlo
        frame.dilated, frame.dil_comp = dilated[dlo:dhi], dil_comp[dlo:dhi] - c0
        frame.labels = labels[t * size : (t + 1) * size]
        frame.shapes, frame.anchors = shapes[c0:c1], anchors[c0:c1]
    return frames


def _frames(tr: Trajectory):
    """Yield ``(first, frame)`` for each frame of ``tr``: ``first`` is the index of the
    first frame with the same grid, and ``frame`` its ``_Frame``.

    Only first occurrences are scanned, in blocks of up to ``_BLOCK_CELLS`` non-S
    cells or of one frame; a repeated grid gets the ``_Frame`` of its first
    occurrence back.  That is exact, because the scan of a frame depends on its
    grid alone, not on the block it shares.  A ``_Frame`` is kept for reuse only
    until the last occurrence of its grid, so a window with no repeated grid
    holds no more frames than before, and blocks are still scanned lazily.
    """
    firsts: dict[bytes, int] = {}
    ids = [firsts.setdefault(grid.cells.tobytes(), t) for t, grid in enumerate(tr.frames)]
    last = {first: t for t, first in enumerate(ids)}
    scanned = _scanned(np.stack([tr.frames[t].cells for t in firsts.values()]))
    kept: dict[int, _Frame] = {}
    for t, first in enumerate(ids):
        frame = next(scanned) if first == t else kept.pop(first)
        if last[first] > t:
            kept[first] = frame
        yield first, frame


def _scanned(stack: np.ndarray):
    """``stack``'s frames, scanned in blocks of up to ``_BLOCK_CELLS`` non-S cells or one frame."""
    ends = np.cumsum(np.count_nonzero(stack, axis=(1, 2))).tolist()
    start = 0
    while start < len(stack):
        stop = bisect_right(ends, (ends[start - 1] if start else 0) + _BLOCK_CELLS, lo=start + 1)
        yield from _scan(stack[start:stop])
        start = stop


def extract_components(grid: Grid) -> list[Component]:
    """Partition the non-S cells of ``grid`` into connected components.

    6-neighbour adjacency on the torus, labelled for the whole frame at once
    by ``_scan``, the pass ``track`` runs, on a block of this one frame,
    without its canonical shapes.
    Components come back ordered by their smallest flat index, so the result
    is deterministic.  Requires an even grid height.
    """
    frame = _scan(grid.cells[None], with_shapes=False)[0]
    b, d = frame.bounds.tolist(), frame.dil_bounds.tolist()
    return [
        Component(frame.cells[lo:hi], frame.states[lo:hi], frame.dilated[dlo:dhi])
        for lo, hi, dlo, dhi in zip(b, b[1:], d, d[1:])
    ]


# -- canonical shapes --------------------------------------------------------


def _unwrap(cells: np.ndarray, h: int, w: int) -> dict[int, tuple[int, int]]:
    """Torus-free (row, col) coordinates for a component that may wrap around.

    BFS from the smallest cell, stepping by the raw neighbour offsets.  Only
    components occupying every row or every column come here (``_lift``
    shifts every other one off the seams); one that wraps all the way around
    the torus gets spanning-tree coordinates -- arbitrary but deterministic,
    which is all their (unclassifiable) tracks need.  Assumes even ``h``; odd
    heights put wrapped rows on the wrong parity.
    """
    member = set(cells.tolist())
    start = int(cells[0])
    coords = {start: (start // w, start % w)}
    queue = [start]
    while queue:
        nxt = []
        for cell in queue:
            ur, uc = coords[cell]
            offs = ODD_ROW_NEIGHBORS if ur & 1 else EVEN_ROW_NEIGHBORS
            for dr, dc in offs:
                nb = ((ur + dr) % h) * w + (uc + dc) % w
                if nb in member and nb not in coords:
                    coords[nb] = (ur + dr, uc + dc)
                    nxt.append(nb)
        queue = nxt
    return coords


def _lift(cells: np.ndarray, comp: np.ndarray, bounds: np.ndarray, h: int, w: int):
    """Torus-free (row, col) coordinates of every component's cells.

    A component can only use a seam edge if it touches both row 0 and row
    h-1, or both column 0 and column w-1.  Such a component is shifted by an
    even number of rows (keeping row parity) and any number of columns so
    that its first empty row lands on row 0 or h-1 and its first empty
    column on column 0; a component occupying every row or every column is
    lifted by ``_unwrap`` instead.  Every other component keeps its torus
    coordinates.  Lifts of one component differ only by a translation, which
    the canonical shape and anchor ignore.
    """
    rows, cols = np.divmod(cells, w)
    starts = bounds[:-1]
    # cells are sorted, so a run's first and last cells hold its row extremes
    touches = ((rows[starts] == 0) & (rows[bounds[1:] - 1] == h - 1)) | (
        (np.minimum.reduceat(cols, starts) == 0) & (np.maximum.reduceat(cols, starts) == w - 1)
    )
    if not touches.any():
        return rows, cols
    moved = touches[comp]
    slot = (np.cumsum(touches) - 1)[comp[moved]]  # moved components, renumbered from 0
    row_occ = np.zeros((int(touches.sum()), h), dtype=bool)
    row_occ[slot, rows[moved]] = True
    col_occ = np.zeros((len(row_occ), w), dtype=bool)
    col_occ[slot, cols[moved]] = True
    empty_row = row_occ.argmin(axis=1)
    row_shift = np.where(empty_row & 1, h - 1 - empty_row, -empty_row)
    rows[moved] = (rows[moved] + row_shift[slot]) % h
    cols[moved] = (cols[moved] - col_occ.argmin(axis=1)[slot]) % w
    spanning = np.flatnonzero(touches)[row_occ.all(axis=1) | col_occ.all(axis=1)]
    for c in spanning.tolist():
        lo, hi = bounds[c], bounds[c + 1]
        coords = _unwrap(cells[lo:hi], h, w)
        rows[lo:hi], cols[lo:hi] = np.array([coords[x] for x in cells[lo:hi].tolist()]).T
    return rows, cols


def _shapes(
    cells: np.ndarray, states: np.ndarray, bounds: np.ndarray, h: int, w: int
) -> tuple[list[tuple], list[int]]:
    """Canonical shape and anchor of every component (see ``canonical_shape``).

    Components are runs ``cells[bounds[k]:bounds[k + 1]]``, each sorted.
    """
    if not len(cells):
        return [], []
    starts = bounds[:-1]
    comp = np.repeat(np.arange(len(starts)), np.diff(bounds))
    rows, cols = _lift(cells, comp, bounds, h, w)
    q, _ = offset_to_axial(rows, cols)
    # one sort over (component, row, axial column); the triples are distinct,
    # so a packed key sorts like np.lexsort, which is far slower here
    rows, q = rows - rows.min(), q - q.min()
    order = np.argsort((comp * (rows.max() + 1) + rows) * (q.max() + 1) + q)
    origin = order[starts]
    dr = (rows[order] - rows[origin][comp]).tolist()
    dq = (q[order] - q[origin][comp]).tolist()
    triples = list(zip(dr, dq, states[order].tolist()))
    shapes = [tuple(triples[lo:hi]) for lo, hi in zip(starts.tolist(), bounds[1:].tolist())]
    return shapes, cells[origin].tolist()


def canonical_shape(comp: Component, h: int, w: int) -> tuple[tuple, int]:
    """Translation-invariant shape of a component, plus its anchor cell.

    The cells are unwrapped, converted to axial coordinates, and shifted so
    the lexicographically smallest (row, axial-col) position is the origin.
    Two components that are torus translates of each other (including
    translates landing on the other row parity) produce equal shapes.

    Returns ``(shape, anchor)``: the shape as a sorted tuple of
    ``(row, axial_col, state)`` triples, and the flat torus index of the cell
    that became the origin, which is what displacement tracking follows.
    Requires an even grid height.
    """
    _require_even_height(h)
    shapes, anchors = _shapes(comp.cells, comp.states, np.array([0, comp.size]), h, w)
    return shapes[0], anchors[0]


def _axial_delta(a0: int, a1: int, h: int, w: int) -> tuple[int, int]:
    """Smallest axial displacement taking torus cell ``a0`` to ``a1``.

    Row and column deltas are wrapped into (-h/2, h/2] and (-w/2, w/2]; the
    axial column then needs the matching corrections: unwrapping a row jump
    of k*h shifts the axial column by k*h/2 (even h), and a column wrap of
    m*w shifts it by m*w.
    """
    r0, c0 = divmod(a0, w)
    r1, c1 = divmod(a1, w)
    dr = (r1 - r0) % h
    if dr > h // 2:
        dr -= h
    dc = (c1 - c0) % w
    if dc > w // 2:
        dc -= w
    kh = (r1 - r0) - dr
    mw = (c1 - c0) - dc
    q0, _ = offset_to_axial(r0, c0)
    q1, _ = offset_to_axial(r1, c1)
    return dr, (q1 - q0) - mw + kh // 2


# -- tracks and localizations -------------------------------------------------


@dataclass
class Localization:
    """One tracked pattern over a window of frames.

    ``shapes`` and ``anchors`` run frame by frame; anchors accumulate the
    per-step axial displacement, so differences of anchors are true travel
    vectors even across torus wraps.  ``classify`` fills in ``period``,
    ``displacement`` and ``loc_class``.
    """

    first_frame: int
    shapes: list = field(default_factory=list)
    anchors: list = field(default_factory=list)
    cells_last: np.ndarray | None = None
    states_last: np.ndarray | None = None
    terminated: str | None = None
    p_max: int = 12
    has_trail: bool = False
    trail_size: int = 0
    period: int | None = None
    displacement: tuple[int, int] | None = None
    loc_class: str = ""

    @property
    def frames(self) -> int:
        return len(self.shapes)

    @property
    def size(self) -> int:
        return 0 if self.cells_last is None else len(self.cells_last)


def classify(loc: Localization) -> str:
    """Decide the localization class; idempotent, caches on ``loc``.

    Looks for the smallest period ``p <= loc.p_max`` such that the canonical
    shape recurs p frames apart throughout the track and the anchor moves by
    the same vector over every p-frame stretch.  Needs at least ``2p`` frames
    of evidence.  Tracks cut short by a merge, split, or near-collision stay
    Unresolved regardless.
    """
    if loc.loc_class:
        return loc.loc_class
    cls = UNRESOLVED
    period = None
    disp = None
    if loc.terminated is None:
        n = loc.frames
        for p in range(1, min(loc.p_max, n // 2) + 1):
            if any(loc.shapes[t] != loc.shapes[t + p] for t in range(n - p)):
                continue
            steps = [
                (
                    loc.anchors[t + p][0] - loc.anchors[t][0],
                    loc.anchors[t + p][1] - loc.anchors[t][1],
                )
                for t in range(n - p)
            ]
            if any(s != steps[0] for s in steps):
                continue
            period = p
            disp = steps[0]
            break
        if period is not None:
            if disp == (0, 0):
                cls = STILL_LIFE if period == 1 else OSCILLATOR
            else:
                cls = PUFFER_TRAIN if loc.has_trail else GLIDER
    loc.period = period
    loc.displacement = disp
    loc.loc_class = cls
    return cls


class _Track:
    """A Localization being built, and its (frame, component) places on consecutive frames."""

    __slots__ = ("loc", "places")

    def __init__(self, first_frame: int, p_max: int, frame: _Frame, k: int):
        self.loc = Localization(first_frame, [frame.shapes[k]], [(0, 0)], p_max=p_max)
        self.places = [(frame, k)]

    def extend(self, frame: _Frame, k: int, h: int, w: int) -> None:
        """Continue on component ``k`` of the next frame, stepping the anchor."""
        prev, j = self.places[-1]
        dr, dq = _axial_delta(prev.anchors[j], frame.anchors[k], h, w)
        ar, aq = self.loc.anchors[-1]
        self.loc.shapes.append(frame.shapes[k])
        self.loc.anchors.append((ar + dr, aq + dq))
        self.places.append((frame, k))

    def _measure_trail(self) -> None:
        """Persistent non-S debris inside the corridor this track swept.

        The corridor is the dilation of every earlier position of the
        component.  Debris must be present (somewhere in the corridor, away
        from the current head) in each of the last two frames; shapes that
        merely flicker during the head's passage do not count.
        """
        if len(self.places) < 3:
            return
        swept = np.zeros(len(self.places[0][0].labels), dtype=bool)
        for frame, k in self.places[:-1]:
            swept[frame.dilated[frame.dil_bounds[k] : frame.dil_bounds[k + 1]]] = True
        # the only non-S cells inside the head's dilation are the head's own
        hits = [swept[f.cells] & (f.labels[f.cells] != k) for f, k in self.places[-2:]]
        if hits[0].any() and hits[1].any():
            self.loc.has_trail = True
            self.loc.trail_size = int(hits[1].sum())


def _finish(trk: _Track | None, t: int, p_max: int, frame: _Frame, k: int, reason) -> Localization:
    """End the track last on component ``k`` of ``frame``: ``trk``, or when that is None,
    a track that lives on ``frame`` (time ``t``) alone."""
    if trk is None:
        loc = Localization(t, [frame.shapes[k]], [(0, 0)], p_max=p_max)
    else:
        trk._measure_trail()
        loc = trk.loc
    lo, hi = frame.bounds[k], frame.bounds[k + 1]
    loc.cells_last, loc.states_last = frame.cells[lo:hi], frame.states[lo:hi]
    loc.terminated = reason
    return loc


def track(tr: Trajectory, p_max: int = 12) -> list[Localization]:
    """Track localizations over the frames of ``tr``.

    Components are linked frame to frame when the earlier component's
    one-ring dilation overlaps exactly one successor and nothing else claims
    it.  Ambiguity is terminal: a track whose successor set has two members
    (split), a component claimed by two tracks (merge), or two components
    approaching within two cells of each other (proximity) all end their
    tracks as Unresolved -- identity cannot be trusted through a collision.
    Every component always belongs to exactly one track, so fresh tracks
    start wherever no clean predecessor exists.

    Returns one classified Localization per track; ``first_frame`` counts
    from ``tr.t0``, so a run trimmed by ``keep_last`` keeps its times.
    """
    h, w = tr.frames[0].shape
    _require_even_height(h)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")

    done: list[Localization] = []
    tracks: dict[int, _Track | None] = {}  # None: a track still on its first frame
    memo: dict[tuple, object] = {}  # results on repeated frames, by first-occurrence ids
    prev = prev_id = None
    for t, (frame_id, frame) in enumerate(_frames(tr), start=tr.t0):
        reuse = memo if frame_id != t - tr.t0 else None  # only a repeated frame can hit
        if tracks:
            nsucc, succ, nclaim = _memo(
                reuse, (prev_id, frame_id), list(tracks), _links, prev, frame
            )

        next_tracks: dict[int, _Track | None] = {}
        for prev_idx, trk in tracks.items():
            n, idx = nsucc[prev_idx], succ[prev_idx]
            if n == 1 and nclaim[idx] == 1:
                if trk is None:
                    trk = _Track(t - 1, p_max, prev, prev_idx)
                trk.extend(frame, idx, h, w)
                next_tracks[idx] = trk
            else:  # died out (still classifiable), merged into another, or split
                reason = None if n == 0 else "merge" if n == 1 else "split"
                done.append(_finish(trk, t - 1, p_max, prev, prev_idx, reason))

        for idx in range(len(frame)):
            next_tracks.setdefault(idx, None)

        for idx in _memo(reuse, (frame_id,), list(next_tracks), _clashes, frame):
            done.append(_finish(next_tracks.pop(idx), t, p_max, frame, idx, "proximity"))
        tracks = next_tracks
        prev, prev_id = frame, frame_id

    done.extend(_finish(trk, t, p_max, prev, idx, None) for idx, trk in tracks.items())
    done.sort(key=lambda l: l.first_frame)  # stable: frame order, then discovery order
    for loc in done:
        classify(loc)
    return done


def _memo(memo: dict | None, ids: tuple, order: list[int], fn, *frames):
    """``fn(*frames, order)``, looked up in ``memo`` first and stored there, unless it is None.

    ``_links`` and ``_clashes`` read only their frames' grids and the tracked
    ``order``, so the first-occurrence ``ids`` of the frames (two for links,
    one for proximity) and that order name the result exactly.  A stored
    result is shared, so reused proximity kills come in the same set order.
    """
    if memo is None:
        return fn(*frames, order)
    key = (ids, tuple(order))
    if key not in memo:
        memo[key] = fn(*frames, order)
    return memo[key]


def _links(prev: _Frame, frame: _Frame, tracked: list[int]) -> tuple[list, list, list]:
    """Which components of ``frame`` the ``tracked`` components of ``prev`` reach.

    A successor of a previous component is any component its dilation
    touches.  Returns, per previous component, the number of successors and
    (meaningful when that is one) the successor, and per component of
    ``frame`` the number of tracked predecessors claiming it.
    """
    succ = frame.labels[prev.dilated]
    live = np.zeros(len(prev), dtype=bool)
    live[tracked] = True
    keep = (succ >= 0) & live[prev.dil_comp]
    n = max(len(frame), 1)
    pairs = _unique(prev.dil_comp[keep] * n + succ[keep])
    p, s = np.divmod(pairs, n)
    first = np.zeros(len(prev), dtype=np.int64)
    first[p] = s
    return (
        np.bincount(p, minlength=len(prev)).tolist(),
        first.tolist(),
        np.bincount(s, minlength=len(frame)).tolist(),
    )


def _clashes(frame: _Frame, order: list[int]) -> set[int]:
    """Components within two cells of another: their dilations intersect.

    Two components on the same frame always sit at least two cells apart
    (closer and they would be one component); their dilations intersect
    exactly when the gap is two or less, i.e. when they can influence each
    other's next step.  The dilations are scanned in ``order`` (the tracks'
    order) and each cell already owned by an earlier component adds that
    owner and then the current component to the set; the set's iteration
    order, which orders the proximity kills, depends on that insertion order.
    """
    keys = np.asarray(order, dtype=np.int64)
    starts = frame.dil_bounds[keys]
    lens = frame.dil_bounds[keys + 1] - starts
    owner = np.repeat(keys, lens)
    at = np.arange(len(owner))
    cells = frame.dilated[at + np.repeat(starts - (np.cumsum(lens) - lens), lens)]
    first = np.full(len(frame.labels), len(at))
    np.minimum.at(first, cells, at)  # each cell's first position in the scan
    first_at = first[cells]
    dup = first_at != at
    return set(np.stack([owner[first_at[dup]], owner[dup]], axis=1).ravel().tolist())


# -- fitness -------------------------------------------------------------------


@dataclass
class FitnessConfig:
    """Parameters for the random-soup glider census behind the EA fitness.

    A ``patch_width`` x ``patch_height`` region at the centre of an otherwise
    empty ``width`` x ``height`` torus is seeded at random (each patch cell is
    A with probability ``p_a``, B with ``p_b``, else S).  The automaton runs
    ``steps`` updates and the trailing ``window`` frames are tracked.
    """

    width: int = 64
    height: int = 64
    patch_width: int = 16
    patch_height: int = 16
    p_a: float = 0.1
    p_b: float = 0.1
    steps: int = 200
    window: int = 48
    p_max: int = 12
    trials: int = 5
    count_puffers: bool = True

    def __post_init__(self):
        _require_even_height(self.height)
        if min(self.width, self.height) < 3:
            raise ValueError("grid dimensions must be at least 3x3")
        if min(self.patch_width, self.patch_height) < 0:
            raise ValueError("patch sides must be non-negative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.patch_width > self.width or self.patch_height > self.height:
            raise ValueError("patch must fit inside the grid")
        if self.p_a < 0 or self.p_b < 0:
            raise ValueError("state probabilities must be non-negative")
        if self.p_a + self.p_b > 1:
            raise ValueError("state probabilities must sum to at most 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.window > self.steps + 1:
            raise ValueError("window longer than the run")
        if self.p_max < 1:
            raise ValueError("p_max must be >= 1")


def random_patch_grid(cfg: FitnessConfig, rng: np.random.Generator) -> Grid:
    """An empty torus with a random patch in the middle."""
    cells = np.zeros((cfg.height, cfg.width), dtype=np.uint8)
    r0 = (cfg.height - cfg.patch_height) // 2
    c0 = (cfg.width - cfg.patch_width) // 2
    patch = rng.choice(
        3,
        size=(cfg.patch_height, cfg.patch_width),
        p=[1.0 - cfg.p_a - cfg.p_b, cfg.p_a, cfg.p_b],
    )
    cells[r0 : r0 + cfg.patch_height, c0 : c0 + cfg.patch_width] = patch
    return Grid(cells)


def count_mobile(locs: list[Localization], count_puffers: bool = True) -> int:
    wanted = MOBILE_CLASSES if count_puffers else (GLIDER,)
    return sum(1 for loc in locs if loc.loc_class in wanted)


def soup_localizations(rule: RuleMatrix, cfg: FitnessConfig, seed) -> list[Localization]:
    """Track one random soup: ``seed`` -> patch -> run -> trailing window."""
    soup = random_patch_grid(cfg, np.random.default_rng(seed))
    traj = run(soup, rule, cfg.steps, keep_last=cfg.window)
    return track(traj, p_max=cfg.p_max)


def fitness(rule: RuleMatrix, cfg: FitnessConfig, rng: np.random.Generator) -> float:
    """Mobile localizations per cell: the quantity the EA maximizes.

    Runs ``cfg.trials`` independent random soups and counts tracks classified
    Glider (and PufferTrain unless disabled) in each trailing window; the
    total is normalized by grid area times trials.  Per-trial seeds are
    drawn from ``rng`` up front, so trials are order-independent.
    """
    seeds = rng.integers(0, 2**63, size=cfg.trials)
    total = sum(
        count_mobile(soup_localizations(rule, cfg, int(seed)), cfg.count_puffers)
        for seed in seeds
    )
    return total / (cfg.width * cfg.height * cfg.trials)


# -- reporting -----------------------------------------------------------------

REPORT_HEADER = "trial,class,period,dr,dc,size,first_frame"


def report_rows(locs: list[Localization], trial: int = 0) -> list[str]:
    """CSV rows (no header) describing each localization."""
    rows = []
    for loc in locs:
        period = "" if loc.period is None else loc.period
        dr, dc = ("", "") if loc.displacement is None else loc.displacement
        rows.append(
            f"{trial},{loc.loc_class},{period},{dr},{dc},{loc.size},{loc.first_frame}"
        )
    return rows
