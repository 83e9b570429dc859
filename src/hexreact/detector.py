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
Cells are keyed ``t * h * w + cell``, so no component crosses frames.  Every
neighbour the tracker reads comes from one cached int32 table per grid size,
``_steps``: a row per step (the cell itself, its six neighbours, and half of
its radius-2 ring), a column per cell.  Each gather takes the rows it needs
at the pass's cells along that cell axis, so it copies a few long runs
instead of one short run per cell.  The pass labels components by root
hooking over the E, SE and SW rows, flags the components in proximity from
one label gather over the half-ring rows, writes each frame's ``reach`` map
(cell to the unflagged component whose one-ring dilation holds it) in one
scatter over the first seven rows, takes every component's sorted cells and
states from one sort of (component, cell) keys, and takes canonical shapes
and anchors from one sort of (component, row, axial column) keys, on
coordinates ``_lift`` frees from the torus wrap.  No dilation is stored:
proximity needs none, and linking reads ``reach``.
Which components get a shape is the caller's choice: ``track`` shapes every
one, ``mobile_localizations`` only those not flagged for proximity (a flagged
component's track ends on that frame, and the mobile path skips it), and
``extract_components`` none.  ``track`` links frame to frame with one gather
of the earlier frame's ``reach`` at the later frame's cells.  Every unflagged
component waits one frame as a candidate, and only one that links onward
builds a ``_Track``; one that ends there is finished straight into its
Localization.
``extract_components`` is the pass over a one-frame block, cut into its
components, and ``canonical_shape`` runs ``_shapes`` on one component.

A canonical shape is a tuple of ``(dr, dq, state)`` triples, and the shapes
of a run repeat a few triples over and over: one class-sweep operation
shapes tens of thousands of cells from under two thousand distinct
triples.  A fresh tuple per shaped cell is garbage that triggers CPython's
cyclic collector, which then traverses it: about a tenth of that
operation's time.  So ``_shapes`` packs each cell's triple into an integer
code in numpy and reads its tuple from one shared table, ``_TRIPLES``,
which builds each distinct triple once.  That is exact: a shared tuple
holds the Python ints a fresh one would, so every shape, comparison, hash
and ``repr`` is unchanged.

A settled soup's window repeats a few grids over and over, so ``track`` does
each grid's work once.  ``_frames`` keys every frame by its bytes and scans
only first occurrences; a repeated frame gets the ``_Frame`` scanned at its
first occurrence.  That is exact: equal grids scan to equal frames, whatever
block they fall in.  Proximity is a flag of the scanned frame, so ``_links``
reads its two frames and nothing else.  ``_ends`` keeps each link step it
takes from ``_links`` for the rest of the window, keyed by the pair of
first-occurrence ids, and a repeated pair of grids reuses it.  A step holds
lists and anchor steps, no frame, so it keeps no frame alive.

A still window, whose frames are all one grid (most settled soups of a class
sweep), skips even that.  ``_first_ids``, the byte keys ``_frames`` reads,
shows it, and ``_ends`` hands the window to ``_still_ends``, which scans the
grid once and writes every track in closed form.  Each flagged component ends
by proximity on every frame, as a one-frame track.  Each unflagged component
is one track over the whole window: its shape on every frame, its anchor
still, and no trail, because its dilation holds no other component's cell,
so the corridor it sweeps holds no debris.  The mobile path yields nothing
from a still window.  Windows that settle partway, and periodic ones, take
the general loop.

A ``_Frame`` holds only what the block pass computes; ``_ends`` owns the
window's state, the grid's ``_steps`` table among it.  It visits a frame's
candidates in one loop, where each extends over its clean link or ends, then
the frame's components in one loop in ascending order, where an unflagged one
becomes a candidate and a flagged one ends its track by proximity.  A link is
clean only onto a component that has an anchor, which on the mobile path
leaves out exactly the flagged ones.  It hands back each track as it ends,
finished and classified: its trail measured over the table, its last cells,
states and reason set.  For ``track`` it yields every track, and ``track``
sorts them by first frame; for ``mobile_localizations`` it yields only those
that can be mobile.  The rest are Unresolved whatever their shapes: a track
that lived one frame has no period, since ``classify`` needs 2p >= 2 frames,
and one ended by a merge, split or proximity is Unresolved by definition.  In
soups that do not settle nearly every track is skipped, most as a first-frame
proximity kill.  The mobile path yields its ends in the full path's
relative order, and a stable sort keeps that order among equal first frames,
so ``mobile_localizations`` returns ``track``'s mobile tracks in ``track``'s
order.  The skipped tracks include every one that ends by proximity, so on
the mobile path no track steps onto a flagged component, nothing reads its
shape, and its scan computes none.

Tracking requires an even grid height: the torus seam on an odd-height grid
breaks neighbour symmetry (see hexgrid), and anchor displacement arithmetic
relies on row wraps preserving parity.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .engine import Trajectory, run
from .hexgrid import (
    EVEN_ROW_NEIGHBORS,
    ODD_ROW_NEIGHBORS,
    Grid,
    as_int,
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
    aligned with it.
    """

    cells: np.ndarray
    states: np.ndarray

    @property
    def size(self) -> int:
        return len(self.cells)


class _Frame:
    """One frame's components, stored as concatenated per-component runs.

    Component ``k`` (components ordered by smallest flat index) owns
    ``cells[bounds[k]:bounds[k + 1]]`` (sorted) with ``states`` aligned.
    ``labels`` maps every flat cell to its component, or -1 on substrate.
    ``reach`` maps every flat cell to the component not flagged ``clash``
    whose one-ring dilation holds it, or -1 where there is none; ``_links``
    reads it.  ``shapes`` and ``anchors`` hold each component's canonical
    shape and torus anchor (see ``_shapes``), or None where the scan did not
    shape it: on ``track``'s frames every component has both, on
    ``mobile_localizations``' frames only those not flagged ``clash``, and on
    ``extract_components``' frame none.

    ``clash[k]`` flags a component within two cells of another one.  Two
    components on the same frame always sit at least two cells apart (closer
    and they would be one component); their dilations intersect exactly when
    the gap is two, i.e. when they can influence each other's next step, so
    an unflagged component's dilation meets no other one.  These eight fields
    are all a frame holds: what ``_scan`` computes and nothing that tracking
    keeps (``_ends`` owns that).
    """

    __slots__ = ("cells", "states", "bounds", "labels", "reach", "shapes", "anchors", "clash")

    def __len__(self) -> int:
        return len(self.bounds) - 1


def _roots(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Smallest member of each node's connected component, edges ``u``-``v``.

    Shiloach-Vishkin style: every round hooks the larger root of each edge
    whose ends have different roots onto the smaller one, then compresses
    every path to its root; edges whose ends already share a root drop out.
    A root on several such edges gets one of its smaller roots, whichever the
    plain assignment writes last.  That is still exact: every hooked node is
    a root and gets a smaller parent, so no cycle forms, and the smallest
    member of a component is never hooked, so the final roots are the
    component minima.
    """
    parent = np.arange(n)
    while len(u):
        pu, pv = parent[u], parent[v]
        cross = pu != pv
        u, v, pu, pv = u[cross], v[cross], pu[cross], pv[cross]
        parent[np.maximum(pu, pv)] = np.minimum(pu, pv)
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


@lru_cache(maxsize=32)
def _steps(h: int, w: int) -> np.ndarray:
    """Every neighbour gather's step table, shape ``(13, h * w)``, int32, read-only.

    Rows 0-6 are ``neighbor_table(h, w).T``: each cell itself, then its E, SE,
    SW, W, NW and NE neighbours.  Rows 7-12 are half of every cell's radius-2
    ring, the cells reached by the steps E+E, E+SE, SE+SE, SE+SW, SW+SW and
    SW+W; the other six cells two steps away are these six reversed.  Cells
    run along the last axis, so a gather copies one long run per row (see
    the module docstring).  Cached like the table it is built from.
    """
    table = neighbor_table(h, w)
    pairs = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4))  # E=1, SE=2, SW=3, W=4
    ring = [table[table[:, a], b] for a, b in pairs]
    steps = np.vstack([table.T, *ring]).astype(np.int32)
    steps.setflags(write=False)
    return steps


def _scan(block: np.ndarray, shaped: str = "all") -> list[_Frame]:
    """Every frame of ``block``, shape ``(frames, h, w)``, from one array pass.

    Cells are keyed ``t * h * w + cell``, so no component crosses frames.
    Every neighbour comes from the ``_steps`` table, gathered along its cell
    axis: ``steps[rows].take(cell, axis=1) + base`` has one row per step and
    one column per non-S cell, so entry ``i`` of the flattened result
    belongs to non-S cell ``i % n``.  Root hooking joins each non-S cell to its E, SE and SW
    neighbours (rows 1-3), which names every edge once; ``_roots`` gives the
    component minima whatever the edge order.  Two components of a frame
    clash exactly when a cell of one lies two steps from a cell of the other
    (the cell between is in both dilations), so one label gather over the
    half radius-2 ring (rows 7-12) flags both ends of every hit.  An
    unflagged component's dilation meets no other dilation, so one scatter
    over rows 0-6 writes ``reach``, with no sort.
    Each frame gets views of the block's arrays, its components counted from 0.
    ``shaped`` names the components that get a canonical shape and anchor:
    ``"all"`` (for ``track``), ``"unflagged"``, those not flagged ``clash``
    (for ``mobile_localizations``), or ``"none"`` (for ``extract_components``).
    Every other shape and anchor is None.
    """
    nf, h, w = block.shape
    _require_even_height(h)
    size = h * w
    flat = block.ravel()
    steps = _steps(h, w)
    nz = np.flatnonzero(flat != 0)  # several times faster than on the uint8 cells
    n = len(nz)
    # int32: a frame keeps its labels and reach for as long as a track holds it
    labels = np.full(nf * size, -1, dtype=np.int32)
    labels[nz] = np.arange(n)
    cell = nz % size
    base = nz - cell
    around = labels[steps[1:4].take(cell, axis=1) + base]  # E, SE and SW: every edge once
    hook = np.flatnonzero(around >= 0)
    root = _roots(hook % n, around.ravel()[hook], n)

    is_root = root == np.arange(n)
    comp = (np.cumsum(is_root) - 1)[root]
    count = int(is_root.sum())
    first = np.searchsorted(nz[is_root], np.arange(nf + 1) * size)  # each frame's first component
    shift = first[nz // size]
    labels[nz] = own = comp - shift
    # a hit two steps away flags both ends; the six reversed steps meet the same pairs
    far = labels[steps[7:].take(cell, axis=1) + base]
    hit = np.flatnonzero((far >= 0) & (far != own))
    row = hit % n
    clash = np.zeros(count, dtype=bool)
    clash[comp[row]] = True
    clash[far.ravel()[hit] + shift[row]] = True
    # unflagged dilations are disjoint, so every write to a cell writes one value
    free = ~clash[comp]
    reach = np.full(nf * size, -1, dtype=np.int32)
    reach[steps[:7].take(cell[free], axis=1) + base[free]] = own[free]
    comp, key = np.divmod(np.sort(comp * (nf * size) + nz), nf * size)
    cells, states = key % size, flat[key]
    bounds = np.searchsorted(comp, np.arange(count + 1))
    shapes, anchors = [None] * count, [None] * count
    if shaped == "all":
        shapes, anchors = _shapes(cells, states, bounds, h, w)
    elif shaped == "unflagged":  # the unflagged components' runs, back to back
        kept = np.flatnonzero(~clash)
        kept_bounds = np.concatenate(([0], np.cumsum(bounds[kept + 1] - bounds[kept])))
        mask = ~clash[comp]
        got = _shapes(cells[mask], states[mask], kept_bounds, h, w)
        for k, shape, anchor in zip(kept.tolist(), *got):
            shapes[k], anchors[k] = shape, anchor
    frames = [_Frame() for _ in range(nf)]
    for t, (frame, c0, c1) in enumerate(zip(frames, first.tolist(), first[1:].tolist())):
        lo, hi, view = bounds[c0], bounds[c1], slice(t * size, (t + 1) * size)
        frame.cells, frame.states = cells[lo:hi], states[lo:hi]
        frame.bounds = bounds[c0 : c1 + 1] - lo
        frame.labels, frame.reach = labels[view], reach[view]
        frame.shapes, frame.anchors = shapes[c0:c1], anchors[c0:c1]
        frame.clash = clash[c0:c1]
    return frames


def _first_ids(tr: Trajectory) -> list[int]:
    """Per frame of ``tr``, the index of the first frame with the same grid, keyed by its bytes."""
    firsts: dict[bytes, int] = {}
    return [firsts.setdefault(grid.cells.tobytes(), t) for t, grid in enumerate(tr.frames)]


def _frames(tr: Trajectory, ids: list[int], shaped: str):
    """Yield ``(first, frame)`` for each frame of ``tr``: ``first`` is ``ids[t]``, the index
    of the first frame with the same grid (``_first_ids``), and ``frame`` its ``_Frame``
    (shapes as ``_scan``'s ``shaped`` says).

    Only first occurrences are scanned, in blocks of up to ``_BLOCK_CELLS`` non-S
    cells or of one frame; a repeated grid gets the ``_Frame`` of its first
    occurrence back.  That is exact, because the scan of a frame depends on its
    grid alone, not on the block it shares.  A ``_Frame`` is kept for reuse only
    until the last occurrence of its grid, so a window with no repeated grid
    holds no more frames than before, and blocks are still scanned lazily.
    """
    last = {first: t for t, first in enumerate(ids)}  # keys: the first occurrences, in order
    scanned = _scanned(np.stack([tr.frames[t].cells for t in last]), shaped)
    kept: dict[int, _Frame] = {}
    for t, first in enumerate(ids):
        frame = next(scanned) if first == t else kept.pop(first)
        if last[first] > t:
            kept[first] = frame
        yield first, frame


def _scanned(stack: np.ndarray, shaped: str):
    """``stack``'s frames, scanned in blocks of up to ``_BLOCK_CELLS`` non-S cells or one frame."""
    ends = np.cumsum(np.count_nonzero(stack, axis=(1, 2))).tolist()
    start = 0
    while start < len(stack):
        stop = bisect_right(ends, (ends[start - 1] if start else 0) + _BLOCK_CELLS, lo=start + 1)
        yield from _scan(stack[start:stop], shaped)
        start = stop


def extract_components(grid: Grid) -> list[Component]:
    """Partition the non-S cells of ``grid`` into connected components.

    6-neighbour adjacency on the torus, labelled for the whole frame at once
    by ``_scan``, the pass ``track`` runs, on a block of this one frame,
    without its canonical shapes.  Components come back ordered by their
    smallest flat index, so the result is deterministic.  Requires an even
    grid height.
    """
    frame = _scan(grid.cells[None], "none")[0]
    b = frame.bounds.tolist()
    return [Component(frame.cells[lo:hi], frame.states[lo:hi]) for lo, hi in zip(b, b[1:])]


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


class _Triples:
    """One shared ``(dr, dq, state)`` tuple per distinct triple of the canonical shapes.

    ``parts`` is ``(table, built, rows, cols)``.  A triple with
    ``0 <= dr < rows`` and ``-cols <= dq < cols`` has the code
    ``(dr * 2 * cols + dq + cols) * 3 + state``; ``table`` holds its tuple at
    that index once ``built`` marks the code.  ``take`` packs every cell of a
    block into its code in numpy, fills the codes not built yet in one
    vectorised step, and reads the tuples with one ``take``.  A block whose
    triples leave the extents (``_unwrap``'s coordinates can leave the range
    ``_lift`` gives) grows them to fit, in a new, empty table.  A tuple holds
    the Python ints a fresh one would, so sharing it changes no shape,
    comparison, hash or ``repr``, and no result depends on what the table
    holds.  ``take`` reads ``parts`` once and replaces it whole, and it
    writes a tuple before marking it built, so callers in several threads
    each see a consistent table.
    """

    __slots__ = ("parts",)

    def __init__(self):
        self.parts = np.empty(0, dtype=object), np.zeros(0, dtype=bool), 0, 0

    def take(self, dr: np.ndarray, dq: np.ndarray, states: np.ndarray) -> list[tuple]:
        """The triples of cells with rows ``dr`` (all >= 0), axial columns ``dq`` and ``states``."""
        table, built, rows, cols = self.parts
        need_rows, need_cols = int(dr.max()) + 1, max(-int(dq.min()), int(dq.max()) + 1)
        if need_rows > rows or need_cols > cols:
            rows, cols = max(need_rows, rows), max(need_cols, cols)
            size = rows * cols * 6
            table, built = np.empty(size, dtype=object), np.zeros(size, dtype=bool)
            self.parts = table, built, rows, cols
        span = 2 * cols
        code = (dr * span + dq + cols) * 3 + states
        new = code[~built[code]]
        if len(new):
            new = _unique(new)
            rest, st = np.divmod(new, 3)
            r, d = np.divmod(rest, span)
            fresh = zip(r.tolist(), (d - cols).tolist(), st.tolist())
            table[new] = np.fromiter(fresh, dtype=object, count=len(new))
            built[new] = True
        return table.take(code).tolist()


# the triples every canonical shape is built from
_TRIPLES = _Triples()


def _shapes(
    cells: np.ndarray, states: np.ndarray, bounds: np.ndarray, h: int, w: int
) -> tuple[list[tuple], list[int]]:
    """Canonical shape and anchor of every component (see ``canonical_shape``).

    Components are runs ``cells[bounds[k]:bounds[k + 1]]``, each sorted.  The
    triples come from the shared ``_TRIPLES``, not as a fresh tuple per cell:
    in a class sweep those fresh tuples are most of what triggers CPython's
    cyclic garbage collector, and a shared tuple holds the same Python ints,
    so every shape is exactly what fresh tuples would give.
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
    dr, dq = rows[order] - rows[origin][comp], q[order] - q[origin][comp]
    triples = _TRIPLES.take(dr, dq, states[order])
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


@dataclass(slots=True)
class Localization:
    """One pattern followed over a window of frames.

    ``shapes`` and ``anchors`` run frame by frame; anchors accumulate the
    per-step axial displacement, so differences of anchors are true travel
    vectors even across torus wraps.  ``classify`` fills in ``period``,
    ``displacement`` and ``loc_class``.  The class is slotted: an instance
    has no ``__dict__`` and takes no attribute but these fields, which keeps
    each of the thousands a class sweep builds small and cheap to make.
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
    """A Localization being built and its (frame, component) places on consecutive frames."""

    __slots__ = ("loc", "places")

    def __init__(self, first_frame: int, p_max: int, frame: _Frame, k: int):
        self.loc = Localization(first_frame, [frame.shapes[k]], [(0, 0)], p_max=p_max)
        self.places = [(frame, k)]

    def extend(self, frame: _Frame, k: int, delta: tuple[int, int]) -> None:
        """Continue on component ``k`` of the next frame, stepping the anchor by ``delta``.

        ``_ends`` calls this only over a clean link, so component ``k`` has a shape.
        """
        self.places.append((frame, k))
        dr, dq = delta
        ar, aq = self.loc.anchors[-1]
        self.loc.shapes.append(frame.shapes[k])
        self.loc.anchors.append((ar + dr, aq + dq))

    def _measure_trail(self, table: np.ndarray) -> None:
        """Persistent non-S debris inside the corridor this track swept.

        The corridor is the dilation of every earlier position of the
        component, taken in one gather of rows 0-6 of ``table`` (the grid's
        ``_steps``, which ``_ends`` holds for the window) over the
        cells of the distinct earlier places (a settled window revisits one
        frame's component again and again).  Debris must be present
        (somewhere in the corridor, away from the current head) in each of
        the last two frames; shapes that merely flicker during the head's
        passage do not count.
        """
        if len(self.places) < 3:
            return
        swept = np.zeros(len(self.places[0][0].labels), dtype=bool)
        runs = [f.cells[f.bounds[k] : f.bounds[k + 1]] for f, k in dict.fromkeys(self.places[:-1])]
        swept[table[:7].take(np.concatenate(runs), axis=1)] = True
        # the only non-S cells inside the head's dilation are the head's own
        hits = [swept[f.cells] & (f.labels[f.cells] != k) for f, k in self.places[-2:]]
        if hits[0].any() and hits[1].any():
            self.loc.has_trail = True
            self.loc.trail_size = int(hits[1].sum())


def _lone(t: int, frame: _Frame, k: int, reason, p_max: int) -> Localization:
    """The finished Localization of a track that lived on frame ``t`` alone, on component ``k``.

    It is Unresolved with no period, as ``classify`` would find: a period
    needs two frames.
    """
    lo, hi = frame.bounds.item(k), frame.bounds.item(k + 1)
    return Localization(
        t, [frame.shapes[k]], [(0, 0)], frame.cells[lo:hi], frame.states[lo:hi],
        reason, p_max, False, 0, None, None, UNRESOLVED,
    )


def _still_ends(tr: Trajectory, p_max: int):
    """``_ends``' full path on a still window (one grid on every frame), from one scan.

    A flagged component ends by proximity on every frame, each time as a
    track of that frame alone.  An unflagged component's dilation holds no
    other component's cell, so on every next frame it links cleanly onto
    itself with anchor step (0, 0): it is one track over the whole window,
    its shape on every frame and its anchor still.  That track has no trail,
    since the corridor it swept is its own dilation, which holds no non-S
    cell but its own.  ``classify`` finds period 1 and displacement (0, 0),
    a StillLife, once the window has two frames, and with one frame the track
    is Unresolved.  The ends come in the general loop's order: per frame,
    the proximity ends in component order, then after the last frame the
    unflagged tracks in component order.  An empty grid holds no track, and
    its window is not scanned.
    """
    cells = tr.frames[0].cells
    if not cells.any():
        return
    frame = _scan(cells[None])[0]
    n, t0 = len(tr.frames), tr.t0
    flagged = np.flatnonzero(frame.clash).tolist()
    for t in range(t0, t0 + n):
        for k in flagged:
            yield _lone(t, frame, k, "proximity", p_max)
    for k in np.flatnonzero(~frame.clash).tolist():
        if n == 1:
            yield _lone(t0, frame, k, None, p_max)
            continue
        lo, hi = frame.bounds[k], frame.bounds[k + 1]
        yield Localization(
            t0, [frame.shapes[k]] * n, [(0, 0)] * n, frame.cells[lo:hi], frame.states[lo:hi],
            p_max=p_max, period=1, displacement=(0, 0), loc_class=STILL_LIFE,
        )


def _ends(tr: Trajectory, p_max: int, shaped: str):
    """Yield each track of ``tr`` as it ends, finished and classified, in discovery order.

    A track ends on component ``k`` of a frame with reason ``"merge"``,
    ``"split"``, ``"proximity"`` or None; the local ``end`` takes its
    ``_Track`` (or builds the Localization of a track that lived on that frame
    alone), measures its trail over the window's ``_steps`` table, sets its
    last cells and states and its reason, and classifies it.  Frames are
    scanned with ``_scan``'s ``shaped``.  The ``p_max`` and grid-height checks
    run on the first ``next``, before any frame is scanned.  A still window
    (every ``_first_ids`` entry 0) goes to ``_still_ends`` on the full path
    and yields nothing on the mobile path; every other window takes the loop
    below.

    A track continues where its component has one successor that no other
    component claims and that has an anchor: a clean link.  On the full path
    every component has an anchor; on the mobile path (``"unflagged"``) the
    flagged ones have none, so no ``_Track`` steps onto a component without a
    shape.  ``steps`` keeps what ``_links`` gave for each pair of consecutive
    grids, keyed by their first-occurrence ids, so a repeated pair links once.

    ``live`` holds every unflagged component of the previous frame: its
    ``_Track``, or None for a fresh component (one no track reached).  Tracks
    past their first frame come first, in the order they began, then fresh
    components by index.  One loop per frame visits them in that order, and
    each either extends over its clean link (a fresh component builds its
    ``_Track`` first) or ends on the earlier frame.  A second loop visits the
    later frame's components in ascending order: an unflagged one joins
    ``live``, and a flagged one ends its track by proximity.  On the full
    path every end is yielded: per frame, the ends of the first loop, then
    the proximity ends of the second; after the last frame, every entry of
    ``live``.  On the mobile path only the ends that can be mobile are
    yielded: tracks past their first frame that end with reason None.
    """
    h, w = tr.frames[0].shape
    p_max = as_int(p_max, "p_max")
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    _require_even_height(h)

    every = shaped != "unflagged"  # the full path yields every end
    ids = _first_ids(tr)
    if not any(ids):  # one grid on every frame
        if every:
            yield from _still_ends(tr, p_max)
        return  # a still window holds no mobile track

    table = _steps(h, w)

    def end(trk: _Track | None, t: int, frame: _Frame, k: int, reason) -> Localization:
        if trk is None:
            return _lone(t, frame, k, reason, p_max)
        trk._measure_trail(table)
        loc = trk.loc
        lo, hi = frame.bounds[k], frame.bounds[k + 1]
        loc.cells_last, loc.states_last = frame.cells[lo:hi], frame.states[lo:hi]
        loc.terminated = reason
        classify(loc)
        return loc

    live: dict[int, _Track | None] = {}  # every unflagged component of prev: its track, or None
    steps: dict[tuple[int, int], tuple] = {}  # link steps, by the pair of first-occurrence ids
    prev = prev_id = None
    for t, (frame_id, frame) in enumerate(_frames(tr, ids, shaped), start=tr.t0):
        nxt: dict[int, _Track | None] = {}
        if live:
            step = steps.get((prev_id, frame_id))
            if step is None:
                nsucc, succ, nclaim = _links(prev, frame)
                clean = nsucc == 1
                clean[clean] = nclaim[succ[clean]] == 1
                # the anchor step of every clean link: one onto a component with an anchor
                # (a flagged component reaches nothing, so no clean link leaves one)
                to = succ.tolist()
                deltas = {
                    k: _axial_delta(prev.anchors[k], frame.anchors[to[k]], h, w)
                    for k in np.flatnonzero(clean).tolist()
                    if frame.anchors[to[k]] is not None
                }
                step = steps[prev_id, frame_id] = nsucc.tolist(), to, deltas
            counts, to, deltas = step
            for k, trk in live.items():
                if k in deltas:
                    if trk is None:
                        trk = _Track(t - 1, p_max, prev, k)
                    trk.extend(frame, to[k], deltas[k])
                    nxt[to[k]] = trk
                elif every or trk is not None and not counts[k]:
                    # no successor: None; one that another also claims: merge; more: split
                    yield end(trk, t - 1, prev, k, (None, "merge", "split")[min(counts[k], 2)])

        for k, flagged in enumerate(frame.clash.tolist()):
            if not flagged:
                nxt.setdefault(k, None)
            elif every:
                yield end(nxt.pop(k, None), t, frame, k, "proximity")
        live = nxt
        prev, prev_id = frame, frame_id

    for k, trk in live.items():
        if every or trk is not None:
            yield end(trk, t, prev, k, None)


def track(tr: Trajectory, p_max: int = 12) -> list[Localization]:
    """Track localizations over the frames of ``tr``.

    Components are linked frame to frame when the earlier component's
    one-ring dilation overlaps exactly one successor and nothing else claims
    it.  Ambiguity is terminal: a track whose successor set has two members
    (split), a component claimed by two tracks (merge), or two components
    approaching within two cells of each other (proximity) all end their
    tracks as Unresolved -- identity cannot be trusted through a collision.
    Every component always belongs to exactly one track, so fresh tracks
    start wherever no clean predecessor exists.  The tracks proximity ends on
    one frame end in component order (ascending smallest cell), so the
    returned order depends on the grids alone.

    A window whose frames are all one grid is tracked from one scan of it,
    with the same result: each component in proximity ends on every frame,
    and each other component is one StillLife track over the window
    (Unresolved if the window has one frame).  Such a track has no trail:
    its dilation holds no other component's cell, so the corridor it swept
    holds no debris.

    Returns one classified Localization per track, as ``_ends`` yields them,
    in a stable sort by ``first_frame`` (frame order, then discovery order);
    ``first_frame`` counts from ``tr.t0``, so a run trimmed by ``keep_last``
    keeps its times.
    """
    return sorted(_ends(tr, p_max, "all"), key=lambda loc: loc.first_frame)


def _links(prev: _Frame, frame: _Frame) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which components of ``frame`` the components of ``prev`` not in a clash reach.

    A successor of a previous component is any component its dilation
    touches, so one gather of ``prev.reach`` at ``frame``'s cells finds every
    (predecessor, successor) pair; a flagged predecessor reaches nothing.
    Returns, per previous component, the number of successors and
    (meaningful when that is one) the successor, and per component of
    ``frame`` the number of predecessors not in a clash claiming it.
    """
    p = prev.reach[frame.cells]
    keep = p >= 0
    n = max(len(frame), 1)
    pairs = _unique(p[keep].astype(np.int64) * n + frame.labels[frame.cells[keep]])
    p, s = np.divmod(pairs, n)
    first = np.zeros(len(prev), dtype=np.int64)
    first[p] = s
    return np.bincount(p, minlength=len(prev)), first, np.bincount(s, minlength=len(frame))


# -- fitness -------------------------------------------------------------------


@dataclass
class FitnessConfig:
    """Parameters for the random-soup glider census behind the EA fitness.

    A ``patch_width`` x ``patch_height`` region at the centre of an otherwise
    empty ``width`` x ``height`` torus is seeded at random (each patch cell is
    A with probability ``p_a``, B with ``p_b``, else S).  The automaton runs
    ``steps`` updates and ``track`` follows the trailing ``window`` frames.
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
        for f in fields(self):
            value = getattr(self, f.name)
            if type(f.default) is int:
                as_int(value, f.name)
            elif type(f.default) is float and not 0 <= value:  # NaN fails too
                raise ValueError(f"{f.name} must be a non-negative probability, got {value!r}")
        if not isinstance(self.count_puffers, (bool, np.bool_)):
            raise ValueError("count_puffers must be True or False")
        _require_even_height(self.height)
        if min(self.width, self.height) < 3:
            raise ValueError("grid dimensions must be at least 3x3")
        if min(self.patch_width, self.patch_height) < 0:
            raise ValueError("patch sides must be non-negative")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.patch_width > self.width or self.patch_height > self.height:
            raise ValueError("patch must fit inside the grid")
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
    # p_a + p_b may be 1 and the difference still round below zero (0.07 and 0.93)
    p_s = max(0.0, 1.0 - cfg.p_a - cfg.p_b)
    patch = rng.choice(3, size=(cfg.patch_height, cfg.patch_width), p=[p_s, cfg.p_a, cfg.p_b])
    cells[r0 : r0 + cfg.patch_height, c0 : c0 + cfg.patch_width] = patch
    return Grid(cells)


def count_mobile(locs: list[Localization], count_puffers: bool = True) -> int:
    wanted = MOBILE_CLASSES if count_puffers else (GLIDER,)
    return sum(1 for loc in locs if loc.loc_class in wanted)


def _soup(rule: RuleMatrix, cfg: FitnessConfig, seed) -> Trajectory:
    """The trailing window of one random soup: ``seed`` -> patch -> run."""
    soup = random_patch_grid(cfg, np.random.default_rng(seed))
    return run(soup, rule, cfg.steps, keep_last=cfg.window)


def soup_localizations(rule: RuleMatrix, cfg: FitnessConfig, seed) -> list[Localization]:
    """Track one random soup: ``seed`` -> patch -> run -> trailing window."""
    return track(_soup(rule, cfg, seed), p_max=cfg.p_max)


def mobile_localizations(rule: RuleMatrix, cfg: FitnessConfig, seed) -> list[Localization]:
    """The Glider and PufferTrain tracks of ``soup_localizations(rule, cfg, seed)``, in order.

    Only tracks that lived past one frame and were not ended by a merge,
    split or proximity are built and classified; every other track is
    Unresolved (see the module docstring).
    """
    return _mobile_tracks(_soup(rule, cfg, seed), cfg.p_max)


def _mobile_tracks(tr: Trajectory, p_max: int) -> list[Localization]:
    """The Glider and PufferTrain tracks of ``track(tr, p_max)``, in order.

    The frames are scanned shaping only the components not flagged ``clash``:
    a flagged component's track ends there by proximity and is skipped, and
    ``_ends`` yields, classified, only the tracks that can be mobile, in the
    full path's relative order.  The mobile ones are sorted by
    ``first_frame`` with the same stable sort as in ``track``.
    """
    mobile = (loc for loc in _ends(tr, p_max, "unflagged") if loc.loc_class in MOBILE_CLASSES)
    return sorted(mobile, key=lambda loc: loc.first_frame)


def fitness(rule: RuleMatrix, cfg: FitnessConfig, rng: np.random.Generator) -> float:
    """Mobile localizations per cell: the quantity the EA maximizes.

    Runs ``cfg.trials`` independent random soups and counts tracks classified
    Glider (and PufferTrain unless disabled) in each trailing window; the
    total is normalized by grid area times trials.  Per-trial seeds are
    drawn from ``rng`` up front, so trials are order-independent.
    """
    seeds = rng.integers(0, 2**63, size=cfg.trials)
    total = sum(
        count_mobile(mobile_localizations(rule, cfg, int(seed)), cfg.count_puffers)
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
