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

Each frame goes through one array pass (``_scan`` and ``_shapes``): component
labels by root hooking over the neighbour table, every component's sorted
cells, states and one-ring dilation from sorts of (component, cell) keys,
and every canonical shape and anchor from one sort of (component, row,
axial column) keys.  Shapes need coordinates free of the torus wrap.  A
component that does not touch both row 0 and row h-1, nor both column 0 and
column w-1, cannot use a seam edge, so its torus coordinates serve as they
are; one that does is first shifted by an even number of rows and any
number of columns so that an empty row and an empty column of it lie on
the seams.  Only a component that occupies every row or every column, and
so may wrap around the torus, is lifted by the BFS of ``_unwrap``.
``track`` links and checks proximity frame to frame with array operations
over the same pass.  ``extract_components`` returns ``_scan``'s components,
and ``canonical_shape`` runs ``_shapes`` on one of them.

Tracking requires an even grid height: the torus seam on an odd-height grid
breaks neighbour symmetry (see hexgrid), and anchor displacement arithmetic
relies on row wraps preserving parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Trajectory, run
from .hexgrid import (
    EVEN_ROW_NEIGHBORS,
    ODD_ROW_NEIGHBORS,
    Grid,
    neighbor_table,
)
from .rules import RuleMatrix

# Localization classes.
STILL_LIFE = "StillLife"
OSCILLATOR = "Oscillator"
GLIDER = "Glider"
PUFFER_TRAIN = "PufferTrain"
UNRESOLVED = "Unresolved"

MOBILE_CLASSES = (GLIDER, PUFFER_TRAIN)


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
    cell to its component, or -1 on substrate.
    """

    __slots__ = ("cells", "states", "bounds", "dilated", "dil_bounds", "dil_comp", "labels")

    def __len__(self) -> int:
        return len(self.bounds) - 1


def _component(frame: _Frame, k: int) -> Component:
    """Component ``k`` of ``frame``, as views into the frame's arrays."""
    lo, hi = frame.bounds[k], frame.bounds[k + 1]
    return Component(
        cells=frame.cells[lo:hi],
        states=frame.states[lo:hi],
        dilated=frame.dilated[frame.dil_bounds[k] : frame.dil_bounds[k + 1]],
    )


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


def _scan(grid: Grid) -> _Frame:
    """Label, group and dilate every component of ``grid`` in one pass."""
    h, w = grid.shape
    _require_even_height(h)
    flat = grid.cells.ravel()
    table = neighbor_table(h, w)
    nz = np.flatnonzero(flat)
    n = len(nz)
    labels = np.full(h * w, -1, dtype=np.int64)
    labels[nz] = np.arange(n)
    around = labels[table[nz, 1:]]
    edge = around > np.arange(n)[:, None]  # symmetric table: one direction suffices
    root = _roots(np.nonzero(edge)[0], around[edge], n)

    is_root = root == np.arange(n)
    comp = (np.cumsum(is_root) - 1)[root]
    count = int(is_root.sum())
    labels[nz] = comp
    frame = _Frame()
    frame.labels = labels
    comp, frame.cells = np.divmod(np.sort(comp * (h * w) + nz), h * w)
    frame.states = flat[frame.cells]
    frame.bounds = np.searchsorted(comp, np.arange(count + 1))
    keys = _unique(comp[:, None] * (h * w) + table[frame.cells])
    frame.dil_comp, frame.dilated = np.divmod(keys, h * w)
    frame.dil_bounds = np.searchsorted(frame.dil_comp, np.arange(count + 1))
    return frame


def extract_components(grid: Grid) -> list[Component]:
    """Partition the non-S cells of ``grid`` into connected components.

    6-neighbour adjacency on the torus, labelled for the whole frame at once
    by ``_scan``, the pass ``track`` runs.  Components come back ordered by
    their smallest flat index, so the result is deterministic.  Requires an
    even grid height.
    """
    frame = _scan(grid)
    return [_component(frame, k) for k in range(len(frame))]


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
    q = cols - (rows - (rows & 1)) // 2
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
    q0 = c0 - (r0 - (r0 & 1)) // 2
    q1 = c1 - (r1 - (r1 & 1)) // 2
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
    """Mutable tracking state while scanning frames; becomes a Localization."""

    __slots__ = ("loc", "places", "anchor_cell", "last_two_frames")

    def __init__(self, first_frame: int, p_max: int):
        self.loc = Localization(first_frame=first_frame, p_max=p_max)
        self.places: list[tuple[_Frame, int]] = []  # (frame, component index)
        self.anchor_cell = -1  # flat torus index of the current anchor
        self.last_two_frames: list = []

    def append(self, frame: _Frame, k: int, shape, anchor_axial, anchor_cell: int) -> None:
        self.loc.shapes.append(shape)
        self.loc.anchors.append(anchor_axial)
        self.places.append((frame, k))
        self.anchor_cell = anchor_cell

    def finish(self, reason: str | None) -> None:
        self.loc.terminated = reason
        last = _component(*self.places[-1])
        self.loc.cells_last = last.cells
        self.loc.states_last = last.states
        self._measure_trail()
        self.places = []  # let go of the frames' arrays

    def _measure_trail(self) -> None:
        """Persistent non-S debris inside the corridor this track swept.

        The corridor is the dilation of every earlier position of the
        component.  Debris must be present (somewhere in the corridor, away
        from the current head) in each of the last two frames; shapes that
        merely flicker during the head's passage do not count.
        """
        if len(self.places) < 3 or len(self.last_two_frames) < 2:
            return
        corridor = np.concatenate([_component(*p).dilated for p in self.places[:-1]])
        hits = []
        for place, frame_cells in zip(self.places[-2:], self.last_two_frames):
            near_head = np.isin(frame_cells, _component(*place).dilated)
            in_corridor = np.isin(frame_cells, corridor)
            hits.append(frame_cells[in_corridor & ~near_head])
        if len(hits[0]) and len(hits[1]):
            self.loc.has_trail = True
            self.loc.trail_size = len(hits[1])


def track(tr: Trajectory, window: int | None = None, p_max: int = 12) -> list[Localization]:
    """Track localizations over the trailing ``window`` frames of ``tr``.

    Components are linked frame to frame when the earlier component's
    one-ring dilation overlaps exactly one successor and nothing else claims
    it.  Ambiguity is terminal: a track whose successor set has two members
    (split), a component claimed by two tracks (merge), or two components
    approaching within two cells of each other (proximity) all end their
    tracks as Unresolved -- identity cannot be trusted through a collision.
    Every component always belongs to exactly one track, so fresh tracks
    start wherever no clean predecessor exists.

    Returns one classified Localization per track.
    """
    if window is not None and window < 1:
        raise ValueError("window must be >= 1")
    frames = tr.frames if window is None else tr.frames[-window:]
    h, w = frames[0].shape
    _require_even_height(h)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    t_offset = tr.t0 + (len(tr.frames) - len(frames))

    done: list[_Track] = []
    frame_cells: list[np.ndarray] = []  # each scanned frame's non-S cells

    def finish(trk: _Track, reason: str | None, at: int) -> None:
        trk.last_two_frames = frame_cells[max(0, at - 1) : at + 1]
        trk.finish(reason)
        done.append(trk)

    tracks: dict[int, _Track] = {}
    prev = None
    for t, grid in enumerate(frames):
        frame = _scan(grid)
        shapes, anchors = _shapes(frame.cells, frame.states, frame.bounds, h, w)
        frame_cells.append(frame.cells)
        if tracks:
            nsucc, succ, nclaim = _links(prev, frame, list(tracks))

        next_tracks: dict[int, _Track] = {}
        for prev_idx, trk in tracks.items():
            if nsucc[prev_idx] == 0:
                finish(trk, None, t - 1)  # died out; still classifiable
            elif nsucc[prev_idx] > 1:
                finish(trk, "split", t - 1)
            elif nclaim[succ[prev_idx]] > 1:
                finish(trk, "merge", t - 1)
            else:
                idx = succ[prev_idx]
                dr, dq = _axial_delta(trk.anchor_cell, anchors[idx], h, w)
                ar, aq = trk.loc.anchors[-1]
                trk.append(frame, idx, shapes[idx], (ar + dr, aq + dq), anchors[idx])
                next_tracks[idx] = trk

        for idx in range(len(frame)):
            if idx not in next_tracks:
                fresh = _Track(t_offset + t, p_max)
                fresh.append(frame, idx, shapes[idx], (0, 0), anchors[idx])
                next_tracks[idx] = fresh

        for idx in _clashes(frame, list(next_tracks)):
            finish(next_tracks.pop(idx), "proximity", t)
        tracks = next_tracks
        prev = frame

    for trk in tracks.values():
        finish(trk, None, len(frames) - 1)

    locs = [trk.loc for trk in done]
    locs.sort(key=lambda l: l.first_frame)  # stable: frame order, then discovery order
    for loc in locs:
        classify(loc)
    return locs


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
        if self.height % 2:
            raise ValueError("tracking requires an even grid height")
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
        dr = "" if loc.displacement is None else loc.displacement[0]
        dc = "" if loc.displacement is None else loc.displacement[1]
        rows.append(
            f"{trial},{loc.loc_class},{period},{dr},{dc},{loc.size},{loc.first_frame}"
        )
    return rows
