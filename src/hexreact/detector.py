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


def extract_components(grid: Grid) -> list[Component]:
    """Partition the non-S cells of ``grid`` into connected components.

    6-neighbour adjacency on the torus; breadth-first flooding over batches
    of frontier cells.  Components come back ordered by their smallest flat
    index, so the result is deterministic.
    """
    flat = grid.cells.ravel()
    seeds = np.flatnonzero(flat)
    if len(seeds) == 0:
        return []
    h, w = grid.shape
    table = neighbor_table(h, w)
    visited = np.zeros(h * w, dtype=bool)
    comps = []
    for seed in seeds:
        if visited[seed]:
            continue
        visited[seed] = True
        frontier = np.array([seed])
        layers = [frontier]
        while len(frontier):
            around = np.unique(table[frontier, 1:])
            fresh = around[(flat[around] != 0) & ~visited[around]]
            visited[fresh] = True
            frontier = fresh
            if len(fresh):
                layers.append(fresh)
        cells = np.sort(np.concatenate(layers))
        comps.append(
            Component(
                cells=cells,
                states=flat[cells].copy(),
                dilated=np.unique(table[cells]),
            )
        )
    return comps


# -- canonical shapes --------------------------------------------------------


def _unwrap(comp: Component, h: int, w: int) -> dict[int, tuple[int, int]]:
    """Assign torus-free (row, col) coordinates to a component's cells.

    BFS from the smallest cell, stepping by the raw neighbour offsets, so a
    pattern straddling the wrap seam gets coherent coordinates.  Components
    that wrap all the way around the torus get spanning-tree coordinates --
    arbitrary but deterministic, which is all their (unclassifiable) tracks
    need.  Assumes even ``h``; odd heights put wrapped rows on the wrong
    parity.
    """
    member = set(int(c) for c in comp.cells)
    start = int(comp.cells[0])
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


def canonical_shape(comp: Component, h: int, w: int) -> tuple[tuple, int]:
    """Translation-invariant shape of a component, plus its anchor cell.

    The cells are unwrapped, converted to axial coordinates, and shifted so
    the lexicographically smallest (row, axial-col) position is the origin.
    Two components that are torus translates of each other (including
    translates landing on the other row parity) produce equal shapes.

    Returns ``(shape, anchor)``: the shape as a sorted tuple of
    ``(row, axial_col, state)`` triples, and the flat torus index of the cell
    that became the origin, which is what displacement tracking follows.
    """
    coords = _unwrap(comp, h, w)
    state_of = dict(zip((int(c) for c in comp.cells), (int(s) for s in comp.states)))
    axial = {}
    for cell, (ur, uc) in coords.items():
        axial[cell] = (ur, uc - (ur - (ur & 1)) // 2)
    origin_cell = min(axial, key=lambda cell: axial[cell])
    r0, q0 = axial[origin_cell]
    shape = tuple(
        sorted((r - r0, q - q0, state_of[cell]) for cell, (r, q) in axial.items())
    )
    return shape, origin_cell


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

    __slots__ = ("loc", "comps", "alive", "anchor_cell", "last_two_frames")

    def __init__(self, first_frame: int, p_max: int):
        self.loc = Localization(first_frame=first_frame, p_max=p_max)
        self.comps: list[Component] = []
        self.alive = True
        self.anchor_cell = -1  # flat torus index of the current anchor
        self.last_two_frames: list = []

    def append(self, comp: Component, shape, anchor_axial, anchor_cell: int) -> None:
        self.loc.shapes.append(shape)
        self.loc.anchors.append(anchor_axial)
        self.comps.append(comp)
        self.anchor_cell = anchor_cell

    def finish(self, reason: str | None) -> None:
        self.alive = False
        self.loc.terminated = reason
        last = self.comps[-1]
        self.loc.cells_last = last.cells
        self.loc.states_last = last.states
        self._measure_trail()

    def _measure_trail(self) -> None:
        """Persistent non-S debris inside the corridor this track swept.

        The corridor is the dilation of every earlier position of the
        component.  Debris must be present (somewhere in the corridor, away
        from the current head) in each of the last two frames; shapes that
        merely flicker during the head's passage do not count.
        """
        if len(self.comps) < 3 or len(self.last_two_frames) < 2:
            return
        corridor = np.unique(np.concatenate([c.dilated for c in self.comps[:-1]]))
        hits = []
        for comp, frame_cells in zip(self.comps[-2:], self.last_two_frames):
            near_head = np.isin(frame_cells, comp.dilated)
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
    frames = tr.frames if window is None else tr.frames[-window:]
    h, w = frames[0].shape
    if h % 2:
        raise ValueError("tracking requires an even grid height (torus parity)")
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    t_offset = tr.t0 + (len(tr.frames) - len(frames))

    def frame_info(g: Grid):
        comps = extract_components(g)
        shapes = [canonical_shape(c, h, w) for c in comps]
        labels = np.full(h * w, -1, dtype=np.int64)
        for idx, comp in enumerate(comps):
            labels[comp.cells] = idx
        return comps, shapes, labels

    done: list[_Track] = []
    nonzero_cells = [np.flatnonzero(g.cells.ravel()) for g in frames]

    def finish(trk: _Track, reason: str | None, at: int) -> None:
        trk.last_two_frames = nonzero_cells[max(0, at - 1) : at + 1]
        trk.finish(reason)
        done.append(trk)

    tracks: dict[int, _Track] = {}
    for t in range(len(frames)):
        comps_t, shapes_t, labels_t = frame_info(frames[t])
        claims: dict[int, list[int]] = {}
        succs: dict[int, list[int]] = {}
        for prev_idx, trk in tracks.items():
            cand = np.unique(labels_t[trk.comps[-1].dilated])
            cand = [int(i) for i in cand if i >= 0]
            succs[prev_idx] = cand
            for i in cand:
                claims.setdefault(i, []).append(prev_idx)

        next_tracks: dict[int, _Track] = {}
        for prev_idx, trk in tracks.items():
            cand = succs[prev_idx]
            if not cand:
                finish(trk, None, t - 1)  # died out; still classifiable
            elif len(cand) > 1:
                finish(trk, "split", t - 1)
            elif len(claims[cand[0]]) > 1:
                finish(trk, "merge", t - 1)
            else:
                idx = cand[0]
                shape, anchor_cell = shapes_t[idx]
                dr, dq = _axial_delta(trk.anchor_cell, anchor_cell, h, w)
                ar, aq = trk.loc.anchors[-1]
                trk.append(comps_t[idx], shape, (ar + dr, aq + dq), anchor_cell)
                next_tracks[idx] = trk

        for idx, comp in enumerate(comps_t):
            if idx not in next_tracks:
                fresh = _Track(t_offset + t, p_max)
                fresh.append(comp, shapes_t[idx][0], (0, 0), shapes_t[idx][1])
                next_tracks[idx] = fresh

        tracks = next_tracks
        _check_proximity(tracks, lambda trk: finish(trk, "proximity", t))
        tracks = {i: trk for i, trk in tracks.items() if trk.alive}

    for trk in tracks.values():
        finish(trk, None, len(frames) - 1)

    locs = [trk.loc for trk in done]
    locs.sort(key=lambda l: l.first_frame)  # stable: frame order, then discovery order
    for loc in locs:
        classify(loc)
    return locs


def _check_proximity(tracks: dict, kill) -> None:
    """Terminate tracks whose components come within two cells of each other.

    Two components on the same frame always sit at least two cells apart
    (closer and they would be one component); their dilations intersect
    exactly when the gap is two or less, i.e. when they can influence each
    other's next step.
    """
    if len(tracks) < 2:
        return
    owner: dict[int, int] = {}
    clashing: set[int] = set()
    for idx, trk in tracks.items():
        if not trk.alive:
            continue
        for cell in trk.comps[-1].dilated:
            cell = int(cell)
            if cell in owner and owner[cell] != idx:
                clashing.add(owner[cell])
                clashing.add(idx)
            else:
                owner[cell] = idx
    for idx in clashing:
        if tracks[idx].alive:
            kill(tracks[idx])


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
        if not 0 <= self.p_a + self.p_b <= 1:
            raise ValueError("state probabilities must sum to at most 1")
        if self.window > self.steps + 1:
            raise ValueError("window longer than the run")


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
