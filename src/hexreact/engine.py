"""Synchronous evolution of the automaton.

Two independent implementations of the update step live here on purpose:

* :func:`step` gathers neighbour counts with vectorised ``np.roll`` shifts
  and maps them through the rule's 8x8 lookup table.  This is the production
  path.
* :func:`step_reference` walks the cells one by one, recounting each
  neighbourhood from scratch.  It is deliberately written with none of the
  vectorised machinery so the two can check each other.

Both include the centre cell in the counts.
"""

from __future__ import annotations

import numpy as np

from .hexgrid import CellState, Grid
from .rules import RuleMatrix


def _neighbour_sums(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell A and B counts over the 7-cell neighbourhood.

    Four of the six neighbour offsets are shared by even and odd rows
    (east, west, and the two cells straight above/below in the array); the
    remaining two diagonals depend on row parity, so those are gathered for
    both parities and selected per row.
    """
    h = cells.shape[0]
    odd_row = (np.arange(h) & 1).astype(bool)[:, None]

    sums = []
    for state in (CellState.A, CellState.B):
        x = (cells == state).view(np.uint8)
        common = (
            x
            + np.roll(x, -1, axis=1)  # east
            + np.roll(x, 1, axis=1)   # west
            + np.roll(x, -1, axis=0)  # row below (SE on even rows, SW on odd)
            + np.roll(x, 1, axis=0)   # row above (NE on even rows, NW on odd)
        )
        west_diag = np.roll(x, (-1, 1), axis=(0, 1)) + np.roll(x, (1, 1), axis=(0, 1))
        east_diag = np.roll(x, (-1, -1), axis=(0, 1)) + np.roll(x, (1, -1), axis=(0, 1))
        sums.append(common + np.where(odd_row, east_diag, west_diag))
    return sums[0], sums[1]


def step(grid: Grid, rule: RuleMatrix) -> Grid:
    """One synchronous update of the whole torus."""
    ia, ib = _neighbour_sums(grid.cells)
    return Grid(rule.table[ia, ib])


def step_reference(grid: Grid, rule: RuleMatrix, rng: np.random.Generator | None = None) -> Grid:
    """Naive per-cell update, for cross-checking :func:`step`.

    If ``rng`` is given, the six neighbours of every cell are visited in a
    freshly shuffled order.  A totalistic rule cannot care, so shuffled and
    unshuffled runs must agree exactly; tests lean on that.
    """
    h, w = grid.shape
    out = np.empty((h, w), dtype=np.uint8)
    if rng is None:
        # plain Python lists: scalar indexing into numpy arrays would dominate
        # the runtime without changing what is being checked
        cells = grid.cells.tolist()
        table = rule.table.tolist()
        for r in range(h):
            row = cells[r]
            up = cells[(r - 1) % h]
            down = cells[(r + 1) % h]
            for c in range(w):
                east = (c + 1) % w
                west = (c - 1) % w
                d = east if r & 1 else west
                i = j = 0
                for v in (row[c], row[east], row[west], up[c], down[c], up[d], down[d]):
                    if v == 1:
                        i += 1
                    elif v == 2:
                        j += 1
                out[r, c] = table[i][j]
    else:
        from .hexgrid import neighborhood

        for r in range(h):
            for c in range(w):
                coords = list(neighborhood(grid, (r, c))[1:])
                rng.shuffle(coords)
                i = j = 0
                v = grid.cells[r, c]
                if v == 1:
                    i += 1
                elif v == 2:
                    j += 1
                for rc in coords:
                    v = grid.cells[rc]
                    if v == 1:
                        i += 1
                    elif v == 2:
                        j += 1
                out[r, c] = rule.table[i, j]
    return Grid(out)


class Trajectory:
    """A stretch of consecutive automaton states.

    ``frames[k]`` is the state at time ``t0 + k``.  When a run keeps only the
    tail of a longer evolution, ``t0`` records where the kept window starts.
    """

    __slots__ = ("frames", "t0")

    def __init__(self, frames: list[Grid], t0: int = 0):
        if not frames:
            raise ValueError("a trajectory needs at least one frame")
        self.frames = frames
        self.t0 = t0

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, k) -> Grid:
        return self.frames[k]


def run(grid: Grid, rule: RuleMatrix, steps: int, keep_last: int | None = None) -> Trajectory:
    """Advance ``steps`` updates from ``grid``.

    Returns the initial state plus every subsequent state -- ``steps + 1``
    frames -- unless ``keep_last`` caps how many trailing frames are kept.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    total = steps + 1
    keep = total if keep_last is None else min(keep_last, total)
    if keep < 1:
        raise ValueError("keep_last must keep at least one frame")
    frames: list[Grid] = [grid.copy()]
    current = grid
    for _ in range(steps):
        current = step(current, rule)
        frames.append(current)
        if len(frames) > keep:
            frames.pop(0)
    return Trajectory(frames, t0=steps + 1 - len(frames))


# -- exports ----------------------------------------------------------------


def frames_to_text(frames) -> str:
    """Serialize a sequence of grids (or a Trajectory), blank-line separated."""
    return "\n".join(g.to_text() for g in frames)


def parse_frames(text: str) -> list[Grid]:
    """Inverse of :func:`frames_to_text`."""
    blocks = [b for b in text.split("\n\n") if b.strip()]
    return [Grid.from_text(b) for b in blocks]


def grid_to_pgm(grid: Grid) -> bytes:
    """Render a grid as a binary PGM image (S=0, A=128, B=255)."""
    levels = np.array([0, 128, 255], dtype=np.uint8)
    img = levels[grid.cells]
    header = f"P5\n{grid.width} {grid.height}\n255\n".encode("ascii")
    return header + img.tobytes()
