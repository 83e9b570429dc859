"""Hexagonal lattice with three cell states on a torus.

Cells live on a hexagonal lattice stored in "odd-r" offset form: row ``r``,
column ``c`` of a rectangular array, where odd rows are drawn shifted half a
cell to the right.  Each cell has six neighbours.  Both axes wrap, so the
lattice is a torus.

A note on heights: the parity pattern of the row wrap only matches up when
the number of rows is even.  With an odd number of rows the seam between the
last row and row zero breaks neighbour symmetry (cell x can list y while y
does not list x).  All functions here remain total for odd heights, but
geometric results (symmetric adjacency, translation invariance) are only
guaranteed on even heights, and the rest of the package assumes them.
"""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np


class CellState(enum.IntEnum):
    """Cell contents: inert substrate S, or one of two reactants A, B."""

    S = 0
    A = 1
    B = 2


#: Character used for each state in grid files and printouts.
STATE_CHARS = ".AB"
_CHAR_TO_STATE = {".": 0, "A": 1, "B": 2, "S": 0}

# Neighbour offsets (dr, dc) in odd-r offset coordinates, clockwise starting
# from the eastern neighbour.  Odd rows are shifted right, so their diagonal
# neighbours sit one column further east than those of even rows.
EVEN_ROW_NEIGHBORS = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0))
ODD_ROW_NEIGHBORS = ((0, 1), (1, 1), (1, 0), (0, -1), (-1, 0), (-1, 1))


def as_states(values, what: str) -> np.ndarray:
    """``values`` as a uint8 array of cell states, checked before the cast.

    The cast alone would wrap 258 to 2 and truncate 1.7 to 1, so a float
    dtype or a value outside 0..2 is a ``ValueError`` naming ``what``.  A
    uint8 array costs one max() and no copy.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        raise ValueError(f"{what} must be integers, got dtype {values.dtype}")
    if values.max(initial=0) > 2 or (values.dtype.kind == "i" and values.min(initial=0) < 0):
        raise ValueError(f"{what} must be 0 (S), 1 (A) or 2 (B)")
    return values.astype(np.uint8, copy=False)


def offset_to_axial(r: int, c: int) -> tuple[int, int]:
    """Convert odd-r offset coordinates to axial (q, r).

    In axial coordinates the six neighbour offsets are the same for every
    cell, which makes translation arithmetic uniform; the shift that the
    offset representation applies to odd rows disappears.  Works for
    negative rows (floor division keeps it exact) and on integer arrays.
    """
    return c - (r - (r & 1)) // 2, r


def axial_to_offset(q: int, r: int) -> tuple[int, int]:
    """Inverse of :func:`offset_to_axial`."""
    return r, q + (r - (r & 1)) // 2


class Grid:
    """A torus of hexagonal cells.

    Thin wrapper around a ``(height, width)`` uint8 array, exposed as
    ``.cells`` for vectorised work.  Values are :class:`CellState` members.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: np.ndarray):
        cells = np.asarray(cells)
        if cells.ndim != 2:
            raise ValueError("grid array must be 2-D")
        if min(cells.shape) < 3:
            # Below 3 cells per axis the 7-cell neighbourhood would contain
            # duplicate coordinates, which breaks the counting semantics.
            raise ValueError("grid dimensions must be at least 3x3")
        self.cells = as_states(cells, "cell values")

    # -- construction ------------------------------------------------------

    @classmethod
    def filled(cls, height: int, width: int, state: int = CellState.S) -> "Grid":
        return cls(np.full((height, width), int(state), dtype=np.uint8))

    @classmethod
    def from_text(cls, text: str) -> "Grid":
        """Parse the plain-text grid format.

        First line is ``"<width> <height>"``; the following ``height`` lines
        each hold ``width`` characters from ``.`` (substrate), ``A``, ``B``.
        Blank lines and lines starting with ``#`` are ignored.
        """
        lines = [ln for ln in text.splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        if not lines:
            raise ValueError("empty grid text")
        try:
            width, height = (int(tok) for tok in lines[0].split())
        except ValueError:
            raise ValueError(f"bad grid header: {lines[0]!r}") from None
        rows = lines[1:]
        if len(rows) != height:
            raise ValueError(f"expected {height} rows, got {len(rows)}")
        cells = np.zeros((height, width), dtype=np.uint8)
        for r, row in enumerate(rows):
            row = row.strip()
            if len(row) != width:
                raise ValueError(f"row {r} has length {len(row)}, expected {width}")
            for c, ch in enumerate(row):
                try:
                    cells[r, c] = _CHAR_TO_STATE[ch]
                except KeyError:
                    raise ValueError(f"bad cell character {ch!r} at ({r}, {c})") from None
        return cls(cells)

    # -- basic protocol ----------------------------------------------------

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.cells.shape

    def copy(self) -> "Grid":
        # no second as_states: the cells passed it when they came in
        grid = Grid.__new__(Grid)
        grid.cells = self.cells.copy()
        return grid

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.cells.shape == other.cells.shape and bool(
            np.array_equal(self.cells, other.cells)
        )

    def __getitem__(self, rc) -> int:
        return int(self.cells[rc])

    def __setitem__(self, rc, value) -> None:
        self.cells[rc] = as_states(value, "cell values")

    def __repr__(self) -> str:
        return f"Grid({self.height}x{self.width})"

    # -- content helpers ---------------------------------------------------

    def counts(self) -> tuple[int, int, int]:
        """Total number of (S, A, B) cells."""
        flat = np.bincount(self.cells.ravel(), minlength=3)
        return int(flat[0]), int(flat[1]), int(flat[2])

    def population(self) -> int:
        """Number of non-substrate cells."""
        return int(np.count_nonzero(self.cells))

    def to_text(self) -> str:
        lines = [f"{self.width} {self.height}"]
        for r in range(self.height):
            lines.append("".join(STATE_CHARS[v] for v in self.cells[r]))
        return "\n".join(lines) + "\n"

    def translate(self, dr: int, dc: int) -> "Grid":
        """Shift contents by (dr, dc) with wraparound.

        Note the hexagonal geometry is only preserved for even ``dr``:
        shifting by an odd number of rows lands even-row cells on odd rows,
        whose diagonal neighbours lie on the other side.
        """
        return Grid(np.roll(self.cells, (dr, dc), axis=(0, 1)))


# -- neighbourhoods --------------------------------------------------------


def neighborhood(grid: Grid, cell: tuple[int, int]) -> tuple[tuple[int, int], ...]:
    """The seven cells the update rule reads at ``cell``.

    Returns the centre first, then the six neighbours clockwise from the
    east, all wrapped into grid range.
    """
    r, c = cell
    h, w = grid.shape
    r %= h
    c %= w
    offs = ODD_ROW_NEIGHBORS if r & 1 else EVEN_ROW_NEIGHBORS
    return ((r, c),) + tuple(((r + dr) % h, (c + dc) % w) for dr, dc in offs)


def count_states(grid: Grid, cell: tuple[int, int]) -> tuple[int, int]:
    """Number of A cells and of B cells among the 7-cell neighbourhood.

    The centre cell is included, so ``0 <= i + j <= 7``.
    """
    values = [grid[rc] for rc in neighborhood(grid, cell)]
    return values.count(1), values.count(2)


@lru_cache(maxsize=32)
def neighbor_table(height: int, width: int) -> np.ndarray:
    """Flat-index neighbourhood table, shape ``(height*width, 7)``.

    Row ``r*width + c`` lists the flat indices of the cell itself followed by
    its six neighbours (same order as :func:`neighborhood`).  Cached because
    trackers and reference steppers rebuild it constantly for equal-sized
    grids.  The returned array is read-only.
    """
    rr, cc = np.mgrid[0:height, 0:width]
    table = np.empty((height, width, 7), dtype=np.int64)
    table[:, :, 0] = rr * width + cc
    odd = (rr & 1).astype(bool)
    for k in range(6):
        dr_e, dc_e = EVEN_ROW_NEIGHBORS[k]
        dr_o, dc_o = ODD_ROW_NEIGHBORS[k]
        nr = np.where(odd, rr + dr_o, rr + dr_e) % height
        nc = np.where(odd, cc + dc_o, cc + dc_e) % width
        table[:, :, k + 1] = nr * width + nc
    table = table.reshape(height * width, 7)
    table.setflags(write=False)
    return table
