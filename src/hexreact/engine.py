"""Synchronous evolution of the automaton.

Two independent implementations of the update step live here on purpose:

* :func:`run` advances a grid with a packed kernel, and :func:`step` is its
  one-step case.  This is the production path.  States S, A, B are packed
  as 0, 1, 8, so the sum of a cell's seven neighbourhood values is
  ``i + 8j`` for ``i`` A cells and ``j`` B cells.  The grid lives in one
  flat uint8 buffer, cell ``(r, c)`` at ``lo + r*S + c - r//2`` with row
  stride ``S = w + 4``.  That row skew is the axial embedding of the odd-r
  rows: on every row the E, W, SE, SW, NW and NE neighbours sit at the
  fixed offsets +1, -1, +S, +S-1, -S and -S+1.  Each step first refreshes
  the ghosts, every other position the kernel reads, in one fancy
  assignment (see :func:`_layout`); then one add of the buffer to itself
  shifted by one gives every pair sum, and three adds over one contiguous
  range give every signature.  The signature bytes read as uint16 index a
  pair table, the rule's table applied to both bytes of a uint16, so one
  lookup writes the next packed state of two positions at once, straight
  into the buffer.  The automaton is deterministic, so once a run repeats a
  state every later frame replays the cycle: :func:`run` finds the first
  repeat with Brent's cycle detection, keyed by the bytes of each step's
  signatures (the next state is the table at those signatures, so equal
  keys mean equal states), and copies the cycle's states into the rest of
  the kept window instead of stepping.
* :func:`step_reference` walks the cells one by one, recounting each
  neighbourhood from scratch.  It is deliberately written with none of the
  vectorised machinery so the two can check each other.

Both include the centre cell in the counts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hexgrid import Grid, neighbor_table
from .rules import RuleMatrix

#: Packed value of S, A and B: seven of them sum to ``i + 8j`` < 64.
_PACK = np.array([0, 1, 8], dtype=np.uint8)


@dataclass(frozen=True)
class _Layout:
    """Where an ``(h, w)`` torus lives in the flat buffer; see :func:`_layout`."""

    stride: int  # S = w + 4
    lo: int  # the kernel's range: positions lo..hi-1, lo and hi - lo even
    hi: int
    size: int  # buffer length, hi + S: the kernel reads positions lo - S..hi + S - 1
    cells: np.ndarray  # (h, w) position of every cell
    ghosts: np.ndarray  # every other position the kernel reads
    sources: np.ndarray  # where each ghost takes its value


@lru_cache(maxsize=32)
def _layout(h: int, w: int) -> _Layout:
    """The flat layout of an ``(h, w)`` torus, built from ``neighbor_table``.

    Cell ``(r, c)`` sits at ``lo + r*S + c - r//2``.  A ghost that some cell
    reads as a neighbour takes that neighbour's torus cell; the E and W
    ghosts of each row and the rows above the first and below the last are
    these.  Every other ghost takes position 0, which lies below the range
    the kernel reads and so stays S.  The kernel also sums ghosts, into
    signatures no cell uses, so fixing every ghost keeps the signature bytes
    a function of the state.  The result is cached and read-only.
    """
    s = w + 4
    lo = s + 2 - s % 2  # even, and lo - s >= 1: the kernel never reads position 0
    r = np.arange(h)[:, None]
    cells = lo + r * s + np.arange(w) - r // 2
    hi = int(cells[-1, -1]) + 1
    hi += (hi - lo) % 2
    size = hi + s
    flat = cells.ravel()
    # the six offsets in neighbor_table's order: E, SE, SW, W, NW, NE
    reads = flat[:, None] + np.array([1, s, s - 1, -1, -s, 1 - s])
    sources = np.zeros(size, dtype=np.intp)
    sources[reads] = flat[neighbor_table(h, w)[:, 1:]]
    ghost = np.ones(size, dtype=bool)
    ghost[: lo - s] = False
    ghost[flat] = False
    ghosts = np.flatnonzero(ghost)
    layout = _Layout(s, lo, hi, size, cells, ghosts, sources[ghosts])
    for a in (cells, layout.ghosts, layout.sources):
        a.setflags(write=False)
    return layout


def _signatures(buf: np.ndarray, lay: _Layout, out: np.ndarray) -> np.ndarray:
    """Refresh the ghosts of ``buf``, then write the signature of every position
    ``lo..hi-1`` into ``out``.

    ``pairs[q]`` is positions ``q`` and ``q + 1``: at ``p`` that is the centre
    and east, at ``p + S - 1`` south-west and south-east, and at ``p - S``
    north-west and north-east; the west cell is the one single add.
    """
    buf[lay.ghosts] = buf[lay.sources]
    s, lo, hi = lay.stride, lay.lo, lay.hi
    pairs = buf[:-1] + buf[1:]
    np.add(pairs[lo:hi], buf[lo - 1 : hi - 1], out=out)
    out += pairs[lo + s - 1 : hi + s - 1]
    out += pairs[lo - s : hi - s]
    return out


def _pairs(table: np.ndarray) -> np.ndarray:
    """``table``, 64 entries indexed by ``i + 8j``, as a lookup for two cells at once.

    Two signature bytes ``x`` and ``y`` read as one uint16 ``v`` are
    ``x + 256 y`` in one byte order and ``256 x + y`` in the other.  Either
    way the entry ``256 table[v >> 8] + table[v & 255]`` holds, in the same
    byte order, ``table[x]`` where ``x`` was and ``table[y]`` where ``y`` was.
    Signatures are below 64, so ``v`` is below ``64 * 256``.
    """
    wide = np.zeros(256, dtype=np.uint16)
    wide[:64] = table
    return ((wide[:64, None] << 8) | wide).ravel()


def signature_index(grid: Grid) -> np.ndarray:
    """Every cell's neighbourhood signature ``(i, j)`` as the byte ``i + 8j``.

    ``i`` and ``j`` count the A and B cells of the 7-cell neighbourhood,
    centre included; the result has the grid's shape.
    """
    lay = _layout(*grid.shape)
    buf = np.zeros(lay.size, dtype=np.uint8)
    buf[lay.cells] = _PACK[grid.cells]
    out = _signatures(buf, lay, np.empty(lay.hi - lay.lo, dtype=np.uint8))
    return out[lay.cells - lay.lo]


def step(grid: Grid, rule: RuleMatrix) -> Grid:
    """One synchronous update of the whole torus."""
    return run(grid, rule, 1, keep_last=1).frames[0]


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
        if any(frame.shape != frames[0].shape for frame in frames):
            raise ValueError("trajectory frames must all have one shape")
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
    Frames before the kept window are never built.

    A step is one kernel pass over the flat buffer (see the module
    docstring): the ghost refresh and four adds give the signature of every
    position of the range, and one pair-table lookup writes the next packed
    state over the range in place.

    Once the states repeat, the rest of the run replays the cycle, so
    stepping stops at the first repeat that Brent's cycle detection finds.
    The key of step ``t`` is the bytes of the signatures its pass writes,
    ghosts included.  The refresh fixes every ghost from state ``t - 1``, so
    the key is a function of that state, and state ``t`` is the rule's table
    at the cells' signatures, so equal keys mean equal states.  (Equal
    states can have unequal keys, when the states before them differ; their
    successors' keys are then equal, one step later.)  One key is saved and
    compared with every later key; when the steps since the save reach a
    power of two, the save moves to the current step.  A soup that enters a
    cycle of period ``p`` at step ``m`` matches by step
    ``2 * max(m + 2, p) + p``, and the steps since the save are then exactly
    ``p``.  Stepping ``p - 1`` more times (fewer if the run ends first)
    collects the cycle's states, and every remaining kept frame is a fresh
    copy of its state.  Beyond the kept frames, memory is one key and at
    most one period of states.
    """
    counts = {"steps": steps} if keep_last is None else {"steps": steps, "keep_last": keep_last}
    for name, value in counts.items():
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if steps < 0:
        raise ValueError("steps must be >= 0")
    total = steps + 1
    keep = total if keep_last is None else min(keep_last, total)
    if keep < 1:
        raise ValueError("keep_last must keep at least one frame")
    t0 = total - keep
    frames = [grid.copy()] if t0 == 0 else []
    lay = _layout(*grid.shape)
    buf = np.zeros(lay.size, dtype=np.uint8)
    buf[lay.cells] = _PACK[grid.cells]
    sig = np.empty(lay.hi - lay.lo, dtype=np.uint8)
    # the signatures and the range they update, read as uint16: every uint16
    # is below 64 * 256, the length of the pair table, so "clip" never clips;
    # it only skips the bounds check
    sig2, buf2 = sig.view(np.uint16), buf[lay.lo : lay.hi].view(np.uint16)
    packed_pairs = _pairs(_PACK[rule.table.T.ravel()])  # next packed state, by i + 8j

    def state() -> np.ndarray:
        """The state in ``buf`` as a fresh ``(h, w)`` array: 0, 1, 8 become 0, 1, 2."""
        cells = buf.take(lay.cells)
        return np.minimum(cells, 2, out=cells)

    saved, saved_t, power = None, 0, 1
    for t in range(1, total):
        key = _signatures(buf, lay, sig).tobytes()
        if key == saved:
            break
        if t - saved_t == power:
            saved, saved_t, power = key, t, 2 * power
        packed_pairs.take(sig2, mode="clip", out=buf2)
        if t >= t0:
            frames.append(Grid(state()))
    else:
        return Trajectory(frames, t0=t0)
    # state t is state t - p: state u >= t is cycle[(u - t) % p]
    p = t - saved_t
    packed_pairs.take(sig2, mode="clip", out=buf2)
    cycle = [Grid(state())]
    for _ in range(min(p, total - t) - 1):
        _signatures(buf, lay, sig)
        packed_pairs.take(sig2, mode="clip", out=buf2)
        cycle.append(Grid(state()))
    frames.extend(cycle[(u - t) % p].copy() for u in range(max(t, t0), total))
    return Trajectory(frames, t0=t0)


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
