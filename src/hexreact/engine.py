"""Synchronous evolution of the automaton.

Two independent implementations of the update step live here on purpose:

* :func:`run` advances a grid with a packed kernel, and :func:`step` is its
  one-step case.  This is the production path.  States S, A, B are packed
  as 0, 1, 8, so the sum of a cell's seven neighbourhood values is
  ``i + 8j`` for ``i`` A cells and ``j`` B cells.  The grid lives in a
  buffer with a one-cell wrap border, so every neighbour is a plain slice,
  and five adds of such slices give every signature (horizontal pair sums
  are shared by the row itself and the rows above and below).  The
  signature bytes sit in a buffer of even length read as uint16, so one
  lookup in a pair table, the rule's table applied to both bytes of a
  uint16, gives the next state of two cells at once.  The automaton
  is deterministic, so once a run repeats a state every later frame replays
  the cycle: :func:`run` finds the first repeat with Brent's cycle detection,
  keyed by the bytes of each step's signatures (the next state is the table
  at those signatures, so equal keys mean equal states), and copies the
  cycle's states into the rest of the kept window instead of stepping.
* :func:`step_reference` walks the cells one by one, recounting each
  neighbourhood from scratch.  It is deliberately written with none of the
  vectorised machinery so the two can check each other.

Both include the centre cell in the counts.
"""

from __future__ import annotations

import numpy as np

from .hexgrid import Grid
from .rules import RuleMatrix

#: Packed value of S, A and B: seven of them sum to ``i + 8j`` < 64.
_PACK = np.array([0, 1, 8], dtype=np.uint8)


def _packed(grid: Grid) -> np.ndarray:
    """``grid`` packed into an ``(h + 2, w + 2)`` buffer with a wrap border."""
    h, w = grid.shape
    pad = np.empty((h + 2, w + 2), dtype=np.uint8)
    pad[1:-1, 1:-1] = _PACK[grid.cells]
    return pad


def _signatures(pad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Refresh the wrap border of ``pad``, then write every cell's ``i + 8j``.

    The border rows are copied first and the border columns, over the full
    height, second, so the corners come out right.  Five adds follow: the
    sums of horizontally adjacent pairs, once for every row of ``pad``; the
    pair sums of the rows above and below; west, centre and east as a pair
    sum plus the east cell; and those above-and-below sums at columns
    ``c - 1`` and ``c`` on even rows, ``c`` and ``c + 1`` on odd rows, which
    are the straight and the diagonal neighbours.
    """
    pad[0, 1:-1] = pad[-2, 1:-1]
    pad[-1, 1:-1] = pad[1, 1:-1]
    pad[:, 0] = pad[:, -2]
    pad[:, -1] = pad[:, 1]
    pairs = pad[:, :-1] + pad[:, 1:]  # pairs[r, k]: pad columns k and k + 1
    vert = pairs[:-2] + pairs[2:]  # the rows above and below
    np.add(pairs[1:-1, :-1], pad[1:-1, 2:], out=out)  # west, centre, east
    out[0::2] += vert[0::2, :-1]
    out[1::2] += vert[1::2, 1:]
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
    return _signatures(_packed(grid), np.empty(grid.shape, dtype=np.uint8))


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

    Once the states repeat, the rest of the run replays the cycle, so
    stepping stops at the first repeat that Brent's cycle detection finds.
    The key of step ``t`` is the bytes of the signatures it reads, and
    state ``t`` is the rule's table at them, so equal keys mean equal
    states.  (Equal states can have unequal keys, when the states before
    them differ; their successors' keys are then equal, one step later.)
    One key is saved and compared with every later key; when the steps
    since the save reach a power of two, the save moves to the current
    step.  A soup that enters a cycle of period ``p`` at step ``m`` matches
    by step ``2 * max(m + 2, p) + p``, and the steps since the save are then
    exactly ``p``.  Stepping ``p - 1`` more times (fewer if the run ends
    first) collects the cycle's states, and every remaining kept frame is a
    fresh copy of its state.  Beyond the kept frames, memory is one key and
    at most one period of states.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    total = steps + 1
    keep = total if keep_last is None else min(keep_last, total)
    if keep < 1:
        raise ValueError("keep_last must keep at least one frame")
    t0 = total - keep
    frames = [grid.copy()] if t0 == 0 else []
    h, w = grid.shape
    n = h * w
    pad = _packed(grid)
    # signatures in a buffer of even length (an odd grid gets one zero pad
    # byte), read as uint16 so that one lookup updates two cells
    flat = np.zeros(n + n % 2, dtype=np.uint8)
    index = flat[:n].reshape(h, w)
    two = flat.view(np.uint16)
    table = rule.table.T.ravel()  # next state, indexed by i + 8j
    state_pairs, packed_pairs = _pairs(table), _pairs(_PACK[table])

    def lookup(pairs: np.ndarray) -> np.ndarray:
        """``pairs`` at every signature, as a fresh ``(h, w)`` array.

        Every uint16 is below ``64 * 256``, the length of a pair table, so
        ``"clip"`` never clips; it only skips the bounds check.
        """
        return pairs.take(two, mode="clip").view(np.uint8)[:n].reshape(h, w)

    saved, saved_t, power = None, 0, 1
    for t in range(1, total):
        _signatures(pad, index)
        key = index.tobytes()
        if key == saved:
            break
        if t - saved_t == power:
            saved, saved_t, power = key, t, 2 * power
        if t >= t0:
            frames.append(Grid(lookup(state_pairs)))
        pad[1:-1, 1:-1] = lookup(packed_pairs)
    else:
        return Trajectory(frames, t0=t0)
    # state t is state t - p: state u >= t is cycle[(u - t) % p]
    p = t - saved_t
    cycle = [lookup(state_pairs)]
    for _ in range(min(p, total - t) - 1):
        pad[1:-1, 1:-1] = lookup(packed_pairs)
        _signatures(pad, index)
        cycle.append(lookup(state_pairs))
    frames.extend(Grid(cycle[(u - t) % p].copy()) for u in range(max(t, t0), total))
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
