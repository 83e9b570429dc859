"""Lattice geometry: neighbourhoods, counting, coordinates, text format."""

import numpy as np
import pytest

from hexreact.hexgrid import (
    CellState,
    Grid,
    as_int,
    axial_to_offset,
    check_positive,
    count_states,
    neighbor_table,
    neighborhood,
    offset_to_axial,
)


@pytest.mark.parametrize(
    "value, integer, positive",
    [
        (3, 3, True),
        (np.int64(3), 3, True),
        (np.uint8(0), 0, False),
        (True, 1, True),
        (2.0, None, True),
        ("3", None, False),
        # past the floats: math.isfinite overflows
        pytest.param(10**400, 10**400, False, id="10**400"),
        (float("nan"), None, False),
        (float("inf"), None, False),
        (float("-inf"), None, False),
        (0, 0, False),
        (-1, -1, False),
    ],
)
def test_the_shared_argument_checks(value, integer, positive):
    if integer is None:
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            as_int(value, "n")
    else:
        got = as_int(value, "n")
        assert got == integer and type(got) in (int, bool)
    if positive:
        check_positive(value, "x")
    else:
        with pytest.raises(ValueError, match=r"^x must be positive and finite, got "):
            check_positive(value, "x")


def random_grid(rng, h, w):
    return Grid(rng.integers(0, 3, size=(h, w)))


# -- neighbourhood enumeration ----------------------------------------------


def test_interior_neighborhood_is_seven_distinct_cells():
    g = Grid.filled(5, 5)
    cells = neighborhood(g, (2, 2))
    assert len(cells) == 7
    assert len(set(cells)) == 7
    assert cells[0] == (2, 2)


def test_corner_neighborhood_wraps_into_bounds():
    g = Grid.filled(3, 3)
    cells = neighborhood(g, (0, 0))
    assert len(cells) == 7
    for r, c in cells:
        assert 0 <= r < 3 and 0 <= c < 3


@pytest.mark.parametrize("h,w", [(8, 8), (4, 6), (6, 5)])
def test_adjacency_is_symmetric_on_even_heights(h, w):
    # Brute force: y is a neighbour of x exactly when x is a neighbour of y.
    # Only even heights guarantee this across the row wrap seam.
    g = Grid.filled(h, w)
    neigh = {
        (r, c): set(neighborhood(g, (r, c))[1:])
        for r in range(h)
        for c in range(w)
    }
    for x, around_x in neigh.items():
        assert len(around_x) == 6
        assert x not in around_x
        for y in around_x:
            assert x in neigh[y], f"{x} lists {y} but not vice versa"


def test_neighbor_table_matches_neighborhood():
    g = Grid.filled(6, 7)
    table = neighbor_table(6, 7)
    for r in range(6):
        for c in range(7):
            from_table = [divmod(int(k), 7) for k in table[r * 7 + c]]
            assert from_table == list(neighborhood(g, (r, c)))


# -- state counting ----------------------------------------------------------


def test_counts_on_quiescent_grid_are_zero():
    g = Grid.filled(6, 6)
    assert count_states(g, (3, 3)) == (0, 0)
    assert count_states(g, (0, 5)) == (0, 0)


def test_single_reactant_counts_itself():
    g = Grid.filled(5, 5)
    g[2, 2] = CellState.A
    assert count_states(g, (2, 2)) == (1, 0)


def test_counts_match_naive_recount_over_returned_coords():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_grid(rng, 6, 6)
        r, c = rng.integers(0, 6, size=2)
        i, j = count_states(g, (r, c))
        cells = neighborhood(g, (r, c))
        assert i == sum(1 for rc in cells if g[rc] == CellState.A)
        assert j == sum(1 for rc in cells if g[rc] == CellState.B)
        # every neighbourhood partitions into S, A and B cells
        s = sum(1 for rc in cells if g[rc] == CellState.S)
        assert i + j + s == 7


def test_counts_are_translation_invariant_for_even_row_shifts():
    rng = np.random.default_rng(21)
    for _ in range(25):
        g = random_grid(rng, 8, 10)
        dr = 2 * int(rng.integers(0, 4))
        dc = int(rng.integers(0, 10))
        t = g.translate(dr, dc)
        r, c = (int(v) for v in rng.integers(0, 8, size=2))
        assert count_states(g, (r, c)) == count_states(t, ((r + dr) % 8, (c + dc) % 10))


# -- coordinates --------------------------------------------------------------


def test_axial_round_trip():
    for r in range(-5, 12):
        for c in range(-5, 12):
            q, ar = offset_to_axial(r, c)
            assert axial_to_offset(q, ar) == (r, c)


def test_axial_neighbour_offsets_are_uniform():
    # In axial coordinates every cell has the same six neighbour offsets;
    # that is the whole point of converting out of the offset layout.
    g = Grid.filled(8, 8)
    expected = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
    for r in range(1, 7):
        for c in range(1, 7):
            q0, r0 = offset_to_axial(r, c)
            deltas = set()
            for nr, nc in neighborhood(g, (r, c))[1:]:
                q1, r1 = offset_to_axial(nr, nc)
                deltas.add((q1 - q0, r1 - r0))
            assert deltas == expected


# -- grid container -----------------------------------------------------------


def test_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        Grid(np.zeros((2, 9), dtype=np.uint8))  # too flat
    with pytest.raises(ValueError):
        Grid(np.full((4, 4), 3, dtype=np.uint8))  # no such state
    with pytest.raises(ValueError):
        Grid(np.zeros(16, dtype=np.uint8))  # not 2-D
    # values are checked before the uint8 cast, which would wrap or truncate
    for bad in (
        np.full((4, 4), 258),  # wraps to 2 (B)
        np.full((4, 4), -1),  # wraps to 255
        np.full((4, 4), 1.7),  # truncates to 1 (A)
        np.full((4, 4), np.nan),  # casts to 0 (S) with a RuntimeWarning
        np.ones((4, 4)),  # a float dtype, even with state values
    ):
        with pytest.raises(ValueError, match="cell values"):
            Grid(bad)


def test_grid_takes_integer_and_bool_arrays():
    cells = np.zeros((4, 4), dtype=np.uint8)
    assert Grid(cells).cells is cells  # uint8 input is used as is, not copied
    g = Grid(np.eye(4, dtype=bool))
    assert g.cells.dtype == np.uint8
    assert g.counts() == (12, 4, 0)
    assert Grid(np.full((3, 5), 2, dtype=np.int64)).counts() == (0, 0, 15)


def test_setitem_checks_the_state_like_the_constructor():
    g = Grid.filled(6, 6)
    for bad in (5, -1, 1.7):
        with pytest.raises(ValueError, match="cell values"):
            g[0, 1] = bad
    assert g == Grid.filled(6, 6)  # a rejected value leaves the grid as it was
    g[0, 1] = CellState.B
    assert g[0, 1] == CellState.B


def test_grid_is_unhashable_and_compares_only_to_grids():
    # a hash of mutable cells goes stale when a cell is set
    with pytest.raises(TypeError):
        hash(Grid.filled(4, 4))
    assert Grid.filled(4, 4) != "Grid(4x4)"  # another type is never equal
    zeros = np.zeros((4, 4), dtype=np.uint8)  # nor is an array, in either order
    assert Grid.filled(4, 4) != zeros and zeros != Grid.filled(4, 4)
    assert not Grid.filled(4, 4) == zeros and not zeros == Grid.filled(4, 4)
    assert repr(Grid.filled(4, 6)) == "Grid(4x6)"


def test_text_round_trip_is_exact():
    rng = np.random.default_rng(3)
    g = random_grid(rng, 7, 4)
    again = Grid.from_text(g.to_text())
    assert again == g
    assert again.to_text() == g.to_text()


def test_from_text_parses_header_and_states():
    g = Grid.from_text("4 3\n.AB.\n....\nBA..\n")
    assert g.shape == (3, 4)
    assert g[0, 1] == CellState.A
    assert g[0, 2] == CellState.B
    assert g[2, 0] == CellState.B
    assert g.counts() == (8, 2, 2)


@pytest.mark.parametrize(
    "text",
    [
        "",  # nothing at all
        "4 3\n.AB.\n....\n",  # missing row
        "4 3\n.AB.\n...\nBA..\n",  # short row
        "4 3\n.AB.\n..X.\nBA..\n",  # unknown state letter
        "x y\n...\n",  # unparseable header
    ],
)
def test_from_text_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        Grid.from_text(text)


def test_translate_wraps_and_preserves_population():
    rng = np.random.default_rng(11)
    g = random_grid(rng, 6, 6)
    t = g.translate(2, 5)
    assert t.counts() == g.counts()
    assert t[(2 + 2) % 6, (3 + 5) % 6] == g[2, 3]
