"""Totalistic update rules and their linear genome encoding.

A rule is a matrix M over neighbourhood sums: the next state of a cell whose
7-cell neighbourhood (centre included) holds ``i`` cells in state A and ``j``
cells in state B is ``M[i, j]``.  Only the 36 pairs with ``0 <= i + j <= 7``
are meaningful.  The entry ``M[0, 0]`` is pinned to S so that empty substrate
stays empty; rules violating that are rejected everywhere.

The genome is the 36 entries flattened in a fixed order -- ``i`` ascending,
and ``j`` ascending within each ``i`` -- written with the letters S, A, B.
"""

from __future__ import annotations

import numpy as np

from .hexgrid import CellState, as_states

#: All meaningful (i, j) index pairs in canonical genome order.
PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(8) for j in range(8 - i)
)

#: Position of each (i, j) pair within the genome.
PAIR_INDEX: dict[tuple[int, int], int] = {p: k for k, p in enumerate(PAIRS)}

GENOME_LENGTH = len(PAIRS)  # 36
GENOME_ALPHABET = "SAB"  # letter of state 0 (S), 1 (A), 2 (B)

_LETTER_TO_STATE = {letter: state for state, letter in enumerate(GENOME_ALPHABET)}


class RuleMatrix:
    """An update rule: next state as a function of neighbourhood (i, j) sums.

    Immutable once built.  Instances hash and compare by genome, so they can
    key caches.  ``table`` is an 8x8 uint8 lookup array (entries with
    ``i + j > 7`` are never read; they are filled with S).
    """

    __slots__ = ("genome", "table")
    # numpy defers to ``__eq__``, so a RuleMatrix is never equal to an array
    __array_ufunc__ = None

    def __init__(self, entries):
        """Build from a length-36 sequence of states in canonical order."""
        genome = np.asarray(entries)
        if genome.shape != (GENOME_LENGTH,):
            raise ValueError(f"rule needs exactly {GENOME_LENGTH} entries")
        genome = as_states(genome, "rule entries")
        if genome[0] != CellState.S:
            raise ValueError("the empty neighbourhood (0, 0) must map to S")
        genome.setflags(write=False)
        table = np.zeros((8, 8), dtype=np.uint8)
        for k, (i, j) in enumerate(PAIRS):
            table[i, j] = genome[k]
        table.setflags(write=False)
        self.genome = genome
        self.table = table

    # -- encoding ----------------------------------------------------------

    @classmethod
    def from_genome(cls, text: str) -> "RuleMatrix":
        """Decode a 36-letter genome string (letters S, A, B)."""
        text = text.strip()
        if len(text) != GENOME_LENGTH:
            raise ValueError(
                f"genome must have {GENOME_LENGTH} letters, got {len(text)}"
            )
        try:
            return cls([_LETTER_TO_STATE[ch] for ch in text])
        except KeyError as err:
            raise ValueError(f"bad genome letter {err.args[0]!r}") from None

    def to_genome(self) -> str:
        return "".join(GENOME_ALPHABET[v] for v in self.genome)

    @classmethod
    def from_entries(cls, mapping) -> "RuleMatrix":
        """Build from a ``{(i, j): state}`` mapping; missing pairs become S."""
        entries = [0] * GENOME_LENGTH
        for pair, state in mapping.items():
            entries[PAIR_INDEX[pair]] = int(state)
        return cls(entries)

    # -- behaviour ---------------------------------------------------------

    def lookup(self, i: int, j: int) -> int:
        """Next state for a neighbourhood with ``i`` A cells and ``j`` B cells."""
        if not (0 <= i and 0 <= j and i + j <= 7):
            raise ValueError(f"({i}, {j}) is not a reachable neighbourhood sum")
        return int(self.table[i, j])

    def genome_int(self) -> int:
        """The genome read as a base-3 integer (S=0, A=1, B=2).

        A compact, collision-free identity; handy for seeding per-rule
        random streams.  3**36 < 2**58, so the value fits in an int64.
        """
        value = 0
        for v in self.genome:
            value = value * 3 + int(v)
        return value

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RuleMatrix):
            return NotImplemented
        return bool(np.array_equal(self.genome, other.genome))

    def __hash__(self):
        return hash(self.genome.tobytes())

    def __repr__(self) -> str:
        return f"RuleMatrix({self.to_genome()!r})"


def random_rule(rng: np.random.Generator) -> RuleMatrix:
    """Draw a rule uniformly: every entry S, A or B alike, (0, 0) forced to S."""
    entries = rng.integers(0, 3, size=GENOME_LENGTH)
    entries[0] = 0
    return RuleMatrix(entries)


# -- rule files ------------------------------------------------------------
#
# A rule file holds one 36-letter genome per line.  Lines starting with "#"
# are comments (used to document where a stored rule came from) and blank
# lines are skipped.


def parse_rules(text: str) -> list[RuleMatrix]:
    rules = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        rules.append(RuleMatrix.from_genome(ln))
    return rules


def load_rules(path) -> list[RuleMatrix]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rules(fh.read())


def load_rule(path) -> RuleMatrix:
    """Load a rule file expected to hold exactly one rule."""
    rules = load_rules(path)
    if len(rules) != 1:
        raise ValueError(f"{path}: expected exactly one rule, found {len(rules)}")
    return rules[0]


def save_rules(path, rules, header: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for rule in rules:
            fh.write(rule.to_genome() + "\n")
