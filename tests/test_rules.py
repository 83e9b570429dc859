"""Rule matrix encoding, lookup contract, and random construction."""

import numpy as np
import pytest

from hexreact.hexgrid import CellState
from hexreact.rules import (
    GENOME_LENGTH,
    PAIR_INDEX,
    PAIRS,
    RuleMatrix,
    load_rule,
    load_rules,
    parse_rules,
    random_rule,
    save_rules,
)


# random_rule(default_rng(5)), the dense rule of the tracker goldens
DENSE_GENOME = "SBSBAAASBSSAAASSSSSBSABSSASBSBBBSAAA"


def test_pair_enumeration_covers_the_triangle_once():
    assert len(PAIRS) == GENOME_LENGTH == 36
    assert len(set(PAIRS)) == 36
    for i, j in PAIRS:
        assert i >= 0 and j >= 0 and i + j <= 7
    # canonical order: i ascending, then j ascending
    assert PAIRS[0] == (0, 0)
    assert PAIRS[8] == (1, 0)
    assert PAIRS[-1] == (7, 0)


def test_genome_index_formula():
    # position of (i, j) = j + sum over k < i of (8 - k)
    for i, j in PAIRS:
        assert PAIR_INDEX[(i, j)] == j + sum(8 - k for k in range(i))
    assert PAIR_INDEX[(1, 0)] == 8


def test_all_s_rule_is_all_s():
    rule = RuleMatrix.from_genome("S" * 36)
    for i, j in PAIRS:
        assert rule.lookup(i, j) == CellState.S


def test_encode_decode_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rule = random_rule(rng)
        again = RuleMatrix.from_genome(rule.to_genome())
        assert again == rule
        for i, j in PAIRS:
            assert again.lookup(i, j) == rule.lookup(i, j)


def test_decode_rejects_bad_genomes():
    with pytest.raises(ValueError):
        RuleMatrix.from_genome("S" * 35)  # wrong length
    with pytest.raises(ValueError):
        RuleMatrix.from_genome("A" + "S" * 35)  # broken quiescence
    with pytest.raises(ValueError):
        RuleMatrix.from_genome("S" * 35 + "X")  # unknown letter


def test_lookup_rejects_unreachable_sums():
    rule = RuleMatrix.from_genome("S" * 36)
    for i, j in [(4, 4), (8, 0), (0, 8), (-1, 0), (0, -1)]:
        with pytest.raises(ValueError):
            rule.lookup(i, j)


def test_quiescence_is_pinned():
    rng = np.random.default_rng(9)
    for _ in range(100):
        assert random_rule(rng).lookup(0, 0) == CellState.S
    entries = [1] * 36  # would map the empty neighbourhood to A
    with pytest.raises(ValueError):
        RuleMatrix(entries)


@pytest.mark.parametrize(
    "entries, message",
    [
        # a uint8 cast would make these A, B, B and raise OverflowError
        ([0] * 35 + [1.7], "rule entries must be integers, got dtype float64"),
        (np.array([0] * 35 + [2.9]), "rule entries must be integers, got dtype float64"),
        (np.array([0] * 35 + [258]), r"rule entries must be 0 \(S\), 1 \(A\) or 2 \(B\)"),
        ([0] * 35 + [-1], r"rule entries must be 0 \(S\), 1 \(A\) or 2 \(B\)"),
        ([0] * 35, "rule needs exactly 36 entries"),
    ],
    ids=["float-list", "float-array", "258", "negative", "35-entries"],
)
def test_rule_entries_are_checked_before_the_uint8_cast(entries, message):
    with pytest.raises(ValueError, match=message):
        RuleMatrix(entries)


def test_rule_accepts_any_integer_dtype():
    genome = RuleMatrix.from_genome(DENSE_GENOME).genome
    for dtype in (np.int8, np.int64, np.uint16):
        assert RuleMatrix(genome.astype(dtype)).to_genome() == DENSE_GENOME
    assert RuleMatrix(np.arange(36) % 2 == 1).genome.dtype == np.uint8


def test_from_entries_defaults_to_s():
    rule = RuleMatrix.from_entries({(1, 1): CellState.A, (0, 2): CellState.B})
    assert rule.lookup(1, 1) == CellState.A
    assert rule.lookup(0, 2) == CellState.B
    assert rule.lookup(3, 3) == CellState.S


def test_random_rule_is_reproducible():
    a = random_rule(np.random.default_rng(42))
    b = random_rule(np.random.default_rng(42))
    assert a == b
    # the tracker goldens' dense rule: its draws are pinned
    assert random_rule(np.random.default_rng(5)).to_genome() == DENSE_GENOME


def test_random_rule_free_entries_are_uniform():
    # Each free position gets each state about 1/3 of the time.  With 10,000
    # draws the count per (position, state) is binomial; a fixed seed keeps
    # the 3-sigma check deterministic.
    n = 10_000
    rng = np.random.default_rng(123)
    counts = np.zeros((GENOME_LENGTH, 3), dtype=int)
    for _ in range(n):
        genome = random_rule(rng).genome
        for pos in range(GENOME_LENGTH):
            counts[pos, genome[pos]] += 1
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    for pos in range(1, GENOME_LENGTH):  # position 0 is pinned to S
        for state in range(3):
            assert abs(counts[pos, state] - n / 3) <= 3 * sigma
    assert counts[0, 0] == n


def test_genome_int_is_injective_on_samples():
    rng = np.random.default_rng(17)
    rules = [random_rule(rng) for _ in range(500)]
    ids = {r.genome_int() for r in rules}
    assert len(ids) == len({r.to_genome() for r in rules})
    assert all(0 <= r.genome_int() < 3**36 for r in rules)


def test_rule_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    rules = [random_rule(rng) for _ in range(5)]
    path = tmp_path / "corpus.txt"
    save_rules(path, rules, header="demo corpus\nsecond header line")
    assert load_rules(path) == rules
    text = path.read_text()
    assert text.startswith("# demo corpus\n# second header line\n")
    assert parse_rules(text) == rules


def test_load_rule_rejects_a_file_of_two_rules(tmp_path):
    path = tmp_path / "two.txt"
    save_rules(path, [RuleMatrix.from_genome("S" * 36), RuleMatrix.from_genome(DENSE_GENOME)])
    with pytest.raises(ValueError, match="expected exactly one rule, found 2"):
        load_rule(path)


def test_rules_compare_and_key_by_genome():
    a, b = RuleMatrix.from_genome(DENSE_GENOME), RuleMatrix.from_genome(DENSE_GENOME)
    assert len({a: 1, b: 2}) == 1  # the genome is read-only, so the hash holds
    assert a != DENSE_GENOME  # another type is never equal
    empty, zeros = RuleMatrix([0] * 36), np.zeros(36, dtype=np.uint8)  # nor is an array
    assert empty != zeros and zeros != empty
    assert not empty == zeros and not zeros == empty
    assert repr(a) == f"RuleMatrix({DENSE_GENOME!r})"
