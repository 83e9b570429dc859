"""Rule-corpus statistics and the reduction to stationary-localization rules.

Given a corpus of rules that each support a glider, every rule contributes
the set of neighbourhood signatures (i, j) its glider actually exercises
while travelling alone through substrate -- its *necessary* transitions.
Aggregating the corpus yields four likelihood tables: for each signature, the
fraction of corpus entries whose rule outputs S, A or B there (among entries
that need the signature at all), plus the fraction that never exercise it.

Symmetrizing the A and B tables (the two reactants are interchangeable) and
keeping only states whose likelihood survives a dominance threshold reduces
the corpus to a small set-valued table whose rules tend strongly towards
stationary localizations.  The tendency is not a law: ``class_census`` runs
every rule of a class under the sweep protocol, and for the bundled
reference class (648 rules) it lists 73 whose 60 soups emit traveling
localizations, each with a replant-verified glider
(``fixtures/reference_class_mobile.csv``).  That count is a lower bound: the
list still grows with the soup count (32 rules within 5 soups, 59 within 20,
68 within 40).
"""

from __future__ import annotations

import io
import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .detector import (
    CLASSES,
    GLIDER,
    MOBILE_CLASSES,
    PUFFER_TRAIN,
    FitnessConfig,
    Localization,
    extract_components,
    mobile_localizations,
    soup_localizations,
    track,
)
from .engine import Trajectory, run, signature_index
from .hexgrid import Grid, axial_to_offset, check_positive
from .rules import GENOME_ALPHABET, PAIR_INDEX, PAIRS, RuleMatrix


# -- likelihood tables ---------------------------------------------------------


def _pair_rows(text: str, width: int) -> dict[int, tuple[int, list[str]]]:
    """The rows of a CSV table over the 36 pairs, keyed by pair index.

    Each row after the header is ``i,j`` and ``width - 2`` more fields; the
    value is the row's line number and those fields.  Every pair must have
    exactly one row, and any bad row is a ValueError naming its line.
    """
    rows = {}
    for n, line in enumerate(text.splitlines()[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"line {n}: expected {width} fields, found {len(fields)}")
        try:
            k = PAIR_INDEX[(int(fields[0]), int(fields[1]))]
        except (KeyError, ValueError):
            raise ValueError(f"line {n}: {fields[0]},{fields[1]} is not an (i, j) pair") from None
        if k in rows:
            raise ValueError(f"line {n}: pair {PAIRS[k]} repeats line {rows[k][0]}")
        rows[k] = (n, fields[2:])
    if len(rows) != 36:
        missing = [PAIRS[k] for k in range(36) if k not in rows]
        raise ValueError(f"table covers {len(rows)} of 36 pairs; no row for {missing}")
    return rows


@dataclass
class LikelihoodMatrices:
    """Four aligned 36-entry tables in genome order (see rules.PAIRS).

    ``fs[k] + fa[k] + fb[k] + fhash[k] == 1`` for every entry: each corpus
    member lands in exactly one bucket per signature -- one of the three
    output states if the signature is necessary for its glider, or the
    "redundant" bucket ``fhash`` if not.
    """

    fs: np.ndarray
    fa: np.ndarray
    fb: np.ndarray
    fhash: np.ndarray

    def table(self, which: str) -> np.ndarray:
        return {"S": self.fs, "A": self.fa, "B": self.fb, "#": self.fhash}[which]

    def get(self, which: str, i: int, j: int) -> float:
        return float(self.table(which)[PAIR_INDEX[(i, j)]])

    def as_grid(self, which: str) -> np.ndarray:
        """8x8 view of one table; entries with i+j > 7 are NaN."""
        out = np.full((8, 8), np.nan)
        for k, (i, j) in enumerate(PAIRS):
            out[i, j] = self.table(which)[k]
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("i,j,FS,FA,FB,Fhash\n")
        for k, (i, j) in enumerate(PAIRS):
            buf.write(
                f"{i},{j},{float(self.fs[k])!r},{float(self.fa[k])!r},"
                f"{float(self.fb[k])!r},{float(self.fhash[k])!r}\n"
            )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "LikelihoodMatrices":
        """The tables ``to_csv`` writes.  Every value must lie in [0, 1], and every
        row's four must sum to 1 after rounding to 9 decimals, the rounding
        ``reduce_likelihoods`` uses; any bad row is a ValueError naming its line."""
        tables = [np.zeros(36) for _ in range(4)]
        for k, (n, fields) in _pair_rows(text, 6).items():
            try:
                values = [float(v) for v in fields]
            except ValueError:
                raise ValueError(f"line {n}: likelihoods must be numbers") from None
            for v in values:
                if not 0 <= v <= 1:  # NaN fails too
                    raise ValueError(f"line {n}: likelihood {v!r} is outside [0, 1]")
            if round(sum(values), 9) != 1:
                raise ValueError(f"line {n}: likelihoods sum to {sum(values)!r}, not 1")
            for table, v in zip(tables, values):
                table[k] = v
        return cls(*tables)


def heatmap_pgm(matrices: LikelihoodMatrices, which: str) -> bytes:
    """One table as an 8x8 greyscale PGM (values 0..1 scaled to 0..255).

    Unreachable entries (i + j > 7) render as 0.
    """
    grid = matrices.as_grid(which)
    img = np.nan_to_num(grid, nan=0.0)
    img = np.clip(np.rint(img * 255), 0, 255).astype(np.uint8)
    return b"P5\n8 8\n255\n" + img.tobytes()


def compute_likelihoods(corpus) -> LikelihoodMatrices:
    """Fold a corpus of (rule, necessary-signature-set) pairs into tables.

    For each signature (i, j): ``fhash`` is the fraction of entries whose set
    omits it; each state table holds the fraction of entries that need it
    *and* whose rule maps it to that state.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus must be nonempty")
    counts = np.zeros((4, 36), dtype=np.int64)  # S, A, B, redundant
    for rule, needed in corpus:
        for k, pair in enumerate(PAIRS):
            if pair in needed:
                counts[rule.genome[k], k] += 1
            else:
                counts[3, k] += 1
    n = len(corpus)
    return LikelihoodMatrices(*(counts[z] / n for z in range(4)))


# -- necessary transitions -------------------------------------------------------


def necessary_transitions(glider: Localization, tr: Trajectory) -> set[tuple[int, int]]:
    """Signatures a lone glider exercises over its own first full period.

    ``tr`` must hold the glider travelling alone through substrate for at
    least ``glider.period`` frames from ``glider.first_frame`` (an absolute
    time, read against ``tr.t0``), not from the trajectory's first frame.
    Every cell of each of those ``period`` frames contributes its (i, j)
    neighbourhood signature; the far field guarantees (0, 0).  Frames where
    the pattern touches the torus wrap seam are rejected: displacement
    bookkeeping there is ambiguous.  Errors name frames by absolute time.
    """
    if glider.period is None:
        raise ValueError("localization has no established period")
    frames = tr.frames
    start = glider.first_frame - tr.t0
    if start < 0:
        raise ValueError(f"glider starts at t={glider.first_frame}, before t0={tr.t0}")
    if len(frames) - start < glider.period:
        raise ValueError(f"trajectory holds under one period from t={glider.first_frame}")
    h, w = frames[0].shape
    seen: set[tuple[int, int]] = {(0, 0)}
    for t in range(glider.first_frame, glider.first_frame + glider.period):
        grid = frames[t - tr.t0]
        comps = extract_components(grid)
        if len(comps) != 1:
            raise ValueError(f"frame {t}: expected the glider alone, found {len(comps)} components")
        rows, cols = np.divmod(comps[0].cells, w)
        if rows.min() == 0 or rows.max() == h - 1 or cols.min() == 0 or cols.max() == w - 1:
            raise ValueError(f"frame {t}: pattern touches the wrap seam")
        for key in np.unique(signature_index(grid)):
            seen.add((int(key) % 8, int(key) // 8))
    return seen


@dataclass
class GliderTrace:
    """A verified lone-glider run: the evidence behind one corpus entry."""

    rule: RuleMatrix
    trajectory: Trajectory
    loc: Localization

    def necessary(self) -> set[tuple[int, int]]:
        return necessary_transitions(self.loc, self.trajectory)


# side of the empty square torus a glider is replanted on
LONE_SIZE = 48


def _materialize_shape(shape) -> Grid:
    """Place a canonical (axial) shape near the centre of an empty ``LONE_SIZE`` torus."""
    rows = [c[0] for c in shape]
    qs = [c[1] for c in shape]
    r0 = LONE_SIZE // 2 - (max(rows) - min(rows)) // 2
    q0 = LONE_SIZE // 2 - (max(qs) - min(qs)) // 2
    g = Grid.filled(LONE_SIZE, LONE_SIZE)
    for ar, aq, state in shape:
        r, c = axial_to_offset(aq + q0, ar + r0)
        g[r % LONE_SIZE, c % LONE_SIZE] = state
    return g


def replant_glider(rule: RuleMatrix, shape, p_max: int = 12) -> GliderTrace | None:
    """Plant ``shape`` alone on an empty torus; its trace if it glides cleanly.

    The lone run lasts ``4 * p_max + 4`` steps and must track as exactly one
    Glider that starts at frame 0 and survives every frame -- no debris, no
    break-up.  This is the check that makes a tracked glider a verified one.
    """
    steps = 4 * p_max + 4
    lone = run(_materialize_shape(shape), rule, steps)
    locs = track(lone, p_max=p_max)
    if len(locs) != 1:
        return None
    cand = locs[0]
    if cand.loc_class == GLIDER and cand.first_frame == 0 and cand.frames == steps + 1:
        return GliderTrace(rule, lone, cand)
    return None


def find_glider(
    rule: RuleMatrix, cfg: FitnessConfig, rng: np.random.Generator
) -> GliderTrace | None:
    """Hunt a verified lone glider for ``rule``, or None.

    Up to ``cfg.trials`` random soups (5 by default; ``hexreact likelihood``
    runs 20) are run and tracked until some track classifies as a glider
    whose last shape passes ``replant_glider``; that lone run is the
    returned trace.
    """
    for seed in rng.integers(0, 2**63, size=cfg.trials):
        for loc in mobile_localizations(rule, cfg, int(seed)):
            if loc.loc_class != GLIDER:
                continue
            trace = replant_glider(rule, loc.shapes[-1], cfg.p_max)
            if trace is not None:
                return trace
    return None


def corpus_likelihoods(
    rules, cfg: FitnessConfig, rng: np.random.Generator
) -> tuple[LikelihoodMatrices, list[RuleMatrix], list[RuleMatrix]]:
    """Build likelihood tables from rules by hunting each rule's glider.

    Returns (matrices, used, skipped): rules where no verified lone glider
    was found within ``cfg.trials`` soups contribute nothing and are
    reported in ``skipped``.
    """
    entries = []
    used, skipped = [], []
    for rule in rules:
        trace = find_glider(rule, cfg, rng)
        if trace is None:
            skipped.append(rule)
            continue
        entries.append((rule, trace.necessary()))
        used.append(rule)
    if not entries:
        raise ValueError("no rule in the corpus produced a verifiable glider")
    return compute_likelihoods(entries), used, skipped


# S, A, B weights for the mass a guided rule draws where the corpus says an
# entry is redundant: mostly quiescent, which keeps soups from exploding
_GUIDED_BACKGROUND = (0.9, 0.05, 0.05)


def guided_rule(matrices: LikelihoodMatrices, rng: np.random.Generator) -> RuleMatrix:
    """Draw a random rule biased by likelihood tables.

    Each entry samples state z with probability ``Fz + Fhash * background[z]``:
    where the corpus says a transition matters, follow its state statistics;
    where it is mostly redundant, fall back to the background mix
    (``_GUIDED_BACKGROUND``, mostly quiescent).  Entry (0, 0) stays S.
    """
    entries = [0] * 36
    for k in range(1, 36):
        h = matrices.fhash[k]
        weights = np.array(
            [
                matrices.fs[k] + h * _GUIDED_BACKGROUND[0],
                matrices.fa[k] + h * _GUIDED_BACKGROUND[1],
                matrices.fb[k] + h * _GUIDED_BACKGROUND[2],
            ]
        )
        weights = np.clip(weights, 0, None)
        entries[k] = int(rng.choice(3, p=weights / weights.sum()))
    return RuleMatrix(entries)


# -- symmetrization and reduction --------------------------------------------------


def symmetrize(f1: np.ndarray, f2: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Couple two tables across the A<->B exchange (i, j) <-> (j, i).

    Wherever ``|f1[i,j] - f2[j,i]| < eps`` the two entries are replaced by
    their arithmetic mean; entries further apart than eps are left alone.
    Idempotent.  (The floor of the mean is no coupling: the floor of a mean
    of two likelihoods in [0, 1] is 0 unless both are 1.)
    """
    check_positive(eps, "eps")
    out1 = np.array(f1, dtype=float)
    out2 = np.array(f2, dtype=float)
    for (i, j), k in PAIR_INDEX.items():
        m = PAIR_INDEX[(j, i)]
        if abs(out1[k] - out2[m]) < eps:
            v = (out1[k] + out2[m]) / 2
            out1[k] = v
            out2[m] = v
    return out1, out2


@dataclass(frozen=True)
class ReducedRuleSet:
    """Set-valued rule table: each signature maps to its allowed states.

    ``allowed`` maps every (i, j) pair to a nonempty frozenset of states;
    (0, 0) is always exactly {S}.  Pairs left out allow only S; a key that is
    not one of the 36 pairs is a ValueError.
    """

    allowed: dict

    def __post_init__(self):
        stray = [key for key in self.allowed if key not in PAIR_INDEX]
        if stray:
            raise ValueError(f"keys {stray} are not among the 36 (i, j) pairs")
        fixed = {}
        for pair in PAIRS:
            states = frozenset(int(s) for s in self.allowed.get(pair, (0,)))
            if not states:
                raise ValueError(f"empty allowed set at {pair}")
            if not states <= {0, 1, 2}:
                raise ValueError(f"bad state in allowed set at {pair}")
            fixed[pair] = states
        if fixed[(0, 0)] != {0}:
            raise ValueError("(0, 0) must allow exactly S")
        object.__setattr__(self, "allowed", fixed)

    def get(self, i: int, j: int) -> frozenset:
        return self.allowed[(i, j)]

    def letters(self, i: int, j: int) -> str:
        return "".join(GENOME_ALPHABET[s] for s in sorted(self.allowed[(i, j)]))

    def count(self) -> int:
        n = 1
        for pair in PAIRS:
            n *= len(self.allowed[pair])
        return n

    def nontrivial(self) -> dict:
        """Entries allowing anything besides plain {S}."""
        return {p: s for p, s in self.allowed.items() if s != frozenset({0})}

    def to_csv(self) -> str:
        lines = ["i,j,allowed"]
        for i, j in PAIRS:
            lines.append(f"{i},{j},{self.letters(i, j)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ReducedRuleSet":
        allowed = {}
        for k, (n, (letters,)) in _pair_rows(text, 3).items():
            letters = letters.strip()
            if not letters or not set(letters) <= set(GENOME_ALPHABET):
                raise ValueError(f"line {n}: {letters!r} is not a set of {GENOME_ALPHABET} letters")
            allowed[PAIRS[k]] = frozenset(GENOME_ALPHABET.index(ch) for ch in letters)
        return cls(allowed)


def reduce_likelihoods(
    matrices: LikelihoodMatrices, theta: float = 0.2, eps: float = 0.1
) -> ReducedRuleSet:
    """Distil likelihood tables into the set-valued stationary rule table.

    "Stationary" describes the class as a tendency: most of its rules'
    soups settle into still lifes and breathers, but some members support
    gliders (at least 73 of the 648 rules of the bundled reference class,
    listed in ``fixtures/reference_class_mobile.csv`` by ``class_census``).

    The A and B tables are first symmetrized (tolerance ``eps``).  A state
    then survives at signature (i, j) when its likelihood both clears the
    negligibility floor ``eps`` and comes within ``theta`` of the
    strongest state there.  Signatures where nothing survives fall back to
    {S}, as do (0, 5) and (1, 4) on the B side, whose raw counts are noise.
    The subtraction is rounded to 9 decimals so that borderline likelihood
    gaps (stored as 2-decimal fractions) compare exactly against theta.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    fa, fb = symmetrize(matrices.fa, matrices.fb, eps)
    allowed = {}
    for (i, j), k in PAIR_INDEX.items():
        votes = {0: float(matrices.fs[k]), 1: float(fa[k]), 2: float(fb[k])}
        top = max(votes.values())
        states = {
            z
            for z, v in votes.items()
            if v >= eps and round(top - v, 9) < theta
        }
        if (i, j) in ((0, 5), (1, 4)):
            states.discard(2)
        allowed[(i, j)] = states or {0}
    allowed[(0, 0)] = {0}
    return ReducedRuleSet(allowed)


def diff_reduced_sets(a: ReducedRuleSet, b: ReducedRuleSet) -> list[tuple]:
    """Entries where two reduced sets disagree: (i, j, letters_a, letters_b)."""
    return [
        (i, j, a.letters(i, j), b.letters(i, j))
        for i, j in PAIRS
        if a.get(i, j) != b.get(i, j)
    ]


# -- the concrete rule class -----------------------------------------------------


def enumerate_rules(rset: ReducedRuleSet):
    """Yield every concrete rule in the class, in mixed-radix order (last entry fastest)."""
    for entries in itertools.product(*(sorted(rset.allowed[pair]) for pair in PAIRS)):
        yield RuleMatrix(entries)


def sample_rules(rset: ReducedRuleSet, n: int, rng: np.random.Generator) -> list[RuleMatrix]:
    """Draw n distinct rules uniformly from the class (per-entry choice)."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"the rule count must be a positive integer, got {n!r}")
    if n > rset.count():
        raise ValueError(f"class only holds {rset.count()} rules")
    choices = [sorted(rset.allowed[pair]) for pair in PAIRS]
    out: dict[str, RuleMatrix] = {}
    while len(out) < n:
        entries = [c[int(rng.integers(len(c)))] for c in choices]
        rule = RuleMatrix(entries)
        out.setdefault(rule.to_genome(), rule)
    return list(out.values())


# -- stationarity sweep ------------------------------------------------------------


@dataclass
class SweepEntry:
    """One swept rule: its class histogram and its mobile tracks, if any."""

    rule: RuleMatrix
    histogram: dict
    mobile: list = field(default_factory=list)


@dataclass
class SweepReport:
    """Class census over rules sampled from a reduced set."""

    entries: list

    def total_histogram(self) -> dict:
        total: dict[str, int] = {}
        for entry in self.entries:
            for cls, n in entry.histogram.items():
                total[cls] = total.get(cls, 0) + n
        return total

    def mobile_count(self) -> int:
        total = self.total_histogram()
        return sum(total.get(c, 0) for c in MOBILE_CLASSES)

    def to_csv(self) -> str:
        lines = ["rule," + ",".join(CLASSES)]
        for e in self.entries:
            lines.append(
                e.rule.to_genome() + "," + ",".join(str(e.histogram.get(c, 0)) for c in CLASSES)
            )
        return "\n".join(lines) + "\n"


def stationarity_sweep(
    rset: ReducedRuleSet,
    cfg: FitnessConfig,
    rng: np.random.Generator,
    n_rules: int = 20,
) -> SweepReport:
    """Sample rules from the class and census what their soups settle into.

    Each sampled rule runs ``cfg.trials`` random initial configurations; all
    tracked localizations of the trailing window are classified and counted,
    and the mobile ones (Glider, PufferTrain) are kept on the entry.
    """
    rules = sample_rules(rset, n_rules, rng)
    entries = []
    for rule in rules:
        entry = SweepEntry(rule, {})
        for seed in rng.integers(0, 2**63, size=cfg.trials):
            for loc in soup_localizations(rule, cfg, int(seed)):
                entry.histogram[loc.loc_class] = entry.histogram.get(loc.loc_class, 0) + 1
                if loc.loc_class in MOBILE_CLASSES:
                    entry.mobile.append(loc)
        entries.append(entry)
    return SweepReport(entries)


# -- census of a whole class -------------------------------------------------------

# The pre-registered class-sweep protocol: 30x30 tori filled with soup, 300
# steps, classification over the trailing 60 frames, 5 soups per rule.
CLASS_SWEEP_PROTOCOL = dict(
    width=30, height=30, patch_width=30, patch_height=30,
    steps=300, window=60, p_max=12, trials=5,
)

CENSUS_HEADER = "index,genome,first_soup,gliders,puffers,verified,period,dr,dq,shape"
_CENSUS_WIDTH = CENSUS_HEADER.count(",") + 1


@dataclass(frozen=True)
class CensusRow:
    """One mobile member of a rule class, as ``class_census`` finds it.

    ``first_soup`` is the first soup ``k`` with a mobile track, so the rows
    with ``first_soup < n`` are the census at ``n`` soups per rule.
    ``gliders`` and ``puffers`` count the mobile tracks over all soups;
    ``verified`` counts the Glider tracks that pass ``replant_glider``.
    ``shape`` is the first such verified glider shape, with the ``period``
    and ``displacement`` of its lone run; all three are None when no glider
    track of the rule verified.
    """

    index: int
    genome: str
    first_soup: int
    gliders: int
    puffers: int
    verified: int
    period: int | None
    displacement: tuple[int, int] | None
    shape: tuple | None

    def to_csv(self) -> str:
        if self.shape is None:
            tail = ",,,"
        else:
            cells = ";".join(f"{r}:{q}:{z}" for r, q, z in self.shape)
            tail = f"{self.period},{self.displacement[0]},{self.displacement[1]},{cells}"
        return (
            f"{self.index},{self.genome},{self.first_soup},{self.gliders},{self.puffers},"
            f"{self.verified},{tail}"
        )

    @classmethod
    def from_csv(cls, line: str) -> "CensusRow":
        """Parse one data row; a bad row is a ValueError that says what is wrong."""
        fields = line.split(",")
        if len(fields) != _CENSUS_WIDTH:
            raise ValueError(f"expected {_CENSUS_WIDTH} fields, found {len(fields)}")
        index, genome, first, gliders, puffers, verified, period, dr, dq, cells = fields
        if len(genome) != len(PAIRS) or not set(genome) <= set(GENOME_ALPHABET):
            raise ValueError(f"genome {genome!r} is not {len(PAIRS)} letters of {GENOME_ALPHABET}")
        if len({v == "" for v in (period, dr, dq, cells)}) > 1:
            raise ValueError("period, dr, dq and shape must be all set or all empty")
        lone = (None, None, None)
        if cells:
            lone = (
                _census_int("period", period),
                (_census_int("dr", dr), _census_int("dq", dq)),
                tuple(_shape_cell(c) for c in cells.split(";")),
            )
        return cls(
            _census_int("index", index), genome, _census_int("first_soup", first),
            _census_int("gliders", gliders), _census_int("puffers", puffers),
            _census_int("verified", verified), *lone,
        )


def _census_int(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not an integer") from None


def _shape_cell(text: str) -> tuple[int, int, int]:
    """One ``r:q:state`` cell of a census shape; the state is A (1) or B (2)."""
    try:
        r, q, z = (int(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"shape cell {text!r} is not r:q:state") from None
    if z not in (1, 2):
        raise ValueError(f"shape cell {text!r} has state {z}, not A (1) or B (2)")
    return r, q, z


def class_census(rset: ReducedRuleSet, cfg: FitnessConfig, indices=None) -> list[CensusRow]:
    """Census every rule of the class (or those at ``indices``) for mobility.

    Rule ``index`` (its position in ``enumerate_rules`` order) runs
    ``cfg.trials`` soups; soup ``k`` is seeded with ``[index, k]``, so a
    rule's row does not depend on which other rules are censused alongside
    it or in which process.  Every Glider track is verified with
    ``replant_glider``.  Returns one row per rule whose soups tracked a
    Glider or PufferTrain, in index order.  An index that is not an integer,
    lies outside the class or repeats is a ``ValueError``, raised before any
    soup runs.
    """
    rules = list(enumerate_rules(rset))
    if indices is None:
        indices = range(len(rules))
    else:
        picked = set()
        for index in indices:
            if not isinstance(index, numbers.Integral) or not 0 <= index < len(rules):
                raise ValueError(
                    f"rule index {index!r} is not an integer in 0..{len(rules) - 1}: "
                    f"the class has {len(rules)} rules")
            if index in picked:
                raise ValueError(f"rule index {index!r} is repeated (class of {len(rules)} rules)")
            picked.add(int(index))
        indices = sorted(picked)
    rows = []
    for index in indices:
        rule = rules[index]
        counts = {GLIDER: 0, PUFFER_TRAIN: 0}
        first_soup, verified, first, first_shape = None, 0, None, None
        for k in range(cfg.trials):
            for loc in mobile_localizations(rule, cfg, [index, k]):
                first_soup = k if first_soup is None else first_soup
                counts[loc.loc_class] += 1
                if loc.loc_class != GLIDER:
                    continue
                trace = replant_glider(rule, loc.shapes[-1], cfg.p_max)
                if trace is not None:
                    verified += 1
                    if first is None:
                        first, first_shape = trace.loc, loc.shapes[-1]
        if first_soup is None:
            continue
        rows.append(
            CensusRow(
                index, rule.to_genome(), first_soup, counts[GLIDER], counts[PUFFER_TRAIN],
                verified,
                None if first is None else first.period,
                None if first is None else first.displacement,
                first_shape,
            )
        )
    return rows


def census_to_csv(rows: list[CensusRow], cfg: FitnessConfig, command: str) -> str:
    """The census as CSV under a ``#`` header naming its protocol and command."""
    header = [
        "# Mobile members of a reduced rule class: one row per rule whose soups"
        " tracked a Glider or PufferTrain (hexreact.analysis.class_census).",
        f"# Protocol: rules in enumerate_rules order; {cfg.trials} soups per rule, soup k of"
        f" rule i seeded default_rng([i, k]); {cfg.width}x{cfg.height} torus with a"
        f" {cfg.patch_width}x{cfg.patch_height} random patch (p_a={cfg.p_a}, p_b={cfg.p_b});"
        f" {cfg.steps} steps; tracked over the trailing {cfg.window} frames, p_max {cfg.p_max}.",
        "# first_soup: the first soup k with a mobile track, so the rows with first_soup < n"
        " are the census at n soups per rule.",
        "# verified: Glider tracks whose last shape, replanted alone on an empty"
        f" {LONE_SIZE}x{LONE_SIZE} torus, tracks as one clean Glider (replant_glider);"
        " shape is the first such (r:q:state axial cells), period and dr,dq are its lone run's.",
        f"# Regenerate: {command}",
        CENSUS_HEADER,
    ]
    return "\n".join(header + [row.to_csv() for row in rows]) + "\n"


def census_from_csv(text: str) -> list[CensusRow]:
    """The rows of ``census_to_csv``'s text; any bad row is a ValueError naming its line."""
    lines = [
        (n, line) for n, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.startswith("#")
    ]
    if not lines or lines[0][1] != CENSUS_HEADER:
        raise ValueError("census CSV must start with the header " + CENSUS_HEADER)
    rows = []
    for n, line in lines[1:]:
        try:
            rows.append(CensusRow.from_csv(line))
        except ValueError as err:
            raise ValueError(f"line {n}: {err}") from None
    return rows


# -- bundled reference tables -------------------------------------------------------


def _fixture_text(name: str) -> str:
    from importlib.resources import files

    return files("hexreact").joinpath("fixtures", name).read_text()


def reference_likelihoods() -> LikelihoodMatrices:
    """The bundled reference likelihood tables (2-decimal precision)."""
    return LikelihoodMatrices.from_csv(_fixture_text("reference_likelihoods.csv"))


def reference_reduced_set() -> ReducedRuleSet:
    """The bundled reference reduced rule table."""
    return ReducedRuleSet.from_csv(_fixture_text("reference_reduced_set.csv"))


def reference_class_mobile() -> list[CensusRow]:
    """The census of the reference class's mobile members (see its header)."""
    return census_from_csv(_fixture_text("reference_class_mobile.csv"))


def bundled_glider_rule() -> RuleMatrix:
    """The bundled rule with a verified glider (found by guided search)."""
    from .rules import parse_rules

    rules = parse_rules(_fixture_text("glider_rule.txt"))
    if len(rules) != 1:
        raise ValueError("glider_rule.txt must hold exactly one rule")
    return rules[0]


def bundled_glider_seed() -> Grid:
    """A lone seed that travels as a clean glider under the bundled rule."""
    return Grid.from_text(_fixture_text("glider_seed.txt"))
