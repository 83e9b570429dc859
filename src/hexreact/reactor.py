"""Stochastic simulation of the quasi-chemical reaction scheme.

The mobile-localization statistics distil into a small set of abstract
reactions over the two reactants A, B and the substrate S.  This module
simulates such schemes exactly in a well-stirred reactor with Gillespie's
direct method: propensities use combinatorial counts C(n, nu) scaled by
omega**(order-1), where omega is the reaction volume (by default the initial
particle total, so concentrations start at counts/omega).

Every reaction in the standard scheme conserves the particle total, which
makes long runs cheap to validate: the sum S+A+B never moves.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

SPECIES = ("A", "B", "S")


@dataclass(frozen=True)
class Reaction:
    """One reaction channel: integer stoichiometry plus a rate constant."""

    reactants: dict
    products: dict
    rate: float
    name: str = ""

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        for side in (self.reactants, self.products):
            for sp, nu in side.items():
                if nu <= 0 or nu != int(nu):
                    raise ValueError(f"stoichiometry for {sp} must be a positive integer")
        if not self.reactants and not self.products:
            raise ValueError("reaction must involve at least one species")

    @property
    def order(self) -> int:
        return sum(self.reactants.values())

    def conserves_total(self) -> bool:
        return sum(self.reactants.values()) == sum(self.products.values())

    def delta(self, species=SPECIES) -> tuple:
        return tuple(
            self.products.get(sp, 0) - self.reactants.get(sp, 0) for sp in species
        )


def format_reaction(rx: Reaction) -> str:
    def side(counts):
        if not counts:
            return "0"
        return " + ".join(
            (f"{nu} {sp}" if nu > 1 else sp) for sp, nu in sorted(counts.items())
        )

    return f"{side(rx.reactants)} -> {side(rx.products)} @ {rx.rate:g}"


_TERM = re.compile(r"^\s*(\d*)\s*([A-Za-z]\w*)\s*$")


def parse_reaction(text: str) -> Reaction:
    """Parse "A + 2B -> 3B @ 0.1" style notation ("0" denotes an empty side)."""
    head, _, rate_part = text.partition("@")
    if not rate_part.strip():
        raise ValueError(f"missing rate in {text!r}")
    lhs, arrow, rhs = head.partition("->")
    if not arrow:
        raise ValueError(f"missing '->' in {text!r}")

    def side(chunk):
        counts: dict[str, int] = {}
        chunk = chunk.strip()
        if chunk == "0" or not chunk:
            return counts
        for term in chunk.split("+"):
            m = _TERM.match(term)
            if not m:
                raise ValueError(f"bad term {term!r} in {text!r}")
            nu = int(m.group(1)) if m.group(1) else 1
            sp = m.group(2)
            counts[sp] = counts.get(sp, 0) + nu
        return counts

    return Reaction(side(lhs), side(rhs), float(rate_part.strip()))


@dataclass
class ReactionSystem:
    species: tuple = SPECIES
    reactions: list = field(default_factory=list)

    def __post_init__(self):
        self.species = tuple(self.species)
        index = set(self.species)
        for rx in self.reactions:
            for sp in (*rx.reactants, *rx.products):
                if sp not in index:
                    raise ValueError(f"reaction uses unknown species {sp!r}")

    def conserves_total(self) -> bool:
        return all(rx.conserves_total() for rx in self.reactions)

    def describe(self) -> str:
        return "\n".join(format_reaction(rx) for rx in self.reactions)


def parse_system(text: str, species=SPECIES) -> ReactionSystem:
    reactions = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        reactions.append(parse_reaction(line))
    return ReactionSystem(species, reactions)


def standard_system() -> ReactionSystem:
    """The distilled A/B/S scheme (all channels conserve the particle total).

    Both reactants autocatalyse at the other's expense, with weaker
    higher-order cross terms; B can also colonize substrate directly, and
    both reactants decay back to substrate -- A far faster than B.
    """
    lines = """
        A + B -> 2A @ 1.0
        A + 2B -> 2A + B @ 0.4
        2A + B -> 3A @ 0.1
        2A + 2B -> 3A + B @ 0.01
        3A + B -> 4A @ 0.01
        A + B -> 2B @ 1.0
        2A + B -> A + 2B @ 0.05
        A + 2B -> 3B @ 0.1
        B + S -> 2B @ 0.01
        A -> S @ 0.054
        B -> S @ 0.0015
    """
    return parse_system(lines)


def propensity(rx: Reaction, counts: dict, omega: float) -> float:
    """Event rate of one channel at the given counts.

    ``rate * prod_s C(n_s, nu_s) / omega**(order - 1)``: the combinatorial
    number of reactant tuples, volume-scaled so that doubling omega at fixed
    concentration doubles total event rates of every order alike.
    """
    a = rx.rate / omega ** (rx.order - 1)
    for sp, nu in rx.reactants.items():
        a *= math.comb(counts.get(sp, 0), nu)
    return a


@dataclass
class SSAResult:
    """Sampled trajectory of one stochastic run."""

    species: tuple
    times: np.ndarray
    counts: np.ndarray  # shape (len(times), len(species))
    events: int
    t_end: float
    reason: str  # "t_max" | "absorbed" | "max_events"
    omega: float

    def series(self, name: str) -> np.ndarray:
        return self.counts[:, self.species.index(name)]

    def final_counts(self) -> dict:
        return {sp: int(v) for sp, v in zip(self.species, self.counts[-1])}

    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t," + ",".join(self.species) + "\n")
        for t, row in zip(self.times, self.counts):
            buf.write(f"{float(t)!r}," + ",".join(str(int(v)) for v in row) + "\n")
        return buf.getvalue()


class _Uniforms:
    """Blocked uniform draws: one numpy call per 2**16 variates."""

    def __init__(self, rng, block=1 << 16):
        self.rng = rng
        self.block = block
        self.buf = rng.random(block)
        self.k = 0

    def __call__(self) -> float:
        if self.k == self.block:
            self.buf = self.rng.random(self.block)
            self.k = 0
        v = self.buf[self.k]
        self.k += 1
        return v


def ssa_run(
    system: ReactionSystem,
    init: dict,
    t_max: float,
    rng: np.random.Generator,
    sample_dt: float | None = None,
    max_events: int | None = None,
    omega: float | None = None,
) -> SSAResult:
    """Exact stochastic trajectory by the direct method.

    The state is sampled on the lattice 0, sample_dt, 2*sample_dt, ... t_max
    (endpoints only when ``sample_dt`` is None).  Termination ``reason``:
    "t_max" when simulated past the horizon, "absorbed" when no channel can
    fire (remaining samples hold the frozen state), "max_events" when the
    event budget ran out first (the sample record is truncated there).
    """
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if sample_dt is not None and sample_dt <= 0:
        raise ValueError("sample_dt must be positive")
    species = system.species
    n = [int(init.get(sp, 0)) for sp in species]
    if min(n) < 0:
        raise ValueError("initial counts must be nonnegative")
    if omega is None:
        omega = float(sum(n)) or 1.0
    if omega <= 0:
        raise ValueError("omega must be positive")

    # flatten each channel to (coef, [(idx, nu)...], [(idx, delta)...]):
    # coef folds the rate, volume scaling and the 1/nu! of each C(n, nu),
    # so the hot loop multiplies falling factorials only.
    idx = {sp: k for k, sp in enumerate(species)}
    channels = []
    for rx in system.reactions:
        coef = rx.rate / omega ** (rx.order - 1)
        needs = []
        for sp, nu in rx.reactants.items():
            coef /= math.factorial(nu)
            needs.append((idx[sp], nu))
        moves = [
            (idx[sp], d)
            for sp, d in zip(species, rx.delta(species))
            if d != 0
        ]
        channels.append((coef, needs, moves))

    if sample_dt is None:
        lattice = [0.0, float(t_max)]
    else:
        lattice = [k * sample_dt for k in range(int(math.floor(t_max / sample_dt)) + 1)]
        if lattice[-1] < t_max:
            lattice.append(float(t_max))
    rec_times: list[float] = []
    rec_counts: list[list[int]] = []
    next_sample = 0

    uniform = _Uniforms(rng)
    log = math.log
    t = 0.0
    events = 0
    reason = "t_max"

    while True:
        # propensities
        a0 = 0.0
        acc = []
        for coef, needs, _ in channels:
            a = coef
            for k, nu in needs:
                nk = n[k]
                if nk < nu:
                    a = 0.0
                    break
                for d in range(nu):
                    a *= nk - d
            a0 += a
            acc.append(a0)

        if a0 == 0.0:
            reason = "absorbed"
            break
        if max_events is not None and events >= max_events:
            reason = "max_events"
            break

        t_next = t - log(1.0 - uniform()) / a0
        if t_next > t_max:
            t = t_max
            reason = "t_max"
            break

        # record the pre-event state at every lattice point we jump across
        while next_sample < len(lattice) and lattice[next_sample] <= t_next:
            rec_times.append(lattice[next_sample])
            rec_counts.append(list(n))
            next_sample += 1

        target = uniform() * a0
        r = 0
        while acc[r] < target:
            r += 1
        for k, d in channels[r][2]:
            n[k] += d
        t = t_next
        events += 1

    if reason == "max_events":
        # the lattice beyond t is unreachable, but the state at the moment
        # the budget ran out is known -- record it so the series ends live
        rec_times.append(t)
        rec_counts.append(list(n))
    else:
        # no further events fire before t_max: the state holds to the horizon
        # (t_end stays at the absorption time when reason == "absorbed")
        while next_sample < len(lattice):
            rec_times.append(lattice[next_sample])
            rec_counts.append(list(n))
            next_sample += 1
        if reason == "t_max":
            t = t_max

    return SSAResult(
        species=species,
        times=np.asarray(rec_times, dtype=float),
        counts=np.asarray(rec_counts, dtype=np.int64).reshape(len(rec_times), len(species)),
        events=events,
        t_end=t,
        reason=reason,
        omega=omega,
    )


def count_oscillation_features(series, smooth: int = 1, detrend: int = 0) -> int:
    """Count pulse peaks: strict local maxima of a sampled series.

    ``smooth`` > 1 first applies a box filter of that width.  ``detrend``
    (odd, >= 3) subtracts a centred moving average of that width before
    counting, so the count measures peaks of the fluctuating component --
    in steeply trending stretches the trend otherwise swamps every pulse.
    """
    x = np.asarray(series, dtype=float)
    if smooth > 1:
        x = np.convolve(x, np.ones(smooth) / smooth, mode="valid")
    if detrend:
        if detrend < 3 or detrend % 2 == 0:
            raise ValueError("detrend width must be odd and at least 3")
        if len(x) < detrend:
            return 0
        trend = np.convolve(x, np.ones(detrend) / detrend, mode="valid")
        h = (detrend - 1) // 2
        x = x[h : len(x) - h] - trend
        # flatten float residue so an exactly linear stretch counts zero peaks
        tiny = 1e-9 * max(1.0, float(np.abs(series).max(initial=0.0)))
        x[np.abs(x) < tiny] = 0.0
    if len(x) < 3:
        return 0
    mid = x[1:-1]
    return int(np.count_nonzero((mid > x[:-2]) & (mid > x[2:])))
