"""Stochastic simulation of the quasi-chemical reaction scheme.

The mobile-localization statistics distil into a small set of abstract
reactions over the two reactants A, B and the substrate S.  This module
simulates such schemes exactly in a well-stirred reactor with Gillespie's
direct method: propensities use combinatorial counts C(n, nu) scaled by
omega**(order-1), where omega is the reaction volume (by default the initial
particle total, so concentrations start at counts/omega).

``ssa_run`` writes its event loop afresh for each call: one Python function
specialised to the system and omega (``_event_loop``), the same program
whether or not the run has an event budget.  The counts live in
locals, each channel's propensity is an unrolled expression, the running
sums are built in channel order and a flat ladder of tests on them picks
the channel that fires, so an event walks no list and runs no inner loop.
The loop is exact, not an approximation of the direct method: every
propensity multiplies the same folded coefficient (``_channel``) by the same
falling factorials in the same order (``_law``), the two uniform draws of an
event come from the same blocks in the same order, and ``not s_r < target``
picks the first channel whose running sum reaches the target, as a linear
scan would.  Only integers -- species indices, and stoichiometries and
count changes written as float literals such as ``1.0`` -- enter the
generated source.  The float coefficients are passed in as values, so each
one round-trips exactly, and no reaction or species name reaches ``exec``.
``propensity`` evaluates the same ``_law`` expression on int counts, so it
returns the very rate the loop uses.

The loop holds every count as a float whose value is an integer, so every
multiply and subtract of a law is float with float, which CPython runs on
its specialised path; float with int converts the int on every use.  Below
2**53 that conversion is exact, and so is adding or subtracting a small
integer-valued float, so each law, running sum and waiting time is the same
bits as with int counts.  The loop keeps its counts in that range: where it
draws a block of uniforms, at entry and every ``_BLOCK // 2`` events, a
count above ``2**53 - (_BLOCK // 2) * D``, with ``D`` the largest count
change of one firing, is a ``ValueError``.  The recorded rows become an
int64 ``counts`` array; ``fired`` and ``events`` are ints.

An event does as little as that allows.  The laws carry no guard: a count
below its stoichiometry puts a factor ``(n - n) = 0`` into the product, so
the rate is 0.0 or -0.0, which sums and compares like 0.0.  The time test is
one comparison against the next lattice point, since the lattice the loop
walks ends one ulp past ``t_max``; only a step across a lattice point goes
on to test the horizon.  The loop pulls the lattice from a generator one
point at a time, so a run holds only the samples it reaches, and a
budgeted run's memory follows the run, not ``t_max / sample_dt``.  No
event counts itself: the events are the sum of ``fired``, which the loop
adds up only where a block of draws ends, and an event budget is a last
block cut short.  Two rules keep the unguarded laws safe:
a channel-choice draw of exactly 0.0 is raised to 2**-53 (``_event_loop``'s
``refill``), so the target is positive and only a channel with a
positive rate can fire, and ``ssa_run`` rejects initial counts whose
propensities overflow, where the total would be inf or nan for good.

Every reaction in the standard scheme conserves the particle total, which
makes long runs cheap to validate: the sum S+A+B never moves.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .hexgrid import as_int, check_positive

SPECIES = ("A", "B", "S")


@dataclass(frozen=True)
class Reaction:
    """One reaction channel: integer stoichiometry plus a rate constant."""

    reactants: dict
    products: dict
    rate: float

    def __post_init__(self):
        check_positive(self.rate, "rate")
        for side in (self.reactants, self.products):
            for sp, nu in side.items():
                if not (0 < nu < math.inf and nu == int(nu)):  # NaN fails too
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


def parse_system(text: str) -> ReactionSystem:
    reactions = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        reactions.append(parse_reaction(line))
    return ReactionSystem(SPECIES, reactions)


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


def _channel(rx: Reaction, species: tuple, omega: float) -> tuple:
    """The propensity law of one channel, as ``(coef, needs, moves)``.

    ``coef`` folds the rate, the volume scaling and the ``1/nu!`` of each
    ``C(n, nu)``.  ``needs`` lists ``(k, nu)`` per reactant in dict order, with
    ``k`` indexing ``species``; ``moves`` lists the nonzero ``(k, delta)`` of
    one firing.  ``_law`` turns ``coef`` and ``needs`` into the propensity.
    An omega so extreme that ``coef`` leaves the positive floats is rejected.
    """
    index = {sp: k for k, sp in enumerate(species)}
    try:
        coef = rx.rate / omega ** (rx.order - 1)
    except (OverflowError, ZeroDivisionError):
        coef = math.nan
    needs = []
    for sp, nu in rx.reactants.items():
        coef /= math.factorial(int(nu))
        needs.append((index[sp], int(nu)))
    if not (math.isfinite(coef) and coef > 0):
        raise ValueError(
            f"omega={omega!r} puts the rate of {format_reaction(rx)!r} out of float range"
        )
    moves = [(index[sp], int(d)) for sp, d in zip(species, rx.delta(species)) if d != 0]
    return coef, needs, moves


def _law(r: int, needs) -> str:
    """Source of channel ``r``'s propensity over coefficient ``c{r}`` and counts ``n{k}``.

    ``c * n * (n - 1) * ...``: the falling factorials multiplied onto the
    coefficient left to right, reactants in dict order.  There is no guard:
    a count ``n`` in ``0 .. nu - 1`` makes the factor ``(n - n)`` zero, so
    the rate is 0.0 or -0.0.  Only integers enter the text, as float
    literals (``(n0 - 1.0)``), so a float count stays float with float; an
    int count, as ``propensity`` passes, gives the same factor, since every
    count below 2**53 converts to a float exactly.
    """
    return f"c{r}" + "".join(
        f" * (n{k} - {d}.0)" if d else f" * n{k}" for k, nu in needs for d in range(nu)
    )


def propensity(rx: Reaction, counts: dict, omega: float) -> float:
    """Event rate of one channel at the given counts.

    ``rate * prod_s C(n_s, nu_s) / omega**(order - 1)``: the combinatorial
    number of reactant tuples, volume-scaled so that doubling omega at fixed
    concentration doubles total event rates of every order alike.  The value
    is bit-identical to the rate ``ssa_run`` uses for this channel.  A count
    below its stoichiometry gives a zero rate, which may be -0.0.  A count
    that is not a nonnegative integer (``hexgrid.as_int``) is a
    ``ValueError`` naming the species.
    """
    species = tuple(rx.reactants)
    coef, needs, _ = _channel(rx, species, omega)
    n = {f"n{k}": _count(f"count of {sp}", counts.get(sp, 0)) for k, sp in enumerate(species)}
    return eval(_law(0, needs), {"c0": coef}, n)


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
    fired: tuple  # events per channel, in system.reactions order

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


# uniforms are drawn in blocks of this many, one numpy call per block; it is
# even, so an event's two draws never straddle a block
_BLOCK = 1 << 16


_LOOP = """\
def loop(coefs, counts, t_max, budget, lattice, rng, rec_counts):
    {c} = coefs
    buf = _refill(rng, counts)
    {n} = map(float, counts)
    {f} = {zeros}
    log = _log
    block = min(_BLOCK, 2 * budget)
    k = 0
    t = 0.0
    t_sample = next(lattice)
    while True:
{sums}
        if total == 0.0:
            reason = "absorbed"
            break
        if k == block:
            # a flat tuple: a chain of 5000 "+" nests past the compiler's limit
            block = min(_BLOCK, 2 * (budget - sum(({f}))))
            if not block:
                reason = "max_events"
                break
            buf = _refill(rng, ({n}))
            k = 0
        t_next = t - log(1.0 - buf[k]) / total
        if t_next >= t_sample:
            if t_next > t_max:
                t = t_max
                reason = "t_max"
                break
            while t_sample <= t_next:
                rec_counts.append(({n}))
                t_sample = next(lattice)
        target = buf[k + 1] * total
        k += 2
        t = t_next
{fire}
    return ({n}), t, reason, ({f})
"""


def _event_loop(system: ReactionSystem, omega: float):
    """Generate ``ssa_run``'s event loop for one system and volume.

    Returns ``(loop, coefs)``.  ``loop`` takes the initial counts as ints and
    holds them as floats in locals ``n0, n1, ...``; the rows it records and
    the final counts it returns are tuples of those floats.  It unrolls every
    channel's unguarded ``_law``, moves the counts by float literals and
    picks the firing channel by a flat ladder of tests over the running sums:
    each channel but the last is ``if not s{r} < target:``, its moves and
    ``continue``, and the last channel fires untested, since the target never
    exceeds the total.  The ladder nests nothing, so no channel count meets the
    compiler's nesting limit.  ``coefs`` are the channel coefficients the
    loop unpacks at entry, passed as values so no float is printed.

    The loop tests the time once per event, ``t_next >= t_sample``, and
    takes each next sample time with ``next(lattice)``; the ``lattice``
    iterator must end with a sentinel just past ``t_max`` and hold no point
    above it, so that every step beyond the horizon enters that branch and
    stops there.  Events are counted in ``f0, f1, ...`` alone, one per
    firing of a channel, and the event ``budget`` (``inf`` for none) is
    spent in blocks: a block serves ``min(_BLOCK // 2, budget - events)``
    events, with ``events`` the sum of ``f0, f1, ...`` when it starts.  A
    block of no events ends the run as "max_events" before any draw, so a
    budget that runs out on a block's last event draws no further block.

    Every block of uniforms comes from ``refill``, which first checks the
    counts against ``bound``: a block serves at most ``_BLOCK // 2`` events,
    each moving a count by at most ``step``, so a count at most ``bound``
    when the block is drawn stays at most 2**53 until the next, and floats
    count it exactly.  The entry check sees the caller's ints, so a count too
    large for any float is a ``ValueError``, not an ``OverflowError``.  Each
    event takes its waiting-time draw, then its channel draw; a channel draw
    of exactly 0.0 becomes 2**-53, the smallest positive value
    ``Generator.random`` returns, so the target it sets is positive and the
    first running sum to reach it belongs to a channel with a positive rate.
    """
    species, reactions = system.species, system.reactions
    coefs, sums, fire, step = [], [], [], 0
    for r, rx in enumerate(reactions):
        coef, needs, moves = _channel(rx, species, omega)
        coefs.append(coef)
        step = max([step] + [abs(d) for _, d in moves])
        law = _law(r, needs)
        sums.append(f"s{r} = s{r - 1} + {law}" if r else f"s{r} = {law}")
        body = [f"n{k} {'+' if d > 0 else '-'}= {abs(d)}.0" for k, d in moves]
        body.append(f"f{r} += 1")
        if r < len(reactions) - 1:
            body = [f"if not s{r} < target:"] + ["    " + line for line in body + ["continue"]]
        fire += body
    sums.append(f"total = s{len(reactions) - 1}" if reactions else "total = 0.0")

    def names(prefix, count):
        return ", ".join(f"{prefix}{i}" for i in range(count)) + "," if count else "()"

    source = _LOOP.format(
        c=names("c", len(reactions)),
        n=names("n", len(species)),
        f=names("f", len(reactions)),
        zeros="0," * len(reactions) or "()",
        sums="\n".join(" " * 8 + line for line in sums),
        fire="\n".join(" " * 8 + line for line in fire),
    )
    bound = 2**53 - (_BLOCK // 2) * step

    def refill(rng, counts):
        for sp, v in zip(species, counts):
            if v > bound:
                raise ValueError(
                    f"count of {sp} is {int(v)}, above {bound}: past it the event loop's "
                    "float counts could round")
        u = rng.random(_BLOCK)
        np.maximum(u[1::2], 2.0**-53, out=u[1::2])
        return memoryview(u)

    namespace = {"_log": math.log, "_refill": refill, "_BLOCK": _BLOCK}
    exec(compile(source, "<ssa_run event loop>", "exec"), namespace)
    return namespace["loop"], tuple(coefs)


def _count(name: str, value) -> int:
    """``value`` as a nonnegative int; anything else is a ``ValueError`` naming ``name``."""
    value = as_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value!r}")
    return value


def _lattice(t_max: float, dt):
    """The sample times ``k * dt`` up to ``t_max``, and ``t_max``, one at a time.

    The last multiple, ``k = floor(t_max / dt)``, is clamped to ``t_max``;
    ``t_max`` follows it when it falls short.  With ``dt = t_max`` the times
    are ``0.0, t_max``.
    """
    last = math.floor(t_max / dt)
    yield from (k * dt for k in range(last))
    # the last k * dt can round one ulp past t_max (5 * 2.87 > 14.35)
    t = min(last * dt, t_max)
    yield t
    if t < t_max:
        yield t_max


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

    ``init`` maps species of ``system`` to integer counts (absent ones start
    at 0).  The state is sampled on the lattice 0, sample_dt, 2*sample_dt, ... t_max
    (endpoints only when ``sample_dt`` is None).  Termination ``reason``:
    "t_max" when simulated past the horizon, "absorbed" when no channel can
    fire (remaining samples hold the frozen state), "max_events" when the
    event budget ran out first (the sample record is truncated there).
    ``fired`` counts the events of each channel and ``events`` is their sum.
    ``counts`` is int64, and ``events`` and each entry of ``fired`` are ints.

    One event loop serves every run.  It draws its uniforms in blocks that
    serve 32768 events each; an event budget only cuts the last block short,
    so a budgeted run does the same work per event as an unbudgeted one.
    The loop walks the sample lattice rather than building it first, so a
    budgeted run holds only the samples it reaches: its memory follows the
    run, not ``t_max / sample_dt``.

    A ``t_max / sample_dt`` that overflows (no sample lattice could count it),
    initial counts that are not nonnegative integers, counts whose
    propensities overflow (a total of inf or nan would stall the clock) and,
    after that, a count above ``2**53 - 32768 * D``, where ``D`` is the
    largest count change of one firing, are ``ValueError``s.  The event loop
    holds counts as floats, exact only to 2**53, so it checks that bound
    again at every block and stops the run with the same error if a count
    has passed it.
    """
    check_positive(t_max, "t_max")
    if sample_dt is not None:
        check_positive(sample_dt, "sample_dt")
        if not math.isfinite(t_max / sample_dt):
            raise ValueError(
                f"t_max / sample_dt must be finite to count the sample lattice, "
                f"got {t_max!r} / {sample_dt!r}")
    budget = math.inf if max_events is None else _count("max_events", max_events)
    species = system.species
    unknown = set(init) - set(species)
    if unknown:
        raise ValueError(f"init names species the system lacks: {sorted(map(str, unknown))}")
    n = [_count(f"initial count of {sp}", init.get(sp, 0)) for sp in species]
    if omega is None:
        omega = float(sum(n)) or 1.0
    check_positive(omega, "omega")
    start = dict(zip(species, n))
    try:
        a0 = sum(propensity(rx, start, omega) for rx in system.reactions)
    except OverflowError:
        a0 = math.inf
    if not math.isfinite(a0):
        raise ValueError(f"propensities overflow at initial counts {start} with omega={omega!r}")

    end = float(t_max)
    dt = end if sample_dt is None else sample_dt
    rec_counts: list[tuple] = []
    loop, coefs = _event_loop(system, omega)
    # the loop records the pre-event state at every lattice point it jumps
    # across.  The sentinel one ulp past t_max ends that scan without a
    # bounds test, and any step beyond t_max reaches it.
    sentinel = math.nextafter(t_max, math.inf)
    lattice = chain(_lattice(end, dt), [sentinel])
    n, t, reason, fired = loop(coefs, n, t_max, budget, lattice, rng, rec_counts)

    if reason == "max_events":
        # the lattice beyond t is unreachable, but the state at the moment
        # the budget ran out is known -- record it so the series ends live
        times = [*islice(_lattice(end, dt), len(rec_counts)), t]
        rec_counts.append(n)
    else:
        # no further events fire before t_max: the state holds to the horizon
        # (t_end stays at the absorption time when reason == "absorbed")
        times = list(_lattice(end, dt))
        rec_counts += [n] * (len(times) - len(rec_counts))

    return SSAResult(
        species=species,
        times=np.asarray(times, dtype=float),
        # the rows are the loop's float counts, integers below 2**53
        counts=np.asarray(rec_counts, dtype=np.int64).reshape(len(times), len(species)),
        events=sum(fired),
        t_end=t,
        reason=reason,
        omega=omega,
        fired=fired,
    )


def count_oscillation_features(series, detrend: int = 0) -> int:
    """Count pulse peaks: strict local maxima of a sampled series.

    ``detrend`` (odd, >= 3) subtracts a centred moving average of that width
    before counting, so the count measures peaks of the fluctuating component
    -- in steeply trending stretches the trend otherwise swamps every pulse.
    A ``series`` that is not 1-D and a ``detrend`` that is not an integer are
    ``ValueError``s.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {x.shape}")
    detrend = as_int(detrend, "detrend")
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
