"""Reaction scheme, propensities, and the exact stochastic simulator."""

import hashlib
import math

import numpy as np
import pytest

from hexreact import reactor as rc


# -- scheme definition ---------------------------------------------------------


def test_standard_system_shape():
    sys_ = rc.standard_system()
    assert len(sys_.reactions) == 11
    assert sys_.species == ("A", "B", "S")
    assert sys_.conserves_total()
    rates = sorted(rx.rate for rx in sys_.reactions)
    assert rates == sorted([1.0, 0.4, 0.1, 0.01, 0.01, 1.0, 0.05, 0.1, 0.01, 0.054, 0.0015])


def test_standard_system_has_the_two_exchange_channels():
    sys_ = rc.standard_system()
    to_2a = [
        rx
        for rx in sys_.reactions
        if rx.reactants == {"A": 1, "B": 1} and rx.products == {"A": 2}
    ]
    to_2b = [
        rx
        for rx in sys_.reactions
        if rx.reactants == {"A": 1, "B": 1} and rx.products == {"B": 2}
    ]
    assert len(to_2a) == len(to_2b) == 1
    assert to_2a[0].rate == 1.0
    assert to_2b[0].rate == 1.0


def test_every_standard_reaction_conserves():
    for rx in rc.standard_system().reactions:
        assert rx.conserves_total()
        assert sum(rx.delta()) == 0


def test_reaction_validation():
    with pytest.raises(ValueError):
        rc.Reaction({"A": 1}, {"S": 1}, 0.0)
    for rate in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            rc.Reaction({"A": 1}, {"S": 1}, rate)
    with pytest.raises(ValueError):
        rc.Reaction({"A": 0}, {"S": 1}, 1.0)
    with pytest.raises(ValueError):
        rc.Reaction({}, {}, 1.0)


def test_parse_and_format_round_trip():
    sys_ = rc.standard_system()
    again = rc.parse_system(sys_.describe())
    assert [rc.format_reaction(r) for r in again.reactions] == [
        rc.format_reaction(r) for r in sys_.reactions
    ]


def test_format_writes_an_empty_side_as_zero():
    assert rc.format_reaction(rc.Reaction({"A": 1}, {}, 0.5)) == "A -> 0 @ 0.5"


def test_parse_reaction_forms():
    rx = rc.parse_reaction("2A + B -> A + 2B @ 0.05")
    assert rx.reactants == {"A": 2, "B": 1}
    assert rx.products == {"A": 1, "B": 2}
    assert rx.rate == 0.05
    assert rx.order == 3
    sink = rc.parse_reaction("A -> 0 @ 1.5")
    assert sink.products == {}
    assert not sink.conserves_total()


@pytest.mark.parametrize(
    "bad",
    [
        "A + B -> 2A",  # no rate
        "A + B @ 0.5",  # no arrow
        "A + -> B @ 0.5",  # empty term
        "A ++ B -> 2B @ 0.5",  # malformed term
        "A -> S @ inf",  # rate not finite
        "A -> S @ nan",
    ],
)
def test_parse_reaction_rejects(bad):
    with pytest.raises(ValueError):
        rc.parse_reaction(bad)


def test_system_rejects_unknown_species():
    with pytest.raises(ValueError):
        rc.ReactionSystem(("A", "B", "S"), [rc.parse_reaction("X -> 0 @ 1")])


# -- propensity -----------------------------------------------------------------


def test_propensity_examples():
    decay = rc.Reaction({"A": 1}, {"S": 1}, 0.054)
    assert rc.propensity(decay, {"A": 100}, 1.0) == 5.4
    tri = rc.Reaction({"A": 2, "B": 1}, {"A": 3}, 0.1)
    assert rc.propensity(tri, {"A": 4, "B": 3}, 1.0) == pytest.approx(1.8)


def test_propensity_missing_reactant_is_zero():
    tri = rc.Reaction({"A": 2, "B": 1}, {"A": 3}, 0.1)
    assert rc.propensity(tri, {"A": 1, "B": 5}, 1.0) == 0.0
    assert rc.propensity(tri, {"A": 5, "B": 0}, 1.0) == 0.0


def test_propensity_volume_scaling():
    pair = rc.Reaction({"A": 1, "B": 1}, {"A": 2}, 1.0)
    assert rc.propensity(pair, {"A": 5, "B": 5}, 10.0) == pytest.approx(2.5)
    # doubling omega at fixed counts halves a second-order propensity
    assert rc.propensity(pair, {"A": 5, "B": 5}, 20.0) == pytest.approx(1.25)


@pytest.mark.parametrize("omega", [1e-200, 1e200, 5e-324])
def test_propensity_rejects_an_omega_that_puts_the_rate_out_of_range(omega):
    # A + 2B -> 3B is third order: omega**2 underflows to 0 or overflows
    rx = rc.parse_reaction("A + 2B -> 3B @ 0.1")
    with pytest.raises(ValueError, match=r"omega=.*'A \+ 2 B -> 3 B @ 0\.1'.*out of float range"):
        rc.propensity(rx, {"A": 5, "B": 5}, omega)


# -- ssa_run -----------------------------------------------------------------------


def test_all_substrate_state_is_absorbing():
    res = rc.ssa_run(
        rc.standard_system(),
        {"A": 0, "B": 0, "S": 500},
        10.0,
        np.random.default_rng(0),
        sample_dt=1.0,
    )
    assert res.reason == "absorbed"
    assert res.events == 0
    assert res.t_end == 0.0
    assert len(res.times) == 11  # frozen state recorded across the lattice
    assert np.all(res.series("S") == 500)
    assert np.all(res.series("A") == 0)


def test_conservation_across_samples():
    res = rc.ssa_run(
        rc.standard_system(),
        {"A": 400, "B": 300, "S": 300},
        20.0,
        np.random.default_rng(1),
        sample_dt=0.5,
    )
    assert res.events > 0
    totals = res.totals()
    assert np.all(totals == 1000)
    assert np.all(res.counts >= 0)


def test_sample_lattice_layout():
    res = rc.ssa_run(
        rc.standard_system(),
        {"A": 50, "B": 50, "S": 0},
        1.0,
        np.random.default_rng(2),
        sample_dt=0.3,
    )
    assert np.allclose(res.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert res.counts.shape == (5, 3)
    assert res.reason == "t_max"
    assert res.t_end == 1.0


def test_determinism_per_seed():
    kw = dict(t_max=15.0, sample_dt=0.25)
    a = rc.ssa_run(rc.standard_system(), {"A": 200, "B": 200, "S": 200},
                   rng=np.random.default_rng(9), **kw)
    b = rc.ssa_run(rc.standard_system(), {"A": 200, "B": 200, "S": 200},
                   rng=np.random.default_rng(9), **kw)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.times, b.times)
    assert a.events == b.events
    assert a.to_csv() == b.to_csv()


def test_max_events_truncates_but_reports_final_state():
    res = rc.ssa_run(
        rc.standard_system(),
        {"A": 1000, "B": 1000, "S": 1000},
        1e9,
        np.random.default_rng(3),
        max_events=500,
    )
    assert res.reason == "max_events"
    assert res.events == 500
    assert res.times[-1] == res.t_end
    assert res.totals()[-1] == 3000
    # the run genuinely moved: final state differs from the initial one
    assert not np.array_equal(res.counts[0], res.counts[-1])


def test_decay_matches_analytic_exponential():
    decay_only = rc.ReactionSystem(
        ("A", "B", "S"), [rc.Reaction({"A": 1}, {"S": 1}, 0.054)]
    )
    n0, t, k, runs = 10_000, 10.0, 0.054, 100
    finals = []
    for s in range(runs):
        res = rc.ssa_run(decay_only, {"A": n0}, t, np.random.default_rng(s))
        finals.append(res.final_counts()["A"])
    p = math.exp(-k * t)
    expect = n0 * p
    sigma_mean = math.sqrt(n0 * p * (1 - p) / runs)
    assert abs(np.mean(finals) - expect) < 3 * sigma_mean


def test_pure_a_init_only_decays():
    # with no B, every other standard channel is silent
    res = rc.ssa_run(
        rc.standard_system(), {"A": 2000}, 5.0, np.random.default_rng(4), sample_dt=1.0
    )
    a = res.series("A")
    assert np.all(np.diff(a) <= 0)
    assert np.all(res.series("B") == 0)
    assert np.all(a + res.series("S") == 2000)


def test_run_input_validation():
    sys_ = rc.standard_system()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        rc.ssa_run(sys_, {"A": 10}, 0.0, rng)
    with pytest.raises(ValueError):
        rc.ssa_run(sys_, {"A": 10}, 1.0, rng, sample_dt=0.0)
    with pytest.raises(ValueError):
        rc.ssa_run(sys_, {"A": -1}, 1.0, rng)
    with pytest.raises(ValueError):
        rc.ssa_run(sys_, {"A": 10}, 1.0, rng, omega=0.0)


@pytest.mark.parametrize(
    "init, message",
    [
        ({"a": 100, "B": 50}, r"init names species the system lacks: \['a'\]"),
        ({"A": 10, "X": 1, "Y": 2}, r"\['X', 'Y'\]"),
        ({"A": 10.9}, "initial count of A must be an integer, got 10.9"),
        ({"B": 5.0}, "initial count of B must be an integer, got 5.0"),
        ({"S": "7"}, "initial count of S must be an integer"),
    ],
    ids=["lowercase-name", "two-unknown-names", "fraction", "integral-float", "string"],
)
def test_run_rejects_unknown_species_and_non_integer_counts(init, message):
    # before the check, "a" started A at 0 and 10.9 started A at 10
    with pytest.raises(ValueError, match=message):
        rc.ssa_run(rc.standard_system(), init, 1.0, np.random.default_rng(0))


def test_run_takes_numpy_integer_counts():
    init = {"A": 200, "B": 200, "S": 200}
    as_numpy = {sp: np.int64(v) for sp, v in init.items()}
    a = rc.ssa_run(rc.standard_system(), init, 2.0, np.random.default_rng(3))
    b = rc.ssa_run(rc.standard_system(), as_numpy, 2.0, np.random.default_rng(3))
    assert a.events == b.events and np.array_equal(a.counts, b.counts)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(t_max=math.nan), "t_max must be positive and finite"),
        (dict(t_max=math.inf), "t_max must be positive and finite"),
        (dict(sample_dt=math.nan), "sample_dt must be positive and finite"),
        (dict(sample_dt=math.inf), "sample_dt must be positive and finite"),
        (dict(omega=math.nan), "omega must be positive and finite"),
        (dict(omega=math.inf), "omega must be positive and finite"),
        (dict(max_events=-3), "max_events must be nonnegative"),
        (dict(omega=1e-200), "omega=1e-200 puts the rate of .* out of float range"),
        (dict(omega=1e200), r"omega=1e\+200 puts the rate of .* out of float range"),
        (dict(max_events=2.5), "max_events must be an integer, got 2.5"),
        (dict(max_events=math.nan), "max_events must be an integer, got nan"),
    ],
)
def test_run_rejects_non_finite_and_negative_inputs(kw, message):
    args = dict(t_max=1.0, rng=np.random.default_rng(0)) | kw
    with pytest.raises(ValueError, match=message):
        rc.ssa_run(rc.standard_system(), {"A": 10, "B": 10, "S": 10}, **args)


def test_zero_event_budget_stops_before_the_first_event():
    res = rc.ssa_run(rc.standard_system(), {"A": 10, "B": 10}, 1.0,
                     np.random.default_rng(0), max_events=0)
    assert (res.reason, res.events, res.t_end) == ("max_events", 0, 0.0)
    assert res.fired == (0,) * 11


def test_csv_layout():
    res = rc.ssa_run(
        rc.standard_system(), {"A": 20, "B": 20, "S": 20}, 2.0,
        np.random.default_rng(5), sample_dt=1.0,
    )
    lines = res.to_csv().strip().splitlines()
    assert lines[0] == "t,A,B,S"
    assert len(lines) == 1 + len(res.times)
    t0 = lines[1].split(",")
    assert float(t0[0]) == 0.0
    assert [int(v) for v in t0[1:]] == [20, 20, 20]


# -- firing counts ------------------------------------------------------------------


def test_fired_counts_sum_to_events():
    res = rc.ssa_run(rc.standard_system(), {"A": 300, "B": 300, "S": 300}, 5.0,
                     np.random.default_rng(6), sample_dt=1.0)
    assert len(res.fired) == 11
    assert sum(res.fired) == res.events > 0
    assert all(isinstance(f, int) for f in res.fired)


def test_decay_only_system_fires_its_one_channel():
    res = rc.ssa_run(rc.parse_system("A -> S @ 0.054"), {"A": 500}, 10.0,
                     np.random.default_rng(7))
    assert res.fired == (res.events,)
    assert res.events == 500 - res.final_counts()["A"]


def test_channel_that_cannot_fire_reads_zero():
    # no B ever appears, so only A -> S (channel 9) can fire
    res = rc.ssa_run(rc.standard_system(), {"A": 400, "S": 100}, 5.0,
                     np.random.default_rng(8))
    assert res.fired[9] == res.events > 0
    assert res.fired[:9] == (0,) * 9 and res.fired[10] == 0


def _many_channel_system(count, seed):
    g = np.random.default_rng(seed)
    lines = []
    for _ in range(count):
        a, b = g.choice(rc.SPECIES, 2, replace=False)
        lines.append(f"{g.integers(1, 3)}{a} + {b} -> {b} + S @ {g.uniform(0.01, 1.0):.6g}")
    return rc.parse_system("\n".join(lines))


@pytest.mark.parametrize(
    "system",
    # the 150-channel system makes the channel choice a ladder of 149 tests
    [rc.standard_system(), _many_channel_system(150, 0)],
    ids=["standard", "150-channels"],
)
def test_propensity_is_the_rate_the_loop_uses(system):
    # the first event's waiting time is -log(1 - u) / a0 and its channel is
    # the first whose running sum reaches u' * a0, for the first two draws
    # u, u' of the generator; summing propensity() in channel order must give
    # the loop's a0 bit for bit
    init = {"A": 1234, "B": 567, "S": 89}
    for seed, omega in [(0, None), (1, 37.5), (2, 1e4)] + [(s, None) for s in range(3, 12)]:
        u, u2 = np.random.default_rng(seed).random(2).tolist()
        res = rc.ssa_run(system, init, 1e9, np.random.default_rng(seed),
                         max_events=1, omega=omega)
        rates = [rc.propensity(rx, init, res.omega) for rx in system.reactions]
        a0 = 0.0
        for a in rates:
            a0 += a
        assert res.t_end == 0.0 - math.log(1.0 - u) / a0
        acc, r = rates[0], 0
        while acc < u2 * a0:
            r += 1
            acc += rates[r]
        assert res.fired == tuple(int(k == r) for k in range(len(rates)))


def _direct_method(system, init, t_max, seed, sample_dt=None, max_events=None, omega=None):
    """Gillespie's direct method written plainly over ``propensity``.

    Two draws per event from one uniform stream: the first sets the waiting
    time, the second picks the first channel whose running sum is not below
    it.  The pre-event counts are recorded at every lattice point passed.
    """
    rng = np.random.default_rng(seed)
    counts = {sp: init.get(sp, 0) for sp in system.species}
    omega = omega or float(sum(counts.values())) or 1.0
    if sample_dt is None:
        lattice = [0.0, float(t_max)]
    else:
        lattice = [k * sample_dt for k in range(int(math.floor(t_max / sample_dt)) + 1)]
        if lattice[-1] < t_max:
            lattice.append(float(t_max))
    budget = math.inf if max_events is None else max_events
    times, rows, fired = [], [], [0] * len(system.reactions)
    t, events = 0.0, 0
    while True:
        rates = [rc.propensity(rx, counts, omega) for rx in system.reactions]
        a0 = 0.0
        for a in rates:
            a0 += a
        if a0 == 0.0:
            reason = "absorbed"
            break
        if events >= budget:
            reason = "max_events"
            break
        u, u2 = rng.random(2).tolist()
        t_next = t - math.log(1.0 - u) / a0
        if t_next > t_max:
            t, reason = t_max, "t_max"
            break
        while len(times) < len(lattice) and lattice[len(times)] <= t_next:
            times.append(lattice[len(times)])
            rows.append([counts[sp] for sp in system.species])
        acc = 0.0
        for r, a in enumerate(rates):
            acc += a
            if not acc < u2 * a0:
                break
        rx = system.reactions[r]
        for sp, d in zip(system.species, rx.delta(system.species)):
            counts[sp] += d
        fired[r] += 1
        t, events = t_next, events + 1
    if reason == "max_events":
        times.append(t)
        rows.append([counts[sp] for sp in system.species])
    else:
        rest = lattice[len(times):]
        times += rest
        rows += [[counts[sp] for sp in system.species]] * len(rest)
    return times, rows, tuple(fired), events, t, reason


@pytest.mark.parametrize(
    "system, init, t_max, seeds, kw",
    [
        (rc.standard_system(), {"A": 150, "B": 150, "S": 150}, 1.5, (0, 1, 2),
         dict(sample_dt=0.1)),
        # only B + S -> 2B and B -> S can fire: the last channel, which fires untested
        (rc.standard_system(), {"B": 30, "S": 5}, 500.0, (9,), dict(sample_dt=25.0)),
        (rc.standard_system(), {"A": 300, "B": 200, "S": 100}, 1e9, (3, 4),
         dict(max_events=150, omega=75.0)),
        (_many_channel_system(150, 0), {"A": 40, "B": 30, "S": 20}, 0.1, (5, 6),
         dict(sample_dt=0.004)),
        (_many_channel_system(150, 0), {"A": 1234, "B": 567, "S": 89}, 1e9, (7,),
         dict(max_events=30)),
        (_many_channel_system(2500, 1), {"A": 500, "B": 500, "S": 500}, 1e9, (8,),
         dict(max_events=3)),
    ],
    ids=["standard-lattice", "standard-last-channel", "standard-budget",
         "150-lattice", "150-budget", "2500-budget"],
)
def test_whole_trajectories_match_a_plain_direct_method(system, init, t_max, seeds, kw):
    # every event's draws, rates and channel choice, not only the first
    for seed in seeds:
        res = rc.ssa_run(system, init, t_max, np.random.default_rng(seed), **kw)
        times, rows, fired, events, t_end, reason = _direct_method(
            system, init, t_max, seed, **kw)
        assert res.times.tolist() == times
        assert res.counts.tolist() == rows
        assert (res.fired, res.events, res.t_end, res.reason) == (fired, events, t_end, reason)


def test_thousands_of_channels_compile():
    # the channel ladder nests nothing, so its length meets no compiler limit
    system = rc.parse_system("\n".join(f"A -> B @ {1 + k % 5}" for k in range(2500)))
    res = rc.ssa_run(system, {"A": 40}, 1e9, np.random.default_rng(0))
    assert res.reason == "absorbed"
    assert res.final_counts() == {"A": 0, "B": 40, "S": 0}
    assert sum(res.fired) == res.events == 40


# -- golden trajectories -------------------------------------------------------------
#
# Each case runs ssa_run at a fixed seed; events, reason, t_end and the sha256 of
# the little-endian times and counts arrays must match.  They pin the draws, the
# propensity floats and the channel choice bit for bit.


def _system(*lines):
    return rc.ReactionSystem(rc.SPECIES, [rc.parse_reaction(ln) for ln in lines])


SSA_CASES = {
    "lattice": lambda: (rc.standard_system(), {"A": 300, "B": 300, "S": 300}, 20.0, 11,
                        dict(sample_dt=0.5)),
    "endpoints": lambda: (rc.standard_system(), {"A": 200, "B": 200, "S": 200}, 10.0, 12, {}),
    "max_events": lambda: (rc.standard_system(), {"A": 1000, "B": 1000, "S": 1000}, 1e9, 13,
                           dict(max_events=700)),
    "zero_order": lambda: (_system("0 -> A @ 5", "A + S -> 2S @ 0.8", "A -> B @ 0.1"),
                           {"S": 50}, 15.0, 14, dict(sample_dt=1.0, omega=40.0)),
    "single_channel": lambda: (_system("A -> S @ 0.054"), {"A": 2000}, 10.0, 15,
                               dict(sample_dt=1.0)),
    # 101 A pair off until one A is left below the 2A stoichiometry
    "below_stoichiometry": lambda: (_system("2A -> B @ 0.3", "B -> S @ 0.05"), {"A": 101},
                                    200.0, 16, dict(sample_dt=10.0)),
    "empty": lambda: (rc.ReactionSystem(rc.SPECIES, []), {"A": 5, "S": 7}, 3.0, 17,
                      dict(sample_dt=1.0)),
}

SSA_GOLDEN = {
    "lattice": (3011, "t_max", 20.0,
                "8f515d27d3e9ed071442c37e47e4e2101bfabc784e7a1ec63faec2cabcd1c48c",
                "06e9cf5b91091ef69367eba6522cd21bfaf456c27aa11f0137df24b839f684f8"),
    "endpoints": (1178, "t_max", 10.0,
                  "b49ee99e2a1947568c4cea8aa12a2433dd3f72229eace8e9e5f0b42d78aa90d6",
                  "b8c20687eb6f2ab67e4c0a84691293813ab6af7cb4a0a773c67ba4b236ad7c67"),
    "max_events": (700, "max_events", 0.916566850590725,
                   "bba7df91025bdcf65154860257503883b2a8f1a59238630aa8c3e7b7532fac53",
                   "7b5d28f73d84d5ae1b60ec8c8d8d089776f5ebd28b22e3007d7358becbde0239"),
    "zero_order": (5992, "t_max", 15.0,
                   "799eb99a60dd83c57bfe43c1eb5b9e5334fab0ebc120369dee40028729c0004c",
                   "766311ad662467120154200e3c4d420db809cf6869bbb248cfb9a4368e2df401"),
    "single_channel": (813, "t_max", 10.0,
                       "3dbc2fdc66220c3b107b457314da5528f1a0814ec381aee2ae06d112766e415c",
                       "f1d20b5ee7262da06567be3f94bcecf4f07435ca2dc3b1ef8342dcb7cd9a54ab"),
    "below_stoichiometry": (100, "absorbed", 81.58676735912948,
                            "fafba3725487076a10e932ac93f99fa8143643c45d08a4e7b85082af080926a1",
                            "843db0e1ac28448820fdbd10d49b720b9a47c5eda3beba3bac2d3120ad116dc4"),
    "empty": (0, "absorbed", 0.0,
              "9392b85eaba90b4aa6f39e1f269927b4bd6bec47cd2e34a80cf3ed914c26dc7e",
              "4d864d74765c3a8b8670b18b87fbe3268d3021c0c1288c4b8fbd3ff6bb6fe595"),
}


def _sha(arr, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SSA_CASES))
def test_golden_ssa_trajectories(name):
    system, init, t_max, seed, kw = SSA_CASES[name]()
    res = rc.ssa_run(system, init, t_max, np.random.default_rng(seed), **kw)
    got = (res.events, res.reason, res.t_end, _sha(res.times, "<f8"), _sha(res.counts, "<i8"))
    assert got == SSA_GOLDEN[name]


def test_permuting_species_permutes_count_columns():
    base = rc.standard_system()
    perm = ("S", "A", "B")
    permuted = rc.ReactionSystem(perm, base.reactions)
    init = {"A": 300, "B": 250, "S": 200}
    for seed in (3, 4):
        a = rc.ssa_run(base, init, 8.0, np.random.default_rng(seed), sample_dt=0.5)
        b = rc.ssa_run(permuted, init, 8.0, np.random.default_rng(seed), sample_dt=0.5)
        assert a.events == b.events > 0
        assert (a.reason, a.t_end) == (b.reason, b.t_end)
        assert np.array_equal(a.times, b.times)
        cols = [base.species.index(sp) for sp in perm]
        assert np.array_equal(a.counts[:, cols], b.counts)


# -- feature counting ----------------------------------------------------------------


def test_feature_count_pure_sine():
    t = np.linspace(0, 20 * np.pi, 2000)
    assert rc.count_oscillation_features(np.sin(t)) == 10


def test_feature_count_recovers_peaks_under_trend():
    t = np.linspace(0, 20 * np.pi, 2000)
    buried = np.sin(t) - 2.0 * t  # strictly decreasing: trend swamps raw maxima
    assert rc.count_oscillation_features(buried) == 0
    assert rc.count_oscillation_features(buried, detrend=101) >= 8


def test_feature_count_flat_and_linear_are_zero():
    assert rc.count_oscillation_features(np.zeros(100), detrend=15) == 0
    assert rc.count_oscillation_features(-3.0 * np.arange(300.0), detrend=15) == 0
    assert rc.count_oscillation_features([1.0, 2.0]) == 0


def test_feature_count_validation():
    with pytest.raises(ValueError):
        rc.count_oscillation_features(np.zeros(50), detrend=4)


def test_feature_count_of_a_series_shorter_than_the_detrend_width_is_zero():
    pulses = [1.0, 3.0, 1.0, 3.0, 1.0]
    assert rc.count_oscillation_features(pulses) == 2
    assert rc.count_oscillation_features(pulses, detrend=7) == 0
