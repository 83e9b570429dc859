"""End-to-end runs of every subcommand against real files."""

import argparse
import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest

from hexreact import analysis, cli, detector
from hexreact.cli import build_parser, main
from hexreact.detector import FitnessConfig
from hexreact.engine import parse_frames
from hexreact.hexgrid import Grid
from hexreact.rules import load_rule, load_rules, save_rules


@pytest.fixture
def glider_files(tmp_path):
    rule_path = tmp_path / "rule.txt"
    save_rules(rule_path, [analysis.bundled_glider_rule()])
    grid_path = tmp_path / "grid.txt"
    grid_path.write_text(analysis.bundled_glider_seed().to_text())
    return str(rule_path), str(grid_path)


def read_meta(path):
    with open(str(path) + ".meta.json") as fh:
        return json.load(fh)


def test_simulate_writes_steps_plus_one_frames(glider_files, tmp_path):
    rule, grid = glider_files
    dump = tmp_path / "frames.txt"
    rc = main(["simulate", "--rule", rule, "--grid", grid,
               "--steps", "100", "--dump", str(dump)])
    assert rc == 0
    frames = parse_frames(dump.read_text())
    assert len(frames) == 101
    assert frames[0] == analysis.bundled_glider_seed()
    meta = read_meta(dump)
    assert meta["tool"] == "hexreact"
    assert meta["command"] == "simulate"
    assert meta["config"]["steps"] == 100


def test_simulate_pgm_frames(glider_files, tmp_path):
    rule, grid = glider_files
    dump = tmp_path / "frames.txt"
    pgm_dir = tmp_path / "pgm"
    rc = main(["simulate", "--rule", rule, "--grid", grid, "--steps", "3",
               "--dump", str(dump), "--pgm-dir", str(pgm_dir)])
    assert rc == 0
    files = sorted(p.name for p in pgm_dir.iterdir())
    assert files == [f"frame_{k:05d}.pgm" for k in range(4)]
    raw = (pgm_dir / files[0]).read_bytes()
    assert raw.startswith(b"P5\n48 48\n255\n")


# sha256 of ``simulate --dump`` for soups that settle before the run ends (the
# soups of test_engine.SETTLING_SOUPS), so replayed frames stay byte-identical;
# keyed by genome, soup seed, --keep-last and the period the soup settles to
SETTLED_DUMPS = {
    ("SSSSSSSSSASSSSSSSSSSSAASSSASSSSSSSSS", (7, 0), None, 1):
        "6677475b8e934094236f078e73b8c3bd842d5ecfaa60c9a637d0c14d0bf17e2d",
    ("SSSASSSSSASSSSSSSSSSSBSSSSSSSSSSSSSS", (224, 1), 25, 2):
        "8efd314135cb147ca41290841be84375886d55a1db9fc90ffc0710a40e14c23d",
}


@pytest.mark.parametrize("genome,seed,keep_last,period", sorted(SETTLED_DUMPS, key=str))
def test_simulate_dump_of_a_settled_soup_is_pinned(tmp_path, genome, seed, keep_last, period):
    rule_path, grid_path, dump = tmp_path / "rule.txt", tmp_path / "grid.txt", tmp_path / "d.txt"
    rule_path.write_text(genome + "\n")
    rng = np.random.default_rng(list(seed))
    cells = np.where(rng.random((12, 12)) < 0.3, rng.integers(1, 3, size=(12, 12)), 0)
    grid_path.write_text(Grid(cells).to_text())
    argv = ["simulate", "--rule", str(rule_path), "--grid", str(grid_path), "--steps", "40",
            "--dump", str(dump)]
    assert main(argv + ([] if keep_last is None else ["--keep-last", str(keep_last)])) == 0
    frames = parse_frames(dump.read_text())
    assert len(frames) == (41 if keep_last is None else keep_last)
    assert [f == frames[-1] for f in frames[-3:]] == [True, period == 1, True]
    digest = hashlib.sha256(dump.read_bytes()).hexdigest()
    assert digest == SETTLED_DUMPS[(genome, seed, keep_last, period)]


def test_detect_reports_the_glider(glider_files, tmp_path, capsys):
    rule, grid = glider_files
    out = tmp_path / "report.csv"
    rc = main(["detect", "--rule", rule, "--grid", grid, "--steps", "30",
               "--window", "31", "--p-max", "12", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,class,period,dr,dc,size,first_frame"
    assert len(lines) == 2
    assert ",Glider," in lines[1]
    assert "Glider=1" in capsys.readouterr().out


def test_evolve_smoke(tmp_path):
    out = tmp_path / "best.txt"
    hist = tmp_path / "history.csv"
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("S" * 36 + "\n")
    rc = main([
        "evolve", "--seed", "3", "--population", "6", "--stall", "2",
        "--max-generations", "3", "--out", str(out), "--history-out", str(hist),
        "--append-corpus", str(corpus),
        "--width", "16", "--height", "16", "--patch-width", "8",
        "--patch-height", "8", "--steps", "20", "--window", "8",
        "--p-max", "4", "--trials", "1",
    ])
    assert rc == 0
    best = load_rule(out)  # parses back
    rows = hist.read_text().strip().splitlines()
    assert rows[0] == "generation,best,mean"
    assert 2 <= len(rows) - 1 <= 3
    meta = read_meta(out)
    assert "best_fitness" in meta
    grown = load_rules(corpus)  # best genome appended after the existing entry
    assert len(grown) == 2
    assert grown[1] == best


def test_likelihood_partition_identity_on_emitted_file(glider_files, tmp_path):
    rule, _ = glider_files
    out = tmp_path / "F.csv"
    heat = tmp_path / "heat"
    rc = main([
        "likelihood", "--corpus", rule, "--out", str(out), "--seed", "99",
        "--heatmap-dir", str(heat),
        "--width", "32", "--height", "32", "--patch-width", "16",
        "--patch-height", "16", "--steps", "120", "--window", "32", "--trials", "10",
    ])
    assert rc == 0
    text = out.read_text()
    rows = text.strip().splitlines()
    assert len(rows) == 37
    m = analysis.LikelihoodMatrices.from_csv(text)
    assert np.allclose(m.fs + m.fa + m.fb + m.fhash, 1.0)
    assert m.get("#", 0, 0) == 0.0
    for stem in ("fs", "fa", "fb", "fhash"):
        assert (heat / f"{stem}.pgm").read_bytes().startswith(b"P5\n8 8\n")
    assert read_meta(out)["used"] == 1


def test_likelihood_hunts_each_glider_over_trials_soups(monkeypatch, tmp_path):
    dead = "S" * 36  # everything dies at once: no glider to find
    glider = analysis.bundled_glider_rule().to_genome()
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(dead + "\n" + glider + "\n")
    soups = Counter()
    real = analysis.mobile_localizations

    def spy(rule, cfg, seed):
        soups[rule.to_genome()] += 1
        return real(rule, cfg, seed)

    monkeypatch.setattr(analysis, "mobile_localizations", spy)
    out = tmp_path / "F.csv"
    rc = main([
        "likelihood", "--corpus", str(corpus), "--out", str(out), "--seed", "99",
        "--width", "32", "--height", "32", "--patch-width", "16",
        "--patch-height", "16", "--steps", "120", "--window", "32", "--trials", "3",
    ])
    assert rc == 0
    assert soups[dead] == 3
    assert 1 <= soups[glider] <= 3
    meta = read_meta(out)
    assert meta["config"]["trials"] == 3
    assert "max_trials" not in meta["config"]
    assert meta["skipped"] == [dead]


def test_likelihood_rejects_an_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# no rules yet\n")
    out = tmp_path / "F.csv"
    rc = main(["likelihood", "--corpus", str(corpus), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"hexreact: {corpus}: no rules found\n"
    assert not out.exists()


def test_reduce_without_a_diff_writes_only_the_set(tmp_path, capsys):
    out = tmp_path / "R.csv"
    assert main(["reduce", "--likelihoods", "reference", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"reduced set (1296 rules) written to {out}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["R.csv", "R.csv.meta.json"]
    assert "diff_entries" not in read_meta(out)


def test_reduce_against_reference(tmp_path):
    out = tmp_path / "R.csv"
    rc = main(["reduce", "--likelihoods", "reference", "--out", str(out),
               "--diff-against", "reference"])
    assert rc == 0
    reduced = analysis.ReducedRuleSet.from_csv(out.read_text())
    assert reduced.count() == 1296
    diff_lines = (tmp_path / "R.csv.diff.csv").read_text().strip().splitlines()
    assert diff_lines[0] == "i,j,ours,other"
    assert diff_lines[1:] == ["1,1,AB,A"]
    assert read_meta(out)["diff_entries"] == 1


def test_reduce_rejects_a_likelihood_row_off_the_pair_table(tmp_path, capsys):
    lines = analysis.reference_likelihoods().to_csv().splitlines()
    lines[5] = "9,9,0.34,0.0,0.0,0.66"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "R.csv"
    rc = main(["reduce", "--likelihoods", str(bad), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("hexreact: line 6: 9,9 is not an (i, j) pair")
    assert not out.exists()


@pytest.mark.parametrize(
    "row, message",
    [
        ("0,7,-3,0.0,7,-3", "line 9: likelihood -3.0 is outside [0, 1]"),
        ("0,7,nan,0.0,0.0,0.94", "line 9: likelihood nan is outside [0, 1]"),
        ("0,7,0.06,0.0,0.0,0.93", "line 9: likelihoods sum to 0.99, not 1"),
    ],
    ids=["out-of-range", "nan", "bad-sum"],
)
def test_reduce_rejects_likelihoods_that_are_not_a_distribution(tmp_path, capsys, row, message):
    lines = analysis.reference_likelihoods().to_csv().splitlines()
    lines[8] = row
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "R.csv"
    rc = main(["reduce", "--likelihoods", str(bad), "--out", str(out),
               "--diff-against", "reference"])
    assert rc == 1
    assert capsys.readouterr().err == f"hexreact: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_reduce_rejects_a_nan_eps(tmp_path, capsys):
    out = tmp_path / "R.csv"
    rc = main(["reduce", "--likelihoods", "reference", "--eps", "nan", "--out", str(out)])
    assert rc == 1
    assert "hexreact: eps must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_negative_patch_before_any_soup(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--rules", "1", "--patch-width", "-1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "hexreact: patch sides must be non-negative\n"
    assert not out.exists()


def test_react_deterministic_output(tmp_path):
    args = ["react", "--tmax", "5", "--seed", "7", "--init-a", "500",
            "--init-b", "500", "--init-s", "500", "--sample-dt", "0.5"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "t,A,B,S"
    meta = read_meta(out1)
    assert meta["omega_used"] == 1500.0
    assert len(meta["reactions"]) == 11
    assert meta["reactions"][0] == "A + B -> 2 A @ 1"
    (fired,) = meta["fired"]
    assert len(fired) == 11 and sum(fired) > 0


@pytest.mark.parametrize(
    "flags",
    [["--omega", "nan"], ["--omega", "inf"], ["--tmax", "inf"],
     ["--sample-dt", "nan"], ["--max-events", "-3"], ["--ensemble", "0"]],
)
def test_react_rejects_non_finite_and_negative_flags(tmp_path, capsys, flags):
    out = tmp_path / "r.csv"
    rc = main(["react", "--tmax", "1", "--init-a", "10", "--init-b", "10",
               "--init-s", "10", "--out", str(out)] + flags)
    assert rc == 1
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("omega", ["1e-200", "1e200"])
def test_react_rejects_an_omega_that_puts_a_rate_out_of_range(tmp_path, capsys, omega):
    out = tmp_path / "r.csv"
    rc = main(["react", "--tmax", "1", "--init-a", "10", "--init-b", "10",
               "--omega", omega, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("hexreact: omega=") and "out of float range" in err
    assert not out.exists()


def test_react_ensemble_files(tmp_path):
    out = tmp_path / "ts.csv"
    rc = main(["react", "--tmax", "2", "--seed", "1", "--ensemble", "2",
               "--init-a", "100", "--init-b", "100", "--init-s", "100",
               "--sample-dt", "1.0", "--out", str(out)])
    assert rc == 0
    assert (tmp_path / "ts.0.csv").exists()
    assert (tmp_path / "ts.1.csv").exists()
    meta = read_meta(out)
    assert meta["outputs"] == [str(tmp_path / "ts.0.csv"), str(tmp_path / "ts.1.csv")]
    assert len(meta["fired"]) == 2
    # different seeds: overwhelmingly likely to differ
    assert (tmp_path / "ts.0.csv").read_text() != (tmp_path / "ts.1.csv").read_text()


def test_react_custom_system(tmp_path):
    sys_path = tmp_path / "decay.txt"
    sys_path.write_text("# pure decay\nA -> S @ 0.054\n")
    out = tmp_path / "d.csv"
    rc = main(["react", "--system", str(sys_path), "--tmax", "10",
               "--init-a", "1000", "--init-b", "0", "--init-s", "0",
               "--seed", "4", "--sample-dt", "5", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    last = [int(v) for v in rows[-1].split(",")[1:]]
    assert last[0] < 1000 and last[1] == 0 and sum(last) == 1000
    meta = read_meta(out)
    assert meta["reactions"] == ["A -> S @ 0.054"]
    assert meta["fired"] == [[1000 - last[0]]]


def test_sweep_reference_class(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--reduced", "reference", "--rules", "2", "--seed", "8",
               "--out", str(out), "--width", "24", "--height", "24",
               "--patch-width", "24", "--patch-height", "24", "--steps", "60",
               "--window", "20", "--p-max", "6", "--trials", "2"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("rule,")
    assert len(lines) == 3
    meta = read_meta(out)
    assert "histogram" in meta and "mobile" in meta


def test_sweep_rejects_a_negative_rule_count_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("sweep ran the automaton before checking its inputs")

    monkeypatch.setattr(detector, "run", no_run)
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--rules", "-2", "--out", str(out)])
    assert rc == 1
    assert "hexreact: the rule count must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_census_writes_protocol_header_and_rows(tmp_path):
    # a two-rule class: the pinned glider rule of the reference class and a
    # variant of it at (7, 0)
    genome = "SSSSSSSSSAASSSSSBASSSBASSSSSSSSSSSSS"
    allowed = {pair: {"SAB".index(genome[k])} for k, pair in enumerate(analysis.PAIRS)}
    allowed[(7, 0)] = {0, 2}
    rset = analysis.ReducedRuleSet(allowed)
    reduced = tmp_path / "reduced.csv"
    reduced.write_text(rset.to_csv())
    out = tmp_path / "census.csv"
    rc = main(["census", "--reduced", str(reduced), "--trials", "2", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert f"census --reduced {reduced} --trials 2 --out {out}" in text
    assert "30x30 torus" in text and "300 steps" in text
    cfg = FitnessConfig(**{**analysis.CLASS_SWEEP_PROTOCOL, "trials": 2})
    assert analysis.census_from_csv(text) == analysis.class_census(rset, cfg)
    assert read_meta(out)["command"] == "census"


def test_bad_inputs_exit_nonzero(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    rc = main(["detect", "--rule", missing, "--grid", missing])
    assert rc == 1
    assert "hexreact:" in capsys.readouterr().err

    bad_rule = tmp_path / "bad.txt"
    bad_rule.write_text("SAB\n")
    grid = tmp_path / "g.txt"
    grid.write_text(Grid.filled(6, 6).to_text())
    rc = main(["detect", "--rule", str(bad_rule), "--grid", str(grid),
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1


@pytest.mark.parametrize(
    "height, p_max, window, message",
    [(65, 12, 48, "tracking requires an even grid height"), (64, 0, 48, r"p_max must be >= 1"),
     (64, 12, 0, "window must be >= 1")],
    ids=["odd-height", "p-max-0", "window-0"],
)
def test_detect_rejects_what_the_tracker_would_before_the_run(
        glider_files, tmp_path, monkeypatch, capsys, height, p_max, window, message):
    def no_run(*args, **kwargs):
        raise AssertionError("detect ran the automaton before checking its inputs")

    monkeypatch.setattr(cli, "run", no_run)
    rule, _ = glider_files
    grid = tmp_path / "g.txt"
    grid.write_text(Grid.filled(height, 64).to_text())
    rc = main(["detect", "--rule", rule, "--grid", str(grid), "--steps", "30000",
               "--p-max", str(p_max), "--window", str(window), "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert re.search(f"hexreact: {message}", capsys.readouterr().err)


def test_detect_rejects_a_window_longer_than_the_run(glider_files, tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("detect ran the automaton before checking its inputs")

    monkeypatch.setattr(cli, "run", no_run)
    rule, grid = glider_files
    out = tmp_path / "r.csv"
    rc = main(["detect", "--rule", rule, "--grid", grid, "--steps", "10",
               "--window", "12", "--out", str(out)])
    assert rc == 1
    assert "hexreact: window longer than the run" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "hexreact" in capsys.readouterr().out


# Every subcommand's flags as (option, dest, type, default), in parser order.
# The defaults are the parser's, so the census entries show the class-sweep
# protocol it sets over the FitnessConfig defaults.
CLI_SURFACE = {
    "simulate": [
        ("--rule", "rule", None, None),
        ("--grid", "grid", None, None),
        ("--steps", "steps", int, 100),
        ("--keep-last", "keep_last", int, None),
        ("--dump", "dump", None, None),
        ("--pgm-dir", "pgm_dir", None, None),
    ],
    "detect": [
        ("--rule", "rule", None, None),
        ("--grid", "grid", None, None),
        ("--steps", "steps", int, 200),
        ("--window", "window", int, 48),
        ("--p-max", "p_max", int, 12),
        ("--out", "out", None, "detect.csv"),
    ],
    "evolve": [
        ("--seed", "seed", int, 0),
        ("--population", "population", int, 40),
        ("--tournament", "tournament", int, 2),
        ("--crossover-prob", "crossover_prob", float, 0.6),
        ("--elitism", "elitism", int, 1),
        ("--stall", "stall", int, 10),
        ("--max-generations", "max_generations", int, None),
        ("--out", "out", None, "best_rule.txt"),
        ("--history-out", "history_out", None, None),
        ("--append-corpus", "append_corpus", None, None),
        ("--width", "width", int, 64),
        ("--height", "height", int, 64),
        ("--patch-width", "patch_width", int, 16),
        ("--patch-height", "patch_height", int, 16),
        ("--p-a", "p_a", float, 0.1),
        ("--p-b", "p_b", float, 0.1),
        ("--steps", "steps", int, 200),
        ("--window", "window", int, 48),
        ("--p-max", "p_max", int, 12),
        ("--trials", "trials", int, 5),
    ],
    "likelihood": [
        ("--corpus", "corpus", None, None),
        ("--seed", "seed", int, 0),
        ("--out", "out", None, "likelihoods.csv"),
        ("--heatmap-dir", "heatmap_dir", None, None),
        ("--width", "width", int, 64),
        ("--height", "height", int, 64),
        ("--patch-width", "patch_width", int, 16),
        ("--patch-height", "patch_height", int, 16),
        ("--p-a", "p_a", float, 0.1),
        ("--p-b", "p_b", float, 0.1),
        ("--steps", "steps", int, 200),
        ("--window", "window", int, 48),
        ("--p-max", "p_max", int, 12),
        ("--trials", "trials", int, 20),
    ],
    "reduce": [
        ("--likelihoods", "likelihoods", None, "reference"),
        ("--theta", "theta", float, 0.2),
        ("--eps", "eps", float, 0.1),
        ("--out", "out", None, "reduced.csv"),
        ("--diff-against", "diff_against", None, None),
        ("--diff-out", "diff_out", None, None),
    ],
    "react": [
        ("--tmax", "tmax", float, 40.0),
        ("--sample-dt", "sample_dt", float, 0.25),
        ("--seed", "seed", int, 0),
        ("--init-a", "init_a", int, 33333),
        ("--init-b", "init_b", int, 33333),
        ("--init-s", "init_s", int, 33333),
        ("--omega", "omega", float, None),
        ("--max-events", "max_events", int, None),
        ("--ensemble", "ensemble", int, 1),
        ("--system", "system", None, None),
        ("--out", "out", None, "react.csv"),
    ],
    "sweep": [
        ("--reduced", "reduced", None, "reference"),
        ("--rules", "rules", int, 20),
        ("--seed", "seed", int, 0),
        ("--out", "out", None, "sweep.csv"),
        ("--width", "width", int, 64),
        ("--height", "height", int, 64),
        ("--patch-width", "patch_width", int, 16),
        ("--patch-height", "patch_height", int, 16),
        ("--p-a", "p_a", float, 0.1),
        ("--p-b", "p_b", float, 0.1),
        ("--steps", "steps", int, 200),
        ("--window", "window", int, 48),
        ("--p-max", "p_max", int, 12),
        ("--trials", "trials", int, 5),
    ],
    "census": [
        ("--reduced", "reduced", None, "reference"),
        ("--out", "out", None, "census.csv"),
        ("--width", "width", int, 30),
        ("--height", "height", int, 30),
        ("--patch-width", "patch_width", int, 30),
        ("--patch-height", "patch_height", int, 30),
        ("--p-a", "p_a", float, 0.1),
        ("--p-b", "p_b", float, 0.1),
        ("--steps", "steps", int, 300),
        ("--window", "window", int, 60),
        ("--p-max", "p_max", int, 12),
        ("--trials", "trials", int, 5),
    ],
}


def _surface(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [
            (a.option_strings[0], a.dest, a.type, a.default)
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in sub.choices.items()
    }


def test_every_subcommand_keeps_its_flags_types_and_defaults():
    surface = _surface(build_parser())
    assert surface == CLI_SURFACE
    # 40 == 40.0, so the default's type is compared too
    for name, flags in CLI_SURFACE.items():
        assert [type(f[3]) for f in surface[name]] == [type(f[3]) for f in flags], name
