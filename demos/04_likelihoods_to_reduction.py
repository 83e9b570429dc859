"""
From glider anatomy to a reduced rule class
===========================================

Which of the 36 rule entries actually matter to a glider?  Run the bundled
one alone through substrate, collect the neighbourhood signatures it
exercises over a period, and everything else is redundant -- free to change
without disturbing the glider at all.

Aggregated over a corpus of glider rules, those per-entry statistics become
the likelihood tables F^S, F^A, F^B (how often a needed entry maps to each
state) and F^# (how often the entry is redundant).  Thresholding the tables
reduces the 3^36 rule space to a small set-valued class.  The package ships
reference tables built from a large corpus; this demo reduces them and pokes
at the class that falls out.
"""

import numpy as np

from hexreact import analysis as an
from hexreact.detector import FitnessConfig, track
from hexreact.engine import run

# 1. anatomy of the bundled glider ------------------------------------------------

rule = an.bundled_glider_rule()
seed = an.bundled_glider_seed()
traj = run(seed, rule, 12)
loc = track(traj, p_max=12)[0]
needed = an.necessary_transitions(loc, traj)
print(f"bundled glider: period {loc.period}, displacement {loc.displacement}")
print(f"signatures exercised over one period: {sorted(needed)}")
print(f"-> {len(needed)} of 36 entries are load-bearing; the other"
      f" {36 - len(needed)} are redundant for this glider\n")

# 2. the bundled likelihood tables -------------------------------------------------

tables = an.reference_likelihoods()
print("F^# (redundancy) over reachable (count_A, count_B) entries:")
grid = tables.as_grid("#")
print("      j=0   j=1   j=2   j=3   j=4   j=5   j=6   j=7")
for i in range(8):
    row = [f"{grid[i, j]:5.2f}" if not np.isnan(grid[i, j]) else "    -"
           for j in range(8)]
    print(f"i={i} " + " ".join(row))

# 3. reduce to a set-valued class ---------------------------------------------------

reduced = an.reduce_likelihoods(tables)  # theta=0.2, eps=0.1
print("\nreduced table (nontrivial entries):")
for i, j in sorted(reduced.nontrivial()):
    print(f"  ({i}, {j}) -> {{{reduced.letters(i, j)}}}")
print(f"class size: {reduced.count()} rules")

bundled = an.reference_reduced_set()
diff = an.diff_reduced_sets(reduced, bundled)
print(f"against the bundled reduced table: {36 - len(diff)}/36 entries agree;"
      f" diff = {diff}")

# 4. what the class actually does in soups ------------------------------------------

cfg = FitnessConfig(width=30, height=30, patch_width=30, patch_height=30,
                    steps=200, window=50, trials=3)
rng = np.random.default_rng(1)
report = an.stationarity_sweep(bundled, cfg, rng, n_rules=6)
print("\nsix sampled class rules, three soups each:")
for entry in report.entries:
    print(f"  {entry.rule.to_genome()}  {dict(sorted(entry.histogram.items()))}")
print("total:", dict(sorted(report.total_histogram().items())))
mobile = an.reference_class_mobile()
print(f"\nmostly still lifes and breathers -- but the class is stationary as a"
      f"\nstrong tendency, not a law: the census of all {bundled.count()} class rules"
      f"\n(fixtures/reference_class_mobile.csv, made by analysis.class_census)"
      f"\nlists {len(mobile)} whose soups (60 per rule) emit traveling localizations, each"
      f"\nwith a glider verified by replanting it alone on an empty torus; the list"
      f"\nstill grows with the soup count, so {len(mobile)} is a lower bound.")
listed = {row.genome for row in mobile}
missed = [e.rule.to_genome() for e in report.entries
          if e.mobile and e.rule.to_genome() not in listed]
if missed:
    print(f"{len(missed)} rule(s) moving here are not on that list.")
