"""Hexagonal three-state cellular automata and their stirred-reactor analogue.

The package simulates totalistic automata on a hexagonal torus, tracks and
classifies the mobile and stationary localizations they produce, evolves rule
matrices that support such localizations, distils per-neighbourhood state
likelihoods from a corpus of evolved rules, and integrates the corresponding
well-stirred reaction system exactly.
"""

from .hexgrid import CellState, Grid, count_states, neighborhood
from .rules import PAIRS, RuleMatrix, random_rule
from .engine import Trajectory, run, step, step_reference
from .detector import (
    FitnessConfig,
    Localization,
    classify,
    count_mobile,
    extract_components,
    fitness,
    mobile_localizations,
    random_patch_grid,
    soup_localizations,
    track,
)
from .evolve import EAConfig, EARun, crossover, ea_run, mutate
from .analysis import (
    LikelihoodMatrices,
    ReducedRuleSet,
    bundled_glider_rule,
    bundled_glider_seed,
    class_census,
    compute_likelihoods,
    diff_reduced_sets,
    enumerate_rules,
    find_glider,
    guided_rule,
    necessary_transitions,
    reduce_likelihoods,
    reference_class_mobile,
    reference_likelihoods,
    reference_reduced_set,
    replant_glider,
    sample_rules,
    stationarity_sweep,
    symmetrize,
)
from .reactor import (
    Reaction,
    ReactionSystem,
    SSAResult,
    count_oscillation_features,
    parse_reaction,
    propensity,
    ssa_run,
    standard_system,
)

__version__ = "0.1.0"

__all__ = [
    "CellState",
    "EAConfig",
    "EARun",
    "FitnessConfig",
    "Grid",
    "LikelihoodMatrices",
    "Localization",
    "PAIRS",
    "Reaction",
    "ReactionSystem",
    "ReducedRuleSet",
    "RuleMatrix",
    "SSAResult",
    "Trajectory",
    "class_census",
    "classify",
    "compute_likelihoods",
    "count_mobile",
    "count_oscillation_features",
    "count_states",
    "crossover",
    "diff_reduced_sets",
    "ea_run",
    "enumerate_rules",
    "extract_components",
    "find_glider",
    "fitness",
    "guided_rule",
    "mobile_localizations",
    "mutate",
    "necessary_transitions",
    "neighborhood",
    "parse_reaction",
    "propensity",
    "random_patch_grid",
    "random_rule",
    "reduce_likelihoods",
    "bundled_glider_rule",
    "bundled_glider_seed",
    "reference_class_mobile",
    "reference_likelihoods",
    "reference_reduced_set",
    "replant_glider",
    "run",
    "sample_rules",
    "soup_localizations",
    "ssa_run",
    "standard_system",
    "stationarity_sweep",
    "step",
    "step_reference",
    "symmetrize",
    "track",
    "__version__",
]
