"""
permchains: biased permutation sampling chains and their exact analysis.

The package provides

* permutation codecs (inversion tables, league-tree bit strings, staircase
  walks) in :mod:`permchains.perms`, :mod:`permchains.trees`,
  :mod:`permchains.walks`;
* bias-model constructors, including a fluctuating-bias family with an
  exponentially poor cut, in :mod:`permchains.bias`;
* single-step kernels and seeded trajectories in :mod:`permchains.chains`;
* exact transition matrices, mixing times, spectral gaps, conductance, and
  the slow-mixing bottleneck report in :mod:`permchains.analysis`;
* canonical nearest-neighbor paths and their congestion constant in
  :mod:`permchains.paths`;
* an invariant suite (:mod:`permchains.verify`) and the ``permchains`` CLI.
"""

__version__ = "0.1.0"

from .bias import (
    BiasTable,
    CywSpec,
    Model,
    MonotonicityReport,
    SlowMixSpec,
    choose_your_weapon,
    constant_bias,
    is_weakly_monotone,
    league_hierarchy,
    parse_model_spec,
    slow_mixing_bias,
    solve_delta,
    weight_exact,
)
from .chains import (
    AsepChain,
    InversionChain,
    NearestNeighborChain,
    OnedChain,
    StepOutcome,
    TreeChain,
    WalkChain,
    WalkTranspositionChain,
    make_rng,
    run,
)
from .perms import (
    all_permutations,
    identity,
    inversion_count,
    inversion_table,
    permutation_from_inversion_table,
    reversal,
)
from .trees import (
    LeagueTree,
    caterpillar_tree,
    complete_tree,
    mirror_tree,
    random_tree,
    tree_decode,
    tree_encode,
    truncate_tree,
)
from .walks import (
    all_walks,
    cut_class,
    cut_level,
    max_height,
    tile_counts,
    to_staircase_walk,
    walk_to_permutation,
)
