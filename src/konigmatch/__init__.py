"""Bipartite matchings, minimum vertex covers, and the procedures
mapping between them: the classical cover-from-matching construction,
its reverse, star-studded graphs, and the classification of maximal
matchings that yield minimum covers — all cross-checked against
brute-force oracles on exhaustive small-graph corpora.
"""

from .graph import (
    BipartiteGraph,
    build_graph,
    connected_components,
    induced_subgraph,
    procedure_sides,
)
from .matching import (
    AugmentingPath,
    Matching,
    augment,
    find_augmenting_path,
    greedy_maximal_matching,
    is_maximal,
    matching_number,
    maximum_matching,
)
from .konig import (
    VertexCover,
    is_minimal_cover,
    is_minimum_cover,
    is_vertex_cover,
    konig_cover,
    konig_vertices,
    z_set,
)
from .reverse import (
    CoverSplit,
    ReverseResult,
    reverse_konig,
    reverse_procedure_up,
    split_by_cover,
)
from .paths import (
    ClassificationVerdict,
    PathStructure,
    classify_matching,
    enumerate_augmenting_paths,
    hat_vertices,
    path_structures,
)
from .stars import (
    StarStuddedGraph,
    is_enumeratively_konig_egervary,
    lift_cover,
    maximal_witness,
    reached_minimum_covers,
    restrict_cover,
    star_stud,
)
from .oracle import (
    OracleBudget,
    all_matchings,
    all_maximal_matchings,
    all_minimum_covers,
    hall_condition,
    iter_maximal_matchings,
)
from .experiments import TrialConfig, TrialReport, run_trials

__all__ = [name for name in dir() if not name.startswith("_")]
