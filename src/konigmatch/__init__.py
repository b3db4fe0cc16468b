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
)
from .matching import (
    Matching,
    is_maximal,
    matching_number,
    maximize,
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
    reverse_konig,
    split_by_cover,
)
from .paths import (
    ClassificationVerdict,
    PathStructure,
    classify_matching,
    enumerate_augmenting_paths,
    is_augmenting_path,
    path_structures,
    verify_classification_witness,
)
from .stars import (
    StarStuddedGraph,
    is_enumeratively_konig_egervary,
    maximal_witness,
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
