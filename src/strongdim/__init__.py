"""Strong metric dimension and threshold strong dimension toolkit."""

from .cover import CoverResult, min_vertex_cover
from .dimension import (
    DimensionResult,
    brute_force_dimension,
    is_mmd,
    is_resolving_set,
    is_strong_resolving_set,
    strong_dimension,
    strong_resolving_graph,
    strongly_resolves,
)
from .embedding import (
    CheckResult,
    Embedding,
    UnresolvedPairError,
    certify,
    chebyshev,
    chebyshev_adjacency,
    distance_vector_embedding,
    is_isometric_in_product,
    is_w_resolved,
    render_grid,
)
from .graph import (
    DisconnectedError,
    DistanceMatrix,
    Graph,
    GraphError,
    ParseError,
    all_pairs_distances,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    generate,
    is_connected,
    parse_edge_list,
    path_graph,
    random_tree,
    star_graph,
    to_edge_list,
)
from .constructions import (
    FiveLeafTreeParams,
    FourLeafTreeParams,
    ProperColoring,
    StarPairSpec,
    chromatic_bound_supergraph,
    cycle_embedding,
    five_leaf_tree,
    four_leaf_tree,
    gn_family,
    greedy_coloring,
    l3n_family,
    tree_bound_supergraph,
    tree_dim3_embedding,
    tree_dim4_embedding,
    type_graph,
)
from .search import (
    GapReport,
    PlacementSearchConfig,
    SearchOutcome,
    ThresholdResult,
    dim2_pruned_search,
    exists_supergraph_resolved_by,
    graph_automorphisms,
    tau_gap_experiment,
    threshold_dimension,
)

__version__ = "0.1.0"
