"""Graph substrate: containers, normalization, metrics, sampling, partition."""

from repro.graphs.graph import Graph
from repro.graphs.normalize import (
    gcn_norm,
    row_norm,
    add_self_loops,
    normalize_features,
)
from repro.graphs.metrics import (
    pagerank,
    average_path_length,
    degree_distribution,
    edge_homophily,
    clustering_summary,
)
from repro.graphs.mutate import (
    MutationConflict,
    MutationDelta,
    UpdateBatch,
    apply_batch,
    check_batch,
    dirty_rows,
    incremental_gcn_norm,
    normalization_state,
)
from repro.graphs.partition import (
    edge_cut_fraction,
    khop_neighborhood,
    partition_graph,
)
from repro.graphs.sampling import (
    drop_edge,
    sample_neighbors,
    fastgcn_layer_sample,
    saint_node_sample,
    saint_edge_sample,
)

__all__ = [
    "Graph",
    "gcn_norm",
    "row_norm",
    "add_self_loops",
    "normalize_features",
    "pagerank",
    "average_path_length",
    "degree_distribution",
    "edge_homophily",
    "clustering_summary",
    "partition_graph",
    "edge_cut_fraction",
    "khop_neighborhood",
    "MutationConflict",
    "MutationDelta",
    "UpdateBatch",
    "apply_batch",
    "check_batch",
    "dirty_rows",
    "incremental_gcn_norm",
    "normalization_state",
    "drop_edge",
    "sample_neighbors",
    "fastgcn_layer_sample",
    "saint_node_sample",
    "saint_edge_sample",
]
