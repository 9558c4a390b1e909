"""Induced-path extremal toolkit for outerplanar graphs."""

from .graph import (
    MAX_VERTICES,
    CANONICAL_CAP,
    Graph,
    UnsupportedSizeError,
    VertexSet,
    bits,
    blocks,
    canonical_form,
    cut_vertices,
    induced_subgraph,
    is_connected,
    is_two_connected,
    to_dot,
    vertex_set,
)
from .graph6 import Graph6Error, from_graph6, to_graph6
from .outerplanar import (
    OuterEmbedding,
    is_outerplanar,
    maximal_completion,
    outer_cycle,
    verify_embedding,
)
from .paths import (
    PathCount,
    count_induced_p3_closed_form,
    count_induced_paths,
    count_induced_paths_between,
    iter_induced_paths,
)
from .chords import (
    ChordStats,
    SidePartition,
    check_crossing_bound,
    check_quadratic_bound,
    chord_stats,
    partition_is_complete,
    phi,
    side_inequalities,
    side_partition,
)
from .constructions import (
    KINDS,
    ConstructionSpec,
    build,
    double_star_p4_count,
    fib,
    h_count,
    lower_bound_value,
)
from .dual import DualTree, Tree, balanced_edge_cut, side_face_counts, split_by_chord, weak_dual
from .search import (
    SearchReport,
    catalan,
    endpoint_pair_maxima,
    enumerate_outerplanar,
    enumerate_triangulations,
    extremal_value,
    random_outerplanar,
    triangulation_chord_sets,
    verify_fib_bounds,
)

__version__ = "1.0.0"
