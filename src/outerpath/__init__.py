"""Induced-path extremal toolkit for outerplanar graphs."""

import importlib

from .graph import (
    MAX_VERTICES,
    CANONICAL_CAP,
    Graph,
    UnsupportedSizeError,
    VertexSet,
    bits,
    blocks,
    canonical_form,
    induced_subgraph,
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
from .dual import DualTree, Tree, balanced_edge_cut, weak_dual

__version__ = "1.0.0"

# The search names resolve on first use (PEP 562), so `import outerpath`
# leaves outerpath.search (about 2 ms to load from bytecode on a shared
# 2-core host) to the code that reads them.  The hook goes once setup_s
# shows that loading search eagerly costs nothing on any workload.
_SEARCH_NAMES = frozenset(
    {
        "SearchReport",
        "catalan",
        "endpoint_pair_maxima",
        "enumerate_triangulations",
        "extremal_value",
        "random_outerplanar",
        "triangulation_chord_sets",
    }
)


def __getattr__(name: str):
    if name == "search" or name in _SEARCH_NAMES:
        search = importlib.import_module(".search", __name__)
        return search if name == "search" else getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
