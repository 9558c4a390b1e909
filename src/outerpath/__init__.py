"""Induced-path extremal toolkit for outerplanar graphs.

The root re-exports the names of the modules that :mod:`outerpath.cli`
loads.  The search and chord-statistics names are imported from
:mod:`outerpath.search` and :mod:`outerpath.chords`, so ``import outerpath``
loads neither.
"""

from .graph import (
    MAX_VERTICES,
    CANONICAL_CAP,
    Graph,
    UnsupportedSizeError,
    VertexSet,
    bits,
    blocks,
    canonical_form,
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
