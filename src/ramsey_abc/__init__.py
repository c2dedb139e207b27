"""Bee-colony search and exact certification for small Ramsey witness graphs."""

__version__ = "0.1.0"

from .graph import (
    Graph,
    ParseError,
    ParseReport,
    complement,
    decode_graph6,
    delete_vertex,
    emit_adjacency_list,
    encode_graph6,
    induced_subgraph,
    parse_adjacency_list,
    toggle_edge,
)
from .counting import (
    FitnessReport,
    IndepSetCache,
    build_indep_cache,
    count_cliques,
    count_independent_sets,
    extension_fitness,
    find_clique,
    find_independent_set,
    fitness,
    max_independent_set,
)
from .bounds import DegreeRange, RamseyValue, degree_range, known_ramsey
from .construct import (
    ExtensionSpace,
    ExtensionState,
    decompose_extension,
    enumerate_triangle_free,
    extension_to_graph,
    mutate_extension,
    random_extension,
    toggle_attachment,
)
from .abc_search import Colony, SearchParams, SearchResult, run
from .verify import Certificate, certify, verify_appendix, verify_deletions
