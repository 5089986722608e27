"""Word-representable graphs: words and the graph each represents (its
alternating pairs, found in one sweep by ``graph_of_word`` and
``represents``), occurrence-based functions, the Cartesian-product
constructions built from them, and a brute-force search oracle for
representation numbers.  ``__all__`` is the whole public API."""

from .words import (
    Word,
    check_symbol,
    parse_words,
    restrict,
    uniformity,
)
from .obf import (
    ChainConditionError,
    OccurrenceBasedFunction,
    apply,
    extend_uniform,
    lemma1_concat,
    projection,
)
from .graphs import (
    Graph,
    NamingConflictError,
    cartesian_product,
    complete,
    cube,
    cycle,
    graph_from_edges_text,
    graph_from_json,
    graph_of_word,
    graph_to_edges_text,
    graph_to_json,
    load_graph,
    parse_graph,
    represents,
)
from .constructions import (
    complete_word,
    cube_word,
    cycle_word,
    prism_word,
    product_k2_word,
    product_kn_functions,
    product_kn_word,
)
from .search import (
    DEFAULT_BUDGET,
    SearchOutcome,
    is_k_representable,
    outcome_to_json,
    representation_number,
)

__all__ = [
    "Word",
    "check_symbol",
    "parse_words",
    "restrict",
    "uniformity",
    "ChainConditionError",
    "OccurrenceBasedFunction",
    "apply",
    "extend_uniform",
    "lemma1_concat",
    "projection",
    "Graph",
    "NamingConflictError",
    "cartesian_product",
    "complete",
    "cube",
    "cycle",
    "graph_from_edges_text",
    "graph_from_json",
    "graph_of_word",
    "graph_to_edges_text",
    "graph_to_json",
    "load_graph",
    "parse_graph",
    "represents",
    "complete_word",
    "cube_word",
    "cycle_word",
    "prism_word",
    "product_k2_word",
    "product_kn_functions",
    "product_kn_word",
    "DEFAULT_BUDGET",
    "SearchOutcome",
    "is_k_representable",
    "outcome_to_json",
    "representation_number",
]

__version__ = "0.1.0"
