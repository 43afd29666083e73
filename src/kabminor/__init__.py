"""Spectral-radius extremal analysis of complete-bipartite-minor-free
graphs: constructions, alpha-matrix spectra, minor containment, exhaustive
search, and verification suites."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    FamilyParams,
    Graph,
    clique_with_pendants,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    extremal_family,
    f_graph,
    from_edges,
    from_graph6,
    join,
    path_graph,
    pendant_matching_graph,
    petersen,
    petersen_complement,
    star,
    star_forest,
    subdivided_clique,
    to_graph6,
)
from .spectral import (  # noqa: F401
    SpectralResult,
    alpha_matrix,
    quotient,
    quotient_radius_check,
    spectral_radii,
    spectral_radius,
)
from .minors import (  # noqa: F401
    AbPropertyReport,
    MinorWitness,
    ab_property,
    ab_property_complement_criterion,
    find_clique_dominating_set,
    has_minor,
    minor_free_given_apex,
    star_minor_free,
)
from .extremal import (  # noqa: F401
    ExtremalPrediction,
    SearchReport,
    canonical_form,
    canonical_graph,
    compare_candidates,
    enumerate_graphs,
    ingest_graph6,
    predict,
    search_max,
)
