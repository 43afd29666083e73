"""Spectral-radius extremal analysis of complete-bipartite-minor-free
graphs: constructions, alpha-matrix spectra, minor containment, exhaustive
search, and verification suites.

The public names below are re-exported lazily: `import kabminor` loads no
submodule, and the first use of a name (attribute access or `from kabminor
import name`) imports the submodule that defines it.  Only `spectral`,
`extremal` and `verify` need numpy, so the pure-Python layers (`graphs`,
`minors`) and the CLI commands built on them start without it.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "graphs": (
        "FamilyParams", "Graph", "clique_with_pendants", "complete",
        "complete_bipartite", "cycle", "disjoint_union", "empty_graph",
        "extremal_family", "f_graph", "from_edges", "from_graph6", "join",
        "path_graph", "pendant_matching_graph", "petersen",
        "petersen_complement", "star", "star_forest", "subdivided_clique",
        "to_graph6",
    ),
    "spectral": (
        "SpectralResult", "alpha_matrix", "quotient", "quotient_radius_check",
        "spectral_radii", "spectral_radius",
    ),
    "minors": (
        "AbPropertyReport", "MinorWitness", "ab_property",
        "ab_property_complement_criterion", "has_minor", "star_minor_free",
    ),
    "extremal": (
        "ExtremalPrediction", "SearchReport", "canonical_form",
        "canonical_graph", "compare_candidates", "enumerate_graphs",
        "ingest_graph6", "predict", "search_max",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def _submodule(module):
    # the import statement's path, which -X importtime reports and
    # importlib.import_module bypasses; a non-empty fromlist makes
    # __import__ return the submodule, not the package
    return __import__(f"{__name__}.{module}", fromlist=["*"])


def __getattr__(name):
    if name in _EXPORTS:  # the submodule itself, e.g. kabminor.extremal
        return _submodule(name)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_SOURCE[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
