"""Exact homotopy invariants of finite directed multigraphs.

Cycle censuses, zeta series, Witt/necklace decompositions, morphism
classifiers and lifting, cycle resolutions, and a decision procedure for
homotopy equivalence (equivalently, equality of the reversed
characteristic polynomial det(I - uA)).

The namespace is lazy (PEP 562): `import gphom` loads no submodule, and the
first use of a name below imports the submodule that defines it.
"""

_EXPORTS = {
    "errors": ("BudgetExceeded", "GphomError", "IntegralityViolation",
               "InternalInconsistency", "InvalidGraph", "InvalidInput",
               "NotAnNGraph", "NotRealizable"),
    "graphs": ("Arc", "Budget", "EMPTY", "Graph", "GraphMorphism", "arrow_graph",
               "component_count", "connected_components", "coproduct",
               "coproduct_with_injections", "cross_graph", "cycle_graph",
               "dot_graph", "enumerate_morphisms", "figure_eight",
               "graph_from_json", "graph_to_json", "identity", "is_isomorphic",
               "morphism_from_json", "morphism_to_json", "path_graph",
               "product", "pullback", "pushout", "undirected_cycle"),
    "spectral": ("IntPolynomial", "ZetaSeries", "adjacency_matrix", "char_poly",
                 "closed_walk_counts", "cycle_count", "graph_char_poly",
                 "graph_reversed_char_poly", "reversed_char_poly",
                 "zeta_series"),
    "witt": ("AlmostFiniteZSet", "burnside_add", "burnside_mul", "from_ghost",
             "from_graph", "from_witt", "ghost_to_witt", "witt_to_ghost",
             "zeta_product_form"),
    "model": ("CycleResolution", "GeneratorSet", "LiftingProblem",
              "aperiodic_necklaces", "cofibrant_replacement", "cycle_fold",
              "cycle_projection", "factorize_bounded", "find_lift",
              "initial_to_cycle", "is_acyclic_bounded", "is_cofibrant",
              "is_fibrant", "is_surjecting", "is_whiskering", "source_inclusion"),
    "dynamics": ("FinNSet", "FinZSet", "NSetMap", "cayley_graph",
                 "cayley_morphism", "classify_nset_map", "cyclic_zset",
                 "graph_to_nset", "nset_fibrancy", "periodic_part",
                 "zset_is_acyclic"),
    "homotopy": ("HomotopySignature", "derived_components", "explore",
                 "hom_count_bounded", "homotopy_equivalent", "signature"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_OWNER]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:   # importing a submodule binds it in this namespace
        import importlib
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_OWNER[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
