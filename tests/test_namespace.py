import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gphom

# the package's public names, each under the submodule that defines it
PUBLIC = {
    "errors": ["BudgetExceeded", "GphomError", "IntegralityViolation",
               "InternalInconsistency", "InvalidGraph", "InvalidInput",
               "NotAnNGraph", "NotRealizable"],
    "graphs": ["Arc", "Budget", "EMPTY", "Graph", "GraphMorphism", "arrow_graph",
               "component_count", "connected_components", "coproduct",
               "coproduct_with_injections", "cross_graph", "cycle_graph",
               "dot_graph", "enumerate_morphisms", "figure_eight",
               "graph_from_json", "graph_to_json", "identity", "is_isomorphic",
               "morphism_from_json", "morphism_to_json", "path_graph",
               "product", "pullback", "pushout", "undirected_cycle"],
    "spectral": ["IntPolynomial", "ZetaSeries", "adjacency_matrix", "char_poly",
                 "closed_walk_counts", "cycle_count", "graph_char_poly",
                 "graph_reversed_char_poly", "reversed_char_poly", "zeta_series"],
    "witt": ["AlmostFiniteZSet", "burnside_add", "burnside_mul", "from_ghost",
             "from_graph", "from_witt", "ghost_to_witt", "witt_to_ghost",
             "zeta_product_form"],
    "model": ["CycleResolution", "GeneratorSet", "LiftingProblem",
              "aperiodic_necklaces", "cofibrant_replacement", "cycle_fold",
              "cycle_projection", "factorize_bounded", "find_lift",
              "initial_to_cycle", "is_acyclic_bounded", "is_cofibrant",
              "is_fibrant", "is_surjecting", "is_whiskering", "source_inclusion"],
    "dynamics": ["FinNSet", "FinZSet", "NSetMap", "cayley_graph",
                 "cayley_morphism", "classify_nset_map", "cyclic_zset",
                 "graph_to_nset", "nset_fibrancy", "periodic_part",
                 "zset_is_acyclic"],
    "homotopy": ["HomotopySignature", "derived_components", "explore",
                 "hom_count_bounded", "homotopy_equivalent", "signature"],
}
PUBLIC_NAMES = sorted([*PUBLIC, *(n for names in PUBLIC.values() for n in names)])


def fresh(code: str):
    """What a fresh interpreter prints as JSON after running `code`."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", "import json\n" + code],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_public_names_are_the_pinned_ones():
    assert len(PUBLIC_NAMES) == 93 and gphom.__version__ == "0.1.0"
    assert fresh("import gphom\nprint(json.dumps([n for n in dir(gphom) "
                 "if not n.startswith('_')]))") == PUBLIC_NAMES


def test_star_import_binds_the_pinned_names():
    assert fresh("ns = {}\nexec('from gphom import *', ns)\n"
                 "print(json.dumps(sorted(set(ns) - {'__builtins__'})))") == PUBLIC_NAMES


def test_each_name_is_its_submodules():
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"gphom.{module}")
        assert getattr(gphom, module) is owner
        for name in names:
            assert getattr(gphom, name) is getattr(owner, name)


def test_submodule_names_resolve_in_a_fresh_interpreter():
    assert fresh("import gphom\n"
                 "print(json.dumps([gphom.homotopy.enumerate_small_graphs.__name__, "
                 "gphom.dynamics.nset_to_json.__name__]))") == \
        ["enumerate_small_graphs", "nset_to_json"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'gphom' has no attribute 'nope'$"):
        gphom.nope
