"""Each documented input error of the library, raised from its own check."""

import re

import pytest

from gphom.dynamics import (FinNSet, NSetMap, cyclic_zset, nset_from_json,
                            zset_is_acyclic)
from gphom.errors import InvalidGraph, InvalidInput
from gphom.graphs import (GraphMorphism, cycle_graph, graph_from_json,
                          graph_to_json, identity, morphism_from_json,
                          path_graph, pushout, undirected_cycle)
from gphom.homotopy import derived_components, hom_count_bounded
from gphom.spectral import zeta_series
from gphom.witt import from_ghost, from_graph, from_witt, zeta_product_form

C1, C2 = cycle_graph(1), cycle_graph(2)


def _morphism_json(**changes):
    """The identity of the 2-cycle as JSON, with some entries replaced."""
    return {"source": graph_to_json(C2), "target": graph_to_json(C2),
            "node_map": {"0": "0", "1": "1"}, "arc_map": {"0": "0", "1": "1"},
            **changes}


def _swap():
    return FinNSet(("a", "b"), {"a": "b", "b": "a"})


CASES = {
    # graphs
    "arc-map-not-total": (
        lambda: GraphMorphism(C2, C2, {"0": "0", "1": "1"}, {"0": "0"}),
        InvalidGraph, "arc_map not total on source arcs"),
    "node-outside-target": (
        lambda: GraphMorphism(C1, C1, {"0": "x"}, {"0": "0"}),
        InvalidGraph, "node '0' mapped outside target"),
    "arc-outside-target": (
        lambda: GraphMorphism(C1, C1, {"0": "0"}, {"0": "x"}),
        InvalidGraph, "arc '0' mapped outside target"),
    "compose-mismatch": (lambda: identity(C1).compose(identity(C2)),
                         InvalidGraph, "composition mismatch"),
    "path-graph-negative": (lambda: path_graph(-1), InvalidInput,
                            "path graph needs n >= 0"),
    "undirected-cycle-zero": (lambda: undirected_cycle(0), InvalidInput,
                              "undirected cycle needs n >= 1"),
    "pushout-sources-differ": (lambda: pushout(identity(C1), identity(C2)),
                               InvalidGraph, "pushout legs must share their source"),
    "graph-json-arcs-not-list": (
        lambda: graph_from_json({"nodes": [], "arcs": {}}),
        InvalidInput, "'arcs' must be a list"),
    "graph-json-arc-field-not-string": (
        lambda: graph_from_json({"nodes": ["0"],
                                 "arcs": [{"id": 1, "src": "0", "tgt": "0"}]}),
        InvalidInput, "arc #0 fields must be strings"),
    "morphism-json-keys": (
        lambda: morphism_from_json({"source": graph_to_json(C1)}), InvalidInput,
        "morphism JSON must have exactly 'source', 'target', 'node_map', 'arc_map'"),
    "morphism-json-map-not-strings": (
        lambda: morphism_from_json(_morphism_json(node_map={"0": 0, "1": 1})),
        InvalidInput, "'node_map' must map strings to strings"),
    "morphism-json-not-commuting": (
        lambda: morphism_from_json(_morphism_json(arc_map={"0": "1", "1": "0"})),
        InvalidInput, "arc '0' breaks the commuting squares"),
    # dynamics
    "sigma-not-total": (lambda: FinNSet(("a", "b"), {"a": "b"}), InvalidInput,
                        "sigma must be a total endofunction"),
    "nset-map-not-total": (lambda: NSetMap(_swap(), _swap(), {"a": "a"}),
                           InvalidInput, "map not total on source"),
    "nset-map-outside-target": (
        lambda: NSetMap(_swap(), FinNSet(("c",), {"c": "c"}), {"a": "z", "b": "z"}),
        InvalidInput, "element 'a' mapped outside target"),
    "cyclic-zset-zero": (lambda: cyclic_zset(0), InvalidInput,
                         "cyclic Z-set needs n >= 1"),
    "zset-acyclic-on-nsets": (
        lambda: zset_is_acyclic(NSetMap(_swap(), _swap(), {"a": "a", "b": "b"})),
        InvalidInput, "both sides must be finite Z-sets"),
    "nset-json-elements": (
        lambda: nset_from_json({"elements": "ab", "sigma": {}}),
        InvalidInput, "'elements' must be a list of strings"),
    "nset-json-sigma": (
        lambda: nset_from_json({"elements": ["a"], "sigma": {"a": 1}}),
        InvalidInput, "'sigma' must map strings to strings"),
    # homotopy, spectral, witt
    "hom-count-bound": (lambda: hom_count_bounded(C1, C1, 0), InvalidInput,
                        "bound must be >= 1"),
    "derived-components-bound": (lambda: derived_components(C1, 0), InvalidInput,
                                 "bound must be >= 1"),
    "zeta-series-order": (lambda: zeta_series(C1, -1), InvalidInput,
                          "truncation order must be >= 0"),
    "zeta-product-order": (lambda: zeta_product_form(from_graph(C1), -1),
                           InvalidInput, "truncation order must be >= 0"),
    "from-witt-negative-count": (
        lambda: from_witt({1: -1}), InvalidInput,
        "orbit support needs n >= 1 and counts >= 0"),
    "from-ghost-missing-component": (lambda: from_ghost({1: 1}).witt(2),
                                     InvalidInput, "ghost component c_2 not provided"),
}


@pytest.mark.parametrize("case", CASES)
def test_input_error(case):
    thunk, error, message = CASES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        thunk()
