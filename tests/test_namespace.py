import copy
import importlib
import json
import os
import pickle
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



def _two_cycle():
    return gphom.Graph(("0", "1"),
                       (gphom.Arc("a", "0", "1"), gphom.Arc("b", "1", "0")))


def _morphism(swap=False):
    """An automorphism of the 2-cycle, as GraphMorphism arguments."""
    if swap:
        return _two_cycle(), _two_cycle(), {"0": "1", "1": "0"}, {"a": "b", "b": "a"}
    return _two_cycle(), _two_cycle(), {"0": "0", "1": "1"}, {"a": "a", "b": "b"}


def _poly():
    return gphom.IntPolynomial((1, 0, -1))


def _square(top=None):
    ident = [gphom.GraphMorphism(*_morphism()) for _ in range(4)]
    return ident[0], ident[1], top or ident[2], ident[3]


def _swap():
    return gphom.FinNSet(("a", "b"), {"a": "b", "b": "a"})


G2 = "Graph(2 nodes, 2 arcs)"
POLY = "IntPolynomial(coefficients=(1, 0, -1))"
# class name: (field names, constructor arguments, the same arguments with only
# a dict field changed or None, repr); the arguments are built afresh per call
VALUE_CASES = {
    "Arc": (("id", "src", "tgt"), lambda: ("a", "0", "1"), None,
            "Arc(id='a', src='0', tgt='1')"),
    "Graph": (("nodes", "arcs"), lambda: (("0", "1"), _two_cycle().arcs), None, G2),
    "GraphMorphism": (("source", "target", "node_map", "arc_map"), _morphism,
                      lambda: _morphism(swap=True), f"GraphMorphism({G2} -> {G2})"),
    "IntPolynomial": (("coefficients",), lambda: ((1, 0, -1),), None, POLY),
    "ZetaSeries": (("denominator", "truncation_order", "coefficients"),
                   lambda: (_poly(), 3, (1, 0, 1, 0)), None,
                   f"ZetaSeries(denominator={POLY}, truncation_order=3, "
                   "coefficients=(1, 0, 1, 0))"),
    "HomotopySignature": (("reversed_char_poly",), lambda: (_poly(),), None,
                          f"HomotopySignature(reversed_char_poly={POLY})"),
    "SignatureBucket": (("signature", "members", "nonisomorphic_pairs"),
                        lambda: (gphom.HomotopySignature(_poly()),
                                 (("c2", _two_cycle()),), ()), None,
                        f"SignatureBucket(signature=HomotopySignature("
                        f"reversed_char_poly={POLY}), members=(('c2', {G2}),), "
                        "nonisomorphic_pairs=())"),
    "GeneratorSet": (("bound",), lambda: (2,), None, "GeneratorSet(bound=2)"),
    "LiftingProblem": (("left", "right", "top", "bottom"), _square, None,
                       f"LiftingProblem(GraphMorphism({G2} -> {G2}) vs "
                       f"GraphMorphism({G2} -> {G2}))"),
    "CycleResolution": (("graph", "counit", "witt_summary"),
                        lambda: (_two_cycle(), gphom.identity(_two_cycle()),
                                 {1: 0, 2: 1}),
                        lambda: (_two_cycle(), gphom.identity(_two_cycle()),
                                 {1: 0, 2: 2}),
                        f"CycleResolution({G2})"),
    "FinNSet": (("elements", "sigma"), lambda: (("a", "b"), {"a": "b", "b": "a"}),
                lambda: (("a", "b"), {"a": "a", "b": "a"}), "FinNSet(2 elements)"),
    "FinZSet": (("elements", "sigma"), lambda: (("a", "b"), {"a": "b", "b": "a"}),
                lambda: (("a", "b"), {"a": "a", "b": "b"}), "FinZSet(2 elements)"),
    "NSetMap": (("source", "target", "map"),
                lambda: (_swap(), _swap(), {"a": "a", "b": "b"}),
                lambda: (_swap(), _swap(), {"a": "b", "b": "a"}),
                "NSetMap(FinNSet(2 elements) -> FinNSet(2 elements))"),
}

# class name: (invalid constructor arguments, the error they raise)
INVALID = {
    "Graph": (lambda: (("0", "0"), ()), "InvalidGraph"),
    "GraphMorphism": (lambda: (_two_cycle(), _two_cycle(), {}, {}), "InvalidGraph"),
    "ZetaSeries": (lambda: (_poly(), 1, (2, 0)), "IntegralityViolation"),
    "LiftingProblem": (lambda: _square(gphom.GraphMorphism(*_morphism(swap=True))),
                       "InvalidGraph"),
    "FinNSet": (lambda: (("a", "a"), {"a": "a"}), "InvalidInput"),
    "FinZSet": (lambda: (("a", "b"), {"a": "a", "b": "a"}), "InvalidInput"),
    "NSetMap": (lambda: (_swap(), _swap(), {"a": "a", "b": "a"}), "InvalidInput"),
}


@pytest.mark.trusted_construction
@pytest.mark.parametrize("name", VALUE_CASES)
def test_value_class_surface(name):
    cls = getattr(gphom.homotopy if name == "SignatureBucket" else gphom, name)
    fields, args, other_dict, text = VALUE_CASES[name]
    x, y = cls(*args()), cls(**dict(zip(fields, args())))
    assert [getattr(x, f) for f in fields] == list(args())
    assert x == y and not x != y and x is not y
    assert x != tuple(args()) and x.__eq__(object()) is NotImplemented
    assert repr(x) == text
    for f in fields:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{f}'$"):
            setattr(x, f, getattr(y, f))
        with pytest.raises(AttributeError, match=f"^cannot delete field '{f}'$"):
            delattr(x, f)
    copies = [pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)]
    assert all(type(c) is cls and c == x for c in copies)
    assert hash(x) == hash(y) == hash(copies[0])
    if other_dict:   # the dict is compared but not hashed
        z = cls(*other_dict())
        assert z != x and hash(z) == hash(x)
    if name == "FinZSet":
        assert x != gphom.FinNSet(*args()) and gphom.FinNSet(*args()) != x
    if name in INVALID:
        bad, error = INVALID[name]
        with pytest.raises(getattr(gphom, error)):
            cls(*bad())
        if name in ("Graph", "GraphMorphism"):   # _trusted skips validation
            assert cls._trusted(*bad()).__dict__ == dict(zip(fields, bad()))
