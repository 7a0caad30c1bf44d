import itertools
import random

import pytest

from gphom.errors import InvalidInput
from gphom.graphs import (Budget, Graph, coproduct, cross_graph, cycle_graph,
                          figure_eight, path_graph, undirected_cycle)
from gphom.homotopy import (builtin_family, derived_components,
                            enumerate_small_graphs, explore,
                            hom_count_bounded, homotopy_equivalent, signature)
from gphom.spectral import IntPolynomial

from conftest import brute_force_isomorphic, random_graph, relabel


def test_cross_uc4_equivalent_not_isomorphic():
    assert homotopy_equivalent(cross_graph(), undirected_cycle(4))
    from gphom.graphs import is_isomorphic
    assert not is_isomorphic(cross_graph(), undirected_cycle(4))[0]


def test_small_cycles_not_equivalent():
    assert not homotopy_equivalent(cycle_graph(2), cycle_graph(3))


def test_isolated_node_is_invisible():
    rnd = random.Random(34)
    for _ in range(10):
        X = random_graph(rnd, 3, 4)
        X_plus = Graph(X.nodes + ("iso",), X.arcs)
        assert homotopy_equivalent(X, X_plus)


def test_signature_examples():
    assert signature(cross_graph()).reversed_char_poly.coefficients == (1, 0, -4)
    for n in range(1, 5):
        expected = [1] + [0] * (n - 1) + [-1]
        assert list(signature(cycle_graph(n)).reversed_char_poly.coefficients) \
            == expected
    one = IntPolynomial((1,))
    from gphom.graphs import EMPTY, dot_graph
    assert signature(EMPTY).reversed_char_poly == one
    assert signature(dot_graph()).reversed_char_poly == one


def test_signature_label_independent():
    rnd = random.Random(35)
    for _ in range(10):
        X = random_graph(rnd, 4, 6)
        assert signature(relabel(X, rnd)) == signature(X)


def test_whiskering_invariance():
    from test_model import attach_whiskers
    rnd = random.Random(36)
    for _ in range(10):
        X = random_graph(rnd, 3, 4)
        w = attach_whiskers(X, rnd, rnd.randint(1, 3))
        assert homotopy_equivalent(X, w.target)


def test_signature_multiplicative_over_coproduct():
    rnd = random.Random(37)
    for _ in range(10):
        X = random_graph(rnd, 3, 4)
        Y = random_graph(rnd, 3, 4)
        sx = signature(X).reversed_char_poly
        sy = signature(Y).reversed_char_poly
        prod = [sum(sx[i] * sy[k - i] for i in range(k + 1))
                for k in range(sx.degree + sy.degree + 1)]
        assert signature(coproduct(X, Y)).reversed_char_poly.coefficients == tuple(prod)


def test_hom_count_examples():
    C1 = cycle_graph(1)
    assert hom_count_bounded(C1, C1, 5) == 1
    assert hom_count_bounded(cycle_graph(2), cross_graph(), 2) == 8
    assert hom_count_bounded(path_graph(3), cross_graph(), 4) == 1


def test_hom_count_self_positive():
    rnd = random.Random(38)
    for _ in range(10):
        X = random_graph(rnd, 3, 5)
        from gphom.spectral import cycle_count
        if any(cycle_count(X, n) for n in range(1, 4)):
            assert hom_count_bounded(X, X, 3) >= 1


def test_derived_components():
    for m in (1, 2, 3):
        assert derived_components(cycle_graph(m), m + 1) == 1
    assert derived_components(path_graph(3), 4) == 0
    assert derived_components(figure_eight(), 3) == 5


def test_explore_builtin_family():
    buckets = explore(5, 16)
    target = None
    for b in buckets:
        names = {name for name, _ in b.members}
        if "cross" in names:
            target = b
            assert "uc4" in names
    assert target is not None
    assert ("uc4", "cross") in target.nonisomorphic_pairs or \
        ("cross", "uc4") in target.nonisomorphic_pairs


def test_explore_acyclic_graphs_share_trivial_signature():
    family = builtin_family(2, 1)
    buckets = explore(2, 1, family)
    for b in buckets:
        if b.signature.reversed_char_poly == IntPolynomial((1,)):
            names = {name for name, _ in b.members}
            assert {"path:0", "path:1"} <= names


def test_explore_buckets_internally_consistent():
    buckets = explore(4, 8)
    for b in buckets:
        members = list(b.members)
        for i in range(len(members) - 1):
            assert homotopy_equivalent(members[i][1], members[i + 1][1])


def test_explore_flags_the_pairs_the_oracle_separates():
    rnd = random.Random(39)
    corpus = [(f"r{i}", random_graph(rnd, 4, 5)) for i in range(40)]
    corpus += [(f"c{i}", relabel(rnd.choice(corpus)[1], rnd)) for i in range(20)]
    corpus += [("cross", cross_graph()), ("uc4", undirected_cycle(4))]
    rnd.shuffle(corpus)
    for b in explore(5, 8, corpus):
        assert list(b.nonisomorphic_pairs) == [
            (na, nb) for (na, A), (nb, B) in itertools.combinations(b.members, 2)
            if not brute_force_isomorphic(A, B)]


@pytest.mark.parametrize("nodes, arcs, used", [(3, 5, 8520), (4, 3, 8057)])
def test_explore_budget_used_pinned(nodes, arcs, used):
    # the isomorphism searches' steps over every multigraph within the sizes
    corpus = [(f"g{i}", G) for i, G in enumerate(enumerate_small_graphs(nodes, arcs))]
    budget = Budget()
    explore(nodes, arcs, corpus, budget)
    assert (budget.used, budget.search) == (used, "is_isomorphic")


def test_explore_rejects_oversized_corpus():
    with pytest.raises(InvalidInput):
        explore(1, 1, [("big", cycle_graph(5))])


def test_enumerate_small_graphs_counts():
    graphs = list(enumerate_small_graphs(1, 2))
    # 0 nodes: empty; 1 node: no arcs, one loop, two loops
    assert len(graphs) == 4
