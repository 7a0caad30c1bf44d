import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gphom.dynamics import FinNSet, FinZSet, nset_from_json, nset_to_json
from gphom.errors import BudgetExceeded, InvalidGraph, InvalidInput
from gphom.graphs import (Arc, Budget, EMPTY, Graph, GraphMorphism,
                          _isomorphism, arrow_graph, component_count, connected_components,
                          coproduct, coproduct_with_injections, cycle_graph,
                          dot_graph, enumerate_morphisms, figure_eight,
                          graph_from_json, graph_to_json, identity,
                          is_isomorphic, morphism_from_json, morphism_to_json,
                          path_graph, product, pullback, pushout,
                          undirected_cycle)
from gphom.homotopy import enumerate_small_graphs
from gphom.spectral import closed_walk_counts, cycle_count

from conftest import (brute_force_closed_walks, brute_force_isomorphic,
                      brute_force_morphisms, random_graph, relabel)


def test_cycle_graph_basic():
    C1 = cycle_graph(1)
    assert len(C1.nodes) == 1 and len(C1.arcs) == 1
    assert C1.arcs[0].src == C1.arcs[0].tgt

    C3 = cycle_graph(3)
    assert len(C3.nodes) == 3 and len(C3.arcs) == 3
    for v in C3.nodes:
        assert C3.indegree(v) == 1 and C3.outdegree(v) == 1

    C2 = cycle_graph(2)
    from gphom.spectral import adjacency_matrix
    assert adjacency_matrix(C2) == [[0, 1], [1, 0]]


def test_cycle_graph_rejects_zero():
    with pytest.raises(InvalidInput):
        cycle_graph(0)


def test_path_graph():
    assert len(path_graph(0).nodes) == 1 and not path_graph(0).arcs
    A = path_graph(1)
    assert len(A.nodes) == 2 and len(A.arcs) == 1
    P4 = path_graph(4)
    assert len(P4.nodes) == 5 and len(P4.arcs) == 4
    for n in range(1, 5):
        assert cycle_count(P4, n) == 0


def test_graph_invariants_enforced():
    with pytest.raises(InvalidGraph):
        Graph(("0", "0"), ())
    with pytest.raises(InvalidGraph):
        Graph(("0",), (Arc("a", "0", "1"),))
    with pytest.raises(InvalidGraph):
        Graph(("0",), (Arc("a", "0", "0"), Arc("a", "0", "0")))


def test_morphism_commuting_squares_checked():
    C2 = cycle_graph(2)
    with pytest.raises(InvalidGraph):
        GraphMorphism(C2, C2, {"0": "0", "1": "1"}, {"0": "1", "1": "0"})
    ident = identity(C2)
    assert ident.node_map == {"0": "0", "1": "1"}


def test_trusted_constructors_validate_under_the_test_suite():
    # conftest.revalidate_trusted routes _trusted through the validating
    # constructor, so every internal construction is checked in every test
    C2 = cycle_graph(2)
    with pytest.raises(InvalidGraph):
        GraphMorphism._trusted(C2, C2, {"0": "0", "1": "1"}, {"0": "1", "1": "0"})
    with pytest.raises(InvalidGraph):
        Graph._trusted(("0", "0"), ())


def test_product_c2_c3_is_c6():
    P = product(cycle_graph(2), cycle_graph(3))
    ok, witness = is_isomorphic(P, cycle_graph(6))
    assert ok
    assert witness.is_node_bijective() and witness.is_arc_bijective()


def test_product_unit_and_arc_count():
    rnd = random.Random(1)
    for _ in range(10):
        X = random_graph(rnd, 3, 4)
        P = product(X, cycle_graph(1))
        assert is_isomorphic(P, X)[0]
        Y = random_graph(rnd, 3, 4)
        assert len(product(X, Y).arcs) == len(X.arcs) * len(Y.arcs)


def test_product_symmetric_up_to_iso(small_corpus):
    rnd = random.Random(2)
    picks = rnd.sample(small_corpus, 15)
    for X in picks:
        Y = rnd.choice(picks)
        assert is_isomorphic(product(X, Y), product(Y, X))[0]


def seeded_cospans(rnd: random.Random, how_many: int):
    """Seeded cospans f: X -> B <- Z: g, each leg drawn from all morphisms."""
    out = []
    while len(out) < how_many:
        B = random_graph(rnd, 2, 4)
        X, Z = random_graph(rnd, 3, 4), random_graph(rnd, 3, 4)
        fs, gs = enumerate_morphisms(X, B), enumerate_morphisms(Z, B)
        if fs and gs:
            out.append((rnd.choice(fs), rnd.choice(gs)))
    return out


def test_pullback_legs_commute():
    for f, g in seeded_cospans(random.Random(4), 40):
        P, to_left, to_right = pullback(f, g)
        assert f.compose(to_left).node_map == g.compose(to_right).node_map
        assert f.compose(to_left).arc_map == g.compose(to_right).arc_map


def test_pullback_census_counts_pairs_of_walks_with_equal_image():
    rnd = random.Random(5)
    for f, _ in seeded_cospans(rnd, 25):
        P = pullback(f, f)[0]
        expected = []
        for n in range(1, 5):
            images = Counter(tuple(f.arc_map[a] for a in w)
                             for w in brute_force_closed_walks(f.source, n))
            expected.append(sum(k * k for k in images.values()))
        assert closed_walk_counts(P, 4) == expected


def test_pullback_rejects_mismatched_targets():
    with pytest.raises(InvalidGraph):
        pullback(identity(cycle_graph(2)), identity(cycle_graph(3)))


# ids full of the characters an encoding of pairs or tags might use
ids = st.text(alphabet=st.sampled_from('ab,()"[]:0\\ '), max_size=4)


@st.composite
def graphs(draw, max_nodes=3, max_arcs=4):
    nodes = draw(st.lists(ids, min_size=1, max_size=max_nodes, unique=True))
    arc_ids = draw(st.lists(ids, max_size=max_arcs, unique=True))
    ends = st.sampled_from(nodes)
    return Graph(tuple(nodes), tuple(Arc(a, draw(ends), draw(ends))
                                     for a in arc_ids))


COMPLETE = Graph(("0", "1"), tuple(Arc(u + v, u, v) for u in "01" for v in "01"))


def to_complete_graph(X: Graph, colours: str) -> GraphMorphism:
    """X -> K, where K has nodes 0 and 1 and one arc per ordered pair, so
    any node colouring (colours[i] for the i-th node) extends to a unique
    morphism."""
    nm = dict(zip(X.nodes, colours))
    return GraphMorphism(X, COMPLETE, nm,
                         {a.id: nm[a.src] + nm[a.tgt] for a in X.arcs})


colourings = st.text(alphabet="01", min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(graphs(), graphs(), st.integers(0, 2), st.integers(0, 2),
       colourings, colourings)
# "(x,y)" ids made ("a", "b,c") and ("a,b", "c") collide
@example(Graph(("a", "a,b"), ()), Graph(("b,c", "c"), ()), 0, 0, "000", "000")
def test_constructions_accept_arbitrary_ids(X, Y, i, j, cx, cy):
    P = product(X, Y)
    assert [json.loads(p) for p in P.nodes] == \
        [[u, v] for u in X.nodes for v in Y.nodes]
    assert [json.loads(a.id) for a in P.arcs] == \
        [[a.id, b.id] for a in X.arcs for b in Y.arcs]
    S = coproduct(X, Y)
    assert (len(S.nodes), len(S.arcs)) == \
        (len(X.nodes) + len(Y.nodes), len(X.arcs) + len(Y.arcs))
    # the wedge: one node of each glued together
    x, y = X.nodes[i % len(X.nodes)], Y.nodes[j % len(Y.nodes)]
    W = pushout(GraphMorphism(dot_graph(), X, {"0": x}, {}),
                GraphMorphism(dot_graph(), Y, {"0": y}, {}))[0]
    assert (len(W.nodes), len(W.arcs)) == \
        (len(X.nodes) + len(Y.nodes) - 1, len(X.arcs) + len(Y.arcs))
    f, g = to_complete_graph(X, cx), to_complete_graph(Y, cy)
    Q = pullback(f, g)[0]
    fn, gn = Counter(f.node_map.values()), Counter(g.node_map.values())
    fa, ga = Counter(f.arc_map.values()), Counter(g.arc_map.values())
    assert (len(Q.nodes), len(Q.arcs)) == \
        (sum(fn[b] * gn[b] for b in COMPLETE.nodes),
         sum(fa[b.id] * ga[b.id] for b in COMPLETE.arcs))


def test_coproduct_counts_and_unit():
    G = coproduct(cycle_graph(2), cycle_graph(3))
    assert len(G.nodes) == 5 and len(G.arcs) == 5
    X = figure_eight()
    assert is_isomorphic(coproduct(X, EMPTY), X)[0]


def test_coproduct_cycle_counts_add():
    rnd = random.Random(3)
    for _ in range(10):
        X = random_graph(rnd, 3, 4)
        Y = random_graph(rnd, 3, 4)
        G = coproduct(X, Y)
        for n in range(1, 5):
            assert cycle_count(G, n) == cycle_count(X, n) + cycle_count(Y, n)


def test_pushout_whisker_attachment():
    # gluing D -> A (at node 0) against D -> X (at a node of X) adds one arc
    X = cycle_graph(3)
    D, A = dot_graph(), arrow_graph()
    f = GraphMorphism(D, A, {"0": "0"}, {})
    g = GraphMorphism(D, X, {"0": "1"}, {})
    Q, from_a, from_x = pushout(f, g)
    assert len(Q.nodes) == len(X.nodes) + 1
    assert len(Q.arcs) == len(X.arcs) + 1
    # cocone commutes: both composites from D agree
    assert from_a.node_map[f.node_map["0"]] == from_x.node_map[g.node_map["0"]]


def test_pushout_identity_legs():
    X = figure_eight()
    i = identity(X)
    Q, _, _ = pushout(i, i)
    assert is_isomorphic(Q, X)[0]


def test_pushout_cocone_commutes():
    rnd = random.Random(4)
    for _ in range(5):
        R = random_graph(rnd, 2, 2)
        X = random_graph(rnd, 3, 4)
        Y = random_graph(rnd, 3, 4)
        fs = enumerate_morphisms(R, X)
        gs = enumerate_morphisms(R, Y)
        if not fs or not gs:
            continue
        f, g = fs[0], gs[0]
        Q, cf, cg = pushout(f, g)
        left = cf.compose(f)
        right = cg.compose(g)
        assert left.node_map == right.node_map
        assert left.arc_map == right.arc_map


def test_connected_components():
    assert component_count(coproduct(cycle_graph(2), cycle_graph(3))) == 2
    assert component_count(EMPTY) == 0
    assert component_count(arrow_graph()) == 1
    parts = connected_components(coproduct(cycle_graph(2), cycle_graph(1)))
    assert sorted(len(p) for p in parts) == [1, 2]


def test_components_additive_over_coproduct(small_corpus):
    rnd = random.Random(5)
    for X in rnd.sample(small_corpus, 10):
        Y = rnd.choice(small_corpus)
        assert component_count(coproduct(X, Y)) == \
            component_count(X) + component_count(Y)


def test_enumerate_morphisms_examples():
    assert len(enumerate_morphisms(cycle_graph(1), figure_eight())) == 2
    A = arrow_graph()
    assert len(enumerate_morphisms(A, A)) == 1
    for n in range(1, 7):
        for m in range(1, 7):
            count = len(enumerate_morphisms(cycle_graph(n), cycle_graph(m)))
            assert count == (m if n % m == 0 else 0)


def test_enumerate_morphisms_no_duplicates():
    rnd = random.Random(6)
    for _ in range(10):
        X = random_graph(rnd, 2, 3)
        Y = random_graph(rnd, 3, 4)
        morphs = enumerate_morphisms(X, Y)
        keys = {(tuple(sorted(f.node_map.items())),
                 tuple(sorted(f.arc_map.items()))) for f in morphs}
        assert len(keys) == len(morphs)


def test_enumerate_morphisms_matches_brute_force():
    rnd = random.Random(11)
    for _ in range(300):
        X, Y = random_graph(rnd, 3, 4), random_graph(rnd, 3, 5)
        found = [(f.node_map, f.arc_map) for f in enumerate_morphisms(X, Y)]
        assert found == brute_force_morphisms(X, Y)


def test_enumerate_morphisms_budget_pinned():
    # one budget step per candidate arc tried, as the recursive search spent
    rnd = random.Random(11)
    used = 0
    for _ in range(100):
        X, Y = random_graph(rnd, 3, 4), random_graph(rnd, 3, 5)
        budget = Budget(10**6)
        enumerate_morphisms(X, Y, budget)
        used += budget.used
    assert used == 1414
    budget = Budget(10**6)
    assert len(enumerate_morphisms(cycle_graph(6), undirected_cycle(6), budget)) == 132
    assert budget.used == 504


def test_enumerate_morphisms_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 500
    (f,) = enumerate_morphisms(cycle_graph(n), cycle_graph(1))
    assert set(f.node_map.values()) == {"0"}
    # 2^n morphisms to the figure-eight: the budget runs out past the first
    with pytest.raises(BudgetExceeded):
        enumerate_morphisms(cycle_graph(n), figure_eight(), Budget(n + 5))


def test_budget_guard_fires():
    X = cycle_graph(6)
    Y = undirected_cycle(6)
    with pytest.raises(BudgetExceeded) as e:
        enumerate_morphisms(X, Y, Budget(5))
    assert str(e.value) == ("search budget of 5 exceeded in enumerate_morphisms, "
                            "which needs at least 6")


def test_is_isomorphic_budget_error_names_the_search():
    with pytest.raises(BudgetExceeded) as e:
        is_isomorphic(undirected_cycle(6), undirected_cycle(6), Budget(3))
    assert str(e.value) == ("search budget of 3 exceeded in is_isomorphic, "
                            "which needs at least 4")


def test_is_isomorphic_examples():
    assert is_isomorphic(cycle_graph(3), cycle_graph(3))[0]
    from gphom.graphs import cross_graph
    assert not is_isomorphic(cross_graph(), undirected_cycle(4))[0]
    ok, w = is_isomorphic(cycle_graph(6),
                          product(cycle_graph(2), cycle_graph(3)))
    assert ok and w.is_node_bijective() and w.is_arc_bijective()


def assert_isomorphism(w, X, Y):
    assert (w.source, w.target) == (X, Y)
    assert w.is_node_bijective() and w.is_arc_bijective()


def test_is_isomorphic_matches_oracle_on_small_corpus():
    by_size: dict[tuple[int, int], list[Graph]] = {}
    for G in enumerate_small_graphs(3, 3):
        by_size.setdefault((len(G.nodes), len(G.arcs)), []).append(G)
    pairs = isomorphic = 0
    for group in by_size.values():
        for X, Y in itertools.combinations(group, 2):
            ok, w = is_isomorphic(X, Y)
            assert ok == brute_force_isomorphic(X, Y)
            if ok:
                assert_isomorphism(w, X, Y)
                isomorphic += 1
            pairs += 1
    assert (pairs, isomorphic) == (14797, 512)


def move_one_arc(X: Graph, rnd: random.Random) -> Graph:
    arcs = list(X.arcs)
    i = rnd.randrange(len(arcs))
    arcs[i] = Arc(arcs[i].id, rnd.choice(X.nodes), rnd.choice(X.nodes))
    return Graph(X.nodes, tuple(arcs))


def relabelled_cases(seed: int, count: int):
    """(X, Y) pairs on up to 7 nodes and 12 arcs: Y is a relabelled copy
    of X, or that copy with one arc moved."""
    rnd = random.Random(seed)
    for _ in range(count):
        X = random_graph(rnd, 7, 12)
        Y = relabel(X, rnd)
        yield X, Y
        if X.arcs:
            yield X, move_one_arc(Y, rnd)


def test_is_isomorphic_matches_oracle_on_relabellings():
    verdicts = Counter()
    for X, Y in relabelled_cases(12, 1500):
        ok, w = is_isomorphic(X, Y)
        assert ok == brute_force_isomorphic(X, Y)
        if ok:
            assert_isomorphism(w, X, Y)
        verdicts[ok] += 1
    assert verdicts[True] > 1500 and verdicts[False] > 500


def test_is_isomorphic_agrees_with_networkx():
    nx = pytest.importorskip("networkx")

    def to_nx(G: Graph):
        H = nx.MultiDiGraph()
        H.add_nodes_from(G.nodes)
        H.add_edges_from((a.src, a.tgt) for a in G.arcs)
        return H

    for X, Y in relabelled_cases(13, 300):
        assert is_isomorphic(X, Y)[0] == nx.is_isomorphic(to_nx(X), to_nx(Y))


def test_is_isomorphic_disjoint_cycles_within_small_budget():
    # a search in plain node order needs about 82 million steps here
    X = relabel(undirected_cycle(20), random.Random(14))
    Y = coproduct(undirected_cycle(10), undirected_cycle(10))
    assert is_isomorphic(X, Y, Budget(10_000)) == (False, None)
    assert is_isomorphic(Y, X, Budget(10_000)) == (False, None)


def test_is_isomorphic_rejects_other_component_sizes_without_search():
    # equal degree profiles: only the components' sizes tell these apart,
    # and a search would walk the whole cycle from every root candidate
    X = relabel(cycle_graph(1500), random.Random(17))
    Y = coproduct(cycle_graph(1499), cycle_graph(1))
    for G, H in ((X, Y), (Y, X)):
        budget = Budget()
        assert is_isomorphic(G, H, budget) == (False, None)
        assert budget.used == 0


def split_search_cases(seed: int):
    """(X, Y) pairs of equal sizes: relabellings, with one arc moved or not,
    random pairs, and pairs that the degree profiles or the components'
    sizes tell apart."""
    yield from relabelled_cases(seed, 300)
    rnd = random.Random(seed)
    for _ in range(300):
        k, m = rnd.randint(1, 6), rnd.randint(0, 10)
        X, Y = (Graph(tuple(map(str, range(k))),
                      tuple(Arc(f"a{i}", str(rnd.randrange(k)),
                                str(rnd.randrange(k))) for i in range(m)))
                for _ in "XY")
        yield X, Y
    loops = Graph(("0", "1"), (Arc("a", "0", "0"), Arc("b", "0", "0")))
    yield cycle_graph(2), loops
    # equal degree profiles and component sizes, told apart by the search
    yield (Graph(("0", "1"), (Arc("a", "0", "1"), Arc("b", "1", "0"),
                              Arc("c", "0", "0"), Arc("d", "1", "1"))),
           Graph(("0", "1"), (Arc("a", "0", "1"), Arc("b", "1", "0"),
                              Arc("c", "0", "1"), Arc("d", "1", "0"))))
    yield cycle_graph(4), coproduct(cycle_graph(2), cycle_graph(2))
    for k in (6, 8, 10):
        halves = coproduct(undirected_cycle(k // 2), undirected_cycle(k // 2))
        yield undirected_cycle(k), halves
        yield halves, undirected_cycle(k)


def test_isomorphism_search_matches_is_isomorphic():
    # the search without the witness: the same verdict, node map and
    # budget spent, each on a fresh Budget
    rejected = Counter()
    for X, Y in split_search_cases(21):
        b1, b2 = Budget(), Budget()
        node_map = _isomorphism(X, Y, b1)
        ok, w = is_isomorphic(X, Y, b2)
        assert (node_map is not None, b1.used, b1.search) == (ok, b2.used,
                                                             b2.search)
        if ok:
            assert node_map == w.node_map
        rejected[ok, b1.used == 0] += 1
    # (verdict, rejected before the search): isomorphic, told apart by the
    # sizes, degree profiles or components, and told apart by the search
    assert rejected == {(True, False): 485, (False, True): 398,
                        (False, False): 5}


def test_is_isomorphic_deeper_than_recursion_limit():
    n = sys.getrecursionlimit() + 500
    X = relabel(cycle_graph(n), random.Random(15))
    ok, w = is_isomorphic(X, cycle_graph(n))
    assert ok
    assert_isomorphism(w, X, cycle_graph(n))


def test_is_isomorphic_independent_of_hash_seed():
    script = (
        "import random\n"
        "from conftest import relabel\n"
        "from gphom.graphs import (Budget, coproduct, cross_graph,\n"
        "                          is_isomorphic, undirected_cycle)\n"
        "X = coproduct(cross_graph(), undirected_cycle(5))\n"
        "Y = relabel(X, random.Random(16))\n"
        "b = Budget()\n"
        "ok, w = is_isomorphic(X, Y, b)\n"
        "print(ok, b.used, sorted(w.node_map.items()), sorted(w.arc_map.items()))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join((str(src), str(Path(__file__).parent)))
    outs = [subprocess.run([sys.executable, "-c", script], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": path,
                                "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert outs[0].startswith("True ") and outs[0] == outs[1]


def test_graph_json_round_trip():
    X = figure_eight()
    data = graph_to_json(X)
    assert graph_from_json(data) == X


@pytest.mark.parametrize("bad", [
    {"nodes": ["a"]},
    {"nodes": ["a"], "arcs": [], "extra": 1},
    {"nodes": ["a"], "arcs": [{"id": "x", "src": "a", "tgt": "a", "w": 2}]},
    {"nodes": "a", "arcs": []},
    {"nodes": ["a"], "arcs": [{"id": "x", "src": "a", "tgt": "b"}]},
])
def test_graph_json_rejects_bad_input(bad):
    with pytest.raises(InvalidInput):
        graph_from_json(bad)


def test_morphism_json_round_trip():
    f = identity(cycle_graph(2))
    data = morphism_to_json(f)
    g = morphism_from_json(data)
    assert g.node_map == f.node_map and g.arc_map == f.arc_map


def sorted_graph(X: Graph) -> Graph:
    """X with its nodes and arcs in the order graph_to_json writes them."""
    return Graph(tuple(sorted(X.nodes)), tuple(sorted(X.arcs, key=lambda a: a.id)))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_graph_json_round_trips(X):
    assert graph_from_json(graph_to_json(X)) == sorted_graph(X)


@settings(max_examples=60, deadline=None)
@given(graphs(max_arcs=3), graphs(), st.data())
def test_morphism_json_round_trips(X, Y, data):
    morphs = enumerate_morphisms(X, Y)
    if not morphs:
        Y = coproduct(X, Y)       # X -> X + Y always exists
        morphs = enumerate_morphisms(X, Y)
    f = data.draw(st.sampled_from(morphs))
    g = morphism_from_json(morphism_to_json(f))
    assert (g.source, g.target) == (sorted_graph(X), sorted_graph(Y))
    assert (g.node_map, g.arc_map) == (f.node_map, f.arc_map)


@settings(max_examples=60, deadline=None)
@given(st.lists(ids, min_size=1, max_size=4, unique=True), st.data())
def test_nset_json_round_trips(elements, data):
    sigma = {x: data.draw(st.sampled_from(elements)) for x in elements}
    S = FinNSet(tuple(elements), sigma)
    assert nset_from_json(nset_to_json(S)) == FinNSet(tuple(sorted(elements)), sigma)
    # a permutation makes a Z-set
    perm = data.draw(st.permutations(elements))
    Z = FinZSet(tuple(elements), dict(zip(elements, perm)))
    assert nset_from_json(nset_to_json(Z), require_zset=True) == \
        FinZSet(tuple(sorted(elements)), Z.sigma)


def test_coproduct_injections_valid():
    X, Y = cycle_graph(2), figure_eight()
    G, inl, inr = coproduct_with_injections(X, Y)
    assert inl.target == G and inr.target == G
    assert len(set(inl.node_map.values()) & set(inr.node_map.values())) == 0
