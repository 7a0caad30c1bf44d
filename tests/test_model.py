import random
import sys
from collections import Counter

import pytest

from gphom.errors import (BudgetExceeded, InternalInconsistency, InvalidGraph,
                          InvalidInput)
from gphom.graphs import (Arc, Budget, EMPTY, Graph, GraphMorphism,
                          arrow_graph, connected_components, coproduct,
                          cross_graph, cycle_graph, dot_graph,
                          enumerate_morphisms, figure_eight, identity,
                          is_isomorphic, path_graph, product, pullback,
                          pushout, undirected_cycle)
from gphom.homotopy import enumerate_small_graphs
from gphom.model import (GeneratorSet, LiftingProblem, aperiodic_necklaces,
                         cofibrant_replacement, cycle_fold, cycle_projection,
                         cycle_projection_via_pushout, factorize_bounded,
                         find_lift, initial_to_cycle, is_acyclic_bounded,
                         is_cofibrant, is_fibrant, is_surjecting,
                         is_whiskering, morphism_key, source_inclusion)
from gphom.witt import from_graph

from conftest import (CountingDict, brute_force_acyclic_bounded,
                      brute_force_factorize, brute_force_morphisms,
                      brute_force_necklaces, brute_force_whiskering,
                      count_calls, random_graph, relabel)


def attach_whiskers(X: Graph, rnd: random.Random, count: int) -> GraphMorphism:
    """A random Whiskering X -> Y made of `count` single-arc attachments."""
    nodes = list(X.nodes)
    arcs = list(X.arcs)
    for i in range(count):
        base = rnd.choice(nodes)
        new = f"wh{i}"
        nodes.append(new)
        arcs.append(Arc(f"wha{i}", base, new))
    Y = Graph(tuple(nodes), tuple(arcs))
    return GraphMorphism(X, Y, {v: v for v in X.nodes},
                         {a.id: a.id for a in X.arcs})


# ---------------------------------------------------------------------------
# Classifiers

def test_surjecting_examples():
    assert is_surjecting(identity(cross_graph()))
    assert is_surjecting(cycle_projection(2, 3))
    assert not is_surjecting(source_inclusion())


def test_whiskering_examples():
    assert is_whiskering(source_inclusion())
    assert is_whiskering(identity(figure_eight()))
    for n in range(1, 4):
        assert not is_whiskering(initial_to_cycle(n))
    rnd = random.Random(27)
    for _ in range(10):
        X = random_graph(rnd, 3, 4)
        assert is_whiskering(attach_whiskers(X, rnd, rnd.randint(0, 3)))


def test_whiskering_rejects_folds_and_projections():
    assert not is_whiskering(cycle_fold(2))
    assert not is_whiskering(cycle_projection(2, 2))


def attach_nodes(X: Graph, rnd: random.Random, count: int) -> GraphMorphism:
    """The inclusion of X into Y, X with `count` new nodes each given one
    arc in from any node of Y: trees on X where the walks back along those
    arcs reach X, cycles outside X where they do not.  Sometimes one more
    arc anywhere; nodes and arcs of Y in a shuffled order."""
    new = [f"t{i}" for i in range(count)]
    nodes = list(X.nodes) + new
    arcs = list(X.arcs) + [Arc(f"ta{i}", rnd.choice(nodes), v)
                           for i, v in enumerate(new)]
    if rnd.random() < 0.2:
        arcs.append(Arc("extra", rnd.choice(nodes), rnd.choice(nodes)))
    rnd.shuffle(nodes)
    rnd.shuffle(arcs)
    return GraphMorphism(X, Graph(tuple(nodes), tuple(arcs)),
                         {v: v for v in X.nodes}, {a.id: a.id for a in X.arcs})


def test_whiskering_matches_walk_oracle():
    rnd = random.Random(29)
    verdicts = Counter()
    for _ in range(2000):
        f = attach_nodes(random_graph(rnd, 4, 5), rnd, rnd.randint(0, 6))
        verdicts[is_whiskering(f)] += 1
        assert is_whiskering(f) == brute_force_whiskering(f)
    assert min(verdicts.values()) > 400
    small = list(enumerate_small_graphs(2, 3))
    for X in small:
        for Y in small:
            for f in enumerate_morphisms(X, Y):
                assert is_whiskering(f) == brute_force_whiskering(f)


def test_acyclic_examples():
    assert is_acyclic_bounded(identity(cross_graph()), 4)
    assert not is_acyclic_bounded(cycle_fold(2), 2)
    for n in range(1, 5):
        assert is_surjecting(cycle_fold(n))
        assert not is_acyclic_bounded(cycle_fold(n), n)


def test_whiskerings_are_acyclic():
    rnd = random.Random(28)
    for _ in range(8):
        X = random_graph(rnd, 3, 4)
        w = attach_whiskers(X, rnd, 2)
        assert is_acyclic_bounded(w, 4)


def test_acyclic_matches_search_on_every_small_morphism():
    small = list(enumerate_small_graphs(2, 3))
    verdicts = Counter()
    for X in small:
        for Y in small:
            for f in enumerate_morphisms(X, Y):
                for N in (1, 3, 5):
                    fast = is_acyclic_bounded(f, N)
                    assert fast == brute_force_acyclic_bounded(f, N), (f, N)
                    verdicts[fast] += 1
    assert verdicts[True] and verdicts[False]


def test_acyclic_matches_search_on_structured_maps():
    rnd = random.Random(34)
    maps = [cycle_fold(n) for n in range(1, 4)]
    maps += [cycle_projection(n, k) for n in range(1, 4) for k in range(1, 4)]
    maps += [attach_whiskers(random_graph(rnd, 3, 4), rnd, 2) for _ in range(6)]
    maps += [cofibrant_replacement(random_graph(rnd, 3, 4), N).counit
             for N in (1, 2, 3, 3)]
    for f in maps:
        for N in (1, 2, 4, 6):
            assert is_acyclic_bounded(f, N) == brute_force_acyclic_bounded(f, N)


def test_acyclic_spends_the_pullback_size():
    # C_4 + C_4 -> C_4: every fibre has two nodes or two arcs
    with pytest.raises(BudgetExceeded) as e:
        is_acyclic_bounded(cycle_fold(4), 6, Budget(31))
    assert str(e.value) == ("search budget of 31 exceeded in the acyclicity "
                            "pullback, which needs at least 32")
    budget = Budget(32)
    assert not is_acyclic_bounded(cycle_fold(4), 6, budget)
    assert budget.used == 32


def test_fibrant():
    assert is_fibrant(cycle_graph(4))
    assert is_fibrant(cross_graph())
    assert not is_fibrant(arrow_graph())
    assert is_fibrant(EMPTY)


def test_cofibrant():
    assert is_cofibrant(cycle_graph(3))
    assert not is_cofibrant(cross_graph())
    rnd = random.Random(29)
    w = attach_whiskers(cycle_graph(3), rnd, 1)
    assert is_cofibrant(w.target)


def brute_force_cofibrant(X: Graph) -> bool:
    """Disjoint union of whiskered cycles, checked structurally per
    component: one cycle, everything hanging off it by backward walks."""
    if len(X.arcs) != len(X.nodes):
        return False
    for comp in connected_components(X):
        sub_nodes = set(comp)
        sub_arcs = [a for a in X.arcs if a.src in sub_nodes and a.tgt in sub_nodes]
        # arcs with only one endpoint inside would contradict components
        if len(sub_arcs) != len(sub_nodes):
            return False
        incoming = {v: [a for a in sub_arcs if a.tgt == v] for v in sub_nodes}
        if any(len(arcs) != 1 for arcs in incoming.values()):
            return False
        # backward walk from each node must enter a cycle within the component
        for v in sub_nodes:
            seen = set()
            cur = v
            while cur not in seen:
                seen.add(cur)
                cur = incoming[cur][0].src
    return True


def test_fibrant_cofibrant_brute_force(small_corpus):
    for X in small_corpus:
        assert is_fibrant(X) == all(
            any(a.src == v for a in X.arcs) for v in X.nodes)
        assert is_cofibrant(X) == brute_force_cofibrant(X)


# ---------------------------------------------------------------------------
# Generators

def test_generator_set():
    gens = GeneratorSet(3)
    assert len(gens.J) == 1 and len(gens.K) == 6
    assert len(gens.I) == 7
    assert is_whiskering(gens.J[0])
    for n in range(1, 4):
        assert is_surjecting(cycle_fold(n))


def test_cycle_projection_as_pushout():
    for n, k in [(2, 2), (1, 3), (3, 2)]:
        Q, cocone = cycle_projection_via_pushout(n, k)
        assert is_isomorphic(Q, cycle_graph(n))[0]
        # composite C_nk -> Q acts like reduction mod n
        direct = cycle_projection(n, k)
        ok, iso = is_isomorphic(Q, cycle_graph(n))
        assert ok
        composed = iso.compose(cocone)
        # both morphisms C_nk -> C_n must be equal up to a rotation of C_n
        rotations = enumerate_morphisms(cycle_graph(n), cycle_graph(n))
        assert any(morphism_key(r.compose(direct)) == morphism_key(composed)
                   for r in rotations)


# ---------------------------------------------------------------------------
# Lifting

def test_lifting_problem_validates_square():
    s = source_inclusion()
    with pytest.raises(InvalidGraph):
        LiftingProblem(left=s, right=identity(cycle_graph(2)),
                       top=identity(dot_graph()), bottom=identity(arrow_graph()))


def test_find_lift_identity_left():
    X = figure_eight()
    f = identity(X)
    p = LiftingProblem(left=f, right=f, top=f, bottom=f)
    h = find_lift(p)
    assert h is not None
    assert morphism_key(h) == morphism_key(f)


def test_lift_of_source_inclusion_against_surjecting():
    # s: D -> A against the fold j_2, over every commuting square
    s = source_inclusion()
    r = cycle_fold(2)
    A = s.target
    for top in enumerate_morphisms(s.source, r.source):
        for bottom in enumerate_morphisms(A, r.target):
            if morphism_key(r.compose(top)) != \
               morphism_key(bottom.compose(s)):
                continue
            p = LiftingProblem(left=s, right=r, top=top, bottom=bottom)
            assert find_lift(p) is not None


def test_no_lift_case():
    # i_1: 0 -> C_1 against the fold C_2 -> C_1; no morphism C_1 -> C_2 exists
    l = initial_to_cycle(1)
    r = cycle_projection(1, 2)
    top = GraphMorphism(EMPTY, r.source, {}, {})
    bottom = identity(cycle_graph(1))
    p = LiftingProblem(left=l, right=r, top=top, bottom=bottom)
    assert find_lift(p) is None


def _whisker_surjecting_squares(rnd, how_many):
    """Commuting squares (whiskering left leg, surjecting right leg)."""
    squares = []
    while len(squares) < how_many:
        n = rnd.randint(1, 3)
        k = rnd.randint(1, 2)
        r = rnd.choice([cycle_fold(n), cycle_projection(n, k),
                        identity(cycle_graph(n))])
        X = rnd.choice([cycle_graph(n), cycle_graph(n * k), dot_graph(),
                        path_graph(rnd.randint(0, 2))])
        tops = enumerate_morphisms(X, r.source)
        if not tops:
            continue
        top = rnd.choice(tops)
        w = attach_whiskers(X, rnd, rnd.randint(0, 3))
        Y, B = w.target, r.target
        # extend r.top along the whiskers; targets here have no dead-ends
        node_map = {v: r.node_map[top.node_map[v]] for v in X.nodes}
        arc_map = {a: r.arc_map[top.arc_map[a]] for a in top.arc_map}
        ok = True
        for v in Y.nodes:
            if v in node_map:
                continue
            back = Y.in_arcs[v][0]
            base = node_map.get(back.src)
            if base is None:
                ok = False   # whisker chained onto an unresolved node
                break
            outs = B.out_arcs[base]
            if not outs:
                ok = False
                break
            pick = outs[0]
            arc_map[back.id] = pick.id
            node_map[v] = pick.tgt
        if not ok:
            continue
        bottom = GraphMorphism(Y, B, node_map, arc_map)
        squares.append(LiftingProblem(left=w, right=r, top=top, bottom=bottom))
    return squares


def test_whiskering_surjecting_squares_all_lift():
    rnd = random.Random(30)
    for p in _whisker_surjecting_squares(rnd, 120):
        h = find_lift(p)
        assert h is not None
        assert morphism_key(h.compose(p.left)) == morphism_key(p.top)
        assert morphism_key(p.right.compose(h)) == morphism_key(p.bottom)


def random_squares(rnd: random.Random, how_many: int):
    """Seeded commuting squares with every leg drawn from all morphisms: X
    (empty one time in five), Y, A and B random, then l, r and f, then g
    among the morphisms Y -> B with g.l == r.f."""
    squares = []
    while len(squares) < how_many:
        X = EMPTY if rnd.random() < 0.2 else random_graph(rnd, 2, 2)
        Y, A = random_graph(rnd, 3, 4), random_graph(rnd, 3, 4)
        B = random_graph(rnd, 2, 3)
        ls, rs, fs = (enumerate_morphisms(X, Y), enumerate_morphisms(A, B),
                      enumerate_morphisms(X, A))
        if not (ls and rs and fs):
            continue
        l, r, f = rnd.choice(ls), rnd.choice(rs), rnd.choice(fs)
        gs = [g for g in enumerate_morphisms(Y, B)
              if morphism_key(g.compose(l)) == morphism_key(r.compose(f))]
        if gs:
            squares.append(LiftingProblem(left=l, right=r, top=f,
                                          bottom=rnd.choice(gs)))
    return squares


def test_find_lift_matches_brute_force():
    found = 0
    for p in random_squares(random.Random(35), 800):
        l, r, f, g = p.left, p.right, p.top, p.bottom
        first = next(((nm, am) for nm, am in
                      brute_force_morphisms(l.target, r.source)
                      if all(nm[l.node_map[x]] == f.node_map[x] for x in f.node_map)
                      and all(am[l.arc_map[e]] == f.arc_map[e] for e in f.arc_map)
                      and all(r.node_map[nm[y]] == g.node_map[y] for y in nm)
                      and all(r.arc_map[am[b]] == g.arc_map[b] for b in am)),
                     None)
        h = find_lift(p)
        assert (None if h is None else (h.node_map, h.arc_map)) == first
        found += h is not None
    assert 200 < found < 600


def test_find_lift_deeper_than_recursion_limit():
    # i_n: 0 -> C_n against C_n -> C_1: the first lift is the identity
    n = sys.getrecursionlimit() + 500
    Cn = cycle_graph(n)
    to_loop = GraphMorphism(Cn, cycle_graph(1), dict.fromkeys(Cn.nodes, "0"),
                            {a.id: "0" for a in Cn.arcs})
    p = LiftingProblem(left=initial_to_cycle(n), right=to_loop,
                       top=GraphMorphism(EMPTY, Cn, {}, {}), bottom=to_loop)
    assert morphism_key(find_lift(p, Budget(n))) == morphism_key(identity(Cn))
    # isolated nodes over a dot: the first combination of images lifts
    Y = Graph(tuple(map(str, range(1500))), ())
    to_dot = GraphMorphism(Y, dot_graph(), dict.fromkeys(Y.nodes, "0"), {})
    p = LiftingProblem(left=GraphMorphism(EMPTY, Y, {}, {}),
                       right=identity(dot_graph()),
                       top=GraphMorphism(EMPTY, dot_graph(), {}, {}),
                       bottom=to_dot)
    budget = Budget(1)
    assert morphism_key(find_lift(p, budget)) == morphism_key(to_dot)
    assert budget.used == 1


def test_find_lift_budget_error_names_the_search():
    # i_4: 0 -> C_4 against C_4 -> C_1: one candidate arc per arc of C_4
    C4 = cycle_graph(4)
    to_loop = GraphMorphism(C4, cycle_graph(1), dict.fromkeys(C4.nodes, "0"),
                            {a.id: "0" for a in C4.arcs})
    p = LiftingProblem(left=initial_to_cycle(4), right=to_loop,
                       top=GraphMorphism(EMPTY, C4, {}, {}), bottom=to_loop)
    with pytest.raises(BudgetExceeded) as e:
        find_lift(p, Budget(3))
    assert str(e.value) == "search budget of 3 exceeded in find_lift, which needs at least 4"


# ---------------------------------------------------------------------------
# Factorization

def test_factorize_already_surjecting():
    f = identity(cycle_graph(3))
    w, p, complete = factorize_bounded(f, 3)
    assert complete
    assert morphism_key(w) == morphism_key(identity(cycle_graph(3)))
    assert morphism_key(p) == morphism_key(f)


def test_factorize_source_inclusion():
    w, p, complete = factorize_bounded(source_inclusion(), 3)
    assert complete
    assert is_whiskering(w) and is_surjecting(p)
    # one whisker fixed the single defect; the middle object is a copy of A
    assert is_isomorphic(w.target, arrow_graph())[0]


def test_factorize_dot_into_loop_never_completes():
    f = GraphMorphism(dot_graph(), cycle_graph(1), {"0": "0"}, {})
    for depth in (1, 2, 5):
        w, p, complete = factorize_bounded(f, depth)
        assert not complete
        assert is_whiskering(w)
        assert len(w.target.arcs) == depth   # one new arc per round
        assert morphism_key(p.compose(w)) == morphism_key(f)


def test_factorization_soundness_random():
    rnd = random.Random(31)
    done = 0
    while done < 20:
        X = random_graph(rnd, 3, 4)
        Y = random_graph(rnd, 3, 4)
        morphs = enumerate_morphisms(X, Y)
        if not morphs:
            continue
        f = rnd.choice(morphs)
        w, p, complete = factorize_bounded(f, 6)
        assert is_whiskering(w)
        assert morphism_key(p.compose(w)) == morphism_key(f)
        if complete:
            assert is_surjecting(p)
        done += 1


@pytest.mark.parametrize("f, nodes", [
    # nothing collides: the whiskers are w0, w1, ... as they always were
    (GraphMorphism(dot_graph(), cycle_graph(1), {"0": "0"}, {}),
     ("0", "w0", "w1")),
    # the source's node is w0, and the loop below needs a whisker per round
    (GraphMorphism(Graph(("w0",), ()), Graph(("y",), (Arc("b", "y", "y"),)),
                   {"w0": "y"}, {}),
     ("w0", "w1", "w2")),
    # the source's loop is wa0, and a second loop below needs a whisker
    (GraphMorphism(Graph(("x",), (Arc("wa0", "x", "x"),)),
                   Graph(("y",), (Arc("b0", "y", "y"), Arc("b1", "y", "y"))),
                   {"x": "y"}, {"wa0": "b0"}),
     ("x", "w1", "w2", "w3")),
])
def test_factorize_whisker_ids_avoid_the_source_ids(f, nodes):
    w, p, complete = factorize_bounded(f, 2)
    W = w.target
    assert not complete and W.nodes == nodes
    assert len({a.id for a in W.arcs}) == len(W.arcs)
    assert is_whiskering(w)
    assert morphism_key(p.compose(w)) == morphism_key(f)


def factorization_fields(w: GraphMorphism, p: GraphMorphism, complete: bool):
    return (w.target.nodes, w.target.arcs, w.node_map, w.arc_map,
            p.node_map, p.arc_map, complete)


def small_morphisms() -> list[GraphMorphism]:
    """Every morphism between graphs with <= 2 nodes and <= 3 arcs."""
    graphs = list(enumerate_small_graphs(2, 3))
    return [f for X in graphs for Y in graphs for f in enumerate_morphisms(X, Y)]


def forward_morphisms(rnd: random.Random, count: int) -> list[GraphMorphism]:
    """Seeded morphisms from small graphs into targets of 2-7 nodes whose
    arcs mostly run forward, so that many factorizations end."""
    found: list[GraphMorphism] = []
    while len(found) < count:
        k = rnd.randint(2, 7)
        arcs = []
        for i in range(rnd.randint(1, 2 * k)):
            u = rnd.randrange(k)
            v = rnd.randrange(u, k) if rnd.random() < 0.9 else rnd.randrange(k)
            arcs.append(Arc(f"b{i}", str(u), str(v)))
        Y = Graph(tuple(str(i) for i in range(k)), tuple(arcs))
        morphs = enumerate_morphisms(random_graph(rnd, 3, 3), Y)
        found += rnd.sample(morphs, min(3, len(morphs)))
    return found


def test_factorize_matches_round_by_round_oracle():
    morphisms = small_morphisms() + forward_morphisms(random.Random(53), 600)
    assert len(morphisms) >= 6384 + 600
    for f in morphisms:
        for depth in range(5):
            assert factorization_fields(*factorize_bounded(f, depth)) == \
                factorization_fields(*brute_force_factorize(f, depth)), (f, depth)


def test_factorize_whisker_count_is_a_path_count():
    """After d rounds there is one whisker per path of length < d in Y from
    the target of each first-round defect, the empty path included."""
    def paths(Y: Graph, v: str, d: int) -> int:
        if d == 0:
            return 0
        return 1 + sum(paths(Y, b.tgt, d - 1) for b in Y.out_arcs[v])

    for f in small_morphisms() + forward_morphisms(random.Random(59), 300):
        X, Y = f.source, f.target
        first = [b for x in X.nodes for b in Y.out_arcs[f.node_map[x]]
                 if b.id not in {f.arc_map[a.id] for a in X.out_arcs[x]}]
        for depth in range(5):
            w, p, complete = factorize_bounded(f, depth)
            assert len(w.target.nodes) - len(X.nodes) == \
                sum(paths(Y, b.tgt, depth) for b in first)


def test_factorize_is_linear_in_depth():
    # each whisker looks up the out-arcs of its image once; rescanning W
    # every round would look up about depth^2 / 2 of them
    depth = 2000
    Y = cycle_graph(1)
    vars(Y)["out_arcs"] = lookups = CountingDict(Y.out_arcs)
    f = GraphMorphism(dot_graph(), Y, {"0": "0"}, {})
    w, p, complete = factorize_bounded(f, depth)
    assert not complete and len(w.target.nodes) == depth + 1
    assert lookups.lookups <= 2 * (depth + len(f.source.nodes))


@pytest.mark.trusted_construction
def test_library_constructions_are_not_validated_again(monkeypatch):
    """Only what a user builds is validated: the searches and constructions
    below run no Graph or GraphMorphism validation beyond their inputs'."""
    C2, C6, X = cycle_graph(2), cycle_graph(6), undirected_cycle(3)
    # unmarked tests validate here; see conftest.revalidate_trusted
    GraphMorphism._trusted(C2, C2, {"0": "0", "1": "1"}, {"0": "1", "1": "0"})
    to_loop = GraphMorphism(C6, cycle_graph(1), dict.fromkeys(C6.nodes, "0"),
                            dict.fromkeys(C6.arc_by_id, "0"))
    square = LiftingProblem(left=initial_to_cycle(6), right=to_loop,
                            top=GraphMorphism(EMPTY, C6, {}, {}),
                            bottom=to_loop)
    s, Y, E = source_inclusion(), relabel(X, random.Random(5)), figure_eight()
    graphs = count_calls(monkeypatch, Graph, "__post_init__")
    morphisms = count_calls(monkeypatch, GraphMorphism, "__post_init__")
    homs = enumerate_morphisms(C6, X)
    results = [pullback(homs[0], homs[-1]), product(C6, X),
               pushout(homs[0], homs[1]), find_lift(square),
               factorize_bounded(s, 3), cofibrant_replacement(E, 4),
               is_isomorphic(X, Y)]
    assert (graphs, morphisms) == ([], [])
    # tr(A^6) = 2^6 + 2 closed walks: the eigenvalues of A are 2, -1, -1
    assert len(homs) == 66 and results[3] is not None and results[-1][0]


# ---------------------------------------------------------------------------
# Cycle resolution

def test_cofibrant_replacement_of_cycle_is_itself():
    for n in (1, 2, 4):
        res = cofibrant_replacement(cycle_graph(n), n + 2)
        assert is_isomorphic(res.graph, cycle_graph(n))[0]
        assert res.witt_summary[n] == 1


def test_cofibrant_replacement_of_acyclic_is_empty():
    res = cofibrant_replacement(arrow_graph(), 3)
    assert res.graph == EMPTY
    res = cofibrant_replacement(path_graph(4), 4)
    assert res.graph == EMPTY


def test_cofibrant_replacement_figure_eight():
    res = cofibrant_replacement(figure_eight(), 2)
    assert res.witt_summary == {1: 2, 2: 1}
    assert len(connected_components(res.graph)) == 3


def test_replacement_counit_properties():
    rnd = random.Random(33)
    done = 0
    while done < 12:
        X = random_graph(rnd, 3, 4)
        N = 4
        res = cofibrant_replacement(X, N)
        assert is_cofibrant(res.graph)
        assert is_acyclic_bounded(res.counit, N)
        S = from_graph(X)
        for n in range(1, N + 1):
            assert res.witt_summary[n] == S.witt(n)
        done += 1


def test_aperiodic_necklaces_match_brute_force(small_corpus):
    for X in small_corpus:
        for n in range(1, 6):
            assert aperiodic_necklaces(X, n) == brute_force_necklaces(X, n)


def test_aperiodic_necklaces_order_arcs_by_id_string():
    # ids "0".."10": "10" < "9" as strings but not as numbers
    rnd = random.Random(34)
    for _ in range(8):
        k = rnd.randint(1, 3)
        ends = [(str(rnd.randrange(k)), str(rnd.randrange(k))) for _ in range(9)]
        ends += [ends[0], (ends[1][0], ends[1][0])]    # a parallel arc, a loop
        ids = [str(i) for i in range(len(ends))]
        rnd.shuffle(ids)
        X = Graph(tuple(str(v) for v in range(k)),
                  tuple(Arc(i, s, t) for i, (s, t) in zip(ids, ends)))
        for n in range(1, 5):
            assert aperiodic_necklaces(X, n) == brute_force_necklaces(X, n)


def test_aperiodic_necklaces_budget_and_length():
    with pytest.raises(BudgetExceeded) as e:
        aperiodic_necklaces(cross_graph(), 6, Budget(10))
    assert str(e.value) == ("search budget of 10 exceeded in aperiodic_necklaces, "
                            "which needs at least 11")
    with pytest.raises(InvalidInput):
        aperiodic_necklaces(figure_eight(), 0)


def test_aperiodic_necklace_representatives_are_least_rotations():
    X = figure_eight()
    reps = aperiodic_necklaces(X, 2)
    assert reps == [("a", "b")]


def test_aperiodic_necklaces_budget_pinned():
    # one step per first arc and per arc tried below depth n
    for X, n, used in ((cross_graph(), 6, 105), (figure_eight(), 10, 590),
                       (undirected_cycle(3), 8, 350)):
        budget = Budget()
        aperiodic_necklaces(X, n, budget)
        assert budget.used == used


def per_length_resolution(X: Graph, N: int):
    """The cycle resolution assembled from one necklace search per length:
    (summary, nodes, arcs, node map, arc map)."""
    nodes, arcs, nm, am, summary = [], [], {}, {}, {}
    for n in range(1, N + 1):
        reps = aperiodic_necklaces(X, n)
        summary[n] = len(reps)
        for k, walk in enumerate(reps):
            for i in range(n):
                v = f"n{n}c{k}:{i}"
                nodes.append(v)
                arcs.append(Arc(v, f"n{n}c{k}:{(i + 1) % n}", v))
                am[v] = walk[i]
                nm[v] = X.arc_by_id[walk[i]].tgt
    return summary, tuple(nodes), tuple(arcs), nm, am


def test_one_pass_resolution_matches_per_length_searches(small_corpus):
    for X in small_corpus:
        for N in range(1, 6):
            res = cofibrant_replacement(X, N)
            assert (res.witt_summary, res.graph.nodes, res.graph.arcs,
                    res.counit.node_map, res.counit.arc_map) == \
                per_length_resolution(X, N)


def test_cofibrant_replacement_of_loop_is_linear():
    # the size 1, the first arc, then one arc tried per level below N
    budget = Budget(10**5)
    res = cofibrant_replacement(cycle_graph(1), 20000, budget)
    assert res.graph.nodes == ("n1c0:0",) and res.counit.arc_map == {"n1c0:0": "0"}
    assert res.witt_summary == {1: 1, **{n: 0 for n in range(2, 20001)}}
    assert budget.used == 20001


def test_cofibrant_replacement_spends_its_size_first():
    # sum n*s_n = 632 nodes for the cross to order 8, then one search to
    # depth 8, which spends what the length-8 necklaces alone spend
    budget, search = Budget(), Budget()
    cofibrant_replacement(cross_graph(), 8, budget)
    aperiodic_necklaces(cross_graph(), 8, search)
    assert budget.used == 632 + search.used == 934
    # about 2.9 * 10^12 nodes to order 40: refused before any necklace is built
    budget = Budget(10**7)
    with pytest.raises(BudgetExceeded):
        cofibrant_replacement(cross_graph(), 40, budget)
    S = from_graph(cross_graph())
    assert budget.used == sum(n * S.witt(n) for n in range(1, 41)) > 10**12


def test_cofibrant_replacement_budget_errors_name_the_phase():
    # the size, 632 nodes to order 8, is spent first; then the necklace search
    with pytest.raises(BudgetExceeded) as e:
        cofibrant_replacement(cross_graph(), 8, Budget(100))
    assert str(e.value) == ("search budget of 100 exceeded in cofibrant_replacement, "
                            "which needs at least 632")
    with pytest.raises(BudgetExceeded) as e:
        cofibrant_replacement(cross_graph(), 8, Budget(700))
    assert str(e.value) == ("search budget of 700 exceeded in aperiodic_necklaces, "
                            "which needs at least 701")
