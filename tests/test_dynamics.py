import itertools
import random

import pytest

from gphom.dynamics import (FinNSet, FinZSet, NSetMap, cayley_graph,
                            cayley_morphism, classify_nset_map, cyclic_zset,
                            graph_to_nset, is_nset_acyclic, is_nset_surjecting,
                            is_nset_whiskering, nset_fibrancy, nset_from_json,
                            nset_to_json, periodic_part, zset_is_acyclic)
from gphom.errors import InvalidInput, NotAnNGraph
from gphom.graphs import arrow_graph, cycle_graph, is_isomorphic
from gphom.model import is_acyclic_bounded, is_surjecting, is_whiskering

from conftest import (CountingDict, brute_force_nset_whiskering,
                      brute_force_periodic, brute_force_whiskering)


def random_nset(rnd: random.Random, max_size: int) -> FinNSet:
    k = rnd.randint(1, max_size)
    elems = tuple(f"x{i}" for i in range(k))
    return FinNSet(elems, {e: rnd.choice(elems) for e in elems})


def enumerate_nset_maps(S: FinNSet, T: FinNSet):
    """All equivariant maps S -> T, by backtracking."""
    elems = list(S.elements)
    out = []

    def extend(i, mapping):
        if i == len(elems):
            out.append(NSetMap(S, T, dict(mapping)))
            return
        x = elems[i]
        for y in T.elements:
            mapping[x] = y
            ok = True
            for a, b in mapping.items():
                sa = S.sigma[a]
                if sa in mapping and mapping[sa] != T.sigma[b]:
                    ok = False
                    break
            if ok:
                extend(i + 1, mapping)
            del mapping[x]

    extend(0, {})
    return out


TAPROOT = FinNSet(("x0", "x1", "x2"),
                  {"x0": "x1", "x1": "x2", "x2": "x2"})


def test_cayley_graph_examples():
    S = FinNSet(("x",), {"x": "x"})
    assert is_isomorphic(cayley_graph(S), cycle_graph(1))[0]
    assert is_isomorphic(cayley_graph(cyclic_zset(3)), cycle_graph(3))[0]
    rnd = random.Random(19)
    for _ in range(10):
        S = random_nset(rnd, 6)
        X = cayley_graph(S)
        assert len(X.nodes) == len(X.arcs) == len(S.elements)
        for v in X.nodes:
            assert X.indegree(v) == 1


def test_cayley_loops_are_fixed_points():
    rnd = random.Random(20)
    for _ in range(10):
        S = random_nset(rnd, 8)
        X = cayley_graph(S)
        loops = sum(1 for a in X.arcs if a.src == a.tgt)
        fixed = sum(1 for x in S.elements if S.sigma[x] == x)
        assert loops == fixed


def test_graph_to_nset_round_trip():
    rnd = random.Random(21)
    for _ in range(15):
        S = random_nset(rnd, 8)
        back = graph_to_nset(cayley_graph(S))
        assert set(back.elements) == set(S.elements)
        assert back.sigma == S.sigma


def test_graph_to_nset_c3():
    S = graph_to_nset(cycle_graph(3))
    assert isinstance(S, FinZSet)
    assert S.sigma == {"0": "1", "1": "2", "2": "0"}


def test_graph_to_nset_rejects_arrow():
    with pytest.raises(NotAnNGraph):
        graph_to_nset(arrow_graph())


def test_periodic_part():
    ident = FinNSet(("a", "b"), {"a": "a", "b": "b"})
    assert set(periodic_part(ident).elements) == {"a", "b"}
    per = periodic_part(TAPROOT)
    assert per.elements == ("x2",)
    rnd = random.Random(22)
    for _ in range(20):
        S = random_nset(rnd, 10)
        brute = {x for x in S.elements
                 if any(S.apply(x, n) == x for n in range(1, len(S.elements) + 1))}
        assert set(periodic_part(S).elements) == brute


def test_periodic_part_idempotent():
    rnd = random.Random(23)
    for _ in range(10):
        S = random_nset(rnd, 8)
        P = periodic_part(S)
        assert periodic_part(P).sigma == P.sigma


def test_classify_identity():
    S = cyclic_zset(4)
    f = NSetMap(S, S, {x: x for x in S.elements})
    assert classify_nset_map(f) == {
        "acyclic_bounded": True, "surjecting": True, "whiskering": True}


def test_classify_taproot_inclusion():
    point = FinNSet(("x2",), {"x2": "x2"})
    f = NSetMap(point, TAPROOT, {"x2": "x2"})
    flags = classify_nset_map(f)
    assert flags["whiskering"] and flags["acyclic_bounded"]
    assert not flags["surjecting"]


def test_classify_successor_on_z4():
    S = cyclic_zset(4)
    f = NSetMap(S, S, {x: S.sigma[x] for x in S.elements})
    assert classify_nset_map(f) == {
        "acyclic_bounded": True, "surjecting": True, "whiskering": True}


def test_zset_acyclic_iff_bijective():
    Z6 = cyclic_zset(6)
    ident = NSetMap(Z6, Z6, {x: x for x in Z6.elements})
    assert zset_is_acyclic(ident)
    Z4, Z2 = cyclic_zset(4), cyclic_zset(2)
    fold = NSetMap(Z4, Z2, {str(i): str(i % 2) for i in range(4)})
    assert not zset_is_acyclic(fold)
    assert is_nset_surjecting(fold)   # every Z-set map is Surjecting


def test_every_zset_map_surjecting():
    rnd = random.Random(24)
    for n, m in [(4, 2), (6, 3), (6, 2), (2, 1), (3, 3)]:
        maps = enumerate_nset_maps(cyclic_zset(n), cyclic_zset(m))
        for f in maps:
            assert is_nset_surjecting(f)
            assert zset_is_acyclic(f) == f.is_bijective()
            assert is_nset_acyclic(f) == f.is_bijective()


def test_nset_fibrancy():
    assert nset_fibrancy(cyclic_zset(5)) == {"fibrant": True, "cofibrant": True}
    assert nset_fibrancy(TAPROOT) == {"fibrant": False, "cofibrant": True}
    rnd = random.Random(25)
    for _ in range(10):
        assert nset_fibrancy(random_nset(rnd, 6))["cofibrant"]


def test_classifiers_agree_with_graph_level():
    rnd = random.Random(26)
    checked = 0
    while checked < 40:
        S = random_nset(rnd, 4)
        T = random_nset(rnd, 4)
        maps = enumerate_nset_maps(S, T)
        for f in maps[:4]:
            g = cayley_morphism(f)
            bound = max(len(S.elements), len(T.elements))
            assert is_nset_surjecting(f) == is_surjecting(g)
            assert is_nset_whiskering(f) == is_whiskering(g)
            assert is_nset_acyclic(f) == is_acyclic_bounded(g, bound)
            checked += 1


def test_nset_json():
    S = cyclic_zset(3)
    data = nset_to_json(S)
    back = nset_from_json(data, require_zset=True)
    assert back.sigma == S.sigma
    with pytest.raises(InvalidInput):
        nset_from_json({"elements": ["a"], "sigma": {"a": "a"}, "x": 1})
    with pytest.raises(InvalidInput):
        nset_from_json(nset_to_json(TAPROOT), require_zset=True)


def all_nsets(max_size: int):
    """Every N-set on x0..x{k-1} for k <= max_size."""
    for k in range(max_size + 1):
        elems = tuple(f"x{i}" for i in range(k))
        for images in itertools.product(elems, repeat=k):
            yield FinNSet(elems, dict(zip(elems, images)))


def brute_force_nset_acyclic(f: NSetMap) -> bool:
    """f is a bijection between the walk oracle's periodic parts."""
    P, Q = brute_force_periodic(f.source), brute_force_periodic(f.target)
    return zset_is_acyclic(NSetMap(
        FinZSet(P, {x: f.source.sigma[x] for x in P}),
        FinZSet(Q, {y: f.target.sigma[y] for y in Q}),
        {x: f(x) for x in P}))


def test_periodic_points_match_walk_oracles_exhaustively():
    # every N-set map with <= 3 source and <= 4 target elements: 22,358
    # from a nonempty source, and one from the empty N-set into each target
    targets = list(all_nsets(4))
    for T in targets:
        assert periodic_part(T).elements == brute_force_periodic(T)
    checked = 0
    for S in all_nsets(3):
        for T in targets:
            for f in enumerate_nset_maps(S, T):
                assert is_nset_acyclic(f) == brute_force_nset_acyclic(f)
                assert is_nset_whiskering(f) == brute_force_nset_whiskering(f)
                g = cayley_morphism(f)
                assert is_whiskering(g) == brute_force_whiskering(g)
                checked += 1
    assert checked == 22358 + len(targets)


def test_periodic_points_match_walk_oracles_seeded():
    # larger N-sets, elements listed in a shuffled order, and the Cayley
    # morphisms of maps into them
    rnd = random.Random(27)
    for _ in range(300):
        T = random_nset(rnd, 12)
        elems = list(T.elements)
        rnd.shuffle(elems)
        T = FinNSet(tuple(elems), T.sigma)
        assert periodic_part(T).elements == brute_force_periodic(T)
        # the sub-N-set generated by a few elements, included
        gen = set(rnd.sample(elems, min(len(elems), rnd.randint(1, 3))))
        for y in list(gen):
            while T.sigma[y] not in gen:
                y = T.sigma[y]
                gen.add(y)
        sub = tuple(x for x in elems if x in gen)
        f = NSetMap(FinNSet(sub, {x: T.sigma[x] for x in sub}), T,
                    {x: x for x in sub})
        assert is_nset_whiskering(f) == brute_force_nset_whiskering(f)
        assert is_nset_acyclic(f) == brute_force_nset_acyclic(f)
        g = cayley_morphism(f)
        assert is_whiskering(g) == brute_force_whiskering(g) \
            == is_nset_whiskering(f)


def test_periodic_points_take_linear_work():
    # a tail x0 -> x1 -> ... -> x{n-1} -> x{n-1}, with its fixed point
    # included; a walk of n steps from every element costs about n^2 / 2
    # lookups, one walk in all about n
    n = 2000
    elems = tuple(f"x{i}" for i in range(n))
    sigma = CountingDict({x: elems[min(i + 1, n - 1)]
                          for i, x in enumerate(elems)})
    tail = FinNSet(elems, sigma)
    point = FinNSet(("r",), {"r": "r"})
    f = NSetMap(point, tail, {"r": elems[-1]})
    sigma.lookups = 0
    assert periodic_part(tail).elements == (elems[-1],)
    assert sigma.lookups <= 2 * n
    for decide in (is_nset_acyclic, is_nset_whiskering):
        sigma.lookups = 0
        assert decide(f)
        assert sigma.lookups <= 2 * n, decide.__name__
    g = cayley_morphism(f)
    in_arcs = CountingDict(g.target.in_arcs)
    vars(g.target)["in_arcs"] = in_arcs
    assert is_whiskering(g)
    assert in_arcs.lookups <= 2 * n
