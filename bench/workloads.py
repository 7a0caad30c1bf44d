"""The benchmark's workloads: seeded passes of operations on gphom.

An operation builds its gphom inputs from plain specs and makes one call
into gphom; that is its timed region.  `digest` turns the output into plain
data right after the call, and `check` verifies the digest later, outside
any timed region, through `oracles` and never through gphom.

Why these workloads:
  invariants  random graphs up to 40 nodes; Berkowitz, census, zeta and Witt
              asymptotics carry almost all the time (`spectral`, `witt`).
  explore     about 90 tiny graphs per call; graph construction, per-graph
              signatures and many shallow isomorphism rejections.
  search      exhaustive searches under an explicit Budget (`model`,
              `graphs.enumerate_morphisms`, deep `is_isomorphic` backtracks,
              `dynamics`); each result is small, the search is the cost.
  cli         whole `python -m gphom.cli` processes; start-up, import and
              argument parsing dominate.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from typing import Any, Callable

import oracles
import specs as sp
from specs import SArc, Spec

# Explicit allowance for every exhaustive search the benchmark starts.
LIMIT = 10**7
# Distinct seeded passes per workload.  Later passes repeat them with fresh
# gphom objects, and their outputs must equal the verified first run.  Pools
# stay small so that each input runs many times in one run (see
# run.end_to_end), yet large enough for ten samples beyond latency_tail_ms.
POOL = {"invariants": 2, "explore": 4, "search": 4, "cli": 4}


@dataclass
class Op:
    kind: str                    # the gphom call it times, `<module>.<function>`
    size: int                    # input size; warm-up uses the smallest per kind
    run: Callable[[Any], Any]    # run(tracer) -> output; the timed region
    digest: Callable[[Any], Any]
    check: Callable[[Any], bool]
    notes: Callable[[Any], dict] | None = None   # span attributes when traced


def graph(gp, X: Spec):
    return gp.Graph(X.nodes, tuple(gp.Arc(*a) for a in X.arcs))


def plain(G) -> Spec:
    return Spec(tuple(G.nodes), tuple(SArc(a.id, a.src, a.tgt) for a in G.arcs))


def maps(f) -> tuple[dict, dict]:
    return dict(f.node_map), dict(f.arc_map)


def morphism(gp, src: Spec, tgt: Spec, m: tuple[dict, dict], built=None):
    """A GraphMorphism from specs; `built` shares graphs between morphisms."""
    built = built if built is not None else {}
    for X in (src, tgt):
        if X not in built:
            built[X] = graph(gp, X)
    return gp.GraphMorphism(built[src], built[tgt], dict(m[0]), dict(m[1]))


class Memo:
    """Oracle results keyed by graph structure, shared by one workload."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, what: str, X: Spec):
        idx = {v: i for i, v in enumerate(X.nodes)}
        key = (what, len(X.nodes), tuple(sorted((idx[a.src], idx[a.tgt]) for a in X.arcs)))
        if key not in self._cache:
            fn = oracles.signature if what == "sig" else oracles.graph_canonical_form
            self._cache[key] = fn(X)
        return self._cache[key]


# ---------------------------------------------------------------------------
# invariants

# No operation here runs much past 60 ms: the machine's speed wanders for
# seconds at a time, and only short operations, repeated often, find its
# steady fast state (see run.end_to_end).  Larger sizes (char_poly at k = 80,
# zeta, witt and homotopy_equivalent at k = 20) are the traced size points.
SMALL_K = (6, 8, 10)
LARGE_K = (12, 16, 24, 32, 40)


def char_poly_op(gp, X: Spec) -> Op:
    k = len(X.nodes)

    def run(tr):
        G = tr.call("graphs.construct", graph, gp, X)
        return tr.call("spectral.char_poly",
                       lambda: gp.char_poly(gp.adjacency_matrix(G)))

    def check(d):
        return (len(d) == k + 1 and d[-1] == 1 and
                oracles.power_sums_from_charpoly(d, k) == oracles.graph_traces(X, k))

    return Op("spectral.char_poly", k, run, lambda P: tuple(P.coefficients), check)


def zeta_op(gp, X: Spec, N: int) -> Op:
    k = len(X.nodes)

    def run(tr):
        G = tr.call("graphs.construct", graph, gp, X)
        return tr.call("spectral.zeta_series", gp.zeta_series, G, N)

    def digest(Z):
        return tuple(Z.denominator.coefficients), Z.truncation_order, tuple(Z.coefficients)

    def check(d):
        den = oracles.reversed_charpoly_from_traces(oracles.graph_traces(X, k), k)
        return d == (den, N, tuple(oracles.zeta_from_denominator(den, N)))

    return Op("spectral.zeta_series", k, run, digest, check)


def witt_op(gp, X: Spec, N: int) -> Op:
    def run(tr):
        G = tr.call("graphs.construct", graph, gp, X)
        return tr.call("witt.witt_row", gp.from_graph(G).witt_row, N)

    def check(d):
        return (len(d) == N and min(d) >= 0 and
                oracles.ghost_from_witt(list(d)) == oracles.graph_traces(X, N))

    return Op("witt.witt_row", len(X.nodes), run, tuple, check)


def homotopy_eq_op(gp, X: Spec, Y: Spec, expected: bool | None) -> Op:
    """`expected` is the verdict known by construction; None means the
    oracle decides it from walk counts."""
    def run(tr):
        G, H = tr.call("graphs.construct", lambda: (graph(gp, X), graph(gp, Y)))
        return tr.call("homotopy.homotopy_equivalent", gp.homotopy_equivalent, G, H)

    def check(d):
        want = expected
        if want is None:
            want = oracles.signature(X) == oracles.signature(Y)
        return d is want

    return Op("homotopy.homotopy_equivalent", len(X.nodes), run, bool, check)


def invariants_pass(gp, rng) -> list[Op]:
    ops = []
    for k in SMALL_K:
        X = sp.random_graph(rng, k, 3 * k)
        ops.append(char_poly_op(gp, X))
        ops.append(zeta_op(gp, sp.random_graph(rng, k, 3 * k), 2 * k))
        ops.append(witt_op(gp, sp.random_graph(rng, k, 3 * k), 2 * k))
        ops.append(homotopy_eq_op(gp, X, sp.relabel(X, rng, "w"), True))
        ops.append(homotopy_eq_op(gp, X, sp.whisker(X, rng, 2), True))
        ops.append(homotopy_eq_op(gp, X, sp.random_graph(rng, k, 3 * k), None))
    for k in LARGE_K:
        ops.append(char_poly_op(gp, sp.random_graph(rng, k, 3 * k)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# explore

EXPLORE_OPS = 16


def corpus(rng) -> list[tuple[str, Spec]]:
    """Random tiny multigraphs, relabelled copies of some of them, and known
    equivalent but non-isomorphic graphs (cross/uc4, whiskered cycles,
    paths)."""
    items = [(f"r{i}", sp.random_graph(rng, rng.randint(2, 4), rng.randint(2, 5), f"r{i}."))
             for i in range(60)]
    for j in range(20):
        items.append((f"c{j}", sp.relabel(rng.choice(items[:60])[1], rng, f"c{j}.")))
    items += [("cross", sp.cross()), ("uc4", sp.ucycle(4))]
    for n in (1, 2, 3):
        items += [(f"cycle:{n}", sp.cycle(n)),
                  (f"whiskered-cycle:{n}", sp.whisker(sp.cycle(n), rng, 2))]
    items += [(f"path:{n}", sp.path(n)) for n in range(4)]
    rng.shuffle(items)
    return items


def explore_op(gp, items: list[tuple[str, Spec]], memo: Memo,
               node_budget: int = 5, arc_budget: int = 8) -> Op:
    by_name = dict(items)

    def run(tr):
        graphs = tr.call("graphs.construct",
                         lambda: [(name, graph(gp, X)) for name, X in items])
        return tr.call("homotopy.explore", gp.explore, node_budget, arc_budget,
                       graphs, budget=gp.Budget(LIMIT))

    def digest(buckets):
        return tuple((tuple(b.signature.reversed_char_poly.coefficients),
                      tuple(sorted(name for name, _ in b.members)),
                      tuple(sorted(tuple(sorted(p)) for p in b.nonisomorphic_pairs)))
                     for b in buckets)

    def notes(buckets):
        return {"graphs": len(items), "buckets": len(buckets),
                "iso_calls": sum(comb(len(b.members), 2) for b in buckets),
                "flagged": sum(len(b.nonisomorphic_pairs) for b in buckets)}

    def check(d):
        names = [n for _, members, _ in d for n in members]
        if sorted(names) != sorted(by_name) or len({s for s, _, _ in d}) != len(d):
            return False
        for sig, members, pairs in d:
            if any(memo.get("sig", by_name[n]) != sig for n in members):
                return False
            canon = {n: memo.get("canon", by_name[n]) for n in members}
            want = {(a, b) for a, b in itertools.combinations(members, 2)
                    if canon[a] != canon[b]}
            if len(pairs) != len(want) or set(pairs) != want:
                return False
        return True

    return Op("homotopy.explore", len(items), run, digest, check, notes)


def explore_pass(gp, rng, memo) -> list[Op]:
    return [explore_op(gp, corpus(rng), memo) for _ in range(EXPLORE_OPS)]


def exhaustive_corpus(nodes: int, arcs: int) -> list[tuple[str, Spec]]:
    """Every multigraph within the limits, enumerated here, not by gphom."""
    out = []
    for k in range(nodes + 1):
        ids = tuple(str(i) for i in range(k))
        pairs = [(u, v) for u in ids for v in ids]
        for m in range(arcs + 1):
            if m and not pairs:
                continue
            for combo in itertools.combinations_with_replacement(pairs, m):
                out.append((f"g{len(out)}",
                            Spec(ids, tuple(SArc(f"a{i}", u, v)
                                            for i, (u, v) in enumerate(combo)))))
    return out


# ---------------------------------------------------------------------------
# Size points: the baseline rows listed in ROADMAP.md that run in seconds, each
# one operation on its own seeded graph; traced runs report them.

SIZE_POINTS = ("spectral.char_poly.k40_s", "spectral.char_poly.k80_s",
               "spectral.zeta_series.k20_s", "witt.witt_row.k20_s",
               "homotopy.homotopy_equivalent.k20_s", "homotopy.explore.n3a5_s")


def size_points(gp, seed: int) -> list[Op]:
    """One operation per name in SIZE_POINTS, in that order."""
    rng = random.Random(f"points:{seed}")
    X = sp.random_graph(rng, 20, 60)
    return [char_poly_op(gp, sp.random_graph(rng, 40, 120)),
            char_poly_op(gp, sp.random_graph(rng, 80, 240)),
            zeta_op(gp, sp.random_graph(rng, 20, 60), 40),
            witt_op(gp, sp.random_graph(rng, 20, 60), 40),
            homotopy_eq_op(gp, X, sp.relabel(X, rng, "w"), True),
            explore_op(gp, exhaustive_corpus(3, 5), Memo(), 3, 5)]


# ---------------------------------------------------------------------------
# search

def acyclic_op(gp, src: Spec, tgt: Spec, m, N: int, expected: bool) -> Op:
    def run(tr):
        f = tr.call("graphs.construct", morphism, gp, src, tgt, m)
        return tr.call("model.is_acyclic_bounded", gp.is_acyclic_bounded, f, N,
                       budget=gp.Budget(LIMIT))

    return Op("model.is_acyclic_bounded", len(tgt.nodes), run, bool,
              lambda d: d is expected)


def fold_maps(n: int) -> tuple[dict, dict]:
    nm = {f"{c}:{i}": str(i) for c in (0, 1) for i in range(n)}
    return nm, dict(nm)


def projection_maps(n: int, k: int) -> tuple[dict, dict]:
    nm = {str(i): str(i % n) for i in range(n * k)}
    return nm, dict(nm)


def cofibrant_op(gp, X: Spec, N: int) -> Op:
    def run(tr):
        G = tr.call("graphs.construct", graph, gp, X)
        return tr.call("model.cofibrant_replacement", gp.cofibrant_replacement, G, N,
                       budget=gp.Budget(LIMIT))

    def digest(res):
        return tuple(sorted(res.witt_summary.items())), plain(res.graph), maps(res.counit)

    def check(d):
        summary, C, (nm, am) = d
        witt = oracles.witt_from_ghost(oracles.graph_traces(X, N))
        if summary != tuple((n, witt[n - 1]) for n in range(1, N + 1)):
            return False
        if not oracles.is_morphism(C, X, nm, am):
            return False
        out_arc = {a.src: a for a in C.arcs}
        if len(out_arc) != len(C.arcs) or len({a.tgt for a in C.arcs}) != len(C.arcs) \
           or len(C.arcs) != len(C.nodes):
            return False             # every node has in- and outdegree 1
        necklaces, seen = {}, set()
        for v in C.nodes:
            if v in seen:
                continue
            walk = []
            while v not in seen:
                seen.add(v)
                a = out_arc[v]
                walk.append(am[a.id])
                v = a.tgt
            rots = {tuple(walk[r:] + walk[:r]) for r in range(len(walk))}
            if len(rots) != len(walk) or min(rots) in necklaces:
                return False         # periodic walk, or a necklace twice
            necklaces[min(rots)] = len(walk)
        return all(sum(1 for n in necklaces.values() if n == L) == s for L, s in summary)

    return Op("model.cofibrant_replacement", len(X.nodes), run, digest, check)


def lift_op(gp, X, Y, A, B, left, right, top, bottom, expected: bool) -> Op:
    def run(tr):
        def build():
            built = {}
            return gp.LiftingProblem(morphism(gp, X, Y, left, built),
                                     morphism(gp, A, B, right, built),
                                     morphism(gp, X, A, top, built),
                                     morphism(gp, Y, B, bottom, built))
        p = tr.call("graphs.construct", build)
        return tr.call("model.find_lift", gp.find_lift, p, budget=gp.Budget(LIMIT))

    def check(d):
        if d is None:
            return not expected and oracles.find_lift(Y, A, left, right, top, bottom) is None
        return (expected and oracles.is_morphism(Y, A, *d)
                and oracles.compose(d, left) == top and oracles.compose(right, d) == bottom)

    return Op("model.find_lift", len(Y.arcs), run,
              lambda h: None if h is None else maps(h), check,
              lambda h: {"found": h is not None})


def lift_ops(gp, rng) -> list[Op]:
    """Generator-versus-surjecting squares with verdicts known by
    construction; the right leg is a cycle projection or a fold."""
    ops = []
    empty = Spec((), ())
    for _ in range(4):                         # i_m: 0 -> C_m against pi_{n,k}
        n, k, j = rng.choice((2, 3)), rng.choice((2, 3)), rng.choice((1, 2))
        m = n * j
        ops.append(lift_op(gp, empty, sp.cycle(m), sp.cycle(n * k), sp.cycle(n),
                           ({}, {}), projection_maps(n, k), ({}, {}),
                           sp.cycle_shift(m, n, rng.randrange(n)), j % k == 0))
    dot, arrow = sp.path(0), sp.path(1)
    for _ in range(3):                         # s: D -> A against pi or a fold
        n = rng.choice((2, 3, 4))
        if rng.random() < 0.5:
            k = rng.choice((2, 3))
            A, right = sp.cycle(n * k), projection_maps(n, k)
        else:
            A, right = sp.coproduct(sp.cycle(n), sp.cycle(n)), fold_maps(n)
        a = rng.choice(A.nodes)
        r_a = right[0][a]
        b = str((int(r_a) - 1) % n)           # the one arc leaving r(a) in C_n
        ops.append(lift_op(gp, dot, arrow, A, sp.cycle(n), ({"0": "0"}, {}), right,
                           ({"0": a}, {}), ({"0": r_a, "1": b}, {"0": b}), True))
    for _ in range(3):                         # j_m: C_m + C_m -> C_m against pi
        n, k = 2, rng.choice((2, 3))
        m = n * k
        s, t0, t1 = rng.randrange(n), rng.randrange(k), rng.randrange(k)
        top = {f"{c}:{i}": str((i + s + n * t) % m) for c, t in ((0, t0), (1, t1))
               for i in range(m)}
        ops.append(lift_op(gp, sp.coproduct(sp.cycle(m), sp.cycle(m)), sp.cycle(m),
                           sp.cycle(m), sp.cycle(n), fold_maps(m), projection_maps(n, k),
                           (top, dict(top)), sp.cycle_shift(m, n, s), t0 == t1))
    return ops


def factorize_op(gp, X: Spec, Y: Spec, m, depth: int) -> Op:
    def run(tr):
        f = tr.call("graphs.construct", morphism, gp, X, Y, m)
        return tr.call("model.factorize_bounded", gp.factorize_bounded, f, depth)

    def digest(out):
        w, p, complete = out
        return plain(w.target), maps(w), maps(p), complete

    def check(d):
        W, w, p, complete = d
        return (oracles.is_morphism(X, W, *w) and oracles.is_morphism(W, Y, *p)
                and oracles.compose(p, w) == m and oracles.is_whiskering(X, W, *w)
                and complete is oracles.is_surjecting(W, Y, *p))

    return Op("model.factorize_bounded", len(X.arcs), run, digest, check,
              lambda out: {"complete": out[2]})


def factorize_spec(rng):
    """A random morphism X -> Y: Y holds one image arc per arc of X, under a
    node map that is a bijection half the time, plus up to two extra arcs
    (a bijection with no extra arcs is already Surjecting)."""
    X = sp.random_graph(rng, 3, 4)
    ynodes = ("y0", "y1", "y2")
    if rng.random() < 0.5:
        h = dict(zip(X.nodes, rng.sample(ynodes, 3)))
    else:
        h = {v: rng.choice(ynodes) for v in X.nodes}
    arcs = [SArc(f"y{a.id}", h[a.src], h[a.tgt]) for a in X.arcs]
    arcs += [SArc(f"z{i}", rng.choice(ynodes), rng.choice(ynodes))
             for i in range(rng.randint(0, 2))]
    return X, Spec(ynodes, tuple(arcs)), (h, {a.id: f"y{a.id}" for a in X.arcs})


def enumerate_op(gp, n: int, X: Spec) -> Op:
    C = sp.cycle(n)

    def run(tr):
        Cn, G = tr.call("graphs.construct", lambda: (graph(gp, C), graph(gp, X)))
        return tr.call("graphs.enumerate_morphisms", gp.enumerate_morphisms, Cn, G,
                       budget=gp.Budget(LIMIT))

    def check(d):
        return (len(set(d)) == len(d) == oracles.graph_traces(X, n)[n - 1]
                and all(oracles.is_morphism(C, X, dict(nm), dict(am)) for nm, am in d))

    return Op("graphs.enumerate_morphisms", n, run,
              lambda ms: tuple(sorted((tuple(sorted(f.node_map.items())),
                                       tuple(sorted(f.arc_map.items()))) for f in ms)),
              check, lambda ms: {"morphisms": len(ms)})


def iso_op(gp, X: Spec, Y: Spec, expected: bool) -> Op:
    def run(tr):
        G, H = tr.call("graphs.construct", lambda: (graph(gp, X), graph(gp, Y)))
        return tr.call("graphs.is_isomorphic", gp.is_isomorphic, G, H,
                       budget=gp.Budget(LIMIT))

    def digest(out):
        iso, w = out
        return iso, None if w is None else maps(w)

    def check(d):
        iso, w = d
        if iso is not expected:
            return False
        if not iso:
            return w is None
        return (len(set(w[0].values())) == len(Y.nodes)
                and len(set(w[1].values())) == len(Y.arcs)
                and oracles.is_morphism(X, Y, *w))

    return Op("graphs.is_isomorphic", len(X.nodes), run, digest, check,
              lambda out: {"iso": out[0]})


def product_op(gp, X: Spec, Y: Spec) -> Op:
    def run(tr):
        G, H = tr.call("graphs.construct", lambda: (graph(gp, X), graph(gp, Y)))
        return tr.call("graphs.product", gp.product, G, H)

    def check(P):
        cx, cy = oracles.graph_traces(X, 4), oracles.graph_traces(Y, 4)
        return (len(P.nodes) == len(set(P.nodes)) == len(X.nodes) * len(Y.nodes)
                and len(P.arcs) == len({a.id for a in P.arcs}) == len(X.arcs) * len(Y.arcs)
                and oracles.graph_traces(P, 4) == [a * b for a, b in zip(cx, cy)])

    return Op("graphs.product", len(X.nodes) * len(Y.nodes), run, plain, check)


def pushout_op(gp, m: int, n: int) -> Op:
    """Two cycles glued at one node: a pushout of D -> C_m and D -> C_n."""
    dot, Cm, Cn = sp.path(0), sp.cycle(m), sp.cycle(n)
    leg = ({"0": "0"}, {})

    def run(tr):
        def build():
            built = {}
            return morphism(gp, dot, Cm, leg, built), morphism(gp, dot, Cn, leg, built)
        f, g = tr.call("graphs.construct", build)
        return tr.call("graphs.pushout", gp.pushout, f, g)

    def check(d):
        Q, i1, i2 = d
        return (len(Q.nodes) == m + n - 1 and len(Q.arcs) == m + n
                and oracles.is_morphism(Cm, Q, *i1) and oracles.is_morphism(Cn, Q, *i2)
                and len(set(i1[1].values()) | set(i2[1].values())) == m + n
                and oracles.compose(i1, leg) == oracles.compose(i2, leg))

    return Op("graphs.pushout", m + n, run,
              lambda out: (plain(out[0]), maps(out[1]), maps(out[2])), check)


def random_sigma(rng, n: int, bijective: bool) -> dict:
    elems = [f"x{i}" for i in range(n)]
    if bijective:
        images = elems[:]
        rng.shuffle(images)
        return dict(zip(elems, images))
    return {x: rng.choice(elems) for x in elems}


def classify_op(gp, sigma: dict, power: int) -> Op:
    """sigma^power is an N-set map from (S, sigma) to itself."""
    f = {}
    for x in sigma:
        y = x
        for _ in range(power):
            y = sigma[y]
        f[x] = y

    def run(tr):
        F = tr.call("graphs.construct", lambda: gp.NSetMap(*(2 * [gp.FinNSet(
            tuple(sigma), dict(sigma))]), dict(f)))
        return tr.call("dynamics.classify_nset_map", gp.classify_nset_map, F)

    return Op("dynamics.classify_nset_map", len(sigma), run, dict,
              lambda d: d == oracles.classify_nset_map(sigma, sigma, f))


def cayley_op(gp, sigma: dict) -> Op:
    def run(tr):
        S = tr.call("graphs.construct", gp.FinNSet, tuple(sigma), dict(sigma))
        return tr.call("dynamics.cayley_graph", gp.cayley_graph, S)

    return Op("dynamics.cayley_graph", len(sigma), run, plain,
              lambda G: G.nodes == tuple(sigma) and sorted(G.arcs) ==
              sorted(SArc(x, y, x) for x, y in sigma.items()))


def graph_to_nset_op(gp, sigma: dict) -> Op:
    X = Spec(tuple(sigma), tuple(SArc(x, y, x) for x, y in sigma.items()))
    bijective = len(set(sigma.values())) == len(sigma)

    def run(tr):
        G = tr.call("graphs.construct", graph, gp, X)
        return tr.call("dynamics.graph_to_nset", gp.graph_to_nset, G)

    return Op("dynamics.graph_to_nset", len(sigma), run,
              lambda S: (S.elements, dict(S.sigma), isinstance(S, gp.FinZSet)),
              lambda d: d == (tuple(sigma), sigma, bijective))


# (cycle a, cycle b, acyclicity bound N)
WEDGES = ((1, 2, 9), (1, 3, 10), (3, 4, 11), (1, 4, 11))


def search_pass(gp, rng) -> list[Op]:
    ops = []
    # Acyclic by construction: identities and whiskerings of a whiskered
    # wedge of two cycles, whose closed-walk counts (so search cost) are fixed.
    for a, b, N in WEDGES:
        X = sp.whisker(sp.relabel(sp.wedge(a, b), rng, "q"), rng, 1)
        ops.append(acyclic_op(gp, X, X, sp.identity_maps(X), N, True))
        ops.append(acyclic_op(gp, X, sp.whisker(X, rng, 2, "s"), sp.identity_maps(X), N, True))
    for n in (2, 3):
        Cn = sp.cycle(n)
        ops.append(acyclic_op(gp, sp.coproduct(Cn, Cn), Cn, fold_maps(n), n + 2, False))
        k = rng.choice((2, 3))
        ops.append(acyclic_op(gp, sp.cycle(n * k), Cn, projection_maps(n, k), n + 2, False))
    ops += [cofibrant_op(gp, sp.random_graph(rng, 4, 7), 5) for _ in range(3)]
    ops += lift_ops(gp, rng)
    ops += [factorize_op(gp, *factorize_spec(rng), 3) for _ in range(5)]
    ops += [enumerate_op(gp, n, sp.random_graph(rng, 3, 6)) for n in (3, 4, 5, 6)]
    # Deep backtracks: a shuffled ucycle:k is never two ucycle:k/2.  The cost
    # of one case varies with the shuffle (at k = 10 from 5 ms to 30 ms, at
    # k = 12 from 2 ms to 160 ms), so k stays small and the slowest inputs,
    # which set latency_tail_ms, are the fixed-cost acyclicity checks.
    for k in (8, 8, 8, 10):
        U = sp.relabel(sp.ucycle(k), rng, "u")
        half = sp.ucycle(k // 2)
        ops.append(iso_op(gp, U, sp.coproduct(half, half), False))
        ops.append(iso_op(gp, U, sp.ucycle(k), True))
    for _ in range(2):
        X = sp.random_graph(rng, 5, 8)
        ops.append(iso_op(gp, X, sp.relabel(X, rng, "w"), True))
    ops += [product_op(gp, sp.random_graph(rng, 3, 4), sp.random_graph(rng, 3, 4))
            for _ in range(2)]
    ops += [pushout_op(gp, rng.randint(2, 5), rng.randint(2, 5)) for _ in range(2)]
    for bijective in (False, True):
        sigma = random_sigma(rng, rng.randint(6, 10), bijective)
        ops.append(classify_op(gp, sigma, rng.randint(1, 3)))
        ops.append(cayley_op(gp, sigma))
        ops.append(graph_to_nset_op(gp, sigma))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli

def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "gphom.cli", *args, "--json"]


class CliRunner:
    """Starts `python -m gphom.cli` with this checkout's `src` on the path."""

    def __init__(self, root, workdir):
        self.root = str(root)
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def write(self, name: str, data) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def __call__(self, argv):
        return subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60)


def cli_op(runner: CliRunner, sub: str, args: list[str], expected: dict,
           code: int) -> Op:
    """One process; its parsed --json output must contain `expected` (the
    in-process library result) and it must exit with `code`."""
    argv = cli_argv(sub, *args)

    def run(tr):
        return tr.call(f"cli.{sub}", runner, argv)

    def digest(proc):
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            out = None
        return proc.returncode, out

    def check(d):
        rc, out = d
        return rc == code and isinstance(out, dict) and \
            all(out.get(key) == value for key, value in expected.items())

    return Op(f"cli.{sub}", 0, run, digest, check)


def cli_pass(gp, rng, runner: CliRunner, tag: str) -> list[Op]:
    """Every subcommand once, on seeded inputs written to files; expected
    outputs come from in-process library calls."""
    def gfile(name, X):
        return runner.write(f"{tag}-{name}.json", sp.to_json(X))

    X = sp.random_graph(rng, 5, 10)
    G = graph(gp, X)
    gx = gfile("g", X)
    A = gp.adjacency_matrix(G)
    N = 8
    ops = [cli_op(runner, "charpoly", [gx],
                  {"charpoly": list(gp.char_poly(A).coefficients),
                   "reversed": list(gp.reversed_char_poly(A).coefficients)}, 0)]
    Z = gp.zeta_series(G, N)
    ops.append(cli_op(runner, "zeta", [gx, "--upto", str(N)],
                      {"coefficients": list(Z.coefficients),
                       "denominator": list(Z.denominator.coefficients)}, 0))
    ops.append(cli_op(runner, "census", [gx, "--upto", str(N)],
                      {"counts": [gp.cycle_count(G, n) for n in range(1, N + 1)]}, 0))
    S = gp.from_graph(G)
    ops.append(cli_op(runner, "witt", [gx, "--upto", str(N)],
                      {"ghost": S.ghost_row(N), "witt": S.witt_row(N)}, 0))

    Y = sp.relabel(X, rng, "w") if rng.random() < 0.5 else sp.random_graph(rng, 5, 10)
    eq = gp.homotopy_equivalent(G, graph(gp, Y))
    ops.append(cli_op(runner, "homotopy-eq", [gx, gfile("h", Y)],
                      {"equivalent": eq}, 0 if eq else 1))

    R = sp.random_graph(rng, 3, 5)
    res = gp.cofibrant_replacement(graph(gp, R), 3, gp.Budget(LIMIT))
    ops.append(cli_op(runner, "cofibrant-replace",
                      [gfile("r", R), "--upto", "3", "--budget", str(LIMIT)],
                      {"necklaces": {str(n): s for n, s in sorted(res.witt_summary.items())}},
                      0))

    M = sp.random_graph(rng, 3, 4)
    W = sp.whisker(M, rng, 2) if rng.random() < 0.5 else M
    f = morphism(gp, M, W, sp.identity_maps(M))
    flags = {"surjecting": gp.is_surjecting(f), "whiskering": gp.is_whiskering(f),
             "acyclic_up_to_4": gp.is_acyclic_bounded(f, 4, gp.Budget(LIMIT))}
    ops.append(cli_op(runner, "classify",
                      [runner.write(f"{tag}-f.json", sp.morphism_json(M, W, sp.identity_maps(M))),
                       "--upto", "4", "--budget", str(LIMIT)], {"flags": flags}, 0))

    n, k, j = 2, rng.choice((2, 3)), rng.choice((1, 2, 3))
    m = n * j
    square = [(Spec((), ()), sp.cycle(m), ({}, {})),
              (sp.cycle(n * k), sp.cycle(n), projection_maps(n, k)),
              (Spec((), ()), sp.cycle(n * k), ({}, {})),
              (sp.cycle(m), sp.cycle(n), sp.cycle_shift(m, n, rng.randrange(n)))]
    built = {}
    h = gp.find_lift(gp.LiftingProblem(*(morphism(gp, s, t, mm, built)
                                         for s, t, mm in square)), gp.Budget(LIMIT))
    files = [runner.write(f"{tag}-lift{i}.json", sp.morphism_json(*sq))
             for i, sq in enumerate(square)]
    ops.append(cli_op(runner, "lift", files + ["--budget", str(LIMIT)],
                      {"lift": None if h is None else gp.morphism_to_json(h)},
                      1 if h is None else 0))

    nodes, arcs = rng.choice(((2, 2), (2, 3), (3, 2)))
    graphs = [(f"g{i}", g) for i, g in
              enumerate(gp.homotopy.enumerate_small_graphs(nodes, arcs))]
    buckets = [{"signature": list(b.signature.reversed_char_poly.coefficients),
                "members": [{"name": name, "graph": gp.graph_to_json(g)}
                            for name, g in b.members],
                "nonisomorphic_pairs": [list(p) for p in b.nonisomorphic_pairs]}
               for b in gp.explore(nodes, arcs, graphs, gp.Budget(LIMIT))]
    ops.append(cli_op(runner, "explore",
                      ["--exhaustive", "--nodes", str(nodes), "--arcs", str(arcs),
                       "--budget", str(LIMIT)], {"buckets": buckets}, 0))

    sigma = random_sigma(rng, rng.randint(5, 9), False)
    T = gp.FinNSet(tuple(sigma), dict(sigma))
    fib = gp.nset_fibrancy(T)
    ops.append(cli_op(runner, "nset",
                      [runner.write(f"{tag}-nset.json",
                                    {"elements": sorted(sigma), "sigma": sigma})],
                      {"elements": len(sigma), "fibrant": fib["fibrant"],
                       "cofibrant": fib["cofibrant"],
                       "periodic_part": gp.dynamics.nset_to_json(gp.periodic_part(T))}, 0))
    rng.shuffle(ops)
    return ops
