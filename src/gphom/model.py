"""Morphism classifiers, generating sets, lifting, factorization, and the
cycle resolution.

The three morphism classes: Surjecting (fibrations), Whiskering (acyclic
cofibrations, i.e. tree attachments), and Acyclic (weak equivalences,
decided exactly up to a bound on cycle length by counting closed walks in
the pullback X x_Y X).  A lifting problem is solved as a search for
morphisms over the base of its right leg, the search that also serves
graphs.enumerate_morphisms.  The cycle resolution of a finite graph is a
disjoint union of cycles, one per aperiodic necklace of closed walks, with
a counit morphism back to the graph.  The necklaces are generated directly
as the closed walks that are Lyndon words over the arcs ordered by id.
"""

from __future__ import annotations

from collections import Counter

from .errors import InternalInconsistency, InvalidGraph, InvalidInput
from .graphs import (Arc, Budget, Graph, GraphMorphism, _Value, _morphisms_over,
                     _periodic, _set, arrow_graph, coproduct_with_injections,
                     cycle_graph, dot_graph, pullback, pushout, EMPTY)
from .spectral import closed_walk_counts
from .witt import from_graph


def morphism_key(f: GraphMorphism) -> tuple:
    """Hashable identity of a morphism with fixed source and target."""
    return (tuple(f.node_map[v] for v in f.source.nodes),
            tuple(f.arc_map[a.id] for a in f.source.arcs))


# ---------------------------------------------------------------------------
# Classifiers

def _defects(X: Graph, Y: Graph, node_map: dict[str, str],
             arc_map: dict[str, str]):
    """(x, b) for each arc b leaving node_map[x] that no arc leaving x maps
    to, in node order: where X -> Y fails to surject on out-arcs."""
    for x in X.nodes:
        hit = {arc_map[a.id] for a in X.out_arcs[x]}
        for b in Y.out_arcs[node_map[x]]:
            if b.id not in hit:
                yield x, b


def is_surjecting(f: GraphMorphism) -> bool:
    """Out-arc sets surject: every arc leaving f(x) is hit from x."""
    defects = _defects(f.source, f.target, f.node_map, f.arc_map)
    return next(defects, None) is None


def is_whiskering(f: GraphMorphism) -> bool:
    """Target is the source with out-directed rooted trees attached."""
    node_image = set(f.node_map.values())
    arc_image = set(f.arc_map.values())
    if len(node_image) != len(f.node_map) or len(arc_image) != len(f.arc_map):
        return False
    Y = f.target
    for b in Y.arcs:
        if b.tgt in node_image and b.id not in arc_image:
            return False
    # walks back along the one arc into each outside node must not cycle
    back = {}
    for v in Y.nodes:
        if v not in node_image:
            entering = Y.in_arcs[v]
            if len(entering) != 1:
                return False
            back[v] = entering[0].src
    return not _periodic(back)


def is_acyclic_bounded(f: GraphMorphism, N: int,
                       budget: Budget | None = None) -> bool:
    """Bijective on cycle-morphism sets C_n(-) for all n <= N, exactly.

    Graphs are presheaves, so Hom(C_n, X x_Y X) is the fibre product of
    Hom(C_n, X) with itself over Hom(C_n, Y) and counts pairs of closed
    walks with equal image.  Its size c_n(X x_Y X) equals c_n(X) exactly
    when f is injective on C_n, and then c_n(X) == c_n(Y) exactly when f
    is also surjective.  The pullback's size is spent on `budget` before
    it is built.
    """
    if N < 1:
        raise InvalidInput("acyclicity bound must be >= 1")
    budget = budget or Budget()
    budget.search = "the acyclicity pullback"
    pairs = sum(k * k for k in Counter(f.node_map.values()).values())
    budget.spend(pairs + sum(k * k for k in Counter(f.arc_map.values()).values()))
    # the pullback has `pairs` nodes, at least X's; a census past a graph's
    # node count follows from the census up to it by Newton's identities
    N = min(N, max(pairs, len(f.target.nodes)))
    cx = closed_walk_counts(f.source, N)
    if cx != closed_walk_counts(f.target, N):
        return False
    return closed_walk_counts(pullback(f, f)[0], N) == cx


def is_fibrant(X: Graph) -> bool:
    """No dead-ends: every node has at least one arc leaving."""
    return all(X.outdegree(v) >= 1 for v in X.nodes)


def is_cofibrant(X: Graph) -> bool:
    """Disjoint union of whiskered cycles.

    For a finite graph this is exactly: every node has indegree 1 (the
    backward walk along unique incoming arcs must eventually cycle).
    """
    return all(X.indegree(v) == 1 for v in X.nodes)


# ---------------------------------------------------------------------------
# Generating sets

def source_inclusion() -> GraphMorphism:
    """s: D -> A, the dot as the source of the arrow."""
    return GraphMorphism(dot_graph(), arrow_graph(), {"0": "0"}, {})


def initial_to_cycle(n: int) -> GraphMorphism:
    """i_n: 0 -> C_n."""
    return GraphMorphism(EMPTY, cycle_graph(n), {}, {})


def cycle_fold(n: int) -> GraphMorphism:
    """j_n: C_n + C_n -> C_n, the codiagonal."""
    Cn = cycle_graph(n)
    G, inl, inr = coproduct_with_injections(Cn, Cn)
    nm = {}
    am = {}
    for v in Cn.nodes:
        nm[inl.node_map[v]] = v
        nm[inr.node_map[v]] = v
    for a in Cn.arcs:
        am[inl.arc_map[a.id]] = a.id
        am[inr.arc_map[a.id]] = a.id
    return GraphMorphism(G, Cn, nm, am)


def cycle_projection(n: int, k: int) -> GraphMorphism:
    """pi_{n,k}: C_{nk} -> C_n, reduction of node and arc labels mod n."""
    Cnk, Cn = cycle_graph(n * k), cycle_graph(n)
    nm = {str(i): str(i % n) for i in range(n * k)}
    return GraphMorphism(Cnk, Cn, nm, dict(nm))


def cycle_projection_via_pushout(n: int, k: int):
    """Exhibit pi_{n,k} as a pushout of the fold j_{nk}.

    Uses the shift-by-n self-map of C_{nk} + C_{nk} on the first summand and
    the identity on the second; returns (pushout graph, cocone from C_{nk}).
    """
    nk = n * k
    Cnk = cycle_graph(nk)
    G, inl, inr = coproduct_with_injections(Cnk, Cnk)
    nm = {}
    am = {}
    for i in range(nk):
        shifted = str((i + n) % nk)
        nm[inl.node_map[str(i)]] = shifted
        am[inl.arc_map[str(i)]] = shifted
        nm[inr.node_map[str(i)]] = str(i)
        am[inr.arc_map[str(i)]] = str(i)
    f = GraphMorphism(G, Cnk, nm, am)
    Q, from_f, from_fold = pushout(f, cycle_fold(nk))
    return Q, from_f


class GeneratorSet(_Value):
    """J = {s}, K = {i_n, j_n : 1 <= n <= bound}, I = J + K."""

    def __init__(self, bound: int):
        _set(self, "bound", bound)

    @property
    def J(self) -> list[GraphMorphism]:
        return [source_inclusion()]

    @property
    def K(self) -> list[GraphMorphism]:
        out = []
        for n in range(1, self.bound + 1):
            out.append(initial_to_cycle(n))
            out.append(cycle_fold(n))
        return out

    @property
    def I(self) -> list[GraphMorphism]:
        return self.J + self.K


# ---------------------------------------------------------------------------
# Lifting

class LiftingProblem(_Value):
    """A commuting square: left l: X->Y, right r: A->B, top f: X->A,
    bottom g: Y->B, with r.f == g.l."""

    def __init__(self, left: GraphMorphism, right: GraphMorphism,
                 top: GraphMorphism, bottom: GraphMorphism):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "top", top)
        _set(self, "bottom", bottom)
        self.__post_init__()

    def __post_init__(self):
        l, r, f, g = self.left, self.right, self.top, self.bottom
        if f.source != l.source or f.target != r.source \
           or g.source != l.target or g.target != r.target:
            raise InvalidGraph("lifting square endpoints do not match")
        if morphism_key(r.compose(f)) != morphism_key(g.compose(l)):
            raise InvalidGraph("lifting square does not commute")

    def __repr__(self):
        return f"LiftingProblem({self.left!r} vs {self.right!r})"


def find_lift(p: LiftingProblem,
              budget: Budget | None = None) -> GraphMorphism | None:
    """A diagonal h: Y -> A with h.l == f and r.h == g, or None.

    h is fixed by f on the image of l; the rest of Y is searched as a
    morphism over B, with r and g as labels, by the search that also serves
    enumerate_morphisms.  The first lift in its order is returned.
    """
    l, r, f, g = p.left, p.right, p.top, p.bottom
    node_map: dict[str, str] = {}
    arc_map: dict[str, str] = {}
    for x in l.source.nodes:
        y, a = l.node_map[x], f.node_map[x]
        if node_map.setdefault(y, a) != a:
            return None
    for e in l.source.arcs:
        y, a = l.arc_map[e.id], f.arc_map[e.id]
        if arc_map.setdefault(y, a) != a:
            return None
    budget = budget or Budget()
    budget.search = "find_lift"
    # the square commutes and f is a morphism, so this part already has
    # r.h == g and pins the endpoints of its arcs as f does
    return next(_morphisms_over(l.target, r.source, (g.node_map, g.arc_map),
                                (r.node_map, r.arc_map), node_map, arc_map,
                                budget), None)


# ---------------------------------------------------------------------------
# Bounded small-object factorization

def factorize_bounded(f: GraphMorphism, depth: int):
    """Factor f = p . w with w a Whiskering, by attaching one whisker arc
    per lifting defect per round, breadth-first.

    A whisker has no out-arcs, so its defects are the arcs leaving its
    image, and mended nodes stay mended: after round 1, only the whiskers
    of the last round have defects.  Returns (w, p, complete); complete is
    True iff p came out Surjecting within `depth` rounds.  Whisker k is the
    node w{k} and the arc wa{k}, skipping any k whose ids X already uses.
    """
    X, Y = f.source, f.target
    nodes = list(X.nodes)
    arcs = list(X.arcs)
    p_nodes = dict(f.node_map)
    p_arcs = dict(f.arc_map)
    fresh = 0

    defects = _defects(X, Y, p_nodes, p_arcs)
    for _ in range(depth):
        newest = len(nodes)
        for x, b in defects:
            while f"w{fresh}" in X.node_index or f"wa{fresh}" in X.arc_by_id:
                fresh += 1
            node_id = f"w{fresh}"
            arc_id = f"wa{fresh}"
            fresh += 1
            nodes.append(node_id)
            arcs.append(Arc(arc_id, x, node_id))
            p_nodes[node_id] = b.tgt
            p_arcs[arc_id] = b.id
        if len(nodes) == newest:   # no defect: p surjects
            break
        defects = ((v, b) for v in nodes[newest:]
                   for b in Y.out_arcs[p_nodes[v]])

    W = Graph._trusted(tuple(nodes), tuple(arcs))
    w = GraphMorphism._trusted(X, W, {v: v for v in X.nodes},
                               {a.id: a.id for a in X.arcs})
    p = GraphMorphism._trusted(W, Y, p_nodes, p_arcs)
    # the next round's defects decide completeness
    return w, p, next(defects, None) is None


# ---------------------------------------------------------------------------
# Cycle resolution (cofibrant replacement, truncated)

def _lyndon_walks(X: Graph, N: int, budget: Budget):
    """Every closed walk of length at most N that is a Lyndon word over the
    arcs ordered by id string, in sorted order; a walk (a_0..a_{t-1}) has
    src(a_i) = tgt(a_{i+1 mod t}).  Depth first with an explicit stack:
    every prefix of a Lyndon word is a prenecklace, and a prenecklace w[:t]
    of period p extends by an arc b iff b >= w[t - p], keeping period p
    when equal and taking period t + 1 when greater
    (Fredricksen-Kessler-Maiorana).  A prefix of length t is Lyndon iff its
    period is t.  The tree is the same for every length, so one walk to
    depth N finds them all.  One budget step is spent per arc tried.
    """
    def descending(arcs):
        # pushed largest first, so the stack pops walks in ascending order
        return sorted(arcs, key=lambda a: a.id, reverse=True)

    budget.search = "aperiodic_necklaces"
    follow = {v: descending(arcs) for v, arcs in X.in_arcs.items()}
    stack = [(0, 1, a) for a in descending(X.arcs)]    # (index, period, arc)
    budget.spend(len(stack))
    walk: list[Arc] = []
    while stack:
        t, p, a = stack.pop()
        del walk[t:]
        walk.append(a)
        if p == t + 1 and a.src == walk[0].tgt:
            yield tuple(b.id for b in walk)
        if t + 1 < N:
            least = walk[t + 1 - p].id
            for b in follow[a.src]:
                budget.spend()
                if b.id < least:
                    break
                stack.append((t + 1, p if b.id == least else t + 2, b))


def aperiodic_necklaces(X: Graph, n: int,
                        budget: Budget | None = None) -> list[tuple[str, ...]]:
    """One representative per rotation class of aperiodic closed walks of
    length n, in sorted order: the walk's least rotation, its Lyndon word."""
    if n < 1:
        raise InvalidInput("walk length must be >= 1")
    return [w for w in _lyndon_walks(X, n, budget or Budget()) if len(w) == n]


class CycleResolution(_Value):
    _hashed = ("graph", "counit")

    def __init__(self, graph: Graph, counit: GraphMorphism,
                 witt_summary: dict[int, int]):
        _set(self, "graph", graph)
        _set(self, "counit", counit)   # combined morphism onto X
        _set(self, "witt_summary", witt_summary)

    def __repr__(self):
        return f"CycleResolution({self.graph!r})"


def cofibrant_replacement(X: Graph, N: int,
                          budget: Budget | None = None) -> CycleResolution:
    """Disjoint union of s_n copies of C_n for n <= N, with counit into X.

    Each copy is carried by a distinct aperiodic necklace, and the counit
    sends it around that necklace's Lyndon walk.  The size, sum n*s_n nodes
    by the Witt coordinates of X, is spent on `budget` before the search,
    and the per-n counts are cross-checked against them.
    """
    if N < 1:
        raise InvalidInput("resolution bound must be >= 1")
    budget = budget or Budget()
    budget.search = "cofibrant_replacement"
    summary = dict(enumerate(from_graph(X).witt_row(N), start=1))
    budget.spend(sum(n * s for n, s in summary.items()))
    reps: dict[int, list[tuple[str, ...]]] = {n: [] for n in summary}
    for walk in _lyndon_walks(X, N, budget):
        reps[len(walk)].append(walk)
    nodes: list[str] = []
    arcs: list[Arc] = []
    node_map: dict[str, str] = {}
    arc_map: dict[str, str] = {}
    for n, s in summary.items():
        if len(reps[n]) != s:
            raise InternalInconsistency(
                f"necklace count {len(reps[n])} != witt coordinate {s} at n={n}")
        for k, walk in enumerate(reps[n]):
            prefix = f"n{n}c{k}:"
            for i in range(n):
                nodes.append(f"{prefix}{i}")
                arcs.append(Arc(f"{prefix}{i}", f"{prefix}{(i + 1) % n}", f"{prefix}{i}"))
                arc_map[f"{prefix}{i}"] = walk[i]
                node_map[f"{prefix}{i}"] = X.arc_by_id[walk[i]].tgt

    C = Graph._trusted(tuple(nodes), tuple(arcs))
    counit = GraphMorphism._trusted(C, X, node_map, arc_map)
    return CycleResolution(C, counit, summary)
