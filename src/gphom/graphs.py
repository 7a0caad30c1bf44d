"""Finite directed multigraphs, their morphisms, and categorical constructions.

A graph is (nodes, arcs) with each arc carrying a source and target node.
Loops and parallel arcs are allowed.  Everything here is immutable and
exact; all searches are guarded by an explicit node budget so they fail
loudly instead of hanging.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii as _json_string
from operator import attrgetter

from .errors import BudgetExceeded, InvalidGraph, InvalidInput

DEFAULT_BUDGET = 10**7

_set = object.__setattr__   # how each __init__ sets a field past _Value.__setattr__


class _Value:
    """Base of the immutable value classes.  A subclass's fields are the
    parameters of its __init__, which sets each with _set; _hashed names the
    hashed ones when some field is a dict.  Plain classes, as importing
    dataclasses costs every CLI process milliseconds (it imports inspect)."""

    _hashed: tuple[str, ...] = ()

    def __init_subclass__(cls):
        init = cls.__init__.__code__
        cls._fields = init.co_varnames[1:init.co_argcount]
        cls._key = attrgetter(*cls._fields)
        cls._hash_key = attrgetter(*(cls._hashed or cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._hash_key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _cached:
    """functools.cached_property without its lock; it defines no __set__,
    so the value stored on the instance is found before it."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.func(obj)
        _set(obj, self.name, value)
        return value


class Arc(_Value):
    def __init__(self, id: str, src: str, tgt: str):
        _set(self, "id", id)
        _set(self, "src", src)
        _set(self, "tgt", tgt)


def _unvalidated(cls, **fields):
    """cls(**fields) skipping __init__ and so its __post_init__ checks;
    filling __dict__ beats _set per field."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class Graph(_Value):
    def __init__(self, nodes: tuple[str, ...], arcs: tuple[Arc, ...]):
        _set(self, "nodes", nodes)
        _set(self, "arcs", arcs)
        self.__post_init__()

    @classmethod
    def _trusted(cls, nodes: tuple[str, ...], arcs: tuple[Arc, ...]) -> "Graph":
        """Graph(nodes, arcs) unvalidated.  The caller must guarantee distinct
        node ids, distinct arc ids, and both endpoints of every arc in nodes."""
        return _unvalidated(cls, nodes=nodes, arcs=arcs)

    def __post_init__(self):
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise InvalidGraph("duplicate node ids")
        arc_ids = [a.id for a in self.arcs]
        if len(set(arc_ids)) != len(arc_ids):
            raise InvalidGraph("duplicate arc ids")
        for a in self.arcs:
            if a.src not in node_set or a.tgt not in node_set:
                raise InvalidGraph(f"arc {a.id!r} has dangling endpoint")

    @_cached
    def node_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.nodes)}

    @_cached
    def arc_by_id(self) -> dict[str, Arc]:
        return {a.id: a for a in self.arcs}

    @_cached
    def out_arcs(self) -> dict[str, tuple[Arc, ...]]:
        out: dict[str, list[Arc]] = {v: [] for v in self.nodes}
        for a in self.arcs:
            out[a.src].append(a)
        return {v: tuple(arcs) for v, arcs in out.items()}

    @_cached
    def in_arcs(self) -> dict[str, tuple[Arc, ...]]:
        inc: dict[str, list[Arc]] = {v: [] for v in self.nodes}
        for a in self.arcs:
            inc[a.tgt].append(a)
        return {v: tuple(arcs) for v, arcs in inc.items()}

    @_cached
    def cyclic_blocks(self) -> list[list[list[int]]]:
        """_cyclic_blocks of the arcs; read by the spectral routes."""
        idx = self.node_index
        succ: list[list[int]] = [[] for _ in self.nodes]
        for a in self.arcs:
            succ[idx[a.src]].append(idx[a.tgt])
        return _cyclic_blocks(succ)

    def outdegree(self, v: str) -> int:
        return len(self.out_arcs[v])

    def indegree(self, v: str) -> int:
        return len(self.in_arcs[v])

    def __repr__(self):
        return f"Graph({len(self.nodes)} nodes, {len(self.arcs)} arcs)"


class GraphMorphism(_Value):
    _hashed = ("source", "target")

    def __init__(self, source: Graph, target: Graph, node_map: dict[str, str],
                 arc_map: dict[str, str]):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "node_map", node_map)
        _set(self, "arc_map", arc_map)
        self.__post_init__()

    @classmethod
    def _trusted(cls, source: Graph, target: Graph, node_map: dict[str, str],
                 arc_map: dict[str, str]) -> "GraphMorphism":
        """GraphMorphism(...) unvalidated.  The caller must guarantee that both
        maps are total on the source, land in the target, and send every arc
        to one from the image of its source to the image of its target."""
        return _unvalidated(cls, source=source, target=target,
                            node_map=node_map, arc_map=arc_map)

    def __post_init__(self):
        if set(self.node_map) != set(self.source.nodes):
            raise InvalidGraph("node_map not total on source nodes")
        if set(self.arc_map) != set(self.source.arc_by_id):
            raise InvalidGraph("arc_map not total on source arcs")
        tgt_nodes = set(self.target.nodes)
        for v, w in self.node_map.items():
            if w not in tgt_nodes:
                raise InvalidGraph(f"node {v!r} mapped outside target")
        for a in self.source.arcs:
            img = self.target.arc_by_id.get(self.arc_map[a.id])
            if img is None:
                raise InvalidGraph(f"arc {a.id!r} mapped outside target")
            if img.src != self.node_map[a.src] or img.tgt != self.node_map[a.tgt]:
                raise InvalidGraph(f"arc {a.id!r} breaks the commuting squares")

    def __call__(self, node: str) -> str:
        return self.node_map[node]

    def compose(self, other: "GraphMorphism") -> "GraphMorphism":
        """self after other: (self . other)(x) = self(other(x))."""
        if other.target is not self.source and other.target != self.source:
            raise InvalidGraph("composition mismatch")
        return GraphMorphism._trusted(
            other.source,
            self.target,
            {v: self.node_map[w] for v, w in other.node_map.items()},
            {a: self.arc_map[b] for a, b in other.arc_map.items()},
        )

    def is_node_bijective(self) -> bool:
        return (len(set(self.node_map.values())) == len(self.target.nodes)
                and len(self.node_map) == len(self.target.nodes))

    def is_arc_bijective(self) -> bool:
        return (len(set(self.arc_map.values())) == len(self.target.arcs)
                and len(self.arc_map) == len(self.target.arcs))

    def __repr__(self):
        return f"GraphMorphism({self.source!r} -> {self.target!r})"


def identity(X: Graph) -> GraphMorphism:
    return GraphMorphism._trusted(X, X, {v: v for v in X.nodes},
                                  {a.id: a.id for a in X.arcs})


# ---------------------------------------------------------------------------
# Constructors

EMPTY = Graph((), ())


def cycle_graph(n: int) -> Graph:
    """The directed n-cycle: nodes 0..n-1, arc i runs from i+1 (mod n) to i."""
    if n < 1:
        raise InvalidInput("cycle graph needs n >= 1")
    nodes = tuple(str(i) for i in range(n))
    arcs = tuple(Arc(str(i), str((i + 1) % n), str(i)) for i in range(n))
    return Graph(nodes, arcs)


def path_graph(n: int) -> Graph:
    """The directed path with n arcs: nodes 0..n, arc k runs k -> k+1."""
    if n < 0:
        raise InvalidInput("path graph needs n >= 0")
    nodes = tuple(str(i) for i in range(n + 1))
    arcs = tuple(Arc(str(k), str(k), str(k + 1)) for k in range(n))
    return Graph(nodes, arcs)


def dot_graph() -> Graph:
    """One node, no arcs."""
    return path_graph(0)


def arrow_graph() -> Graph:
    """Two nodes, one arc 0 -> 1."""
    return path_graph(1)


def figure_eight() -> Graph:
    """One node with two loops."""
    return Graph(("0",), (Arc("a", "0", "0"), Arc("b", "0", "0")))


def cross_graph() -> Graph:
    """Hub node 0 with spokes to and from nodes 1..4."""
    nodes = tuple(str(i) for i in range(5))
    arcs = []
    for i in range(1, 5):
        arcs.append(Arc(f"out{i}", "0", str(i)))
        arcs.append(Arc(f"in{i}", str(i), "0"))
    return Graph(nodes, tuple(arcs))


def undirected_cycle(n: int) -> Graph:
    """The doubled n-cycle: arcs i->i+1 and i->i-1 for each i mod n."""
    if n < 1:
        raise InvalidInput("undirected cycle needs n >= 1")
    nodes = tuple(str(i) for i in range(n))
    arcs = []
    for i in range(n):
        arcs.append(Arc(f"f{i}", str(i), str((i + 1) % n)))
        arcs.append(Arc(f"b{i}", str(i), str((i - 1) % n)))
    return Graph(nodes, tuple(arcs))


# ---------------------------------------------------------------------------
# Categorical constructions (elementwise, as in any presheaf category)

def _pair(x: str, y: str) -> str:
    """The JSON array [x, y], as json.dumps writes it: injective whatever
    characters the ids hold."""
    return f"[{_json_string(x)}, {_json_string(y)}]"


def pullback(f: GraphMorphism, g: GraphMorphism):
    """Pullback of a cospan f: X -> B, g: Z -> B sharing target B.

    Nodes and arcs are the pairs (x, z) with f(x) == g(z), in the order of
    X and then of Z.  Returns (graph, to_left, to_right) where the cone
    morphisms satisfy f . to_left == g . to_right.
    """
    if f.target is not g.target and f.target != g.target:
        raise InvalidGraph("pullback legs must share their target")
    X, Z = f.source, g.source
    node_fibre: dict[str, list[str]] = {}
    for z in Z.nodes:
        node_fibre.setdefault(g.node_map[z], []).append(z)
    arc_fibre: dict[str, list[Arc]] = {}
    for b in Z.arcs:
        arc_fibre.setdefault(g.arc_map[b.id], []).append(b)

    nodes = []
    left_nodes: dict[str, str] = {}
    right_nodes: dict[str, str] = {}
    for x in X.nodes:
        for z in node_fibre.get(f.node_map[x], ()):
            p = _pair(x, z)
            nodes.append(p)
            left_nodes[p] = x
            right_nodes[p] = z
    arcs = []
    left_arcs: dict[str, str] = {}
    right_arcs: dict[str, str] = {}
    for a in X.arcs:
        for b in arc_fibre.get(f.arc_map[a.id], ()):
            p = _pair(a.id, b.id)
            arcs.append(Arc(p, _pair(a.src, b.src), _pair(a.tgt, b.tgt)))
            left_arcs[p] = a.id
            right_arcs[p] = b.id
    P = Graph._trusted(tuple(nodes), tuple(arcs))
    return (P, GraphMorphism._trusted(P, X, left_nodes, left_arcs),
            GraphMorphism._trusted(P, Z, right_nodes, right_arcs))


_TERMINAL = cycle_graph(1)


def _to_terminal(X: Graph) -> GraphMorphism:
    """The unique morphism to C_1, the terminal graph (one node, one loop)."""
    return GraphMorphism._trusted(X, _TERMINAL, {v: "0" for v in X.nodes},
                                  {a.id: "0" for a in X.arcs})


def product(X: Graph, Y: Graph) -> Graph:
    """X x Y, the pullback of X -> 1 <- Y."""
    return pullback(_to_terminal(X), _to_terminal(Y))[0]


def coproduct_with_injections(X: Graph, Y: Graph):
    """Disjoint union with relabeled ids; returns (graph, inl, inr)."""
    nodes = tuple(f"0:{v}" for v in X.nodes) + tuple(f"1:{v}" for v in Y.nodes)
    arcs = tuple(Arc(f"0:{a.id}", f"0:{a.src}", f"0:{a.tgt}") for a in X.arcs) \
        + tuple(Arc(f"1:{a.id}", f"1:{a.src}", f"1:{a.tgt}") for a in Y.arcs)
    G = Graph._trusted(nodes, arcs)
    inl = GraphMorphism._trusted(X, G, {v: f"0:{v}" for v in X.nodes},
                                 {a.id: f"0:{a.id}" for a in X.arcs})
    inr = GraphMorphism._trusted(Y, G, {v: f"1:{v}" for v in Y.nodes},
                                 {a.id: f"1:{a.id}" for a in Y.arcs})
    return G, inl, inr


def coproduct(X: Graph, Y: Graph) -> Graph:
    return coproduct_with_injections(X, Y)[0]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller id as representative, for determinism
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx

    def classes(self) -> dict:
        return {x: self.find(x) for x in self.parent}


def pushout(f: GraphMorphism, g: GraphMorphism):
    """Pushout of a span f: R -> T1, g: R -> T2 sharing source R.

    Returns (graph, from_left, from_right) where the cocone morphisms
    satisfy from_left . f == from_right . g.
    """
    if f.source != g.source:
        raise InvalidGraph("pushout legs must share their source")
    T1, T2 = f.target, g.target
    G, inl, inr = coproduct_with_injections(T1, T2)

    uf_nodes = _UnionFind(G.nodes)
    uf_arcs = _UnionFind([a.id for a in G.arcs])
    for v in f.source.nodes:
        uf_nodes.union(inl.node_map[f.node_map[v]], inr.node_map[g.node_map[v]])
    for a in f.source.arcs:
        uf_arcs.union(inl.arc_map[f.arc_map[a.id]], inr.arc_map[g.arc_map[a.id]])

    node_rep = uf_nodes.classes()
    arc_rep = uf_arcs.classes()
    q_nodes = tuple(sorted(set(node_rep.values())))
    q_arcs = []
    seen = set()
    for a in G.arcs:
        rep = arc_rep[a.id]
        if rep in seen:
            continue
        seen.add(rep)
        q_arcs.append(Arc(rep, node_rep[a.src], node_rep[a.tgt]))
    Q = Graph._trusted(q_nodes, tuple(sorted(q_arcs, key=lambda a: a.id)))

    def cocone(inj: GraphMorphism) -> GraphMorphism:
        return GraphMorphism._trusted(
            inj.source, Q,
            {v: node_rep[inj.node_map[v]] for v in inj.source.nodes},
            {a: arc_rep[inj.arc_map[a]] for a in inj.arc_map})

    return Q, cocone(inl), cocone(inr)


def connected_components(X: Graph) -> list[tuple[str, ...]]:
    """Partition of nodes under the equivalence generated by src~tgt."""
    uf = _UnionFind(X.nodes)
    for a in X.arcs:
        uf.union(a.src, a.tgt)
    groups: dict[str, list[str]] = {}
    for v in X.nodes:
        groups.setdefault(uf.find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def component_count(X: Graph) -> int:
    return len(connected_components(X))


def _periodic(step: dict) -> set:
    """The keys of the partial map `step` that lie on a cycle of it.  One
    walk from each key not yet seen, stopping where it leaves the keys or
    meets an earlier walk, so each key is stepped from once; a walk that
    meets itself has closed a cycle."""
    walk_of: dict = {}
    cyclic = set()
    for start in step:
        x = start
        while x in step and x not in walk_of:
            walk_of[x] = start
            x = step[x]
        if walk_of.get(x) == start:
            while x not in cyclic:
                cyclic.add(x)
                x = step[x]
    return cyclic


def _cyclic_blocks(succ: list[list[int]]) -> list[list[list[int]]]:
    """The strongly connected components holding a cycle (two or more nodes,
    or a loop) of the digraph with successor lists `succ`, parallel arcs
    repeated: entry j of one lists the source, numbered within it, of every
    arc into its node j from inside it.  By Kosaraju's algorithm on explicit
    stacks, so long paths cannot exhaust the interpreter's: a search along
    the arcs lists the nodes as it finishes them, and then, in reverse
    order, a search against the arcs from each node not yet placed reaches
    the rest of its component."""
    size = len(succ)
    preds: list[list[int]] = [[] for _ in succ]
    for v, ws in enumerate(succ):
        for w in ws:
            preds[w].append(v)
    finished: list[int] = []
    seen = [False] * size
    for root in range(size):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(succ[w])))
                    break
            else:
                work.pop()
                finished.append(v)
    comp_of = [-1] * size
    pos = [0] * size   # a node's place in its component; the root's is 0
    blocks: list[list[list[int]]] = []
    for root in reversed(finished):
        if comp_of[root] >= 0:
            continue
        comp_of[root] = root
        comp, block = [root], []
        for v in comp:   # the search appends to the list it walks
            row = []
            for u in preds[v]:
                if comp_of[u] < 0:   # not yet placed, so in this component
                    comp_of[u] = root
                    pos[u] = len(comp)
                    comp.append(u)
                if comp_of[u] == root:
                    row.append(pos[u])
            block.append(row)
        if len(comp) > 1 or block[0]:
            blocks.append(block)
    return blocks


# ---------------------------------------------------------------------------
# Exhaustive searches

class Budget:
    """Counts search steps; raises when the allowance runs out.  Each search
    puts its name in `search` as it starts, for the error to report."""

    def __init__(self, limit: int = DEFAULT_BUDGET):
        self.limit = limit
        self.used = 0
        self.search = "a search"

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(f"search budget of {self.limit} exceeded in "
                                 f"{self.search}, which needs at least {self.used}")


def _morphisms_over(X: Graph, Y: Graph, over_x, over_y,
                    node_map: dict[str, str], arc_map: dict[str, str],
                    budget: Budget):
    """Every morphism h: X -> Y that extends node_map and arc_map and
    commutes with maps into a base B, in a deterministic order.

    over_x and over_y are (node labels, arc labels): dicts giving each node
    and arc of X and of Y its image in B, so h may send a node or an arc
    only into the fibre of its label.  The partial maps must already be a
    morphism where they are defined, keeping labels and pinning every
    endpoint of an assigned arc.

    The other arcs are assigned in X's order (arcs pin down node images via
    their endpoints, which is what matters for multigraphs), each drawn from
    the arcs of its fibre between its pinned endpoints' images, one budget
    step per candidate tried.  Nodes touched by no arc and not pinned then
    take every combination of images in their fibres, one step per
    combination.  An explicit stack, so long sources cannot exhaust the
    recursion limit.
    """
    x_node_label, x_arc_label = over_x
    y_node_label, y_arc_label = over_y
    node_map, arc_map = dict(node_map), dict(arc_map)
    todo = [a for a in X.arcs if a.id not in arc_map]
    # which endpoints are pinned when an arc's turn comes does not depend on
    # the images chosen before it: fresh[i] holds the nodes arc i pins, and
    # kinds the (src pinned, tgt pinned) cases that candidates() looks up
    pinned = set(node_map)
    fresh: list[list[str]] = []
    kinds = set()
    for a in todo:
        kinds.add((a.src in pinned, a.tgt in pinned))
        fresh.append([v for v in (a.src, a.tgt) if v not in pinned])
        pinned.update((a.src, a.tgt))
    # index[(label, s, t)]: Y's arcs with that label from s to t, in Y's
    # order; s or t is None for an endpoint not pinned, as node_map.get gives
    index: dict[tuple, list[Arc]] = {}
    for b in Y.arcs:
        label = y_arc_label[b.id]
        for s, t in kinds:
            index.setdefault((label, b.src if s else None, b.tgt if t else None),
                             []).append(b)
    free = [v for v in X.nodes if v not in pinned]
    fibre: dict[str, list[str]] = {}
    if free:
        for w in Y.nodes:
            fibre.setdefault(y_node_label[w], []).append(w)
    free_fibres = [fibre.get(x_node_label[v], ()) for v in free]

    def candidates(a: Arc):
        return iter(index.get((x_arc_label[a.id], node_map.get(a.src),
                               node_map.get(a.tgt)), ()))

    def extensions():
        if not free:
            yield GraphMorphism._trusted(X, Y, dict(node_map), dict(arc_map))
            return
        for images in itertools.product(*free_fibres):
            budget.spend()
            nm = dict(node_map)
            nm.update(zip(free, images))
            yield GraphMorphism._trusted(X, Y, nm, dict(arc_map))

    if not todo:
        yield from extensions()
        return
    # level i of the stack holds the candidates of todo[i]
    stack = [candidates(todo[0])]
    while stack:
        i = len(stack) - 1
        a = todo[i]
        for b in stack[i]:
            budget.spend()
            if a.src == a.tgt and b.src != b.tgt:
                continue   # the index key made every other endpoint agree
            node_map[a.src] = b.src
            node_map[a.tgt] = b.tgt
            arc_map[a.id] = b.id
            if i + 1 < len(todo):
                stack.append(candidates(todo[i + 1]))
                break
            yield from extensions()
        else:
            # unpin, so that candidates() sees only the levels below
            for v in fresh[i]:
                node_map.pop(v, None)
            stack.pop()


def enumerate_morphisms(X: Graph, Y: Graph,
                        budget: Budget | None = None) -> list[GraphMorphism]:
    """All graph morphisms X -> Y, in a deterministic order: the morphisms
    over the terminal graph, found by the search that also serves
    model.find_lift."""
    budget = budget or Budget()
    budget.search = "enumerate_morphisms"
    node_label = dict.fromkeys(X.nodes + Y.nodes, "0")
    arc_label = dict.fromkeys([a.id for a in X.arcs + Y.arcs], "0")
    return list(_morphisms_over(X, Y, (node_label, arc_label),
                                (node_label, arc_label), {}, {}, budget))


def _isomorphism(X: Graph, Y: Graph, budget: Budget) -> dict[str, str] | None:
    """A node map of an isomorphism X -> Y, or None when there is none; the
    search behind is_isomorphic, which builds no arc map.

    X's nodes are visited breadth first within each connected component, so
    every node but the first of its component has an earlier neighbour, its
    anchor, and may map only to a neighbour of the anchor's image (the
    matching order of VF2, Cordella et al. 2004).  A candidate must agree
    with the mapped nodes on arc counts; checking only v's mapped neighbours
    suffices when w has as many mapped neighbours.  Graphs whose degree
    profiles or connected components' (nodes, arcs) sizes differ are
    rejected before the search; each graph's arcs are read once.  One
    budget step per candidate tried; an explicit stack, so deep graphs
    cannot exhaust the recursion limit.
    """
    budget.search = "is_isomorphic"
    if len(X.nodes) != len(Y.nodes) or len(X.arcs) != len(Y.arcs):
        return None

    def one_pass(G: Graph):
        # arc counts per (src, tgt), keyed in first-arc order, and degrees
        cnt: dict[tuple[str, str], int] = {}
        for a in G.arcs:
            pair = a.src, a.tgt
            cnt[pair] = cnt.get(pair, 0) + 1
        ins = dict.fromkeys(G.nodes, 0)
        outs = ins.copy()
        for (s, t), k in cnt.items():
            outs[s] += k
            ins[t] += k
        return cnt, ins, outs

    (cx, ix, ox), (cy, iy, oy) = one_pass(X), one_pass(Y)
    if (sorted(zip(ix.values(), ox.values()))
            != sorted(zip(iy.values(), oy.values()))):
        return None

    def breadth_first(G: Graph, cnt, outs):
        # neighbours in the underlying undirected graph, loops left out, in
        # arc order (dict keys, so the search does not depend on string
        # hashing); G's nodes breadth first per connected component, their
        # anchors, and the sorted (nodes, arcs) sizes of the components
        nbrs: dict[str, dict[str, None]] = {v: {} for v in G.nodes}
        for s, t in cnt:
            if s != t:
                nbrs[s][t] = nbrs[t][s] = None
        order: list[str] = []
        anchor: list[str | None] = []
        sizes = []
        placed: set[str] = set()
        head = 0
        for root in G.nodes:
            if root in placed:
                continue
            start = len(order)
            placed.add(root)
            order.append(root)
            anchor.append(None)
            while head < len(order):   # order doubles as the BFS queue
                u = order[head]
                head += 1
                for t in nbrs[u]:
                    if t not in placed:
                        placed.add(t)
                        order.append(t)
                        anchor.append(u)
            sizes.append((len(order) - start, sum(outs[v] for v in order[start:])))
        return nbrs, order, anchor, sorted(sizes)

    nx, order, anchor, sizes = breadth_first(X, cx, ox)
    ny, _, _, y_sizes = breadth_first(Y, cy, oy)
    if y_sizes != sizes:
        return None

    # indegree, outdegree and loops: what a node's image must share
    lx = {v: (ix[v], ox[v], cx.get((v, v), 0)) for v in X.nodes}
    ly = {v: (iy[v], oy[v], cy.get((v, v), 0)) for v in Y.nodes}

    # back[i]: v's neighbours mapped before it, with the arc counts v -> u
    # and u -> v that their images must match
    position = {v: i for i, v in enumerate(order)}
    back = [[(u, cx.get((v, u), 0), cx.get((u, v), 0))
             for u in nx[v] if position[u] < i]
            for i, v in enumerate(order)]

    node_map: dict[str, str] = {}
    used: set[str] = set()

    def candidates(i: int):
        return iter(Y.nodes if anchor[i] is None else ny[node_map[anchor[i]]])

    size = len(order)
    stack = [candidates(0)] if size else []
    while stack:
        i = len(stack) - 1
        v = order[i]
        lv, bv = lx[v], back[i]
        for w in stack[i]:
            budget.spend()
            if w in used or ly[w] != lv:
                continue
            if len(used.intersection(ny[w])) != len(bv):
                continue
            if all(cy.get((w, node_map[u]), 0) == out and
                   cy.get((node_map[u], w), 0) == inc for u, out, inc in bv):
                break
        else:
            stack.pop()
            if stack:
                used.remove(node_map.pop(order[i - 1]))
            continue
        node_map[v] = w
        used.add(w)
        if len(node_map) == size:
            break
        stack.append(candidates(i + 1))

    return node_map if len(node_map) == size else None


def is_isomorphic(X: Graph, Y: Graph,
                  budget: Budget | None = None) -> tuple[bool, GraphMorphism | None]:
    """Decide isomorphism by the connectivity-anchored backtracking search
    of _isomorphism; returns a witness when true, whose arc map pairs up
    the parallel arcs of each ordered node pair in arc id order."""
    node_map = _isomorphism(X, Y, budget or Budget())
    if node_map is None:
        return False, None
    node_map = {v: node_map[v] for v in X.nodes}   # in X's node order
    by_pair_y: dict[tuple[str, str], list[str]] = {}
    for a in sorted(Y.arcs, key=lambda a: a.id):
        by_pair_y.setdefault((a.src, a.tgt), []).append(a.id)
    arc_map = {}
    counters: dict[tuple[str, str], int] = {}
    for a in sorted(X.arcs, key=lambda a: a.id):
        key = (node_map[a.src], node_map[a.tgt])
        k = counters.get(key, 0)
        counters[key] = k + 1
        arc_map[a.id] = by_pair_y[key][k]
    return True, GraphMorphism._trusted(X, Y, node_map, arc_map)


# ---------------------------------------------------------------------------
# Canonical JSON format

def graph_to_json(X: Graph) -> dict:
    return {
        "nodes": sorted(X.nodes),
        "arcs": [{"id": a.id, "src": a.src, "tgt": a.tgt}
                 for a in sorted(X.arcs, key=lambda a: a.id)],
    }


def graph_from_json(data) -> Graph:
    if not isinstance(data, dict) or set(data) != {"nodes", "arcs"}:
        raise InvalidInput("graph JSON must have exactly 'nodes' and 'arcs'")
    nodes = data["nodes"]
    if not isinstance(nodes, list) or not all(isinstance(v, str) for v in nodes):
        raise InvalidInput("'nodes' must be a list of strings")
    arcs = []
    if not isinstance(data["arcs"], list):
        raise InvalidInput("'arcs' must be a list")
    for i, rec in enumerate(data["arcs"]):
        if not isinstance(rec, dict) or set(rec) != {"id", "src", "tgt"}:
            raise InvalidInput(f"arc #{i} must have exactly 'id', 'src', 'tgt'")
        if not all(isinstance(rec[k], str) for k in ("id", "src", "tgt")):
            raise InvalidInput(f"arc #{i} fields must be strings")
        arcs.append(Arc(rec["id"], rec["src"], rec["tgt"]))
    try:
        return Graph(tuple(nodes), tuple(arcs))
    except InvalidGraph as e:
        raise InvalidInput(str(e)) from e


def morphism_to_json(f: GraphMorphism) -> dict:
    return {
        "source": graph_to_json(f.source),
        "target": graph_to_json(f.target),
        "node_map": dict(sorted(f.node_map.items())),
        "arc_map": dict(sorted(f.arc_map.items())),
    }


def morphism_from_json(data) -> GraphMorphism:
    required = {"source", "target", "node_map", "arc_map"}
    if not isinstance(data, dict) or set(data) != required:
        raise InvalidInput("morphism JSON must have exactly "
                           "'source', 'target', 'node_map', 'arc_map'")
    src = graph_from_json(data["source"])
    tgt = graph_from_json(data["target"])
    for key in ("node_map", "arc_map"):
        m = data[key]
        if not isinstance(m, dict) or \
           not all(isinstance(k, str) and isinstance(v, str) for k, v in m.items()):
            raise InvalidInput(f"'{key}' must map strings to strings")
    try:
        return GraphMorphism(src, tgt, dict(data["node_map"]), dict(data["arc_map"]))
    except InvalidGraph as e:
        raise InvalidInput(str(e)) from e
