"""Finite N-sets and Z-sets, Cayley graphs, and their morphism classifiers.

An N-set is a finite set with an endofunction sigma; a Z-set additionally
has sigma bijective.  The Cayley construction makes each element both a
node and an arc (source sigma(x), target x), and is an equivalence onto
the graphs where every node has exactly one arc entering.
"""

from __future__ import annotations

from .errors import InvalidGraph, InvalidInput, NotAnNGraph
from .graphs import Arc, Graph, GraphMorphism, _Value, _periodic, _set


class FinNSet(_Value):
    _hashed = ("elements",)

    def __init__(self, elements: tuple[str, ...], sigma: dict[str, str]):
        _set(self, "elements", elements)
        _set(self, "sigma", sigma)
        self.__post_init__()

    def __post_init__(self):
        elems = set(self.elements)
        if len(elems) != len(self.elements):
            raise InvalidInput("duplicate element ids")
        if set(self.sigma) != elems or any(v not in elems for v in self.sigma.values()):
            raise InvalidInput("sigma must be a total endofunction")

    def apply(self, x: str, n: int = 1) -> str:
        for _ in range(n):
            x = self.sigma[x]
        return x

    def is_bijective(self) -> bool:
        return len(set(self.sigma.values())) == len(self.elements)

    def __repr__(self):
        return f"{type(self).__name__}({len(self.elements)} elements)"


class FinZSet(FinNSet):
    def __post_init__(self):
        super().__post_init__()
        if not self.is_bijective():
            raise InvalidInput("sigma must be a bijection for a Z-set")


class NSetMap(_Value):
    _hashed = ("source", "target")

    def __init__(self, source: FinNSet, target: FinNSet, map: dict[str, str]):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "map", map)
        self.__post_init__()

    def __post_init__(self):
        if set(self.map) != set(self.source.elements):
            raise InvalidInput("map not total on source")
        tgt = set(self.target.elements)
        for x, y in self.map.items():
            if y not in tgt:
                raise InvalidInput(f"element {x!r} mapped outside target")
            if self.map[self.source.sigma[x]] != self.target.sigma[y]:
                raise InvalidInput(f"map does not commute with sigma at {x!r}")

    def __call__(self, x: str) -> str:
        return self.map[x]

    def is_bijective(self) -> bool:
        return (len(set(self.map.values())) == len(self.target.elements)
                and len(self.map) == len(self.target.elements))

    def __repr__(self):
        return f"NSetMap({self.source!r} -> {self.target!r})"


def cyclic_zset(n: int) -> FinZSet:
    """The shift on {0..n-1}, i.e. a single n-orbit."""
    if n < 1:
        raise InvalidInput("cyclic Z-set needs n >= 1")
    elems = tuple(str(i) for i in range(n))
    return FinZSet(elems, {str(i): str((i + 1) % n) for i in range(n)})


def cayley_graph(S: FinNSet) -> Graph:
    """Nodes and arcs are both the elements; arc x runs sigma(x) -> x."""
    return Graph(tuple(S.elements),
                 tuple(Arc(x, S.sigma[x], x) for x in S.elements))


def cayley_morphism(f: NSetMap):
    """The graph morphism induced by an N-set map (same function on nodes and arcs)."""
    return GraphMorphism(cayley_graph(f.source), cayley_graph(f.target),
                         dict(f.map), dict(f.map))


def graph_to_nset(X: Graph) -> FinNSet:
    """Inverse of the Cayley construction; requires every indegree to be 1."""
    sigma = {}
    for v in X.nodes:
        entering = X.in_arcs[v]
        if len(entering) != 1:
            raise NotAnNGraph(f"node {v!r} has indegree {len(entering)}, not 1")
        sigma[v] = entering[0].src
    S = FinNSet(tuple(X.nodes), sigma)
    if S.is_bijective():
        return FinZSet(tuple(X.nodes), sigma)
    return S


def periodic_part(S: FinNSet) -> FinZSet:
    """The sub-Z-set of elements with sigma^n(x) = x for some n > 0: those
    on a cycle of sigma, in the order of S.elements."""
    cyclic = _periodic(S.sigma)
    periodic = tuple(x for x in S.elements if x in cyclic)
    return FinZSet(periodic, {x: S.sigma[x] for x in periodic})


def is_nset_acyclic(f: NSetMap) -> bool:
    """Bijective on n-periodic points for every n > 0.

    Those points make up the periodic parts, which f maps into each other,
    so this is exactly: f restricted to the periodic parts is a bijection.
    """
    P = _periodic(f.source.sigma)
    image = {f.map[x] for x in P}
    return len(image) == len(P) and image == _periodic(f.target.sigma)


def is_nset_surjecting(f: NSetMap) -> bool:
    """f restricts to a surjection sigma^{-1}(x) -> sigma^{-1}(f(x)) for all x."""
    src_fibers: dict[str, list[str]] = {x: [] for x in f.source.elements}
    for x in f.source.elements:
        src_fibers[f.source.sigma[x]].append(x)
    tgt_fibers: dict[str, list[str]] = {y: [] for y in f.target.elements}
    for y in f.target.elements:
        tgt_fibers[f.target.sigma[y]].append(y)
    for x in f.source.elements:
        hit = {f(u) for u in src_fibers[x]}
        if not set(tgt_fibers[f(x)]) <= hit:
            return False
    return True


def is_nset_whiskering(f: NSetMap) -> bool:
    """f injective and every element outside the image trajects into it.

    The image is closed under sigma, so that is: sigma closes no cycle
    outside the image.
    """
    image = set(f.map.values())
    return len(image) == len(f.map) and not _periodic(
        {y: z for y, z in f.target.sigma.items() if y not in image})


def classify_nset_map(f: NSetMap) -> dict[str, bool]:
    return {
        "acyclic_bounded": is_nset_acyclic(f),
        "surjecting": is_nset_surjecting(f),
        "whiskering": is_nset_whiskering(f),
    }


def zset_is_acyclic(f: NSetMap) -> bool:
    """For maps of finite Z-sets: acyclic iff bijective on periodic parts.

    Every element of a finite Z-set is periodic, so this is plain bijectivity.
    """
    if not isinstance(f.source, FinZSet) or not isinstance(f.target, FinZSet):
        raise InvalidInput("both sides must be finite Z-sets")
    return f.is_bijective()


def nset_fibrancy(S: FinNSet) -> dict[str, bool]:
    """Fibrant iff sigma surjective; every finite N-set is cofibrant."""
    return {
        "fibrant": set(S.sigma.values()) == set(S.elements),
        "cofibrant": True,
    }


# JSON format: {"elements": [...], "sigma": {...}}

def nset_to_json(S: FinNSet) -> dict:
    return {"elements": sorted(S.elements),
            "sigma": dict(sorted(S.sigma.items()))}


def nset_from_json(data, require_zset: bool = False) -> FinNSet:
    if not isinstance(data, dict) or set(data) != {"elements", "sigma"}:
        raise InvalidInput("N-set JSON must have exactly 'elements' and 'sigma'")
    elems = data["elements"]
    sigma = data["sigma"]
    if not isinstance(elems, list) or not all(isinstance(x, str) for x in elems):
        raise InvalidInput("'elements' must be a list of strings")
    if not isinstance(sigma, dict) or \
       not all(isinstance(k, str) and isinstance(v, str) for k, v in sigma.items()):
        raise InvalidInput("'sigma' must map strings to strings")
    cls = FinZSet if require_zset else FinNSet
    return cls(tuple(elems), dict(sigma))
