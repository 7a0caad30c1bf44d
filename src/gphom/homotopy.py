"""Deciding homotopy equivalence of finite graphs, class signatures, and
small-corpus exploration for almost-isospectral pairs.

Two finite graphs are homotopy equivalent exactly when they share the
reversed characteristic polynomial det(I - uA).  The decision is double
checked against closed-walk counts up to the larger node count (power sums
up to the degree pin down the polynomial), and the two routes must agree.
"""

from __future__ import annotations

import itertools

from . import spectral
from .errors import InternalInconsistency, InvalidInput
from .graphs import (Arc, Budget, Graph, _isomorphism, _Value, _set,
                     cross_graph, cycle_graph, figure_eight, path_graph,
                     undirected_cycle)
from .spectral import IntPolynomial, graph_reversed_char_poly
from .witt import from_graph


class HomotopySignature(_Value):
    def __init__(self, reversed_char_poly: IntPolynomial):
        _set(self, "reversed_char_poly", reversed_char_poly)

    def format(self) -> str:
        return self.reversed_char_poly.format("u")


def signature(X: Graph) -> HomotopySignature:
    return HomotopySignature(graph_reversed_char_poly(X))


def homotopy_equivalent(X: Graph, Y: Graph) -> bool:
    """Same reversed characteristic polynomial, cross-checked on walk counts,
    which are computed on every call; the polynomials are kept on the graphs.
    Both read the graphs' one component pass, which only the tests check."""
    by_poly = signature(X) == signature(Y)
    bound = max(len(X.nodes), len(Y.nodes), 1)
    # looked up on the module, so a test can perturb this route alone
    by_counts = (spectral.closed_walk_counts(X, bound)
                 == spectral.closed_walk_counts(Y, bound))
    if by_poly != by_counts:
        raise InternalInconsistency(
            "polynomial and walk-count comparisons disagree")
    return by_poly


def hom_count_bounded(X: Graph, Y: Graph, N: int) -> int:
    """Number of periodic-Z-set maps from the <=N-period part of X's
    periodic paths into Y's: each n-orbit of the source can land on any
    n-periodic point of the target, giving c_n(Y)^{s_n(X)} choices."""
    if N < 1:
        raise InvalidInput("bound must be >= 1")
    SX, SY = from_graph(X), from_graph(Y)
    total = 1
    for n in range(1, N + 1):
        s = SX.witt(n)
        if s:
            total *= SY.ghost(n) ** s
    return total


def derived_components(X: Graph, N: int) -> int:
    """Components of the truncated cycle resolution: sum of s_n for n <= N."""
    if N < 1:
        raise InvalidInput("bound must be >= 1")
    S = from_graph(X)
    return sum(S.witt(n) for n in range(1, N + 1))


# ---------------------------------------------------------------------------
# Exploration

def builtin_family(node_budget: int, arc_budget: int) -> list[tuple[str, Graph]]:
    """Named small graphs within the budgets."""
    family: list[tuple[str, Graph]] = []
    for n in range(1, node_budget + 1):
        family.append((f"cycle:{n}", cycle_graph(n)))
        if 2 * n <= arc_budget:
            name = "uc4" if n == 4 else f"ucycle:{n}"
            family.append((name, undirected_cycle(n)))
    for n in range(0, node_budget):
        family.append((f"path:{n}", path_graph(n)))
    if node_budget >= 1 and arc_budget >= 2:
        family.append(("figure-eight", figure_eight()))
    if node_budget >= 5 and arc_budget >= 8:
        family.append(("cross", cross_graph()))
    return [(name, G) for name, G in family
            if len(G.nodes) <= node_budget and len(G.arcs) <= arc_budget]


def enumerate_small_graphs(node_budget: int, arc_budget: int):
    """All multigraphs with <= node_budget nodes and <= arc_budget arcs.

    Exhaustive and deterministic; intended for tiny budgets only (the count
    grows as multisets of ordered node pairs).
    """
    for k in range(node_budget + 1):
        nodes = tuple(str(i) for i in range(k))
        pairs = [(u, v) for u in nodes for v in nodes]
        for m in range(arc_budget + 1):
            if m > 0 and not pairs:
                continue
            for combo in itertools.combinations_with_replacement(pairs, m):
                arcs = tuple(Arc(f"a{i}", u, v) for i, (u, v) in enumerate(combo))
                yield Graph(nodes, arcs)


class SignatureBucket(_Value):
    def __init__(self, signature: HomotopySignature,
                 members: tuple[tuple[str, Graph], ...],
                 nonisomorphic_pairs: tuple[tuple[str, str], ...]):
        _set(self, "signature", signature)
        _set(self, "members", members)
        _set(self, "nonisomorphic_pairs", nonisomorphic_pairs)


def explore(node_budget: int, arc_budget: int,
            graphs: list[tuple[str, Graph]] | None = None,
            budget: Budget | None = None) -> list[SignatureBucket]:
    """Bucket a corpus of graphs by homotopy signature and flag buckets
    holding non-isomorphic members.

    The buckets are keyed by the coefficients of det(I - uA), in sorted
    order.  Within a bucket each member is tested for isomorphism against
    one representative of every class found so far, by the search behind
    graphs.is_isomorphic without its witness, so a bucket of m members in c
    classes costs at most m * c searches, not m^2 / 2.  The flagged pairs
    are those in different classes, in itertools.combinations order; a
    bucket of one class has none.  With graphs=None the built-in family
    within the budgets is used.
    """
    if node_budget < 0 or arc_budget < 0:
        raise InvalidInput("exploration budgets must be >= 0")
    budget = budget or Budget()
    corpus = graphs if graphs is not None else builtin_family(node_budget, arc_budget)
    for name, G in corpus:
        if len(G.nodes) > node_budget or len(G.arcs) > arc_budget:
            raise InvalidInput(f"graph {name!r} exceeds the exploration budget")

    buckets: dict[tuple, list[tuple[str, Graph]]] = {}
    for name, G in corpus:
        key = graph_reversed_char_poly(G).coefficients
        buckets.setdefault(key, []).append((name, G))

    out = []
    for key in sorted(buckets):
        members = buckets[key]
        # isomorphism is an equivalence: test each member against one
        # representative per class found so far, sizes permitting
        reps: list[Graph] = []
        cls: list[int] = []
        for _, G in members:
            for c, R in enumerate(reps):
                if (len(R.nodes) == len(G.nodes) and len(R.arcs) == len(G.arcs)
                        and _isomorphism(R, G, budget) is not None):
                    cls.append(c)
                    break
            else:
                cls.append(len(reps))
                reps.append(G)
        pairs = [(na, nb) for ((na, _), ca), ((nb, _), cb)
                 in itertools.combinations(zip(members, cls), 2)
                 if ca != cb] if len(reps) > 1 else []
        out.append(SignatureBucket(HomotopySignature(IntPolynomial(key)),
                                   tuple(members), tuple(pairs)))
    return out
